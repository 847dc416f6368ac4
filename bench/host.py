"""How fast the host runs while an arm is measured.

The benchmark's reference host, a shared 2-vCPU cloud VM, changes speed
by tens of percent from one second to the next, more than any useful
regression bound; the slowdown shows in CPU time as much as in wall
time, so it is contention for the core, not time taken away.  So the
bench times a probe — a fixed kernel of its own that mixes interpreter
work with small numpy FFTs, like the system's hot paths, and never
calls into the system — right before and right after each measured arm
and, from ``SIGALRM`` on the main thread, every ``EVERY`` seconds inside
it.  Dividing the arm's time by the probes' mean slowdown against
``REFERENCE_SECONDS`` gives the time the work would have taken on the
reference host at rest.

A probe counts only if nothing of the system ran while it did.  Around
the arm that holds by construction: the arm has not called into the
system yet, or the call has returned, and ``DetectionService.run`` and
the genetic learner stop and join their worker processes before they
return.  Inside the arm a probe is taken only if no other thread of the
bench's process and no child process is running, and kept only if none
of them used the CPU while it ran; so however the system spreads its
work over threads and processes, it can never compete with a probe that
counts and so rescale its own score.  The inside probes' time is left
out of the arm's time (:meth:`clock`).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from bisect import bisect_left
from typing import List, Optional

import numpy as np

#: What one probe takes on the unloaded reference host.
REFERENCE_SECONDS = 0.0016
#: Seconds between probes inside an arm.
EVERY = 0.05
#: Probes taken right before and right after every arm.
BRACKET = 5


def _other_tasks() -> List[str]:
    """``/proc`` directories of every thread of this process but the
    calling one, and of every thread of its child processes."""
    me = str(threading.get_native_id())
    tasks = os.listdir("/proc/self/task")
    paths = [f"/proc/self/task/{t}" for t in tasks if t != me]
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                children = handle.read().split()
            for child in children:
                paths.extend(
                    f"/proc/{child}/task/{t}"
                    for t in os.listdir(f"/proc/{child}/task")
                )
        except OSError:  # the thread or child ended meanwhile
            continue
    return paths


def others_cpu_ns() -> Optional[int]:
    """CPU nanoseconds the other tasks (:func:`_other_tasks`) have used so
    far, or ``None`` if one of them is on a CPU or waiting for one."""
    total = 0
    for path in _other_tasks():
        try:
            with open(f"{path}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
            with open(f"{path}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (OSError, IndexError):  # the task ended meanwhile
            continue
        if state == "R":
            return None
    return total


class HostMeter:
    """Context manager that probes the host around one measured arm and,
    with ``inside``, during it.

    The two vCPUs change speed independently.  A single-threaded arm
    runs where its thread runs, and so do the probes by default.  An arm
    whose work is spread over every CPU is probed with ``all_cpus``:
    each probe moves the calling thread to the next CPU in turn, then
    back where it was allowed to run.
    """

    def __init__(self, inside: bool = False, all_cpus: bool = False) -> None:
        self._inside = inside
        self._cpus = sorted(os.sched_getaffinity(0)) if all_cpus else []
        self._turn = 0
        self._block = np.random.default_rng(0).standard_normal((40, 64))
        self._probing = 0.0
        self._previous = None
        #: Durations of the probes that count.
        self.probes: List[float] = []
        #: The inside probes that count, and when they ran (on :meth:`clock`).
        self.inside: List[float] = []
        self.at: List[float] = []
        #: Inside probes skipped or dropped because the system ran.
        self.dropped = 0

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in inside probes."""
        return time.perf_counter() - self._probing

    def _probe(self) -> float:
        if not self._cpus:
            return self._kernel()
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self._cpus[self._turn % len(self._cpus)]})
        self._turn += 1
        try:
            return self._kernel()
        finally:
            os.sched_setaffinity(0, allowed)

    def _kernel(self) -> float:
        block = self._block
        started = time.perf_counter()
        table = {}
        for i in range(2000):
            table[i & 127] = table.get(i & 127, 0) + i
        for k in range(75):
            spectrum = np.fft.rfft(block, axis=-1)
            float(np.abs(spectrum).max()) + float(block[k % 40].mean())
        return time.perf_counter() - started

    def _probe_inside(self, *_signal) -> None:
        started = time.perf_counter()
        before = others_cpu_ns()
        if before is None:
            # A probe beside running work would slow it down and would
            # not count: skip it.
            self.dropped += 1
        else:
            seconds = self._probe()
            if others_cpu_ns() == before:
                self.probes.append(seconds)
                self.inside.append(seconds)
                self.at.append(started - self._probing)
            else:
                self.dropped += 1
        self._probing += time.perf_counter() - started

    def __enter__(self) -> "HostMeter":
        self.probes.extend(self._probe() for _ in range(BRACKET))
        if self._inside:
            self._previous = signal.signal(signal.SIGALRM, self._probe_inside)
            signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.probes.extend(self._probe() for _ in range(BRACKET))

    def factor(self) -> float:
        """How much slower than the reference host the probes ran, on average."""
        return sum(self.probes) / len(self.probes) / REFERENCE_SECONDS

    def local_factor(self, start: float, end: float) -> float:
        """The slowdown over ``[start, end)`` on :meth:`clock`.

        The mean of the inside probes in the interval, else the inside
        probe nearest to its start, else the arm's mean.
        """
        if not self.at:
            return self.factor()
        lo, hi = bisect_left(self.at, start), bisect_left(self.at, end)
        if hi > lo:
            return sum(self.inside[lo:hi]) / (hi - lo) / REFERENCE_SECONDS
        nearest = min(
            (i for i in (lo - 1, lo) if 0 <= i < len(self.at)),
            key=lambda i: abs(self.at[i] - start),
        )
        return self.inside[nearest] / REFERENCE_SECONDS
