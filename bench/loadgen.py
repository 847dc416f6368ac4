"""Open-loop load generator for the ``live`` workload (a child process).

Reads a pickled plan on stdin — the endpoint, the fleet, every unit's
tick samples and the schedule rates — and then, from one thread over one
connection at a time, posts each tick (one tick per ``POST /v1/ticks``,
base64 samples) and issues each verdict query at its due time, however
late the previous request finished.  Unit ``i``'s tick ``k`` is due at
``t0 + (k + i / n_units) / tick_rate``; query ``j`` at ``t0 + j /
query_rate``, against unit ``j mod n_units``.  A 429 answer is retried
after its ``Retry-After`` hint and counted as rejected.

When the schedule ends the stream is closed and the per-request record
(due, start, end, status) is pickled to stdout, times on the host's
monotonic clock so the parent can line them up with its own.

Run only by the benchmark: ``python3 bench/loadgen.py < plan``.
"""

from __future__ import annotations

import pickle
import sys
import time

import numpy as np

from common import use_checkout_src

TICK, QUERY = 0, 1


def schedule(n_units: int, n_ticks: int, tick_rate: float, queries: int,
             query_rate: float):
    """Every request as ``(kind, unit index, seq, due offset)``, by due time."""
    unit = np.repeat(np.arange(n_units), n_ticks)
    seq = np.tile(np.arange(n_ticks), n_units)
    due = (seq + unit / n_units) / tick_rate
    query = np.arange(queries)
    kind = np.concatenate([np.full(unit.size, TICK), np.full(queries, QUERY)])
    units = np.concatenate([unit, query % n_units])
    seqs = np.concatenate([seq, query])
    dues = np.concatenate([due, query / query_rate])
    order = np.lexsort((kind, dues))
    return kind[order], units[order], seqs[order], dues[order]


def run(plan: dict) -> dict:
    from repro.service.api import ApiClient, ApiError
    from repro.service.sources import TickEvent

    names = plan["names"]
    values = plan["values"]  # (n_units, n_ticks, n_databases, n_kpis)
    n_units, n_ticks = values.shape[:2]
    client = ApiClient(url=plan["url"], timeout_seconds=60.0)
    client.register(
        {name: values.shape[2] for name in names},
        plan["kpi_names"],
        plan["interval_seconds"],
    )
    kind, unit, seq, due = schedule(
        n_units, n_ticks, plan["tick_rate"], plan["queries"],
        plan["query_rate"],
    )
    start = np.zeros(kind.size)
    end = np.zeros(kind.size)
    status = np.zeros(kind.size, dtype=np.int64)
    rejected = 0
    clock = time.perf_counter
    t0 = clock() + plan["lead_seconds"]
    for index in range(kind.size):
        wait = t0 + due[index] - clock()
        if wait > 0:
            time.sleep(wait)
        start[index] = clock()
        name = names[unit[index]]
        try:
            if kind[index] == TICK:
                event = TickEvent(name, int(seq[index]), values[unit[index], seq[index]])
                while True:
                    answer = client.post_ticks(name, [event], encoding="b64")
                    if answer["status"] != 429:
                        break
                    rejected += 1
                    time.sleep(float(answer.get("retry_after", 0.05)))
                status[index] = answer["status"]
            else:
                client.get_verdicts(name, limit=10)
                status[index] = 200
        except ApiError as exc:
            status[index] = exc.status
        end[index] = clock()
    client.close_stream()
    return {
        "t0": t0, "kind": kind, "unit": unit, "seq": seq, "due": t0 + due,
        "start": start, "end": end, "status": status, "rejected": rejected,
    }


def main() -> int:
    plan = pickle.load(sys.stdin.buffer)
    use_checkout_src()
    pickle.dump(run(plan), sys.stdout.buffer)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
