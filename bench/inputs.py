"""Seeded workload inputs, built from the system's own dataset generators.

Everything a workload feeds the system is a pure function of ``--seed``
and the workload's scale: equal seeds give byte-identical arrays, which
:func:`digest` pins as ``input_sha256`` in every result so a change to
the generators is caught instead of measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import arrays_sha256

FAMILIES = ("tencent", "sysbench", "tpcc")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def base_units(seed: int, n_ticks: int, per_shape: int = 2) -> list:
    """Labelled units: every family x periodic/irregular x ``per_shape``.

    Built end to end by :func:`repro.datasets.build_unit_series` (5
    databases, 14 KPIs, 4% labelled anomalies).
    """
    from repro.datasets import build_unit_series

    seeds = _rng(seed, 1).integers(0, 2**31 - 1, size=6 * per_shape)
    units = []
    for index, unit_seed in enumerate(seeds):
        family = FAMILIES[index % 3]
        periodic = (index // 3) % 2 == 0
        units.append(
            build_unit_series(
                profile=family,
                n_databases=5,
                n_ticks=n_ticks,
                seed=int(unit_seed),
                periodic=periodic,
                abnormal_ratio=0.04,
                name=f"base-{index:02d}",
            )
        )
    return units


def _rolled_logbook(book, shift: int, n_ticks: int):
    from repro.logs.events import LogEvent

    rolled: Dict[int, list] = {}
    for tick, events in book.items():
        new_tick = (tick + shift) % n_ticks
        rolled.setdefault(new_tick, []).extend(
            LogEvent(new_tick, e.database, e.level, e.message) for e in events
        )
    return {tick: tuple(events) for tick, events in sorted(rolled.items())}


@dataclass
class Fleet:
    """A replayable fleet plus the per-unit logbooks riding along."""

    dataset: object
    logbooks: Dict[str, dict]

    @property
    def points(self) -> int:
        return sum(u.values.size for u in self.dataset.units)


def rolled_fleet(seed: int, base: list, n_units: int, logs: bool) -> Fleet:
    """``n_units`` copies of the base units, each circularly time-shifted.

    Series, labels and logbook roll together, so every copy is a
    consistent labelled unit; distinct shifts stop copies of one base
    unit from hitting the detector in lockstep.
    """
    from repro.datasets import Dataset, UnitSeries
    from repro.logs.emitter import unit_logbook

    rng = _rng(seed, 2)
    books = [unit_logbook(unit) for unit in base] if logs else None
    units = []
    logbooks: Dict[str, dict] = {}
    for index in range(n_units):
        source = base[index % len(base)]
        n_ticks = source.values.shape[-1]
        shift = int(rng.integers(1, n_ticks))
        name = f"unit-{index:03d}"
        units.append(
            UnitSeries(
                name=name,
                values=np.roll(source.values, shift, axis=-1),
                labels=np.roll(source.labels, shift, axis=-1),
                kpi_names=source.kpi_names,
                interval_seconds=source.interval_seconds,
                metadata={"base": source.name, "shift": shift},
            )
        )
        if books is not None:
            logbooks[name] = _rolled_logbook(
                books[index % len(base)], shift, n_ticks
            )
    return Fleet(Dataset(name="rolled", units=tuple(units)), logbooks)


def wide_fleet(seed: int, n_units: int, n_ticks: int) -> Fleet:
    """Many small synthetic units: 3 databases x 2 KPIs of sine plus noise.

    Half the units carry one labelled anomaly: one database's KPIs follow
    the mirrored trend for 8-16 ticks, which breaks its correlation with
    its peers without changing its value range.
    """
    from repro.datasets import Dataset, UnitSeries

    rng = _rng(seed, 3)
    axis = np.linspace(0.0, 9.0, n_ticks)
    units = []
    for index in range(n_units):
        trend = np.sin(axis * rng.uniform(0.8, 1.25) + rng.uniform(0, 2 * np.pi))
        trend = trend + 2.0
        values = trend[None, None, :] * (
            1.0 + 0.02 * np.arange(3)[:, None, None]
        ) + 0.01 * rng.standard_normal((3, 2, n_ticks))
        labels = np.zeros((3, n_ticks), dtype=bool)
        if rng.random() < 0.5:
            db = int(rng.integers(0, 3))
            start = int(rng.integers(10, n_ticks - 24))
            length = int(rng.integers(8, 17))
            span = slice(start, start + length)
            values[db, :, span] = (4.0 - trend[span])[None, :] + 0.01 * (
                rng.standard_normal((2, length))
            )
            labels[db, span] = True
        units.append(
            UnitSeries(
                name=f"wide-{index:04d}",
                values=values,
                labels=labels,
                kpi_names=("cpu", "rps"),
            )
        )
    return Fleet(Dataset(name="wide", units=tuple(units)), {})


def digest(units, logbooks: Optional[Dict[str, dict]] = None) -> str:
    """``input_sha256``: every unit's values and labels, and its log lines."""
    parts: List[np.ndarray] = []
    for unit in units:
        parts.extend((unit.values, unit.labels))
    lines = "".join(
        f"{name}|{tick}|{e.database}|{e.level}|{e.message}\n"
        for name in sorted(logbooks or {})
        for tick, events in logbooks[name].items()
        for e in events
    )
    parts.append(np.frombuffer(lines.encode("utf-8"), dtype=np.uint8))
    return arrays_sha256(parts)


def split_halves(units: list) -> Tuple[list, list, list, list]:
    """Train (first half) and test (second half) values and labels."""
    half = units[0].values.shape[-1] // 2
    return (
        [u.values[:, :, :half] for u in units],
        [u.labels[:, :half] for u in units],
        [u.values[:, :, half:] for u in units],
        [u.labels[:, half:] for u in units],
    )
