"""Vectorized GA objective: one batched-engine pass per replay window.

:class:`~repro.tuning.objective.DetectionObjective` re-runs the full
streaming detector once per genome, which makes threshold search cost
``O(population x generations)`` detector replays.  The key observation
behind this module: the KCD scores — and therefore the aggregated
per-database peer scores Algorithm 1 thresholds — do not depend on the
genome at all.  Only the score-to-level mapping (``alpha_i``, ``theta``)
and the Fig. 7 state machine (tolerance count) do.

:class:`VectorizedObjective` therefore splits fitness evaluation in two:

1. **Precompute** (once, at construction): enumerate every round start
   reachable from tick 0 under the flexible-window geometry (round ends
   are always ``start + size_e`` for an expansion size ``size_e``), and
   for each ``(start, expansion)`` pair run one
   :class:`~repro.engine.batched.BatchedEngine` pass, and keep the
   aggregated peer scores produced by Algorithm 1's ``Search``/aggregate
   steps (via
   :func:`~repro.core.levels.calculate_levels`, so the arithmetic is the
   detector's own).  Each replay window stacks its lattice into arrays:
   scores ``(S starts, E expansions, D, K)``, the per-database active
   mask, the window ends, a "has correlation" flag, and ``seg_id[s, e,
   d]`` — the first label segment the span ``[s, s + size_e)`` overlaps
   for database ``d`` — which is genome-independent too.
2. **Evaluate** (per population, all genomes at once): a loop over the
   ``E`` expansions thresholds that expansion's scores for the whole
   population — every ``(genome, start, database)`` Fig. 7 state — and
   resolves every ``(genome, start)`` round together (where it ends, and
   each database's record and verdict), stopping once every round is
   resolved; at most ``n_ticks / W`` vectorized steps walk every genome's
   cursor path through the lattice; and ``bincount``\\ s over the records
   on those paths give each genome's segment-adjusted TP/FP/TN/FN.

The counts are integers, so fitness is bit-identical to
:class:`DetectionObjective` (the differential tests pin the counts
themselves) at the cost of a few array passes per population instead of
a detector replay per genome.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, cast

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.core.levels import calculate_levels
from repro.eval.adjust import label_segments
from repro.tuning.genome import ThresholdGenome
from repro.tuning.objective import COUNT_FIELDS, ReplayObjective

__all__ = ["VectorizedObjective"]

def _window_sizes(config: DBCatcherConfig) -> Tuple[int, ...]:
    """The flexible window's size ladder ``W, W + Delta, ..., W_M``."""
    sizes = [config.initial_window]
    while sizes[-1] < config.max_window:
        sizes.append(min(sizes[-1] + config.window_step, config.max_window))
    return tuple(sizes)


class _ReplayPlan:
    """One replay window's round lattice, stacked into arrays."""

    def __init__(self, values: np.ndarray, labels: np.ndarray, config: DBCatcherConfig):
        # Local import: repro.engine imports repro.core.config, and this
        # module is reachable from package inits; mirroring the detector's
        # lazy import keeps the import graph acyclic.
        from repro.engine.base import make_engine

        n_databases, n_kpis, n_ticks = values.shape
        self.sizes = _window_sizes(config)
        # Every round start reachable from tick 0: a round starting at
        # ``t`` ends at ``t + size_e`` for some expansion ``e``.
        reachable = np.zeros(n_ticks + 1, dtype=bool)
        reachable[0] = True
        starts: List[int] = []
        for start in range(n_ticks - self.sizes[0] + 1):
            if reachable[start]:
                starts.append(start)
                for size in self.sizes:
                    if start + size <= n_ticks:
                        reachable[start + size] = True
        n_starts, n_sizes = len(starts), len(self.sizes)
        #: Tick -> lattice row of the round starting there, ``-1`` where
        #: no round can start (unreachable, or too close to the end).
        self.start_index = np.full(n_ticks + 1, -1, dtype=np.int64)
        self.start_index[starts] = np.arange(n_starts)
        self.ends = np.asarray(starts)[:, None] + np.asarray(self.sizes)[None, :]
        self.fits = self.ends <= n_ticks
        self.scores = np.full((n_starts, n_sizes, n_databases, n_kpis), np.nan)
        self.active = np.zeros((n_starts, n_sizes, n_databases), dtype=bool)
        self.has_correlation = np.zeros((n_starts, n_sizes), dtype=bool)

        engine = make_engine(config.backend)
        finite = np.isfinite(values)
        for row, start in enumerate(starts):
            for expansion, size in enumerate(self.sizes):
                end = start + size
                if end > n_ticks:
                    break
                round_active = finite[:, :, start:end].all(axis=(1, 2))
                self.active[row, expansion] = round_active
                if int(round_active.sum()) < 2:
                    # The detector resolves such a round at once: no
                    # correlation pass ever runs for it.
                    continue
                matrices = engine.matrices(
                    values[:, :, start:end],
                    config.kpi_names,
                    max_delay=config.max_delay(size),
                    active=round_active,
                )
                # Algorithm 1's own aggregation code produces the scores,
                # so every Search/aggregate subtlety (rr-only KPI masks,
                # peerless databases scoring 1.0, the aggregation rule)
                # matches the detector by construction.  The levels the
                # call also computes depend on the template thresholds and
                # are discarded; only the scores are genome-independent.
                levels = calculate_levels(matrices, config, active=round_active)
                self.scores[row, expansion] = levels.scores
                self.has_correlation[row, expansion] = True

        # seg_id[s, e, d]: the first label segment of database ``d`` that
        # the span ``[start, end)`` overlaps, numbered across databases;
        # -1 outside every segment.  Segments are sorted and disjoint, so
        # the first overlapping one is the first whose end lies past
        # ``start``, provided it begins before ``end``.
        self.seg_id = np.full((n_starts, n_sizes, n_databases), -1, dtype=np.int64)
        span_starts = np.broadcast_to(np.asarray(starts)[:, None], self.ends.shape)
        self.n_segments = 0
        for db in range(n_databases):
            segments = np.asarray(label_segments(labels[db]), dtype=np.int64)
            if segments.size == 0:
                continue
            first = np.searchsorted(segments[:, 1], span_starts, side="right")
            capped = np.minimum(first, len(segments) - 1)
            overlaps = (first < len(segments)) & (segments[capped, 0] < self.ends)
            self.seg_id[:, :, db] = np.where(overlaps, capped + self.n_segments, -1)
            self.n_segments += len(segments)

    def _states(
        self,
        expansion: int,
        alphas: np.ndarray,
        lows: np.ndarray,
        tolerances: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fig. 7 ABNORMAL and OBSERVABLE masks of every ``(genome, start,
        database)`` at ``expansion``, counted one KPI at a time so nothing
        larger than ``(n_genomes, n_starts, n_databases)`` is allocated."""
        scores = self.scores[:, expansion]
        shape = (len(alphas),) + scores.shape[:-1]
        extreme = np.zeros(shape, dtype=np.int32)
        slight = np.zeros(shape, dtype=np.int32)
        for kpi in range(scores.shape[-1]):
            column = scores[None, :, :, kpi]
            level1 = column < lows[:, kpi, None, None]
            level3 = column >= alphas[:, kpi, None, None]
            extreme += level1
            slight += ~level3 & ~level1
        abnormal = (extreme > 0) | (slight > tolerances[:, None, None])
        observable = ~abnormal & (slight > 0)
        return abnormal, observable

    def confusion_counts(
        self,
        alphas: np.ndarray,
        thetas: np.ndarray,
        tolerances: np.ndarray,
        config: DBCatcherConfig,
    ) -> np.ndarray:
        """``(n_genomes, 4)`` segment-adjusted counts over this window.

        Mirrors ``DBCatcher._step_round`` exactly: the pending set shrinks
        to databases with finite data, a round with fewer than two usable
        databases (or nothing left to judge) resolves immediately with the
        records already made, OBSERVABLE databases expand the window until
        ``W_M`` forces a verdict, and a round the replay cannot finish
        contributes no records at all.
        """
        n_genomes = len(alphas)
        n_starts, _, n_databases = self.active.shape
        lows = alphas - thetas[:, None]
        # Resolve every (genome, start) round, one expansion at a time.
        forced_abnormal = config.resolve_max_window_as_abnormal
        open_rounds = np.ones((n_genomes, n_starts), dtype=bool)
        pending = np.ones((n_genomes, n_starts, n_databases), dtype=bool)
        record_expansion = np.full((n_genomes, n_starts, n_databases), -1)
        predicted = np.zeros((n_genomes, n_starts, n_databases), dtype=bool)
        #: End tick each round finishes at; -1 while (or if forever) blocked.
        finish = np.full((n_genomes, n_starts), -1, dtype=np.int64)
        for expansion, size in enumerate(self.sizes):
            # A window past the replay's end blocks its round for good.
            open_rounds &= self.fits[None, :, expansion]
            if not open_rounds.any():
                break
            pending &= self.active[None, :, expansion]
            no_round = ~self.has_correlation[None, :, expansion] | ~pending.any(axis=-1)
            resolved = open_rounds & no_round
            judged = pending & (open_rounds & ~resolved)[..., None]
            abnormal, observable = self._states(expansion, alphas, lows, tolerances)
            waiting = judged & observable & (size < config.max_window)
            recorded = judged & ~waiting
            record_expansion[recorded] = expansion
            verdict = abnormal | (observable & forced_abnormal)
            predicted[recorded] = verdict[recorded]
            done = resolved | (open_rounds & ~resolved & ~waiting.any(axis=-1))
            round_ends = np.broadcast_to(self.ends[:, expansion], done.shape)
            finish[done] = round_ends[done]
            open_rounds &= ~done
            pending = waiting

        # Walk every genome's cursor path through the lattice at once.
        on_path = np.zeros((n_genomes, n_starts), dtype=bool)
        genomes = np.arange(n_genomes)
        cursor = np.zeros(n_genomes, dtype=np.int64)
        while genomes.size:
            rows = self.start_index[cursor[genomes]]
            ends = finish[genomes, np.maximum(rows, 0)]
            moving = (rows >= 0) & (ends >= 0)
            genomes, rows, ends = genomes[moving], rows[moving], ends[moving]
            on_path[genomes, rows] = True
            cursor[genomes] = ends

        # Segment-adjusted confusion of the records on those paths.
        genome, row, db = np.nonzero(on_path[..., None] & (record_expansion >= 0))
        segment = self.seg_id[row, record_expansion[genome, row, db], db]
        flagged = predicted[genome, row, db]
        inside = segment >= 0
        key = genome[inside] * self.n_segments + segment[inside]
        flagged_keys = key[flagged[inside]]
        detected = np.bincount(flagged_keys, minlength=n_genomes * self.n_segments)
        hit = detected[key] > 0
        counts = np.zeros((n_genomes, len(COUNT_FIELDS)), dtype=np.int64)
        counts[:, 0] = np.bincount(genome[inside][hit], minlength=n_genomes)
        counts[:, 1] = np.bincount(genome[~inside & flagged], minlength=n_genomes)
        counts[:, 2] = np.bincount(genome[~inside & ~flagged], minlength=n_genomes)
        counts[:, 3] = np.bincount(genome[inside][~hit], minlength=n_genomes)
        return counts


class VectorizedObjective(ReplayObjective):
    """Drop-in replacement for ``DetectionObjective`` with batched fitness.

    Accepts the same constructor arguments and exposes the same surface;
    :meth:`confusion_counts` scores a whole population in array passes
    over each replay window's precomputed lattice.  ``shard(lo, hi)``
    views share the built lattices, so fork-based workers inherit them
    for free.
    """

    def __init__(self, config: DBCatcherConfig, values, labels):
        super().__init__(config, values, labels)
        self._plans = [
            _ReplayPlan(data, truth, config)
            for data, truth in zip(self._values, self._labels)
        ]

    def shard(self, lo: int, hi: int) -> ReplayObjective:
        view = cast(VectorizedObjective, super().shard(lo, hi))
        view._plans = self._plans[lo:hi]
        return view

    def confusion_counts(self, genomes: Sequence[ThresholdGenome]) -> np.ndarray:
        alphas = np.array([g.alphas for g in genomes], dtype=np.float64)
        thetas = np.array([g.theta for g in genomes], dtype=np.float64)
        tolerances = np.array([g.tolerance for g in genomes], dtype=np.int64)
        counts = np.zeros((len(genomes), len(COUNT_FIELDS)), dtype=np.int64)
        for plan in self._plans:
            counts += plan.confusion_counts(alphas, thetas, tolerances, self._config)
        return counts
