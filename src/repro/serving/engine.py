"""Vectorized batch inference over the candidate-configuration grid.

Every ACIC query is the same join: the application's characteristics
against *all* candidate system configurations.  :meth:`Acic.recommend`
re-enumerates and re-encodes that grid per query — fine for one user,
wasteful for a service.  :class:`BatchQueryEngine` hoists the invariant
work out of the per-query path:

* the candidate set is enumerated once per model, its system-side
  feature columns encoded once into a base matrix (shareable across
  engines via :class:`~repro.serving.matrix.CandidateMatrixCache`),
* per-workload valid-row index sets are memoized, so repeat workload
  shapes skip the Python validity sweep entirely,
* a query only encodes its nine application-side values (one row, not
  one per candidate), broadcasts them across the base matrix, and a
  whole batch runs a single vectorized ``predict`` over all candidates,
* a tree-shaped model predicts through its packed :mod:`repro.ml.flat`
  form — array passes instead of Python node recursion, bit-identical
  by the differential suite.

Ranking goes through :func:`repro.core.configurator.rank_scored`, so the
engine's recommendations are *identical* to :meth:`Acic.recommend` —
the property the tier-1 tests and the golden corpus pin down.

When telemetry is enabled (:mod:`repro.telemetry`), every batch pass
emits a ``serving.recommend_batch`` span with nested ``serving.join``,
``serving.predict`` and ``serving.rank`` spans, plus
``serving.queries`` / ``serving.candidates_scored`` counters — the
per-stage cost data an advisor's operators size capacity from.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.configurator import Acic, Recommendation, rank_scored
from repro.ml.encoding import characteristics_values
from repro.ml.flat import flatten_learner
from repro.reliability.faults import get_injector
from repro.serving.matrix import CandidateMatrix, CandidateMatrixCache
from repro.space.characteristics import AppCharacteristics
from repro.space.configuration import SystemConfig
from repro.space.grid import candidate_configs
from repro.telemetry import get_telemetry

__all__ = ["BatchQueryEngine"]


class BatchQueryEngine:
    """Answers many recommendation queries against one trained model.

    Args:
        acic: a trained configurator (RuntimeError when untrained).
        candidates: candidate set to rank; defaults to the platform-side
            grid (every valid system configuration).  Per query,
            candidates that cannot host the workload are masked out —
            the same filter :func:`candidate_configs` applies.
        matrix_cache: share encoded candidate matrices across engine
            rebuilds through this cache; None builds a private matrix.
        cache_scope: ``(platform, learner)`` invalidation scope for the
            shared cache (required when ``matrix_cache`` is given).
    """

    def __init__(
        self,
        acic: Acic,
        candidates: Sequence[SystemConfig] | None = None,
        *,
        matrix_cache: CandidateMatrixCache | None = None,
        cache_scope: tuple[str, str] | None = None,
    ) -> None:
        acic.model  # fail fast when untrained
        self.acic = acic
        resolved = tuple(
            candidates if candidates is not None else candidate_configs()
        )
        if matrix_cache is not None:
            if cache_scope is None:
                raise ValueError("matrix_cache requires a (platform, learner) scope")
            platform, learner = cache_scope
            self._matrix = matrix_cache.lease(
                platform, learner, acic.encoder, resolved
            )
        else:
            self._matrix = CandidateMatrix(acic.encoder, resolved)
        self.candidates: tuple[SystemConfig, ...] = self._matrix.candidates
        self._system_columns = self._matrix.system_columns
        self._application_columns = self._matrix.application_columns
        # Base matrix: system-side columns encoded once per candidate;
        # application-side columns are filled per query (on copies — the
        # shared base itself is read-only).
        self._base = self._matrix.base
        flat = flatten_learner(acic.model)
        self._predictor = flat if flat is not None else acic.model

    def _predict(self, X: np.ndarray) -> np.ndarray:
        """One vectorized model call — the packed form for trees."""
        return self._predictor.predict(X)

    # ------------------------------------------------------------------
    def _join(
        self, chars: AppCharacteristics
    ) -> tuple[np.ndarray, list[SystemConfig]]:
        """(feature matrix, candidate list) for one query's valid join."""
        rows = self._matrix.valid_rows(chars)
        X = self._base[rows, :]
        if self._application_columns.size:
            encoded = self.acic.encoder.encode_values(characteristics_values(chars))
            X[:, self._application_columns] = encoded[self._application_columns]
        return X, [self.candidates[row] for row in rows]

    def recommend_batch(
        self, queries: Sequence[tuple[AppCharacteristics, int]]
    ) -> list[list[Recommendation]]:
        """Answer (characteristics, top_k) queries in one call.

        Rows for all queries are stacked into a single feature matrix and
        the learner runs once over the whole batch, then each query's
        slice is ranked independently.  An empty query list is a no-op
        returning an empty result list.
        """
        telemetry = get_telemetry()
        with telemetry.span("serving.recommend_batch", queries=len(queries)):
            with telemetry.span("serving.join"):
                joins = [self._join(chars) for chars, _ in queries]
            blocks = [X for X, _ in joins if X.shape[0]]
            if not blocks:
                return [[] for _ in queries]
            stacked = np.vstack(blocks)
            get_injector().perturb("serving.predict")
            with telemetry.span("serving.predict", rows=stacked.shape[0]):
                predictions = np.exp(self._predict(stacked))
            with telemetry.span("serving.rank"):
                results: list[list[Recommendation]] = []
                offset = 0
                for (X, candidates), (_, top_k) in zip(joins, queries):
                    scores = predictions[offset : offset + X.shape[0]]
                    offset += X.shape[0]
                    results.append(
                        rank_scored(list(zip(scores.tolist(), candidates)), top_k)
                    )
        telemetry.counter("serving.queries").inc(len(queries))
        telemetry.counter("serving.candidates_scored").inc(stacked.shape[0])
        return results
