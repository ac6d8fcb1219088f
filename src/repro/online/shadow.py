"""Shadow evaluation: audition a candidate generation on real traffic.

A retrained candidate is *plausible*, not *proven* — it fit the data it
was given, including any garbage a contributor streamed in.  Before the
coordinator promotes it, the :class:`ShadowEvaluator` replays a bounded
ring buffer of recent **real** queries against both the live and the
candidate models and grades three axes:

* **top-k overlap** — fraction of the live answer's recommended config
  keys the candidate reproduces, averaged over the replay buffer.  A
  poisoned contribution batch yields a model whose rankings diverge
  wildly; this is the check that catches it (the candidate fits its own
  poison perfectly, so an error metric alone cannot).
* **relative error** — candidate predictions vs the *measured*
  improvements of the newly contributed records (the closest thing to
  ground truth the service holds); a candidate that cannot explain the
  data it was trained on is broken.
* **latency ratio** — candidate replay time over live replay time via
  clock-timed telemetry histograms; a model that answers 10× slower
  would blow the serving SLO no matter how accurate it is.

The gate passes only when every axis is within its configured bound and
enough real traffic was observed to make the replay meaningful.

Replays run through the same :class:`~repro.serving.engine.
BatchQueryEngine` path production traffic uses (packed trees included, and
sharing the service's candidate-matrix cache when wired by the
coordinator) — so the latency axis measures the engine the candidate
would actually serve from.  Engine construction happens *before* the
timed replay windows; only the replayed queries are clocked.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.serving.engine import BatchQueryEngine
from repro.telemetry import Clock, MonotonicClock

__all__ = ["ShadowGateConfig", "ShadowReport", "ShadowEvaluator"]

#: Bucket bounds (seconds) for the shadow replay latency histograms.
_LATENCY_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


@dataclass(frozen=True)
class ShadowGateConfig:
    """Bounds a candidate must meet to be promoted.

    Attributes:
        max_replay: ring-buffer capacity of recent real queries.
        min_observations: real queries required before any promotion
            (0 = allow promoting blind — tests only).
        min_topk_overlap: mean top-k config-key overlap floor.
        max_relative_error: mean |predicted - measured| / measured
            ceiling on the contributed records.
        max_latency_ratio: candidate/live replay wall-time ceiling.
    """

    max_replay: int = 64
    min_observations: int = 1
    min_topk_overlap: float = 0.5
    max_relative_error: float = 0.75
    max_latency_ratio: float = 5.0

    def __post_init__(self) -> None:
        if self.max_replay < 1:
            raise ValueError(f"max_replay must be >= 1, got {self.max_replay}")
        if not 0.0 <= self.min_topk_overlap <= 1.0:
            raise ValueError(
                f"min_topk_overlap must be in [0, 1], got {self.min_topk_overlap}"
            )
        if self.max_relative_error <= 0 or self.max_latency_ratio <= 0:
            raise ValueError("error/latency bounds must be positive")


@dataclass(frozen=True)
class ShadowReport:
    """Outcome of one shadow evaluation.

    Attributes:
        passed: every axis within bounds.
        reasons: failure reasons (empty when passed).
        observations: replayed real queries.
        topk_overlap / relative_error / latency_ratio: the measured
            axes (None when not measurable, e.g. no contributed records
            to check the error against).
    """

    passed: bool
    reasons: tuple[str, ...] = ()
    observations: int = 0
    topk_overlap: float | None = None
    relative_error: float | None = None
    latency_ratio: float | None = None

    def describe(self) -> dict:
        """JSON-compatible form for logs and the ops plane."""
        return {
            "passed": self.passed,
            "reasons": list(self.reasons),
            "observations": self.observations,
            "topk_overlap": self.topk_overlap,
            "relative_error": self.relative_error,
            "latency_ratio": self.latency_ratio,
        }


class ShadowEvaluator:
    """Replays recent real queries to grade a candidate generation.

    Args:
        config: the gate bounds.
        clock: time source for the latency axis (ManualClock in tests
            makes the ratio vacuous — both replays read zero).
        metrics: registry for the ``online.shadow.*`` latency
            histograms (None = no accounting).
        matrix_cache: share the serving tier's encoded candidate
            matrices (:class:`~repro.serving.matrix.
            CandidateMatrixCache`); None builds private matrices.

    :meth:`observe` is called from the serving hot path (under the
    service lock) and only appends to a bounded deque — O(1), no model
    work.  :meth:`evaluate` runs on the retrain worker's schedule.
    """

    def __init__(
        self,
        config: ShadowGateConfig | None = None,
        clock: Clock | None = None,
        metrics=None,
        matrix_cache=None,
    ) -> None:
        self.config = config if config is not None else ShadowGateConfig()
        self.matrix_cache = matrix_cache
        self.clock = clock if clock is not None else MonotonicClock()
        self._lock = threading.Lock()
        self._replay: deque = deque(maxlen=self.config.max_replay)
        if metrics is not None:
            self._live_latency = metrics.histogram(
                "online.shadow.live_latency_s", _LATENCY_BUCKETS,
                "live-generation shadow replay time",
            )
            self._candidate_latency = metrics.histogram(
                "online.shadow.candidate_latency_s", _LATENCY_BUCKETS,
                "candidate-generation shadow replay time",
            )
        else:
            self._live_latency = None
            self._candidate_latency = None

    # ------------------------------------------------------------------
    def observe(self, request) -> None:
        """Record one real query for later replay (bounded, O(1))."""
        with self._lock:
            self._replay.append(request)

    def replay_buffer(self) -> list:
        """Snapshot of the buffered queries, oldest first."""
        with self._lock:
            return list(self._replay)

    def clear(self) -> None:
        """Drop the buffered queries (tests / explicit resets)."""
        with self._lock:
            self._replay.clear()

    # ------------------------------------------------------------------
    def evaluate(self, live_models: dict, candidate_models: dict, entries=()) -> ShadowReport:
        """Grade a candidate against the live generation.

        Args:
            live_models: {(platform, goal, learner): Acic} currently live.
            candidate_models: same mapping for the candidate.
            entries: drained :class:`~repro.online.log.LogEntry` objects
                — the measured records the relative-error axis checks.

        Only replayed queries whose model key exists in *both*
        generations contribute to the overlap/latency axes.
        """
        requests = self.replay_buffer()
        reasons: list[str] = []

        # Build both generations' engines up front — matrix encoding and
        # model flattening are cold-start costs, not per-query serving
        # time, so they stay outside the clocked replay windows.
        live_engines: dict = {}
        candidate_engines: dict = {}
        for request in requests:
            key = (request.platform, request.goal, request.learner)
            if key in live_engines:
                continue
            live = live_models.get(key)
            candidate = candidate_models.get(key)
            if live is None or candidate is None:
                continue
            live_engines[key] = self._engine(live, key)
            candidate_engines[key] = self._engine(candidate, key)

        overlaps: list[float] = []
        live_elapsed = 0.0
        candidate_elapsed = 0.0
        replayed = 0
        for request in requests:
            key = (request.platform, request.goal, request.learner)
            live = live_engines.get(key)
            candidate = candidate_engines.get(key)
            if live is None or candidate is None:
                continue
            replayed += 1
            started = self.clock.now()
            live_recs = live(request.characteristics, request.top_k)
            live_elapsed += self.clock.now() - started
            started = self.clock.now()
            candidate_recs = candidate(request.characteristics, request.top_k)
            candidate_elapsed += self.clock.now() - started
            live_keys = {r.config.key for r in live_recs}
            candidate_keys = {r.config.key for r in candidate_recs}
            if live_keys:
                overlaps.append(
                    len(live_keys & candidate_keys) / len(live_keys)
                )
        if self._live_latency is not None and replayed:
            self._live_latency.observe(live_elapsed)
            self._candidate_latency.observe(candidate_elapsed)

        if replayed < self.config.min_observations:
            reasons.append(
                f"insufficient_replay ({replayed} < {self.config.min_observations})"
            )

        topk_overlap = float(np.mean(overlaps)) if overlaps else None
        if topk_overlap is not None and topk_overlap < self.config.min_topk_overlap:
            reasons.append(
                f"topk_overlap {topk_overlap:.3f} < {self.config.min_topk_overlap}"
            )

        relative_error = self._relative_error(candidate_models, entries)
        if (
            relative_error is not None
            and relative_error > self.config.max_relative_error
        ):
            reasons.append(
                f"relative_error {relative_error:.3f} > {self.config.max_relative_error}"
            )

        # A zero live replay time (ManualClock tests, or an empty buffer)
        # makes the ratio meaningless — treat it as parity.
        latency_ratio = (
            candidate_elapsed / live_elapsed if live_elapsed > 0 else None
        )
        if (
            latency_ratio is not None
            and latency_ratio > self.config.max_latency_ratio
        ):
            reasons.append(
                f"latency_ratio {latency_ratio:.2f} > {self.config.max_latency_ratio}"
            )

        return ShadowReport(
            passed=not reasons,
            reasons=tuple(reasons),
            observations=replayed,
            topk_overlap=topk_overlap,
            relative_error=relative_error,
            latency_ratio=latency_ratio,
        )

    # ------------------------------------------------------------------
    def _engine(self, acic, key):
        """A replay function ``(chars, top_k) -> recommendations`` for
        one model, answering through the production serving path.

        Anything that is not a full configurator (hermetic stub models
        in tests expose only ``recommend``) replays through its own
        ``recommend``.
        """
        encoder = getattr(acic, "encoder", None)
        if encoder is None or not hasattr(encoder, "parameters"):
            return lambda chars, top_k: acic.recommend(chars, top_k=top_k)
        engine = BatchQueryEngine(
            acic,
            matrix_cache=self.matrix_cache,
            cache_scope=(key[0], key[2]) if self.matrix_cache is not None else None,
        )
        return lambda chars, top_k: engine.recommend_batch([(chars, top_k)])[0]

    @staticmethod
    def _relative_error(candidate_models: dict, entries) -> float | None:
        """Mean |predicted − measured| / measured on contributed records.

        Every candidate model covering a contributed record's platform
        predicts that record's improvement; the measured ratio is the
        reference.  Returns None when nothing is checkable.
        """
        errors: list[float] = []
        by_platform: dict[str, list] = {}
        for key, model in candidate_models.items():
            by_platform.setdefault(key[0], []).append((key[1], model))
        for entry in entries:
            record = entry.record
            for goal, model in by_platform.get(entry.platform, ()):
                x = model.encoder.encode_many([record.values])
                predicted = float(np.exp(model.model.predict(x)[0]))
                measured = record.target(goal)
                errors.append(abs(predicted - measured) / measured)
        return float(np.mean(errors)) if errors else None
