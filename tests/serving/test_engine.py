"""Tests pinning BatchQueryEngine to the sequential Acic.recommend path."""

import numpy as np
import pytest

from repro.core.configurator import Acic
from repro.core.objectives import Goal
from repro.ml.flat import FlatForest, FlatTree
from repro.ml.registry import available_learners
from repro.serving.engine import BatchQueryEngine
from repro.space.grid import candidate_configs


def recommend(engine, chars, top_k):
    """One query through the engine's only entry point."""
    return engine.recommend_batch([(chars, top_k)])[0]


def scores(engine, chars):
    """(improvement ratios, candidates) for one query's valid join."""
    X, candidates = engine._join(chars)
    return np.exp(engine._predict(X)), candidates


@pytest.fixture(scope="module")
def trained(small_pipeline):
    screening, database = small_pipeline
    return Acic(
        database,
        goal=Goal.PERFORMANCE,
        learner_name="cart",
        feature_names=tuple(screening.ranked_names()[:5]),
    ).train()


class TestIdentity:
    @pytest.mark.parametrize("learner_name", available_learners())
    def test_matches_sequential_recommend(
        self, small_pipeline, simple_chars, learner_name
    ):
        screening, database = small_pipeline
        acic = Acic(
            database,
            learner_name=learner_name,
            feature_names=tuple(screening.ranked_names()[:5]),
        ).train()
        engine = BatchQueryEngine(acic)
        for top_k in (1, 3, 10):
            assert recommend(engine, simple_chars, top_k) == acic.recommend(
                simple_chars, top_k
            )

    def test_matches_on_posix_workload(self, trained, posix_chars):
        engine = BatchQueryEngine(trained)
        assert recommend(engine, posix_chars, 5) == trained.recommend(
            posix_chars, top_k=5
        )

    def test_co_champions_match(self, trained, simple_chars):
        engine = BatchQueryEngine(trained)
        ranked = recommend(engine, simple_chars, len(engine.candidates))
        first_group = sorted(
            (r.config for r in ranked if r.co_champion_group == 1),
            key=lambda config: config.key,
        )
        assert first_group == trained.co_champions(simple_chars)

    def test_scores_match_exactly(self, trained, simple_chars):
        engine = BatchQueryEngine(trained)
        batch, candidates = scores(engine, simple_chars)
        sequential = trained.score_candidates(simple_chars, candidates)
        assert batch.tobytes() == sequential.tobytes()

    def test_valid_candidates_match_grid(self, trained, posix_chars):
        engine = BatchQueryEngine(trained)
        _, candidates = engine._join(posix_chars)
        assert candidates == candidate_configs(posix_chars)


class TestBatch:
    def test_batch_equals_singles(self, trained, simple_chars, posix_chars):
        engine = BatchQueryEngine(trained)
        queries = [(simple_chars, 1), (posix_chars, 3), (simple_chars, 10)]
        batched = engine.recommend_batch(queries)
        assert batched == [recommend(engine, chars, k) for chars, k in queries]

    def test_batch_equals_sequential_acic(self, trained, simple_chars, posix_chars):
        engine = BatchQueryEngine(trained)
        queries = [(posix_chars, 2), (simple_chars, 2)]
        batched = engine.recommend_batch(queries)
        assert batched == [trained.recommend(chars, k) for chars, k in queries]

    def test_empty_batch(self, trained):
        assert BatchQueryEngine(trained).recommend_batch([]) == []


class TestConstruction:
    def test_untrained_refused(self, small_pipeline):
        screening, database = small_pipeline
        acic = Acic(database, feature_names=tuple(screening.ranked_names()[:5]))
        with pytest.raises(RuntimeError, match="train"):
            BatchQueryEngine(acic)

    def test_candidate_override_restricts_ranking(self, trained, simple_chars):
        subset = candidate_configs()[:8]
        engine = BatchQueryEngine(trained, candidates=subset)
        keys = {config.key for config in subset}
        for rec in recommend(engine, simple_chars, 5):
            assert rec.config.key in keys

    def test_base_matrix_covers_all_candidates(self, trained):
        engine = BatchQueryEngine(trained)
        assert engine._base.shape == (
            len(candidate_configs()),
            trained.encoder.width,
        )


class TestEmptyShapes:
    """Empty batches and empty candidate sets degrade to well-shaped
    empties, never exceptions (the flat-path edge regression)."""

    def test_empty_candidate_set_scores_empty(self, trained, simple_chars):
        engine = BatchQueryEngine(trained, candidates=[])
        predicted, candidates = scores(engine, simple_chars)
        assert predicted.shape == (0,) and predicted.dtype == float
        assert candidates == []

    def test_empty_candidate_set_recommends_nothing(
        self, trained, simple_chars
    ):
        engine = BatchQueryEngine(trained, candidates=[])
        assert recommend(engine, simple_chars, 3) == []

    def test_empty_candidate_set_batch(self, trained, simple_chars):
        engine = BatchQueryEngine(trained, candidates=[])
        assert engine.recommend_batch([(simple_chars, 2)]) == [[]]

    def test_empty_batch_on_empty_candidates(self, trained):
        assert BatchQueryEngine(trained, candidates=[]).recommend_batch([]) == []


class TestEngineKinds:
    def test_flat_engine_matches_legacy_engine_exactly(
        self, trained, simple_chars, posix_chars
    ):
        """The packed engine against the object-tree walk of Acic.recommend."""
        engine = BatchQueryEngine(trained)
        assert isinstance(engine._predictor, FlatTree)
        queries = [(simple_chars, 3), (posix_chars, 2)]
        assert engine.recommend_batch(queries) == [
            trained.recommend(chars, k) for chars, k in queries
        ]
        batch, candidates = scores(engine, simple_chars)
        sequential = trained.score_candidates(simple_chars, candidates)
        assert batch.tobytes() == sequential.tobytes()

    def test_forest_engine_predicts_packed(self, small_pipeline):
        screening, database = small_pipeline
        acic = Acic(
            database,
            learner_name="forest",
            feature_names=tuple(screening.ranked_names()[:5]),
        ).train()
        assert isinstance(BatchQueryEngine(acic)._predictor, FlatForest)

    def test_unflattenable_learner_serves_as_tree(self, small_pipeline):
        screening, database = small_pipeline
        acic = Acic(
            database,
            learner_name="knn",
            feature_names=tuple(screening.ranked_names()[:5]),
        ).train()
        assert BatchQueryEngine(acic)._predictor is acic.model
