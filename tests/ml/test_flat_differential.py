"""Differential harness: flat inference vs the object walk, bit-for-bit.

The flat core's claim is not "close" — it is *bit-identical*: the packed
traversal performs the same ``x[feature] <= threshold`` float64
comparisons as :meth:`CartNode.leaf_for`, routes every row to the same
leaf, and returns the same float64 leaf means, so nothing downstream
(ranking, tie groups, wire JSON) can diverge.  This suite proves it
three ways:

* **property level** — hypothesis-driven random trees and forests over
  discrete value pools (forcing exact threshold ties and constant
  features), checked on adversarial query sets that include the
  training rows, exact threshold values and their float64 neighbours;
* **degenerate level** — hand-built trees with edge-value thresholds
  (signed zeros, subnormals, huge magnitudes) and single-leaf stumps;
* **system level** — every registered learner through the versioned
  artifact, and whole services answering identical query streams with
  wire JSON byte-identical to the reference: :meth:`Acic.recommend`
  walking object trees on a pack loaded with ``use_flat=False`` —
  including after an online promotion swaps in a new generation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.configurator import Acic
from repro.core.database import TrainingDatabase
from repro.core.objectives import Goal
from repro.core.training import TrainingCollector, TrainingPlan
from repro.ml.cart import CartNode, CartTree
from repro.ml.encoding import point_values
from repro.ml.flat import LEAF, FlatForest, FlatTree
from repro.ml.forest import RandomForestRegressor
from repro.ml.registry import available_learners
from repro.net.loadgen import synthetic_queries
from repro.online import (
    ContributionLog,
    DriftConfig,
    OnlineConfig,
    OnlineCoordinator,
    ShadowGateConfig,
)
from repro.pb.ranking import screen_parameters
from repro.service.api import BatchQueryRequest, BatchQueryResponse
from repro.service.server import AcicService
from repro.serving.artifacts import (
    ModelArtifact,
    artifact_from_dict,
    artifact_to_dict,
)
from repro.space.grid import candidate_configs
from repro.telemetry import ManualClock

# ---------------------------------------------------------------------------
# Property level: random trees over tie-rich value pools
# ---------------------------------------------------------------------------

#: Discrete training values: midpoint thresholds between neighbours are
#: often exactly representable (e.g. (0.0+1.0)/2), so query values drawn
#: from the same pool regularly hit thresholds *exactly* — the tie case
#: a subtly-wrong comparison (``<`` vs ``<=``) would get wrong.
_POOL = np.array([-3.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0])

tree_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(5, 80),
        "d": st.integers(1, 5),
        "constant_target": st.booleans(),
        "constant_columns": st.integers(0, 2),
        "max_depth": st.one_of(st.none(), st.integers(1, 7)),
        "min_samples_leaf": st.integers(1, 5),
    }
)


def _build_dataset(case):
    rng = np.random.default_rng(case["seed"])
    X = rng.choice(_POOL, size=(case["n"], case["d"]))
    for column in range(min(case["constant_columns"], case["d"])):
        X[:, column] = _POOL[column]
    if case["constant_target"]:
        y = np.full(case["n"], 1.25)
    else:
        y = rng.choice(_POOL, size=case["n"]) + 0.5 * X[:, 0]
    return rng, X, y


def _adversarial_queries(rng, X, flat):
    """Training rows + fresh pool rows + exact/neighbouring thresholds."""
    fresh = rng.choice(_POOL, size=(64, X.shape[1]))
    probes = []
    for i in np.flatnonzero(flat.feature != LEAF):
        feature = int(flat.feature[i])
        threshold = float(flat.threshold[i])
        for value in (
            threshold,
            np.nextafter(threshold, -np.inf),
            np.nextafter(threshold, np.inf),
        ):
            row = rng.choice(_POOL, size=X.shape[1])
            row[feature] = value
            probes.append(row)
    blocks = [X, fresh] + ([np.array(probes)] if probes else [])
    return np.vstack(blocks)


def _assert_bit_identical(expected, actual):
    assert expected.dtype == actual.dtype == np.float64
    assert expected.tobytes() == actual.tobytes()


class TestTreeDifferential:
    @given(tree_cases)
    @settings(max_examples=60, deadline=None)
    def test_flat_predict_is_bit_identical(self, case):
        rng, X, y = _build_dataset(case)
        tree = CartTree(
            max_depth=case["max_depth"],
            min_samples_leaf=case["min_samples_leaf"],
        ).fit(X, y)
        flat = FlatTree.from_cart(tree)
        queries = _adversarial_queries(rng, X, flat)
        _assert_bit_identical(tree.predict(queries), flat.predict(queries))

    @given(tree_cases)
    @settings(max_examples=25, deadline=None)
    def test_flat_round_trip_stays_bit_identical(self, case):
        _rng, X, y = _build_dataset(case)
        tree = CartTree(min_samples_leaf=case["min_samples_leaf"]).fit(X, y)
        flat = FlatTree.from_cart(tree)
        again = FlatTree.from_dict(flat.to_dict())
        _assert_bit_identical(tree.predict(X), again.predict(X))
        assert again.digest() == flat.digest()


class TestForestDifferential:
    @given(tree_cases, st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_flat_forest_is_bit_identical(self, case, n_trees):
        rng, X, y = _build_dataset(case)
        forest = RandomForestRegressor(
            n_trees=n_trees,
            min_samples_leaf=case["min_samples_leaf"],
            seed=case["seed"] % 1000,
        ).fit(X, y)
        flat = FlatForest.from_forest(forest)
        fresh = rng.choice(_POOL, size=(64, X.shape[1]))
        queries = np.vstack([X, fresh])
        _assert_bit_identical(forest.predict(queries), flat.predict(queries))
        _assert_bit_identical(
            forest.predict_std(queries), flat.predict_std(queries)
        )


# ---------------------------------------------------------------------------
# Degenerate level: hand-built trees with edge thresholds
# ---------------------------------------------------------------------------


def _stump(threshold, feature=0):
    """A depth-1 tree: left leaf -1.0, right leaf +1.0."""
    root = CartNode(
        mean=0.0, std=1.0, n_samples=4, sse=4.0,
        feature=feature, threshold=threshold,
        left=CartNode(mean=-1.0, std=0.0, n_samples=2, sse=0.0),
        right=CartNode(mean=1.0, std=0.0, n_samples=2, sse=0.0),
    )
    return CartTree(root=root)


class TestDegenerateSplits:
    def test_exact_tie_at_threshold_goes_left_in_both(self):
        tree = _stump(0.5)
        flat = FlatTree.from_cart(tree)
        queries = np.array([[0.5], [np.nextafter(0.5, 1.0)], [0.4999]])
        expected = tree.predict(queries)
        assert expected.tolist() == [-1.0, 1.0, -1.0]
        _assert_bit_identical(expected, flat.predict(queries))

    @pytest.mark.parametrize(
        "threshold",
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
         -1.7976931348623157e308, 2.2250738585072014e-308],
    )
    def test_edge_value_thresholds_route_identically(self, threshold):
        tree = _stump(threshold)
        flat = FlatTree.from_cart(tree)
        with np.errstate(over="ignore"):  # nextafter past ±maxfloat → ±inf
            probes = np.array(
                [
                    [threshold],
                    [np.nextafter(threshold, -np.inf)],
                    [np.nextafter(threshold, np.inf)],
                    [0.0],
                    [-0.0],
                ]
            )
        _assert_bit_identical(tree.predict(probes), flat.predict(probes))
        # And the wire form carries the threshold byte-exactly.
        again = FlatTree.from_dict(flat.to_dict())
        assert again.threshold.tobytes() == flat.threshold.tobytes()
        _assert_bit_identical(tree.predict(probes), again.predict(probes))

    def test_single_leaf_tree_predicts_the_one_mean(self):
        tree = CartTree().fit(np.zeros((6, 2)), np.full(6, 3.5))
        flat = FlatTree.from_cart(tree)
        queries = np.array([[-1e9, 1e9], [0.0, 0.0]])
        _assert_bit_identical(tree.predict(queries), flat.predict(queries))

    def test_constant_features_fall_to_a_single_leaf(self):
        X = np.ones((12, 3))
        y = np.arange(12, dtype=float)
        tree = CartTree().fit(X, y)
        flat = FlatTree.from_cart(tree)
        assert flat.n_nodes == 1
        _assert_bit_identical(tree.predict(X), flat.predict(X))


# ---------------------------------------------------------------------------
# System level: every registered learner, whole services, promotions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(platform):
    """(feature names, database) over the top-5 dimensions — fast fits."""
    screening = screen_parameters(platform=platform)
    database = TrainingDatabase(platform.name)
    TrainingCollector(database, platform=platform).collect(
        TrainingPlan.build(screening.ranked_names(), 5)
    )
    return tuple(screening.ranked_names()[:5]), database


def _clone(database: TrainingDatabase) -> TrainingDatabase:
    return TrainingDatabase.from_payload(database.to_payload())


class TestEveryRegisteredLearner:
    @pytest.mark.parametrize("learner_name", available_learners())
    def test_artifact_round_trip_predicts_bit_identically(
        self, pipeline, simple_chars, learner_name
    ):
        names, database = pipeline
        acic = Acic(
            database,
            goal=Goal.PERFORMANCE,
            learner_name=learner_name,
            feature_names=names,
        ).train()
        restored = artifact_from_dict(
            artifact_to_dict(ModelArtifact.from_acic(acic))
        )
        packed = isinstance(restored.model, (FlatTree, FlatForest))
        assert packed == (learner_name in ("cart", "forest"))

        X = acic.encoder.encode_many(
            [
                point_values(config, simple_chars)
                for config in candidate_configs(simple_chars)
            ]
        )
        _assert_bit_identical(
            np.asarray(acic.model.predict(X), dtype=np.float64),
            np.asarray(restored.model.predict(X), dtype=np.float64),
        )
        # The rebuilt object form walks to the same values too.
        if isinstance(restored.model, FlatTree):
            reference = restored.model.to_cart()
        elif isinstance(restored.model, FlatForest):
            reference = restored.model.to_forest()
        else:
            reference = restored.model
        _assert_bit_identical(
            np.asarray(acic.model.predict(X), dtype=np.float64),
            np.asarray(reference.predict(X), dtype=np.float64),
        )


@pytest.fixture(scope="module")
def service_pack(pipeline, tmp_path_factory):
    """A saved pack with cart and forest models warm on both goals."""
    names, database = pipeline
    service = AcicService(feature_names=names)
    service.host_database(_clone(database))
    platform = database.platform_name
    for goal in (Goal.PERFORMANCE, Goal.COST):
        service.warm(platform, goal, "cart")
    service.warm(platform, Goal.PERFORMANCE, "forest")
    out = tmp_path_factory.mktemp("flat-pack")
    service.save(out)
    return platform, out


def _reference(pack, kinds=(CartTree, RandomForestRegressor)) -> AcicService:
    """The pack with object-form models: ``handle`` runs Acic.recommend
    over CartNode trees."""
    service = AcicService.load(pack, use_flat=False)
    assert {type(acic.model) for acic in service._models.values()} == set(kinds)
    return service


class TestWireByteIdentity:
    def test_flat_and_legacy_services_answer_byte_identically(
        self, service_pack
    ):
        platform, pack = service_pack
        flat_service = AcicService.load(pack)
        kinds = {type(acic.model) for acic in flat_service._models.values()}
        assert kinds == {FlatTree, FlatForest}
        reference = _reference(pack)
        batch = synthetic_queries(platform, 48, seed=5)

        flat_wire = [r.to_json() for r in flat_service.query_batch(batch)]
        reference_wire = [reference.handle(r).to_json() for r in batch]
        assert flat_wire == reference_wire

    def test_sequential_handles_match_too(self, service_pack):
        platform, pack = service_pack
        flat_service = AcicService.load(pack)
        reference = _reference(pack)
        for request in synthetic_queries(platform, 8, seed=9):
            assert (
                flat_service.handle(request).to_json()
                == reference.handle(request).to_json()
            )

    def test_batch_transport_json_is_byte_identical(self, service_pack):
        platform, pack = service_pack
        flat_service = AcicService.load(pack)
        reference = _reference(pack)
        queries = tuple(synthetic_queries(platform, 12, seed=3))
        wire = BatchQueryRequest(queries=queries).to_json()
        want = BatchQueryResponse(
            responses=tuple(reference.handle(r) for r in queries)
        ).to_json()
        assert flat_service.handle_batch_json(wire) == want


class TestPromotedGenerations:
    def _online(self, service, tmp_path, tag):
        log = ContributionLog(tmp_path / f"log-{tag}.jsonl", flush_every=1)
        coordinator = OnlineCoordinator(
            service,
            log,
            config=OnlineConfig(
                min_batch=1,
                shadow=ShadowGateConfig(min_observations=0),
                drift=DriftConfig(),
            ),
            clock=ManualClock(),
        )
        return service, coordinator

    def test_promotion_keeps_flat_and_legacy_byte_identical(
        self, pipeline, platform, tmp_path
    ):
        names, database = pipeline
        platform_name = database.platform_name
        # Fresh re-observations of the same plan at a later epoch: an
        # honest stream the shadow gate waves through.
        contribution = TrainingDatabase(platform_name)
        TrainingCollector(contribution, platform=platform).collect(
            TrainingPlan.build(
                screen_parameters(platform=platform).ranked_names(), 5
            ),
            epoch=2,
        )

        # One service starts from freshly trained object trees, the
        # other from the same models loaded packed.
        trained = AcicService(feature_names=names)
        trained.host_database(_clone(database))
        trained.warm(platform_name, Goal.PERFORMANCE, "cart")
        trained.save(tmp_path / "boot")
        trained_service, trained_coord = self._online(trained, tmp_path, "trained")
        loaded_service, loaded_coord = self._online(
            AcicService.load(tmp_path / "boot"), tmp_path, "loaded"
        )
        try:
            for service, coordinator in (
                (trained_service, trained_coord),
                (loaded_service, loaded_coord),
            ):
                service.contribute(platform_name, _clone(contribution))
                assert coordinator.run_once() == "promoted"
                assert service.generation == 1

            # Identical generations, bit for bit.
            assert (
                trained_coord.registry.live().artifact_hash
                == loaded_coord.registry.live().artifact_hash
            )

            loaded_service.save(tmp_path / "promoted")
            reference = _reference(tmp_path / "promoted", kinds=(CartTree,))
            batch = synthetic_queries(platform_name, 32, seed=17)
            want = [reference.handle(r).to_json() for r in batch]
            for service in (trained_service, loaded_service):
                assert [r.to_json() for r in service.query_batch(batch)] == want
        finally:
            trained_coord.close()
            loaded_coord.close()

