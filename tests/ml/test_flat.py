"""Unit tests for the packed flat inference core (:mod:`repro.ml.flat`).

The bit-for-bit differential story against the object walk lives in
``test_flat_differential.py``; this file pins the packed form itself:
array codec byte-exactness (hypothesis, float edge values included),
shape/empty-batch contracts, exact object-form reconstruction, and the
hash-stable serialization the artifact format builds on.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.cart import CartTree
from repro.ml.flat import (
    LEAF,
    FlatForest,
    FlatTree,
    flat_from_dict,
    flatten_learner,
    pack_array,
    unpack_array,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KnnRegressor
from repro.ml.linear import RidgeRegressor


def fitted_tree(seed=0, n=200, d=4, **hyper):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, d))
    y = (X[:, 0] > 0.5).astype(float) + 0.05 * X[:, 1]
    return CartTree(**hyper).fit(X, y), X


def fitted_forest(seed=0, n=200, d=4, **hyper):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, d))
    y = (X[:, 0] > 0.5).astype(float) + 0.05 * X[:, 1]
    hyper.setdefault("n_trees", 8)
    return RandomForestRegressor(**hyper).fit(X, y), X


#: Float64 edge values the wire form must carry byte-exactly: signed
#: zeros, the smallest subnormals, the largest finite magnitudes.
EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
)

edge_or_any_float = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, width=64),
)


class TestPackArray:
    def test_float64_round_trip_is_byte_identical(self):
        array = np.array(EDGE_FLOATS, dtype=np.float64)
        again = unpack_array(pack_array(array))
        assert again.dtype == array.dtype
        assert again.tobytes() == array.tobytes()
        # Signed zeros survive (a value-level check would miss this).
        assert np.signbit(again[1]) and not np.signbit(again[0])

    def test_int_dtypes_round_trip(self):
        for dtype in (np.int32, np.int64):
            array = np.array([-1, 0, 7, 2**30], dtype=dtype)
            again = unpack_array(pack_array(array))
            assert again.dtype == array.dtype
            assert np.array_equal(again, array)

    def test_2d_shape_survives(self):
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert unpack_array(pack_array(array)).shape == (3, 4)

    def test_unpacked_array_is_read_only(self):
        again = unpack_array(pack_array(np.zeros(3)))
        with pytest.raises(ValueError):
            again[0] = 1.0

    def test_rejects_unpackable_dtypes(self):
        with pytest.raises(ValueError):
            pack_array(np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError):
            unpack_array({"dtype": "<f4", "shape": [0], "data": ""})

    @given(
        st.lists(edge_or_any_float, min_size=0, max_size=64).map(
            lambda vals: np.array(vals, dtype=np.float64)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_pack_is_byte_stable(self, array):
        packed = pack_array(array)
        # Through JSON text — the artifact's actual save/load transport.
        reloaded = unpack_array(json.loads(json.dumps(packed)))
        assert reloaded.tobytes() == array.astype("<f8").tobytes()
        assert pack_array(reloaded) == packed


class TestFlatTree:
    def test_from_cart_requires_a_fitted_tree(self):
        with pytest.raises(RuntimeError):
            FlatTree.from_cart(CartTree())

    def test_fit_is_refused(self):
        flat = FlatTree.from_cart(fitted_tree()[0])
        with pytest.raises(RuntimeError):
            flat.fit(np.zeros((2, 4)), np.zeros(2))

    def test_empty_batch_returns_well_shaped_empty(self):
        flat = FlatTree.from_cart(fitted_tree()[0])
        out = flat.predict(np.empty((0, 4)))
        assert out.shape == (0,) and out.dtype == np.float64
        mean, std = flat.predict_with_std(np.empty((0, 4)))
        assert mean.shape == (0,) and std.shape == (0,)

    def test_single_vector_predicts_one_value(self):
        tree, X = fitted_tree()
        flat = FlatTree.from_cart(tree)
        assert flat.predict(X[0]).shape == (1,)
        assert flat.predict(X[0])[0] == tree.predict(X[:1])[0]

    def test_single_leaf_tree(self):
        tree = CartTree().fit(np.ones((10, 3)), np.full(10, 2.5))
        flat = FlatTree.from_cart(tree)
        assert flat.n_nodes == 1
        assert flat.n_leaves() == 1
        assert flat.depth() == 0
        assert np.all(flat.predict(np.zeros((5, 3))) == 2.5)

    def test_shape_statistics_match_the_object_tree(self):
        tree, _ = fitted_tree(max_depth=5, min_samples_leaf=3)
        flat = FlatTree.from_cart(tree)
        assert flat.n_leaves() == tree.n_leaves()
        assert flat.depth() == tree.depth()
        assert int(flat.n_samples[0]) == tree.root.n_samples

    def test_leaves_are_marked_with_the_sentinel(self):
        flat = FlatTree.from_cart(fitted_tree()[0])
        leaves = flat.feature == LEAF
        assert np.all(np.isnan(flat.threshold[leaves]))
        assert np.all(flat.left[leaves] == LEAF)
        assert np.all(flat.right[leaves] == LEAF)
        assert not np.any(np.isnan(flat.threshold[~leaves]))

    def test_to_cart_rebuilds_the_exact_tree(self):
        tree, _ = fitted_tree(max_depth=6)
        rebuilt = FlatTree.from_cart(tree).to_cart()
        assert rebuilt.to_dict() == tree.to_dict()

    def test_dict_round_trip_is_hash_stable(self):
        flat = FlatTree.from_cart(fitted_tree()[0])
        payload = json.loads(json.dumps(flat.to_dict()))
        again = flat_from_dict(payload)
        assert isinstance(again, FlatTree)
        assert again.digest() == flat.digest()
        assert again.to_dict() == flat.to_dict()

    def test_rejects_non_2d_matrices(self):
        flat = FlatTree.from_cart(fitted_tree()[0])
        with pytest.raises(ValueError):
            flat.leaf_indices(np.zeros((2, 2, 2)))


class TestFlatForest:
    def test_from_forest_requires_a_fitted_forest(self):
        with pytest.raises(RuntimeError):
            FlatForest.from_forest(RandomForestRegressor())

    def test_fit_is_refused(self):
        flat = FlatForest.from_forest(fitted_forest()[0])
        with pytest.raises(RuntimeError):
            flat.fit(np.zeros((2, 4)), np.zeros(2))

    def test_empty_batch_returns_well_shaped_empty(self):
        flat = FlatForest.from_forest(fitted_forest()[0])
        assert flat.predict(np.empty((0, 4))).shape == (0,)
        assert flat.predict_std(np.empty((0, 4))).shape == (0,)

    def test_to_forest_rebuilds_an_identical_ensemble(self):
        forest, X = fitted_forest()
        rebuilt = FlatForest.from_forest(forest).to_forest()
        assert np.array_equal(rebuilt.predict(X), forest.predict(X))
        assert np.array_equal(rebuilt.predict_std(X), forest.predict_std(X))

    def test_dict_round_trip_is_hash_stable(self):
        flat = FlatForest.from_forest(fitted_forest()[0])
        payload = json.loads(json.dumps(flat.to_dict()))
        again = flat_from_dict(payload)
        assert isinstance(again, FlatForest)
        assert again.digest() == flat.digest()
        assert again.to_dict() == flat.to_dict()


class TestStructuralCheck:
    """Unit cases for ``check``; link and range corruptions are driven
    through artifact loading in ``tests/serving/test_artifacts.py``."""

    def test_fitted_trees_and_forests_pass(self):
        FlatTree.from_cart(fitted_tree()[0]).check(4)
        FlatTree.from_cart(CartTree().fit(np.ones((4, 2)), np.ones(4))).check(2)
        FlatForest.from_forest(fitted_forest()[0]).check(4)

    def test_ragged_or_empty_arrays_are_refused(self):
        flat = FlatTree.from_cart(fitted_tree()[0])
        with pytest.raises(ValueError, match="equal length"):
            replace(flat, sse=flat.sse[:-1]).check(4)
        empty = FlatTree(*(a[:0] for a in flat._arrays().values()))
        with pytest.raises(ValueError, match="non-empty"):
            empty.check(4)

    def test_float_links_are_refused(self):
        flat = FlatTree.from_cart(fitted_tree()[0])
        with pytest.raises(ValueError, match="integer"):
            replace(flat, left=flat.left.astype(float)).check(4)

    def test_empty_forest_is_refused(self):
        with pytest.raises(ValueError, match="no trees"):
            FlatForest(trees=(), columns=()).check(4)


class TestDispatch:
    def test_cart_flattens_to_a_tree(self):
        assert isinstance(flatten_learner(fitted_tree()[0]), FlatTree)

    def test_forest_flattens_to_a_forest(self):
        assert isinstance(flatten_learner(fitted_forest()[0]), FlatForest)

    def test_non_tree_learners_do_not_flatten(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(30, 3))
        y = rng.uniform(size=30)
        assert flatten_learner(KnnRegressor(k=3).fit(X, y)) is None
        assert flatten_learner(RidgeRegressor().fit(X, y)) is None

    def test_packed_carriers_hand_over_their_twin(self):
        """Packed models are served as themselves; the choice is made
        from the learner's type, never from an attribute it carries."""
        tree = FlatTree.from_cart(fitted_tree()[0])
        forest = FlatForest.from_forest(fitted_forest()[0])
        assert flatten_learner(tree) is tree
        assert flatten_learner(forest) is forest

        class Carrier:
            pass

        carrier = Carrier()
        carrier.flat = tree
        assert flatten_learner(carrier) is None

    def test_unknown_flat_kind_is_rejected(self):
        with pytest.raises(ValueError):
            flat_from_dict({"kind": "flat-mystery"})
