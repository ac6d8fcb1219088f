"""Flattened, vectorized CART inference: packed arrays, no node walks.

The fitted :class:`~repro.ml.cart.CartTree` is a linked structure of
Python :class:`~repro.ml.cart.CartNode` objects; batch prediction routes
index arrays level by level but still chases object pointers and
attribute lookups per visited node.  At serving scale that object walk
is the hot path's floor.  This module flattens a fitted tree into eight
packed numpy arrays — feature index, threshold, left/right child, leaf
mean/std, sample count and SSE per node, preorder — and traverses the
whole query matrix with a handful of gather/compare passes per tree
level instead of any per-node Python.

Correctness contract (enforced by ``tests/ml/test_flat_differential.py``):
:meth:`FlatTree.predict` is **bit-identical** to
:meth:`CartTree.predict` — the same ``x[feature] <= threshold`` float64
comparisons route to the same leaves, and the returned means are the
same float64 values, so downstream ranking (and therefore every
recommendation served over the wire) cannot diverge.  The packed form
also serializes deterministically (little-endian, C-order, base64), so
artifacts storing it are hash-stable, and :meth:`FlatTree.to_cart`
rebuilds the exact node tree when the object-form reference is needed.

:class:`FlatForest` packs a fitted
:class:`~repro.ml.forest.RandomForestRegressor` the same way, stacking
per-tree flat predictions and averaging exactly as the object ensemble
does.  :func:`flatten_learner` is the dispatch the serving layer uses:
tree-shaped learners come back packed, everything else returns None and
keeps its own vectorized ``predict``.  Decoded packed forms are
untrusted input until :meth:`FlatTree.check` / :meth:`FlatForest.check`
pass: a bad child link would otherwise loop or index out of range at
query time.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "pack_array",
    "unpack_array",
    "FlatTree",
    "FlatForest",
    "flatten_learner",
    "flat_from_dict",
]

#: Sentinel child/feature index marking a leaf node.
LEAF = -1

#: dtypes the packed wire form admits (explicit little-endian so the
#: bytes — and every hash over them — are identical across platforms).
_PACKABLE_DTYPES = {"<f8", "<i4", "<i8"}


def pack_array(array: np.ndarray) -> dict:
    """One numpy array as a JSON-compatible {dtype, shape, data} dict.

    The data is the raw little-endian C-order buffer, base64-encoded —
    a byte-exact, hash-stable form (±0.0, subnormals, NaN payloads all
    survive untouched, unlike any decimal text round-trip).
    """
    array = np.ascontiguousarray(array)
    dtype = array.dtype.newbyteorder("<").str
    if dtype not in _PACKABLE_DTYPES:
        raise ValueError(f"unpackable dtype {array.dtype!s}")
    little = array.astype(dtype, copy=False)
    return {
        "dtype": dtype,
        "shape": list(array.shape),
        "data": base64.b64encode(little.tobytes()).decode("ascii"),
    }


def unpack_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`pack_array`: one buffer copy, no parsing.

    Returns a native-endian, writeable-flag-cleared array; decoding is
    O(bytes) regardless of how many nodes the tree has.
    """
    dtype = str(payload["dtype"])
    if dtype not in _PACKABLE_DTYPES:
        raise ValueError(f"unpackable dtype {dtype!r}")
    raw = base64.b64decode(payload["data"])
    shape = tuple(int(n) for n in payload["shape"])
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    array = array.astype(array.dtype.newbyteorder("="), copy=True)
    array.setflags(write=False)
    return array


@dataclass
class FlatTree:
    """A fitted CART tree as packed arrays (inference-only).

    Nodes are stored preorder (root at index 0, left subtree before
    right — the same order :meth:`CartTree.to_dict` emits), so a tree
    flattened twice, or flattened after a dict round-trip, produces
    byte-identical arrays.

    Attributes:
        feature: split feature per node, int32; ``LEAF`` (-1) at leaves.
        threshold: split threshold per node, float64; NaN at leaves.
        left / right: child indices, int32; ``LEAF`` at leaves.
        mean / std / sse: per-node prediction statistics, float64.
        n_samples: per-node training-sample counts, int64.
        max_depth / min_samples_leaf / min_impurity_decrease /
            feature_names: the growth hyperparameters, carried so
            :meth:`to_cart` reconstructs an exactly equal tree.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    sse: np.ndarray
    n_samples: np.ndarray
    max_depth: int | None = None
    min_samples_leaf: int = 2
    min_impurity_decrease: float = 1e-9
    feature_names: tuple[str, ...] | None = None
    _depth: int = field(default=-1, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_cart(cls, tree) -> "FlatTree":
        """Flatten a fitted :class:`~repro.ml.cart.CartTree`."""
        if tree.root is None:
            raise RuntimeError("tree is not fitted")
        nodes = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        index_of = {id(node): i for i, node in enumerate(nodes)}
        n = len(nodes)
        feature = np.full(n, LEAF, dtype=np.int32)
        threshold = np.full(n, np.nan, dtype=np.float64)
        left = np.full(n, LEAF, dtype=np.int32)
        right = np.full(n, LEAF, dtype=np.int32)
        mean = np.empty(n, dtype=np.float64)
        std = np.empty(n, dtype=np.float64)
        sse = np.empty(n, dtype=np.float64)
        n_samples = np.empty(n, dtype=np.int64)
        for i, node in enumerate(nodes):
            mean[i] = node.mean
            std[i] = node.std
            sse[i] = node.sse
            n_samples[i] = node.n_samples
            if not node.is_leaf:
                feature[i] = node.feature
                threshold[i] = node.threshold
                left[i] = index_of[id(node.left)]
                right[i] = index_of[id(node.right)]
        for array in (feature, threshold, left, right, mean, std, sse, n_samples):
            array.setflags(write=False)
        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            mean=mean,
            std=std,
            sse=sse,
            n_samples=n_samples,
            max_depth=tree.max_depth,
            min_samples_leaf=tree.min_samples_leaf,
            min_impurity_decrease=tree.min_impurity_decrease,
            feature_names=(
                tuple(tree.feature_names) if tree.feature_names else None
            ),
        )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of packed nodes."""
        return int(self.feature.shape[0])

    def n_leaves(self) -> int:
        """Number of leaves."""
        return int(np.count_nonzero(self.feature == LEAF))

    def depth(self) -> int:
        """Depth of the tree (0 = stump), computed once and memoized."""
        if self._depth < 0:
            depths = np.zeros(self.n_nodes, dtype=np.int64)
            # Parents precede children in preorder, so one forward scan
            # settles every node's depth.
            for i in range(self.n_nodes):
                if self.feature[i] != LEAF:
                    depths[self.left[i]] = depths[i] + 1
                    depths[self.right[i]] = depths[i] + 1
            self._depth = int(depths.max(initial=0))
        return self._depth

    # ------------------------------------------------------------------
    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index per row of an (n, d) matrix.

        The traversal is vectorized across rows: each pass gathers the
        active rows' current nodes, compares ``X[row, feature]`` against
        the packed thresholds in one numpy expression, and advances to
        the packed children.  Rows that reach a leaf drop out of the
        active set, so total work is O(sum of per-level active rows),
        the same node-visit count as the object walk — minus the
        per-node Python.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n = X.shape[0]
        where = np.zeros(n, dtype=np.intp)
        if n == 0 or self.n_nodes == 1:
            return where
        rows = np.flatnonzero(self.feature[where] != LEAF)
        while rows.size:
            node = where[rows]
            goes_left = X[rows, self.feature[node]] <= self.threshold[node]
            advanced = np.where(goes_left, self.left[node], self.right[node])
            where[rows] = advanced
            rows = rows[self.feature[advanced] != LEAF]
        return where

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for an (n, d) matrix (or a single d-vector).

        Bit-identical to :meth:`CartTree.predict`: identical float64
        comparisons route identical rows to identical leaves, and the
        returned means are the identical float64 leaf values.  An
        empty batch returns a well-shaped empty array.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        return self.mean[self.leaf_indices(X)]

    def predict_with_std(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row leaf (mean, std) arrays — Figure 4 node contents,
        vectorized across the whole batch."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        where = self.leaf_indices(X)
        return self.mean[where], self.std[where]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FlatTree":
        """Packed trees are inference-only; fit a CartTree and flatten."""
        raise RuntimeError(
            "FlatTree is inference-only; fit a CartTree and flatten it"
        )

    # ------------------------------------------------------------------
    def to_cart(self):
        """Rebuild the exact :class:`~repro.ml.cart.CartTree`."""
        from repro.ml.cart import CartNode, CartTree

        nodes = [
            CartNode(
                mean=float(self.mean[i]),
                std=float(self.std[i]),
                n_samples=int(self.n_samples[i]),
                sse=float(self.sse[i]),
                feature=int(self.feature[i]) if self.feature[i] != LEAF else None,
                threshold=(
                    float(self.threshold[i]) if self.feature[i] != LEAF else None
                ),
            )
            for i in range(self.n_nodes)
        ]
        for i, node in enumerate(nodes):
            if self.feature[i] != LEAF:
                node.left = nodes[self.left[i]]
                node.right = nodes[self.right[i]]
        return CartTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            feature_names=self.feature_names,
            root=nodes[0],
        )

    # ------------------------------------------------------------------
    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "mean": self.mean,
            "std": self.std,
            "sse": self.sse,
            "n_samples": self.n_samples,
        }

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible, hash-stable packed document."""
        return {
            "kind": "flat-cart",
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "min_impurity_decrease": self.min_impurity_decrease,
            "feature_names": (
                list(self.feature_names) if self.feature_names else None
            ),
            "arrays": {name: pack_array(a) for name, a in self._arrays().items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FlatTree":
        """Rebuild from :meth:`to_dict` output — one buffer copy per
        array, no per-node parsing."""
        arrays = {
            name: unpack_array(payload["arrays"][name])
            for name in ("feature", "threshold", "left", "right",
                         "mean", "std", "sse", "n_samples")
        }
        names = payload.get("feature_names")
        return cls(
            **arrays,
            max_depth=payload["max_depth"],
            min_samples_leaf=payload["min_samples_leaf"],
            min_impurity_decrease=payload["min_impurity_decrease"],
            feature_names=tuple(names) if names else None,
        )

    def check(self, width: int) -> None:
        """Raise ValueError unless this is a well-formed preorder tree.

        Requires equal-length 1-D arrays (integer-typed where they
        index), forward child links on internal nodes (``i < left[i] <
        right[i] < n``, so every traversal terminates inside the
        arrays), ``LEAF`` children on leaves, and split features below
        ``width``, the query matrix's column count.
        """
        arrays = self._arrays()
        n = self.feature.size
        if n < 1 or any(a.shape != (n,) for a in arrays.values()):
            raise ValueError("packed tree arrays must be 1-D, non-empty, equal length")
        if any(arrays[k].dtype.kind != "i" for k in ("feature", "left", "right")):
            raise ValueError("packed tree feature/left/right must be integer arrays")
        internal = self.feature != LEAF
        if np.any(self.left[~internal] != LEAF) or np.any(self.right[~internal] != LEAF):
            raise ValueError("packed tree leaves must have LEAF children")
        index = np.flatnonzero(internal)
        left, right = self.left[internal], self.right[internal]
        if not np.all((index < left) & (left < right) & (right < n)):
            raise ValueError("packed tree child links must satisfy i < left < right < n")
        feature = self.feature[internal]
        if np.any((feature < 0) | (feature >= width)):
            raise ValueError(f"packed tree split features must lie in [0, {width})")

    def digest(self) -> str:
        """SHA-256 over the packed buffers — the tree's byte identity."""
        h = hashlib.sha256()
        for name, array in sorted(self._arrays().items()):
            h.update(name.encode("ascii"))
            h.update(np.ascontiguousarray(array).astype(
                array.dtype.newbyteorder("<"), copy=False).tobytes())
        return h.hexdigest()


@dataclass
class FlatForest:
    """A fitted random forest as packed per-tree arrays (inference-only).

    Prediction stacks each flat tree's predictions over its column
    subset and averages across trees — the same ``votes.mean(axis=0)``
    float64 reduction :meth:`RandomForestRegressor.predict` computes,
    so the ensemble output is bit-identical too.
    """

    trees: tuple[FlatTree, ...]
    columns: tuple[np.ndarray, ...]
    n_trees: int = 25
    min_samples_leaf: int = 3
    feature_fraction: float = 0.8
    seed: int = 20130917

    @classmethod
    def from_forest(cls, forest) -> "FlatForest":
        """Flatten a fitted :class:`RandomForestRegressor`."""
        if not forest._trees:
            raise RuntimeError("model is not fitted")
        trees = tuple(FlatTree.from_cart(tree) for tree, _ in forest._trees)
        columns = tuple(
            np.asarray(cols, dtype=np.int64) for _, cols in forest._trees
        )
        return cls(
            trees=trees,
            columns=columns,
            n_trees=forest.n_trees,
            min_samples_leaf=forest.min_samples_leaf,
            feature_fraction=forest.feature_fraction,
            seed=forest.seed,
        )

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Bit-identical to the object ensemble's prediction."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        votes = np.stack(
            [tree.predict(X[:, cols]) for tree, cols in zip(self.trees, self.columns)]
        )
        return votes.mean(axis=0)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Ensemble spread, matching :meth:`RandomForestRegressor.predict_std`."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        votes = np.stack(
            [tree.predict(X[:, cols]) for tree, cols in zip(self.trees, self.columns)]
        )
        return votes.std(axis=0)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FlatForest":
        """Packed forests are inference-only."""
        raise RuntimeError(
            "FlatForest is inference-only; fit a RandomForestRegressor "
            "and flatten it"
        )

    # ------------------------------------------------------------------
    def to_forest(self):
        """Rebuild the exact :class:`RandomForestRegressor`."""
        from repro.ml.forest import RandomForestRegressor

        forest = RandomForestRegressor(
            n_trees=self.n_trees,
            min_samples_leaf=self.min_samples_leaf,
            feature_fraction=self.feature_fraction,
            seed=self.seed,
        )
        forest._trees = [
            (tree.to_cart(), np.asarray(cols, dtype=int))
            for tree, cols in zip(self.trees, self.columns)
        ]
        return forest

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible, hash-stable packed document."""
        return {
            "kind": "flat-forest",
            "n_trees": self.n_trees,
            "min_samples_leaf": self.min_samples_leaf,
            "feature_fraction": self.feature_fraction,
            "seed": self.seed,
            "trees": [
                {"tree": tree.to_dict(), "columns": pack_array(cols)}
                for tree, cols in zip(self.trees, self.columns)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FlatForest":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            trees=tuple(
                FlatTree.from_dict(raw["tree"]) for raw in payload["trees"]
            ),
            columns=tuple(
                unpack_array(raw["columns"]) for raw in payload["trees"]
            ),
            n_trees=payload["n_trees"],
            min_samples_leaf=payload["min_samples_leaf"],
            feature_fraction=payload["feature_fraction"],
            seed=payload["seed"],
        )

    def check(self, width: int) -> None:
        """Raise ValueError unless every member tree passes
        :meth:`FlatTree.check` over its column subset and every column
        index lies in ``[0, width)``."""
        if not self.trees:
            raise ValueError("packed forest has no trees")
        for tree, cols in zip(self.trees, self.columns):
            if cols.ndim != 1 or cols.dtype.kind != "i":
                raise ValueError("packed forest columns must be 1-D integer arrays")
            if np.any((cols < 0) | (cols >= width)):
                raise ValueError(f"packed forest columns must lie in [0, {width})")
            tree.check(cols.shape[0])

    def digest(self) -> str:
        """SHA-256 over all member trees' packed buffers."""
        h = hashlib.sha256()
        for tree, cols in zip(self.trees, self.columns):
            h.update(tree.digest().encode("ascii"))
            h.update(np.ascontiguousarray(cols).astype("<i8").tobytes())
        return h.hexdigest()


def flat_from_dict(payload: dict) -> FlatTree | FlatForest:
    """Decode either packed form by its ``kind`` tag."""
    kind = payload.get("kind")
    if kind == "flat-cart":
        return FlatTree.from_dict(payload)
    if kind == "flat-forest":
        return FlatForest.from_dict(payload)
    raise ValueError(f"unknown flat payload kind {kind!r}")


def flatten_learner(model) -> FlatTree | FlatForest | None:
    """The serving layer's dispatch: the packed form, or None.

    CART trees and random forests flatten, an already-packed model is
    returned as is, and any other learner returns None and serves
    through its own ``predict``.
    """
    from repro.ml.cart import CartTree
    from repro.ml.forest import RandomForestRegressor

    if isinstance(model, (FlatTree, FlatForest)):
        return model
    if isinstance(model, CartTree):
        return FlatTree.from_cart(model)
    if isinstance(model, RandomForestRegressor):
        return FlatForest.from_forest(model)
    return None
