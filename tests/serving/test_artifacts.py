"""Tests for versioned model artifacts: exact round-trips, tamper checks."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.configurator import Acic
from repro.core.objectives import Goal
from repro.ml.encoding import FeatureEncoder, point_values
from repro.ml.flat import LEAF, FlatForest, FlatTree, pack_array, unpack_array
from repro.ml.registry import available_learners
from repro.serving.artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ArtifactError,
    ModelArtifact,
    acic_from_artifact,
    artifact_from_dict,
    artifact_to_dict,
    load_artifact,
    save_artifact,
)
from repro.space.grid import candidate_configs

GOLDEN_V2 = Path(__file__).parents[1] / "golden" / "v2"


def set_element(tree: dict, name: str, index: int, value) -> None:
    """Overwrite one element of a packed array in a flat-cart document."""
    array = unpack_array(tree["arrays"][name]).copy()
    array[index] = value
    tree["arrays"][name] = pack_array(array)


def rehash(payload: dict) -> dict:
    """Recompute the content hash, as a careless (not hostile) writer would."""
    body = {k: v for k, v in payload.items() if k != "content_hash"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    payload["content_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    return payload


def _trained(small_pipeline, learner_name, goal=Goal.PERFORMANCE):
    screening, database = small_pipeline
    return Acic(
        database,
        goal=goal,
        learner_name=learner_name,
        feature_names=tuple(screening.ranked_names()[:5]),
    ).train()


def _grid_matrix(acic, simple_chars):
    """The full candidate-grid join, encoded for the model."""
    candidates = candidate_configs(simple_chars)
    return acic.encoder.encode_many(
        [point_values(config, simple_chars) for config in candidates]
    )


class TestRoundTrip:
    @pytest.mark.parametrize("learner_name", available_learners())
    def test_identical_predictions_for_every_learner(
        self, small_pipeline, simple_chars, learner_name, tmp_path
    ):
        acic = _trained(small_pipeline, learner_name)
        path = tmp_path / f"{learner_name}.json"
        save_artifact(ModelArtifact.from_acic(acic), path)
        restored = load_artifact(path)

        X = _grid_matrix(acic, simple_chars)
        np.testing.assert_array_equal(
            acic.model.predict(X), restored.model.predict(X)
        )

    @pytest.mark.parametrize("learner_name", available_learners())
    def test_double_round_trip_is_byte_stable(
        self, small_pipeline, learner_name, tmp_path
    ):
        acic = _trained(small_pipeline, learner_name)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        hash_one = save_artifact(ModelArtifact.from_acic(acic), first)
        hash_two = save_artifact(load_artifact(first), second)
        assert hash_one == hash_two
        assert json.loads(first.read_text()) == json.loads(second.read_text())

    def test_recommendations_survive(self, small_pipeline, simple_chars, tmp_path):
        _, database = small_pipeline
        acic = _trained(small_pipeline, "cart", goal=Goal.COST)
        path = tmp_path / "model.json"
        save_artifact(ModelArtifact.from_acic(acic), path)
        served = acic_from_artifact(database, load_artifact(path))
        assert served.recommend(simple_chars, top_k=5) == acic.recommend(
            simple_chars, top_k=5
        )
        assert served.co_champions(simple_chars) == acic.co_champions(simple_chars)

    def test_provenance_captured(self, small_pipeline, tmp_path):
        _, database = small_pipeline
        acic = _trained(small_pipeline, "cart")
        path = tmp_path / "model.json"
        save_artifact(ModelArtifact.from_acic(acic), path)
        artifact = load_artifact(path)
        assert artifact.platform == database.platform_name
        assert artifact.database_points == len(database)
        assert artifact.learner == "cart"
        assert artifact.goal is Goal.PERFORMANCE
        assert artifact.encoder.names == acic.encoder.names

    def test_untrained_model_refused(self, small_pipeline):
        screening, database = small_pipeline
        acic = Acic(database, feature_names=tuple(screening.ranked_names()[:5]))
        with pytest.raises(RuntimeError, match="train"):
            ModelArtifact.from_acic(acic)


class TestVerification:
    @pytest.fixture()
    def saved(self, small_pipeline, tmp_path):
        acic = _trained(small_pipeline, "cart")
        path = tmp_path / "model.json"
        save_artifact(ModelArtifact.from_acic(acic), path)
        return path

    def test_tampered_model_rejected(self, saved):
        payload = json.loads(saved.read_text())
        mean = unpack_array(payload["model"]["arrays"]["mean"])
        set_element(payload["model"], "mean", 0, mean[0] + 1.0)
        saved.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="hash mismatch"):
            load_artifact(saved)

    def test_tampered_hash_rejected(self, saved):
        payload = json.loads(saved.read_text())
        payload["content_hash"] = "0" * 64
        saved.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="hash mismatch"):
            load_artifact(saved)

    def test_wrong_format_rejected(self, saved):
        payload = json.loads(saved.read_text())
        payload["format"] = "pickle"
        saved.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="not an ACIC model artifact"):
            load_artifact(saved)

    def test_future_version_rejected(self, saved):
        payload = json.loads(saved.read_text())
        payload["version"] = 999
        saved.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="version"):
            load_artifact(saved)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(path)

    def test_format_constant_in_payload(self, saved):
        assert json.loads(saved.read_text())["format"] == ARTIFACT_FORMAT

    def test_platform_mismatch_rejected(self, saved, small_pipeline):
        from repro.core.database import TrainingDatabase

        artifact = load_artifact(saved)
        foreign = TrainingDatabase("azure-west")
        with pytest.raises(ArtifactError, match="platform"):
            acic_from_artifact(foreign, artifact)


class TestVersion3Layout:
    @pytest.mark.parametrize("learner_name", available_learners())
    def test_each_model_is_stored_once(self, small_pipeline, learner_name):
        acic = _trained(small_pipeline, learner_name)
        payload = artifact_to_dict(ModelArtifact.from_acic(acic))
        assert ARTIFACT_VERSION == payload["version"] == 3
        assert "flat" not in payload
        kind = {"cart": "flat-cart", "forest": "flat-forest"}.get(learner_name)
        if kind is not None:
            assert payload["model"]["kind"] == kind
        else:
            assert set(payload["model"]) == {"class", "state"}

    @pytest.mark.parametrize("learner_name", available_learners())
    def test_trees_load_packed(self, small_pipeline, learner_name):
        acic = _trained(small_pipeline, learner_name)
        model = artifact_from_dict(
            artifact_to_dict(ModelArtifact.from_acic(acic))
        ).model
        packed = isinstance(model, (FlatTree, FlatForest))
        assert packed == (learner_name in ("cart", "forest"))

    @pytest.mark.parametrize("name", ["cart", "forest", "knn", "ridge"])
    def test_v2_fixture_loads_in_v3_form(self, name):
        artifact = load_artifact(
            GOLDEN_V2 / f"model-ec2-us-east-performance-{name}.json"
        )
        resaved = artifact_to_dict(artifact)
        assert resaved["version"] == 3 and "flat" not in resaved
        if name in ("cart", "forest"):
            v2 = json.loads(
                (GOLDEN_V2 / f"model-ec2-us-east-performance-{name}.json").read_text()
            )
            assert resaved["model"] == v2["flat"]


#: Structural corruptions of one packed tree; each must be refused at
#: load, never reach ``predict`` (a cyclic link loops forever there).
CORRUPTIONS = (
    "cyclic_left",
    "right_before_left",
    "child_out_of_range",
    "leaf_with_child",
    "feature_out_of_range",
    "ragged_arrays",
)


def corrupt(tree: dict, corruption: str, width: int) -> None:
    """Apply one of :data:`CORRUPTIONS` to a flat-cart document."""
    arrays = tree["arrays"]
    if corruption == "ragged_arrays":
        arrays["mean"] = pack_array(unpack_array(arrays["mean"])[:-1])
        return
    feature = unpack_array(arrays["feature"])
    n = feature.shape[0]
    i = int(np.flatnonzero(feature != LEAF)[-1])  # the last internal node
    name, index, value = {
        "cyclic_left": ("left", i, 0),
        "right_before_left": ("right", i, i + 1),  # left[i] == i + 1
        "child_out_of_range": ("right", i, n + 5),
        "leaf_with_child": ("left", n - 1, 0),  # preorder ends on a leaf
        "feature_out_of_range": ("feature", i, width),
    }[corruption]
    set_element(tree, name, index, value)


class TestStructuralChecks:
    @pytest.fixture()
    def v3_cart(self, small_pipeline):
        acic = _trained(small_pipeline, "cart")
        return artifact_to_dict(ModelArtifact.from_acic(acic))

    @pytest.fixture()
    def v2_cart(self):
        path = GOLDEN_V2 / "model-ec2-us-east-performance-cart.json"
        return json.loads(path.read_text())

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_bad_v3_tree_is_refused(self, v3_cart, corruption):
        corrupt(v3_cart["model"], corruption, len(v3_cart["feature_names"]))
        with pytest.raises(ArtifactError, match="malformed"):
            artifact_from_dict(rehash(v3_cart))

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_bad_v2_flat_section_is_refused(self, v2_cart, corruption):
        corrupt(v2_cart["flat"], corruption, len(v2_cart["feature_names"]))
        with pytest.raises(ArtifactError, match="malformed"):
            artifact_from_dict(rehash(v2_cart))

    def test_forest_column_out_of_range_is_refused(self, small_pipeline):
        acic = _trained(small_pipeline, "forest")
        payload = artifact_to_dict(ModelArtifact.from_acic(acic))
        member = payload["model"]["trees"][0]
        columns = unpack_array(member["columns"]).copy()
        columns[0] = acic.encoder.width
        member["columns"] = pack_array(columns)
        with pytest.raises(ArtifactError, match="columns"):
            artifact_from_dict(rehash(payload))

    def test_forest_member_tree_is_checked(self, small_pipeline):
        acic = _trained(small_pipeline, "forest")
        payload = artifact_to_dict(ModelArtifact.from_acic(acic))
        corrupt(payload["model"]["trees"][0]["tree"], "cyclic_left", 0)
        with pytest.raises(ArtifactError, match="i < left < right < n"):
            artifact_from_dict(rehash(payload))

    def test_untouched_documents_still_load(self, v3_cart, v2_cart):
        artifact_from_dict(rehash(v3_cart))
        artifact_from_dict(rehash(v2_cart))


class TestEncoderSerialization:
    def test_default_encoder_round_trip(self):
        encoder = FeatureEncoder()
        restored = FeatureEncoder.from_dict(encoder.to_dict())
        assert restored.names == encoder.names
        assert restored.parameters == encoder.parameters

    def test_subset_encoder_round_trip(self):
        encoder = FeatureEncoder(["data_bytes", "op", "file_system"])
        restored = FeatureEncoder.from_dict(encoder.to_dict())
        assert restored.names == ("data_bytes", "op", "file_system")

    def test_extended_parameter_round_trip(self):
        from repro.space.configuration import FileSystemKind
        from repro.space.extension import SpaceExtension

        extension = SpaceExtension({"file_system": (FileSystemKind.LUSTRE,)})
        encoder = FeatureEncoder(extension.extended_parameters())
        restored = FeatureEncoder.from_dict(encoder.to_dict())
        assert restored.parameters == encoder.parameters
        # encoding behaviour survives, including the extension values
        for parameter, twin in zip(encoder.parameters, restored.parameters):
            for value in parameter.values:
                assert twin.encode(value) == parameter.encode(value)
