"""Versioned model artifacts: ship a trained ACIC model as one JSON file.

The paper frames ACIC as a shared service — train once on a platform's
crowdsourced database, answer everyone's queries.  That only works if a
trained model is a *thing that can be shipped*: saved by the operator who
paid for training, loaded by any number of query servers, and verified
untampered on arrival.  An artifact is a single JSON document carrying

* the fitted model, stored once: a CART tree or random forest as its
  packed :mod:`repro.ml.flat` document (base64 little-endian buffers,
  decoded with one buffer copy per array and checked for well-formed
  links before it may serve), any other learner as its exact
  ``to_dict`` state (floats survive via shortest-repr JSON, so a
  reloaded model is prediction-identical, not approximately equal);
* the feature-encoder column layout, including extension dimensions;
* provenance: platform, goal, learner name, database size and epoch
  span — what a client needs to judge freshness;
* a SHA-256 content hash over the canonical JSON form, checked on load.

The document — and its content hash — is byte-stable across
save/load/save cycles (the property the generation-identity tests pin).

Format changes bump :data:`ARTIFACT_VERSION`; loaders accept the
versions in :data:`_READABLE_VERSIONS` and reject anything else rather
than misinterpreting it.  Version 1 stored trees as object node lists
(flattened on load); version 2 stored those node lists next to a
``flat`` section (served from the ``flat`` section).  Every version
loads a tree-shaped model as a :class:`~repro.ml.flat.FlatTree` or
:class:`~repro.ml.flat.FlatForest`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.configurator import Acic
from repro.core.database import TrainingDatabase
from repro.core.objectives import Goal
from repro.ml.cart import CartTree
from repro.ml.encoding import FeatureEncoder
from repro.ml.flat import flat_from_dict, flatten_learner
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KnnRegressor
from repro.ml.linear import RidgeRegressor
from repro.ml.registry import Learner

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ModelArtifact",
    "artifact_to_dict",
    "artifact_from_dict",
    "save_artifact",
    "load_artifact",
    "acic_from_artifact",
]

ARTIFACT_FORMAT = "acic-model-artifact"
ARTIFACT_VERSION = 3

#: Versions this build can decode (see the module docstring).
_READABLE_VERSIONS = (1, 2, ARTIFACT_VERSION)

#: Object-state model classes, by class name (decode dispatch; the tree
#: classes appear only in version-1 and version-2 documents).
_MODEL_CLASSES: dict[str, type] = {
    cls.__name__: cls
    for cls in (CartTree, KnnRegressor, RidgeRegressor, RandomForestRegressor)
}


class ArtifactError(ValueError):
    """A malformed, tampered, or unsupported model artifact."""


@dataclass(frozen=True)
class ModelArtifact:
    """One trained model plus the provenance needed to serve it.

    Attributes:
        learner: registry name the model was built from ("cart", ...).
        goal: objective the targets were computed for.
        model: the fitted learner.
        encoder: feature column layout the model was trained over.
        platform: cloud platform the training data describes.
        database_points: training records behind the model.
        database_epochs: (oldest, newest) contribution epochs.
        generation: online-learning generation the model belongs to
            (0 = a boot-time fit; see :mod:`repro.online`).
    """

    learner: str
    goal: Goal
    model: Learner
    encoder: FeatureEncoder
    platform: str
    database_points: int
    database_epochs: tuple[int, int]
    generation: int = 0

    @classmethod
    def from_acic(cls, acic: Acic, generation: int = 0) -> "ModelArtifact":
        """Capture a trained configurator (RuntimeError if untrained)."""
        epochs = [record.epoch for record in acic.database]
        return cls(
            learner=acic.learner_name,
            goal=acic.goal,
            model=acic.model,
            encoder=acic.encoder,
            platform=acic.database.platform_name,
            database_points=len(acic.database),
            database_epochs=(min(epochs), max(epochs)) if epochs else (0, 0),
            generation=generation,
        )


def _model_to_dict(model: Learner) -> dict:
    """A tree's packed document, or any other learner's object state."""
    flat = flatten_learner(model)
    if flat is not None:
        return flat.to_dict()
    to_dict = getattr(model, "to_dict", None)
    if to_dict is None:
        raise ArtifactError(
            f"learner {type(model).__name__} does not support artifact "
            "serialization (no to_dict)"
        )
    return {"class": type(model).__name__, "state": to_dict()}


def _model_from_dict(payload: dict, width: int) -> Learner:
    """Decode the stored model; trees always come back packed.

    A packed section (a version-3 ``model``, or a version-2 ``flat``
    section) must pass its structural check against the encoder
    ``width`` before it may serve.
    """
    section = payload.get("flat") or payload["model"]
    if "kind" in section:
        flat = flat_from_dict(section)
        flat.check(width)
        return flat
    try:
        cls = _MODEL_CLASSES[section["class"]]
    except KeyError:
        known = ", ".join(sorted(_MODEL_CLASSES))
        raise ArtifactError(
            f"unknown model class {section.get('class')!r}; known: {known}"
        ) from None
    model = cls.from_dict(section["state"])
    flat = flatten_learner(model)
    return flat if flat is not None else model


def _content_hash(payload: dict) -> str:
    """SHA-256 of the canonical JSON form (hash field excluded)."""
    body = {key: value for key, value in payload.items() if key != "content_hash"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def artifact_to_dict(artifact: ModelArtifact) -> dict:
    """The artifact's JSON document, content hash included."""
    payload = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "learner": artifact.learner,
        "goal": artifact.goal.value,
        "model": _model_to_dict(artifact.model),
        "encoder": artifact.encoder.to_dict(),
        "feature_names": list(artifact.encoder.names),
        "provenance": {
            "platform": artifact.platform,
            "database_points": artifact.database_points,
            "database_epochs": list(artifact.database_epochs),
            "generation": artifact.generation,
        },
    }
    payload["content_hash"] = _content_hash(payload)
    return payload


def artifact_from_dict(payload: dict) -> ModelArtifact:
    """Validate and decode an artifact document (:class:`ArtifactError`)."""
    if not isinstance(payload, dict):
        raise ArtifactError("artifact must be a JSON object")
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"not an ACIC model artifact (format={payload.get('format')!r})"
        )
    if payload.get("version") not in _READABLE_VERSIONS:
        raise ArtifactError(
            f"unsupported artifact version {payload.get('version')!r} "
            f"(this build reads versions {list(_READABLE_VERSIONS)})"
        )
    stored = payload.get("content_hash")
    actual = _content_hash(payload)
    if stored != actual:
        raise ArtifactError(
            f"artifact content hash mismatch (stored {stored!r}, "
            f"computed {actual!r}) — refusing a tampered or truncated model"
        )
    try:
        encoder = FeatureEncoder.from_dict(payload["encoder"])
        model = _model_from_dict(payload, encoder.width)
        provenance = payload["provenance"]
        return ModelArtifact(
            learner=payload["learner"],
            goal=Goal(payload["goal"]),
            model=model,
            encoder=encoder,
            platform=provenance["platform"],
            database_points=int(provenance["database_points"]),
            database_epochs=tuple(provenance["database_epochs"]),
            generation=int(provenance.get("generation", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed artifact field: {exc}") from exc


def save_artifact(artifact: ModelArtifact, path: str | Path) -> str:
    """Write the artifact to ``path``; returns its content hash."""
    payload = artifact_to_dict(artifact)
    Path(path).write_text(json.dumps(payload))
    return payload["content_hash"]


def load_artifact(path: str | Path) -> ModelArtifact:
    """Read, verify and decode an artifact file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from exc
    return artifact_from_dict(payload)


def acic_from_artifact(database: TrainingDatabase, artifact: ModelArtifact) -> Acic:
    """A query-ready configurator wrapping the artifact's fitted model.

    Raises:
        ArtifactError: when the database's platform does not match the
            artifact's provenance — serving a model against another
            platform's data would misreport provenance.
    """
    if database.platform_name != artifact.platform:
        raise ArtifactError(
            f"artifact was trained for platform {artifact.platform!r}, "
            f"database is {database.platform_name!r}"
        )
    return Acic.from_fitted(
        database,
        artifact.model,
        goal=artifact.goal,
        learner_name=artifact.learner,
        encoder=artifact.encoder,
    )
