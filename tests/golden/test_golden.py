"""Golden corpus: frozen artifact packs and their byte-exact answers.

``v1/`` and ``v2/`` are service packs written by the version-1 and
version-2 artifact writers from one 96-record training database: CART,
random forest, kNN and ridge models for both goals.  ``corpus.json``
holds 384 seeded, distinct queries (every learner and goal, top-k 1 and
3) and the wire payloads the packs answered them with when captured.

A change to the artifact format, the inference core or the ranking
must leave every answer here byte-identical, on every pack version it
can still read, after re-saving in its own format, and through the
object-tree reference walk that ``Acic.recommend`` performs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service.api import QueryRequest
from repro.service.server import AcicService
from repro.serving.artifacts import ARTIFACT_VERSION

GOLDEN = Path(__file__).parent
PACKS = ("v1", "v2")


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def corpus():
    doc = json.loads((GOLDEN / "corpus.json").read_text())
    queries = [QueryRequest.from_payload(q) for q in doc["queries"]]
    return queries, [canonical(answer) for answer in doc["answers"]]


def assert_corpus_answers(responses, want) -> None:
    got = [canonical(response.to_payload()) for response in responses]
    assert len(got) == len(want)
    mismatched = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not mismatched, (
        f"{len(mismatched)} answers differ; first #{mismatched[0]}:\n"
        f"  got  {got[mismatched[0]]}\n  want {want[mismatched[0]]}"
    )


def model_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("model-*.json"))


def test_corpus_covers_every_learner_goal_and_top_k(corpus):
    queries, _ = corpus
    assert len({q.fingerprint for q in queries}) == len(queries) >= 300
    assert {(q.learner, q.goal, q.top_k) for q in queries} == {
        (learner, goal, top_k)
        for learner in ("cart", "forest", "knn", "ridge")
        for goal in {q.goal for q in queries}
        for top_k in (1, 3)
    }
    assert len({q.goal for q in queries}) == 2


@pytest.mark.parametrize("pack", PACKS)
def test_fixture_pack_is_the_version_it_claims(pack):
    files = model_files(GOLDEN / pack)
    assert len(files) == 8
    for path in files:
        document = json.loads(path.read_text())
        assert document["version"] == int(pack[1:])
        tree_shaped = document["learner"] in ("cart", "forest")
        assert (document.get("flat") is not None) == (
            pack == "v2" and tree_shaped
        )


@pytest.mark.parametrize("pack", PACKS)
def test_batch_answers_are_byte_identical(pack, corpus):
    queries, want = corpus
    service = AcicService.load(GOLDEN / pack)
    assert_corpus_answers(service.query_batch(queries), want)


@pytest.mark.parametrize("pack", PACKS)
def test_reference_walk_answers_are_byte_identical(pack, corpus):
    """Sequential ``handle`` over object-form models: Acic.recommend."""
    queries, want = corpus
    service = AcicService.load(GOLDEN / pack, use_flat=False)
    assert_corpus_answers([service.handle(q) for q in queries], want)


@pytest.mark.parametrize("pack", PACKS)
def test_resave_answers_identically_and_is_byte_stable(pack, corpus, tmp_path):
    queries, want = corpus
    first, second = tmp_path / "first", tmp_path / "second"
    AcicService.load(GOLDEN / pack).save(first)
    for path in model_files(first):
        assert json.loads(path.read_text())["version"] == ARTIFACT_VERSION

    resaved = AcicService.load(first)
    assert_corpus_answers(resaved.query_batch(queries), want)
    resaved.save(second)
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes(), path.name


def test_every_pack_version_resaves_to_the_same_bytes(tmp_path):
    for pack in PACKS:
        AcicService.load(GOLDEN / pack).save(tmp_path / pack)
    v1, v2 = (tmp_path / pack for pack in PACKS)
    assert [p.name for p in sorted(v1.iterdir())] == [
        p.name for p in sorted(v2.iterdir())
    ]
    for path in sorted(v1.iterdir()):
        assert path.read_bytes() == (v2 / path.name).read_bytes(), path.name
