"""Mixed-format fleet differential: v2 and v3 replicas agree.

A rolling upgrade can leave a fleet serving one model from two artifact
formats at once: some replicas warm-start from a pack written by an
older build (version 2, node lists plus a ``flat`` section), others
from its re-save in the current format (the packed model stored once).
A router scattering over such a fleet — or failing over from one kind
of replica to the other mid-flight — must return byte-identical wire
responses either way, and they must equal the golden corpus answers
captured when the version-2 pack was written.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.replica import ReplicaHandle, ReplicaSpec
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.net.server import AcicServer, ServerThread
from repro.service.api import QueryRequest
from repro.service.server import AcicService
from repro.serving.artifacts import ARTIFACT_VERSION

from tests.golden.test_golden import GOLDEN, canonical

V2_PACK = GOLDEN / "v2"


def pack_versions(pack) -> set[int]:
    return {
        json.loads(path.read_text())["version"]
        for path in pack.glob("model-*.json")
    }


@pytest.fixture(scope="module")
def corpus():
    """(queries, canonical answers) from the golden corpus, 96 of them:
    every learner and goal, distinct fingerprints."""
    doc = json.loads((GOLDEN / "corpus.json").read_text())
    queries = [QueryRequest.from_payload(q) for q in doc["queries"][:96]]
    return queries, [canonical(a) for a in doc["answers"][:96]]


@pytest.fixture()
def mixed_fleet(tmp_path):
    """Two full-copy replicas: ``r0`` loads the version-2 pack, ``r1``
    its re-save in the current format.

    Both replicas own the platform (replication=2 over two nodes), so
    any query can be answered from either format — the condition under
    which byte-identity is actually load-bearing.
    """
    resaved = tmp_path / "resaved"
    AcicService.load(V2_PACK).save(resaved)
    # Confirm the fleet really is mixed before asserting sameness.
    assert pack_versions(V2_PACK) == {2}
    assert pack_versions(resaved) == {ARTIFACT_VERSION} != {2}
    platforms = tuple(AcicService.manifest_platforms(V2_PACK))
    members = []
    specs = []
    for name, pack in (("r0", V2_PACK), ("r1", resaved)):
        thread = ServerThread(
            AcicServer(AcicService.load(pack), host="127.0.0.1", port=0),
            drain=False,
        )
        host, port = thread.start()
        members.append(thread)
        specs.append(
            ReplicaSpec(name=name, host=host, port=port, platforms=platforms)
        )
    try:
        yield specs
    finally:
        for thread in members:
            thread.stop()


def router_for(specs) -> ClusterRouter:
    return ClusterRouter(
        [ReplicaHandle(spec) for spec in specs],
        config=RouterConfig(replication=2),
    )


def canonical_answers(responses):
    return [canonical(response.to_payload()) for response in responses]


class TestMixedEngineFleet:
    def test_both_engine_kinds_answer_byte_identically(self, mixed_fleet, corpus):
        queries, want = corpus
        router = router_for(mixed_fleet)
        try:
            got = router.query_batch(queries)
        finally:
            router.close()
        assert canonical_answers(got) == want
        assert not any(response.degraded for response in got)

    def test_failover_across_engine_kinds_is_byte_identical(
        self, mixed_fleet, corpus
    ):
        queries, want = corpus
        for survivor_index in (0, 1):  # v2 survivor, then v3
            router = router_for(mixed_fleet)
            try:
                doomed = mixed_fleet[1 - survivor_index]
                # Open the corpse's breaker outright: every group call
                # lands on the surviving replica.
                while router.handles[doomed.name].breaker.state != "open":
                    router.handles[doomed.name].breaker.record_failure()
                got = router.query_batch(queries)
            finally:
                router.close()
            assert canonical_answers(got) == want
            assert not any(response.degraded for response in got)

    def test_direct_replica_answers_match_each_other(self, mixed_fleet, corpus):
        """Ask each replica the same queries point-blank — no routing,
        no failover — and require byte-identical wire JSON."""
        from repro.net.client import AcicClient

        queries, want = corpus
        answers = []
        for spec in mixed_fleet:
            with AcicClient(spec.host, spec.port) as client:
                answers.append(canonical_answers(client.query_batch(queries)))
        assert answers[0] == answers[1] == want
