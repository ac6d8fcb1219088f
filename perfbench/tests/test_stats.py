"""The percentile support rule and failure accounting."""

import pytest

import layers
import stats
from workloads import Segment

from repro.core.objectives import Goal
from repro.net.client import ConnectError, NetClientError, RemoteError
from repro.service.api import QueryResponse


def response(degraded=False):
    return QueryResponse(recommendations=(), goal=Goal.PERFORMANCE,
                         platform="ec2-us-east", model_points=1,
                         model_epochs=(0, 0), degraded=degraded)


@pytest.mark.parametrize("n, q, ok", [
    (1000, 99.0, True), (999, 99.0, False), (200, 95.0, True),
    (199, 95.0, False), (20, 50.0, True), (19, 50.0, False),
])
def test_percentile_needs_ten_samples_beyond_it(n, q, ok):
    assert stats.supported(n, q) is ok


def test_report_says_n_a_for_an_unsupported_p99():
    seg = Segment(start=0.0, end=10.0, answered=999,
                  setups_s=[1.0], latencies_ms=[1.0] * 999)
    assert "query_p99_ms n/a" in layers.report("interactive", seg)[-1]
    seg.latencies_ms.append(1.0)
    assert layers.report("interactive", seg)[-1].startswith("query_p99_ms 1.0")


def test_refused_degraded_and_error_replies_count_as_failed():
    tally = stats.Tally()
    tally.replies(3, [response(), response(degraded=True), response()])
    tally.replies(1, RemoteError("bad_request", "malformed"))          # ERROR frame
    tally.replies(1, RemoteError("server_at_capacity", "refused"))     # refusal
    tally.replies(256, ConnectError("127.0.0.1", 1, ["refused"]))
    tally.replies(1, NetClientError("server closed the connection"))
    tally.replies(4, [response(), response()])                         # short reply
    assert tally.attempted == 3 + 1 + 1 + 256 + 1 + 4
    assert tally.failed == 1 + 1 + 1 + 256 + 1 + 2
    assert tally.share == tally.failed / tally.attempted


def test_contribution_cycles_rejected_or_failed_count_as_failed():
    tally = stats.Tally()
    for outcome in ("promoted", "rejected", "failed", "promoted"):
        tally.cycle(outcome)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert stats.Tally().share == 0.0
