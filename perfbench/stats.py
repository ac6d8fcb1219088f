"""The percentile support rule, and failure accounting."""

from __future__ import annotations

from repro.net.client import NetClientError

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise a single outlier would decide it.
MIN_BEYOND = 10


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least MIN_BEYOND beyond the q-th
    percentile."""
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND


class Tally:
    """Attempted and failed operations.

    Transport errors, ERROR frames (refusals included: the server
    refuses with a structured ERROR frame), degraded answers and
    contributions whose retrain cycle ends ``rejected`` or ``failed``
    all count as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def replies(self, expected: int, outcome) -> None:
        """Account ``expected`` queries answered by ``outcome``: a list
        of responses, or the exception the call raised."""
        self.attempted += expected
        if isinstance(outcome, (NetClientError, OSError)):
            self.failed += expected
            return
        answered = len(outcome)
        self.failed += (expected - answered) + sum(
            1 for response in outcome if response.degraded
        )

    def cycle(self, outcome: str) -> None:
        """Account one contribution by the retrain cycle that took it."""
        self.attempted += 1
        if outcome in ("rejected", "failed"):
            self.failed += 1

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
