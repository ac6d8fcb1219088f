"""Seeded input generators: query streams, the Zipf pool, arrival
schedules and contribution points.

Every generator takes an explicit seed (the benchmark's ``--seed``
mixed with the stream's name), so one seed reproduces its streams
exactly and two seeds give different ones.  Of the program, only its
request and characteristics types and the paper's application models
are used here.
"""

from __future__ import annotations

import hashlib
import random

from repro import get_app
from repro.core.objectives import Goal
from repro.experiments.context import NINE_RUNS
from repro.service.api import QueryRequest
from repro.space.characteristics import AppCharacteristics, IOInterface, OpKind
from repro.space.parameters import PARAMETERS

KIB = 1 << 10
MIB = 1 << 20
# Process counts are the values of the program's own num_processes
# parameter (32, 64, 128, 256), the job sizes its model is trained on.
# The candidate matrix memoizes its validity sweep per (process count,
# collective, interface), so after a server's first queries every lookup
# hits that memo: the per-shape sweep is not part of any measured time.
PROCESS_COUNTS = next(p for p in PARAMETERS if p.name == "num_processes").values
TOP_KS = (1, 3)
GOALS = (Goal.PERFORMANCE, Goal.COST)


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator for one named stream of one seed."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _log_uniform_bytes(rng: random.Random, low: int, high: int) -> int:
    """A KiB-aligned byte count, log-uniform in [low, high]."""
    value = low * (high / low) ** rng.random()
    return max(KIB, int(value) // KIB * KIB)


def draw_characteristics(rng: random.Random) -> AppCharacteristics:
    """One valid application profile over the nine characteristics.

    Sizes and counts are drawn from continuous ranges, so tens of
    thousands of draws are (almost) free of repeats.
    """
    procs = rng.choice(PROCESS_COUNTS)
    interface = rng.choice((IOInterface.POSIX, IOInterface.MPIIO))
    data = _log_uniform_bytes(rng, MIB, 512 * MIB)
    return AppCharacteristics(
        num_processes=procs,
        num_io_processes=rng.randint(1, procs),
        interface=interface,
        iterations=rng.randint(1, 100),
        data_bytes=data,
        request_bytes=min(data, _log_uniform_bytes(rng, 256 * KIB, 128 * MIB)),
        op=rng.choice((OpKind.READ, OpKind.WRITE)),
        collective=interface is IOInterface.MPIIO and rng.random() < 0.5,
        shared_file=rng.random() < 0.5,
    )


def distinct_queries(seed: int, stream: str):
    """An endless stream of queries, none repeating within the stream."""
    rng = rng_for(seed, stream)
    seen: set = set()
    while True:
        query = QueryRequest(characteristics=draw_characteristics(rng),
                             goal=rng.choice(GOALS), top_k=rng.choice(TOP_KS))
        if query.fingerprint not in seen:
            seen.add(query.fingerprint)
            yield query


def query_pool(seed: int, size: int) -> list[QueryRequest]:
    """``size`` distinct queries in seeded order: each application profile
    is asked for both goals and both list lengths, as users of one
    application do, so answers that differ only in goal or top-k sit
    side by side in the response cache."""
    rng = rng_for(seed, "pool")
    profiles: set = set()
    pool: list[QueryRequest] = []
    while len(pool) < size:
        chars = draw_characteristics(rng)
        if chars in profiles:
            continue
        profiles.add(chars)
        pool.extend(QueryRequest(characteristics=chars, goal=goal, top_k=k)
                    for goal in GOALS for k in TOP_KS)
    del pool[size:]
    rng.shuffle(pool)
    return pool


def zipf_weights(size: int, exponent: float) -> list[float]:
    """Cumulative Zipf weights over ranks 1..size (for ``rng.choices``)."""
    total = 0.0
    cumulative = []
    for rank in range(1, size + 1):
        total += rank ** -exponent
        cumulative.append(total)
    return cumulative


def zipf_stream(seed: int, pool: list, exponent: float):
    """Endless Zipf-skewed draws from ``pool`` (rank 1 = pool[0])."""
    rng = rng_for(seed, "zipf")
    cumulative = zipf_weights(len(pool), exponent)
    while True:
        yield rng.choices(pool, cum_weights=cumulative, k=1)[0]


def poisson_arrivals(seed: int, rate_per_s: float, seconds: float) -> list[float]:
    """Due times (seconds from the start) of Poisson arrivals in a window.

    The count is fixed at ``rate * seconds`` and the times are that many
    sorted uniform draws: a Poisson process conditioned on its count, so
    runs of one length carry the same load whatever the seed.
    """
    rng = rng_for(seed, "arrivals")
    count = round(rate_per_s * seconds)
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def contribution_points(seed: int, batch: int):
    """Endless {dimension: value} points over all fifteen dimensions.

    The contribute workload measures these on the simulator; they are
    drawn from each dimension's sampled values, like a community member
    running IOR somewhere in the space.  Points can repeat, so callers
    that need N distinct records keep drawing.
    """
    rng = rng_for(seed, f"contribution:{batch}")
    while True:
        yield {p.name: rng.choice(p.values) for p in PARAMETERS}


def nine_runs() -> list[QueryRequest]:
    """The paper's nine application runs, both goals: the warm-up frame
    every set-up ends with, and the queries a trained pack must answer
    identically after reloading."""
    return [
        QueryRequest(characteristics=get_app(app).characteristics(scale),
                     goal=goal, top_k=3)
        for app, scale in NINE_RUNS
        for goal in GOALS
    ]
