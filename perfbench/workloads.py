"""The four workloads: traffic generators, set-up, answer checks.

Serving workloads run the real ``acic serve`` as a child and drive it
from this one asyncio process over at most two connections; ``train``
runs the training pipeline in fresh child interpreters.  Each workload
returns a :class:`Segment` per measured window (one untraced; a traced
run adds a second, traced one).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import instrument
from server import Server
from spans import Recorder
from stats import Tally

from repro.core.database import TrainingDatabase, TrainingRecord
from repro.ior.runner import IorRunner
from repro.ior.spec import IorSpec
from repro.net.client import AcicClient, AsyncAcicClient, NetClientError
from repro.service.api import QueryRequest, QueryResponse
from repro.service.server import AcicService
from repro.space.grid import characteristics_from_values, coerce_valid, config_from_values

HERE = Path(__file__).resolve().parent

# Workload shapes (recorded in BENCHMARK.json's "why" lines).
FRAME = 256                 # catalog-batch: queries per BATCH frame
RATE_QPS = 100.0            # interactive/contribute: Poisson arrival rate
POOL = 4000                 # interactive: distinct queries in the catalogue
ZIPF = 0.6                  # interactive: popularity skew over the pool
CONTRIBUTE_EVERY_S = 8.0    # contribute: one CONTRIBUTE frame this often
CONTRIBUTE_FIRST_S = 1.0    #   ...the first after the read stream starts
CONTRIBUTE_RECORDS = 64     #   ...of this many simulator-measured records
ONLINE_FLAGS = ["--online", "--online-min-batch", "64",
                "--online-interval-s", "0.1"]
BOOTS = 3                   # serving set-ups per run; setup_s is their median
IMPORT_SPAWNS = 8           # train: extra import-only set-ups per run
SPIN_S = 0.0012             # open loop: yield-spin this long before a due time
LATE_LIMIT_MS = 20.0        # generator lateness p99 beyond this: invalid
CHECK_FRAMES = 12           # catalog-batch frames re-answered in-process
ORACLE_SAMPLE = 24          # queries checked against Acic.recommend
PROBES = 64                 # contribute: queries probed after the run
PROMOTE_TIMEOUT_S = 60.0


class WrongAnswer(AssertionError):
    """The program answered differently from its reference."""


@dataclass
class Segment:
    """One measured window of a workload."""

    start: float = 0.0
    end: float = 0.0
    latencies_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    answered: int = 0
    tally: Tally = field(default_factory=Tally)
    setups_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    server_cpu_s: float = 0.0
    promote_s: list = field(default_factory=list)
    ack_ms: list = field(default_factory=list)
    train_s: list = field(default_factory=list)
    points: int = 0
    pack_bytes: int = 0
    load_ms: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)      # client or trainer side
    server_spans: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Context:
    root: Path
    pack: Path
    work: Path
    seed: int
    seconds: float
    trace: bool


# ----------------------------------------------------------------------
def answer_key(response) -> str:
    """A response's wire form, minus the ``cached`` flag."""
    payload = response.to_payload()
    payload.pop("cached")
    return json.dumps(payload, sort_keys=True)


def expect_equal(what: str, got: list, want: list) -> None:
    if len(got) != len(want):
        raise WrongAnswer(f"{what}: {len(got)} answers, expected {len(want)}")
    for position, (a, b) in enumerate(zip(got, want)):
        if answer_key(a) != answer_key(b):
            raise WrongAnswer(f"{what}: answer #{position} differs:\n"
                              f"  got  {answer_key(a)}\n  want {answer_key(b)}")


def check_oracle(pack: Path, requests: list[QueryRequest], replies: list) -> None:
    """Replies must equal the paper's sequential ``Acic.recommend``
    walked over the object trees (the reference implementation)."""
    service = AcicService.load(pack, use_flat=False)
    for request, reply in zip(requests, replies):
        acic = service.warm(request.platform, request.goal, request.learner)
        want = acic.recommend(request.characteristics, top_k=request.top_k)
        got = reply.recommendations
        if [(r.rank, r.config_key, r.predicted_improvement) for r in got] != [
            (r.rank, r.config.key, r.predicted_improvement) for r in want
        ]:
            raise WrongAnswer(
                f"oracle: {request.to_payload()} answered {got}, "
                f"Acic.recommend gives {want}")


def server_counters(metrics: dict) -> dict:
    """The registry values the per-layer table reads (ops METRICS)."""
    out = {}
    for name, entry in metrics["metrics"].items():
        if entry["kind"] == "histogram":
            out[name + ".sum"] = entry["sum"]
            out[name + ".count"] = entry["count"]
        else:
            out[name] = entry["value"]
    return out


def counter_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0.0) for k in after}


# ----------------------------------------------------------------------
async def drive_batch(client, ctx: Context, seconds: float, seg: Segment,
                      sent: list) -> None:
    """Closed loop: one 256-query BATCH frame in flight, all distinct.

    ``sent`` keeps a seeded uniform sample (reservoir) of CHECK_FRAMES
    answered frames for the answer check.
    """
    stream = gen.distinct_queries(ctx.seed, "catalog-batch")
    keep = gen.rng_for(ctx.seed, "check-frames")
    frame = [next(stream) for _ in range(FRAME)]
    seg.start = time.perf_counter()
    while time.perf_counter() - seg.start < seconds:
        began = time.perf_counter()
        task = asyncio.ensure_future(client.query_batch(frame))
        await asyncio.sleep(0)
        # Draw the next frame while this one is on the wire.
        upcoming = [next(stream) for _ in range(FRAME)]
        try:
            replies = await task
        except NetClientError as exc:
            seg.tally.replies(FRAME, exc)
        else:
            seg.latencies_ms.append((time.perf_counter() - began) * 1e3)
            seg.tally.replies(FRAME, replies)
            seg.answered += len(replies)
            if len(sent) < CHECK_FRAMES:
                sent.append((frame, replies))
            else:
                slot = keep.randrange(len(seg.latencies_ms))
                if slot < CHECK_FRAMES:
                    sent[slot] = (frame, replies)
        frame = upcoming
    seg.end = time.perf_counter()


async def drive_interactive(client, ctx: Context, seconds: float,
                            seg: Segment, sent: list) -> None:
    """Open loop: Poisson arrivals, single QUERY frames, Zipf popularity.

    Each query is timed from when it was due, so a stall also charges
    the queries that queued behind it; how late the generator itself
    ran is recorded separately.
    """
    stream = gen.zipf_stream(ctx.seed, gen.query_pool(ctx.seed, POOL), ZIPF)
    arrivals = gen.poisson_arrivals(ctx.seed, RATE_QPS, seconds)

    async def one(request, due: float) -> None:
        try:
            reply = await client.query(request)
        except NetClientError as exc:
            seg.tally.replies(1, exc)
            return
        seg.latencies_ms.append((time.perf_counter() - due) * 1e3)
        seg.tally.replies(1, [reply])
        seg.answered += 1
        sent.append((request, reply))

    tasks = []
    seg.start = time.perf_counter()
    for offset in arrivals:
        request = next(stream)
        due = seg.start + offset
        # The event loop's timers wake up to a millisecond late, so sleep
        # to just short of the due time, then yield until it passes
        # (replies keep being read while yielding).
        delay = due - time.perf_counter() - SPIN_S
        if delay > 0:
            await asyncio.sleep(delay)
        while time.perf_counter() < due:
            await asyncio.sleep(0)
        seg.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
        tasks.append(asyncio.ensure_future(one(request, due)))
    await asyncio.gather(*tasks)
    seg.end = time.perf_counter()


def contribution(ctx: Context, batch: int, platform: str) -> TrainingDatabase:
    """64 distinct records measured on the simulator at seeded points."""
    runner = IorRunner()
    database = TrainingDatabase(platform)
    points = gen.contribution_points(ctx.seed, batch)
    while len(database) < CONTRIBUTE_RECORDS:
        values = next(points)
        chars = characteristics_from_values(values)
        config = coerce_valid(config_from_values(values), chars)
        observation = runner.measure(IorSpec.from_characteristics(chars), config)
        database.add(TrainingRecord.from_observation(
            observation, epoch=1000 + batch, source="perfbench"))
    return database


def _settled(status: dict) -> int:
    """Retrain cycles that have ended one way or another."""
    c = status["counters"]
    return (c["promotions"] + c["rejections"] + c["demotions"]
            + c["retrain_failures"])


def contribute_and_wait(port: int, database: TrainingDatabase,
                        seg: Segment) -> str:
    """Send one CONTRIBUTE frame, then poll until its cycle ends.

    Returns the cycle's outcome; records the acknowledgement time and,
    on promotion, the time from acknowledgement to the new live
    generation showing in ``online status``.
    """
    with AcicClient("127.0.0.1", port, timeout_s=60.0) as client:
        before = client.online_status()
        began = time.perf_counter()
        client.contribute(database)
        acked = time.perf_counter()
        seg.ack_ms.append((acked - began) * 1e3)
        while time.perf_counter() - acked < PROMOTE_TIMEOUT_S:
            status = client.online_status()
            if (status["generation"] != before["generation"]
                    and status["last_outcome"] == "promoted"):
                seg.promote_s.append(time.perf_counter() - acked)
                return "promoted"
            if _settled(status) > _settled(before):
                return status["last_outcome"]
            time.sleep(0.02)
    return "failed"


async def drive_contribute(client, ctx: Context, seconds: float, seg: Segment,
                           sent: list, port: int, batches: list) -> None:
    """The interactive read stream plus a CONTRIBUTE every 8 s on a
    second connection; waits (outside the window) for the last cycle."""
    loop = asyncio.get_running_loop()
    outcomes: list = []

    async def writer() -> None:
        # First runs at the read stream's first await, after it has set
        # seg.start.
        for index, database in enumerate(batches):
            due = seg.start + CONTRIBUTE_FIRST_S + index * CONTRIBUTE_EVERY_S
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            outcomes.append(await loop.run_in_executor(
                None, contribute_and_wait, port, database, seg))

    contributing = asyncio.ensure_future(writer())
    await drive_interactive(client, ctx, seconds, seg, sent)
    await contributing
    for outcome in outcomes:
        seg.tally.cycle(outcome)


# ----------------------------------------------------------------------
def boot(ctx: Context, workload: str, label: str, spans_out=None) -> Server:
    extra = []
    if workload == "contribute":
        extra = [*ONLINE_FLAGS, "--online-log",
                 str(ctx.work / f"online-{label}.jsonl")]
    return Server(ctx.root, ctx.pack, extra, spans_out=spans_out)


def contributions_for(ctx: Context, seconds: float, offset: int) -> list:
    platform = AcicService.manifest_platforms(ctx.pack)[0]
    count = int((seconds - CONTRIBUTE_FIRST_S) // CONTRIBUTE_EVERY_S) + 1
    return [contribution(ctx, offset + i, platform) for i in range(count)]


def measure_serving(ctx: Context, workload: str, server: Server,
                    seconds: float, seg: Segment, batch_offset: int) -> list:
    """Drive one live server for ``seconds``; returns what was sent."""
    sent: list = []
    batches = (contributions_for(ctx, seconds, batch_offset)
               if workload == "contribute" else [])

    async def run() -> None:
        client = await AsyncAcicClient.connect("127.0.0.1", server.port)
        try:
            before = server_counters(await client.ops_metrics())
            cpu_before = server.cpu_s()
            if workload == "catalog-batch":
                await drive_batch(client, ctx, seconds, seg, sent)
            elif workload == "interactive":
                await drive_interactive(client, ctx, seconds, seg, sent)
            else:
                await drive_contribute(client, ctx, seconds, seg, sent,
                                       server.port, batches)
            seg.server_cpu_s = server.cpu_s() - cpu_before
            after = server_counters(await client.ops_metrics())
            seg.counters = counter_delta(before, after)
        finally:
            await client.close()

    asyncio.run(run())
    seg.peak_rss_mb = server.peak_rss_mb()
    seg.pack_bytes = sum(f.stat().st_size for f in ctx.pack.iterdir())
    if workload == "contribute":
        check_contribute(ctx, server.port, batches)
    return sent


def check_serving(ctx: Context, workload: str, sent: list) -> None:
    """Wire answers equal an in-process service on the same requests,
    and a seeded sample equals the Acic.recommend oracle."""
    rng = gen.rng_for(ctx.seed, "check")
    if workload == "catalog-batch":
        requests = [q for frame, _ in sent for q in frame]
        replies = [r for _, rs in sent for r in rs]
    elif workload == "interactive":
        requests = [q for q, _ in sent]
        replies = [r for _, r in sent]
    else:
        return
    reference = AcicService.load(ctx.pack)
    expect_equal(f"{workload} vs in-process service", replies,
                 reference.query_batch(requests))
    sample = rng.sample(range(len(requests)), min(ORACLE_SAMPLE, len(requests)))
    check_oracle(ctx.pack, [requests[i] for i in sample],
                 [replies[i] for i in sample])


def check_contribute(ctx: Context, port: int, batches: list) -> None:
    """After the run, probe answers equal an in-process service built
    from the pack plus every contributed record."""
    probes = gen.query_pool(ctx.seed + 1, PROBES)
    with AcicClient("127.0.0.1", port, timeout_s=60.0) as client:
        status = client.online_status()
        if status["pending"]:
            raise WrongAnswer(f"contributions still pending: {status}")
        got = client.query_batch(probes)
    reference = AcicService.load(ctx.pack)
    for database in batches:
        reference.contribute(database.platform_name, database)
    expect_equal("contribute probes vs pack + contributions", got,
                 reference.query_batch(probes))


def run_serving(ctx: Context, workload: str) -> list[Segment]:
    """BOOTS set-ups, the last one measured; a traced run then measures
    a second server started under the span shim."""
    warmup = gen.nine_runs()
    phases = [False, True] if ctx.trace else [False]
    seconds = ctx.seconds / len(phases)
    segments = []
    for traced in phases:
        seg = Segment()
        spans_out = ctx.work / "server-spans.json" if traced else None
        if traced:
            recorder = Recorder()
            instrument.client(recorder)
        boots = 1 if traced else BOOTS
        for index in range(boots):
            last = index == boots - 1
            server = boot(ctx, workload, f"{int(traced)}-{index}",
                          spans_out if last else None)
            try:
                seg.setups_s.append(server.ready(warmup))
                if last:
                    sent = measure_serving(ctx, workload, server, seconds,
                                           seg, batch_offset=100 * traced)
            finally:
                server.stop()
        check_serving(ctx, workload, sent)
        if traced:
            seg.spans = recorder.snapshot()
            seg.server_spans = json.loads(spans_out.read_text())
        segments.append(seg)
    return segments


# ----------------------------------------------------------------------
def train_once(ctx: Context, out: Path, *flags: str) -> dict:
    """One cold training run in a fresh interpreter (``flags`` go to
    ``train_child.py``)."""
    command = [sys.executable, str(HERE / "train_child.py"), str(out), *flags]
    env = {**os.environ, "PYTHONPATH": str(ctx.root / "src")}
    spawned = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, env=env,
                          cwd=ctx.root, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"training child failed: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["setup_s"] = result["imported_at"] - spawned
    return result


def check_pack(pack: Path, trained: list, reference: list) -> float:
    """A trained pack reloads and answers the nine runs, both goals,
    exactly as the trainer's in-memory service did, and as the
    benchmark's reference pack does.  Returns the reload time (s)."""
    began = time.perf_counter()
    service = AcicService.load(pack)
    loaded = time.perf_counter() - began
    answers = service.query_batch(gen.nine_runs())
    expect_equal("train: reloaded pack vs the trained service", answers,
                 [QueryResponse.from_payload(p) for p in trained])
    expect_equal("train: reloaded pack vs reference pack", answers, reference)
    return loaded


def run_train(ctx: Context) -> list[Segment]:
    """Cold training runs back to back until the window closes (at least
    one); every pack is checked after the window."""
    segments = []
    phases = [False, True] if ctx.trace else [False]
    seconds = ctx.seconds / len(phases)
    reference = AcicService.load(ctx.pack).query_batch(gen.nine_runs())
    for traced in phases:
        seg = Segment()
        if not traced:
            # Interpreter start plus imports is short next to its noise,
            # so it is sampled more often than training runs fit in.
            seg.setups_s.extend(
                train_once(ctx, ctx.work, "--imports-only")["setup_s"]
                for _ in range(IMPORT_SPAWNS))
        packs = []
        seg.start = time.perf_counter()
        while not packs or time.perf_counter() - seg.start < seconds:
            out = ctx.work / f"train-{int(traced)}-{len(packs)}"
            result = train_once(ctx, out, *(["--trace"] if traced else []))
            packs.append((out, result["answers"]))
            seg.train_s.append(result["train_s"])
            seg.setups_s.append(result["setup_s"])
            seg.peak_rss_mb = max(seg.peak_rss_mb, result["peak_rss_mb"])
            seg.points = result["points"]
            seg.pack_bytes = result["pack_bytes"]
            if result["spans"]:
                seg.spans.extend(_reindexed(seg.spans, result["spans"]))
        seg.end = time.perf_counter()
        for out, answers in packs:
            seg.tally.attempted += 1
            try:
                seg.load_ms.append(check_pack(out, answers, reference) * 1e3)
            except WrongAnswer:
                seg.tally.failed += 1
                raise
            finally:
                shutil.rmtree(out, ignore_errors=True)
        segments.append(seg)
    return segments


def _reindexed(existing: list, spans: list) -> list:
    """Shift parent indices so span lists from several children concatenate."""
    base = len(existing)
    return [[n, s, e, p + base if p >= 0 else -1, a] for n, s, e, p, a in spans]


def build_pack(root: Path, cache: Path) -> Path:
    """The artifact pack serving workloads start from, built once per
    source tree by the same pipeline ``train`` measures."""
    import hashlib

    digest = hashlib.sha256()
    sources = sorted((root / "src").rglob("*.py")) + [HERE / "train_child.py"]
    for path in sources:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    pack = cache / f"pack-{digest.hexdigest()[:16]}"
    if (pack / "service.json").exists():
        return pack
    staging = cache / f"staging-{digest.hexdigest()[:16]}"
    shutil.rmtree(staging, ignore_errors=True)
    context = Context(root, pack, cache, 0, 0.0, False)
    train_once(context, staging)
    staging.rename(pack)
    return pack
