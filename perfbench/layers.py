"""Metric definitions: the end-to-end metrics every run reports, the
per-layer metrics a traced run reports, and how each layer metric is
expected to move.

End-to-end metrics are workload-neutral, because every run must report
every one and none may read 0.  Each workload fills them from its own
unit of work:

============  ==========================  ===========================
workload      op_ms                       throughput_per_s
============  ==========================  ===========================
catalog-batch mean 256-query BATCH round  queries answered / s
              trip                        (batch_qps)
interactive   server CPU time (user +     queries answered / s
              system) per query answered
contribute    median time from CONTRIBUTE queries answered / s
              acknowledged to its         (the read stream)
              generation live (promote_s
              in ms)
train         median cold training run    IOR training points / s
              (train_s in ms)             of training time
============  ==========================  ===========================

On interactive, ``op_ms`` is CPU time, not latency.  At 100 q/s the
server is idle between queries, so each query's wall-clock latency
includes the time to wake the idle server and generator, and on a
shared VM that depends on the neighbours: with two busy loops beside a
run on a 2-vCPU VM, the median latency rose about 75% (3.4 -> 6.0
ms) while the server's CPU time per query rose 6% (2.06 -> 2.18 ms).
The latency, ``query_p50_ms`` timed from due time, and its p99 are
still reported, unbounded.

``op_ms`` is a mean on catalog-batch.  There the frame times are
bimodal: the host's speed drifts between a fast and a slow mode over
seconds (a 2 s window's median frame reads ~30 or ~48 ms), so the
run's median lands in one mode or the other, while the mean moves with
the share of time spent in each.  In two sets of 8 and 10 seeded 20 s
runs on a 2-vCPU VM, the median's spread (quartile distance over
median) was 0.24 and 0.27, the mean's (or throughput's) 0.17-0.18.
In a closed loop with one frame in flight the mean is also what sets
``batch_qps``.  The median, ``batch_p50_ms``, is still reported.

On the open-loop workloads (interactive, contribute) the stream has a
fixed count of arrivals, so ``throughput_per_s`` reads the offered load
of 100 q/s: it moves only when overload stretches the answers past the
window, and cannot show a slower server otherwise.  There the bounded
gates that see the server are ``op_ms`` and ``peak_rss_mb``.

``setup_s`` is the median of several set-ups per run (serving: spawn
of ``acic serve`` to its first PONG plus a warm-up frame; train:
interpreter start plus imports).  ``peak_rss_mb`` is the server's (or
the trainer's) peak resident memory.  Failures are the result line's
``attempted``/``failed`` counts, whose ratio is ``failed_share``.

The per-layer table also carries the workload-specific end-to-end
names (``batch_qps``, ``query_p50_ms``, ``promote_s``, ``train_s``...)
without a bound: each only exists on some workloads.  A per-layer value
of 0 means the layer did no work on that workload's path.
"""

from __future__ import annotations

from numpy import mean, median, percentile

from spans import summarize, within
from stats import MIN_BEYOND, supported

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("op_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

# name, unit, better, (should move, mechanism workload, bypass workload)
PER_LAYER = (
    ("net.client.encode_ms", "ms", "lower",
     ("batch_p50_ms, batch_qps", "catalog-batch", "interactive")),
    ("net.client.decode_ms", "ms", "lower",
     ("batch_p50_ms, batch_qps", "catalog-batch", "interactive")),
    ("net.request_bytes_per_query", "B", "lower",
     ("batch_p50_ms, batch_qps", "catalog-batch", "interactive")),
    ("net.reply_bytes_per_answer", "B", "lower",
     ("batch_p50_ms, batch_qps", "catalog-batch", "interactive")),
    ("net.server.latency_ms", "ms", "lower",
     ("query_p99_ms", "interactive, contribute", "train")),
    ("net.server.queue_wait_ms", "ms", "lower",
     ("query_p99_ms", "interactive, contribute", "train")),
    ("net.server.codec_ms", "ms", "lower",
     ("query_p99_ms", "interactive, contribute", "train")),
    ("reliability.admission.shed", "count", "lower",
     ("failed_share", "all", "none")),
    ("reliability.degraded", "count", "lower",
     ("failed_share", "all", "none")),
    ("service.handle_ms", "ms", "lower",
     ("query_p50_ms", "interactive", "catalog-batch")),
    ("service.wrapper_ms", "ms", "lower",
     ("query_p50_ms", "interactive", "catalog-batch")),
    ("service.cache_hit_share", "share", "higher",
     ("query_p50_ms", "interactive", "catalog-batch")),
    ("service.invalidations", "count", "lower",
     ("query_p50_ms", "interactive", "catalog-batch")),
    ("serving.join_ms", "ms", "lower",
     ("batch_qps, batch_p50_ms", "catalog-batch", "interactive")),
    ("serving.predict_ms", "ms", "lower",
     ("batch_qps, batch_p50_ms", "catalog-batch", "interactive")),
    ("serving.rank_ms", "ms", "lower",
     ("batch_qps, batch_p50_ms", "catalog-batch", "interactive")),
    ("serving.candidates_scored_per_query", "count", "lower",
     ("batch_qps, batch_p50_ms", "catalog-batch", "interactive")),
    ("serving.candidate_matrix.hit_share", "share", "higher",
     ("query_p99_ms after a promotion", "contribute",
      "catalog-batch batch_qps")),
    ("serving.artifacts.load_ms", "ms", "lower",
     ("setup_s", "serving workloads", "catalog-batch batch_qps")),
    ("serving.artifacts.save_ms", "ms", "lower",
     ("train_s", "train", "catalog-batch batch_qps")),
    ("serving.artifacts.pack_bytes", "B", "lower",
     ("setup_s", "serving workloads", "catalog-batch batch_qps")),
    ("online.ack_ms", "ms", "lower",
     ("promote_s, query_p99_ms", "contribute", "interactive")),
    ("online.retrain_ms", "ms", "lower",
     ("promote_s, query_p99_ms", "contribute", "interactive")),
    ("online.shadow_ms", "ms", "lower",
     ("promote_s, query_p99_ms", "contribute", "interactive")),
    ("online.swap_ms", "ms", "lower",
     ("promote_s, query_p99_ms", "contribute", "interactive")),
    ("online.promotions_per_cycle", "share", "higher",
     ("promote_s, query_p99_ms", "contribute", "interactive")),
    # On contribute the fit runs inside the isolated retrain child and is
    # part of online.retrain_ms; these two read it on train.
    ("ml.fit_ms", "ms", "lower",
     ("train_s, promote_s", "train, contribute", "catalog-batch")),
    ("ml.fit_samples", "count", "higher",
     ("train_s, promote_s", "train, contribute", "catalog-batch")),
    ("pb.screen_ms", "ms", "lower",
     ("train_s", "train", "all serving workloads")),
    ("training.collect_ms", "ms", "lower",
     ("train_s", "train", "all serving workloads")),
    ("training.points", "count", "higher",
     ("train_s", "train", "all serving workloads")),
    ("iosim.runs", "count", "lower",
     ("train_s", "train", "all serving workloads")),
    ("loadgen.late_p99_ms", "ms", "lower",
     ("none: run validity", "all", "none")),
    ("telemetry.overhead_share", "share", "lower",
     ("none: run validity", "all", "none")),
    # Workload-specific end-to-end values, unbounded (see module doc).
    ("batch_qps", "1/s", "higher", ("itself", "catalog-batch", "-")),
    ("batch_p50_ms", "ms", "lower", ("itself", "catalog-batch", "-")),
    ("query_p50_ms", "ms", "lower",
     ("itself", "interactive, contribute", "-")),
    ("promote_s", "s", "lower", ("itself", "contribute", "-")),
    ("train_s", "s", "lower", ("itself", "train", "-")),
    ("failed_share", "share", "lower", ("itself", "all", "-")),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def op_samples_ms(workload: str, seg) -> list:
    """Durations of the workload's unit of work (see the table above;
    on interactive, the latencies the CPU time is spread over)."""
    if workload == "train":
        return [t * 1e3 for t in seg.train_s]
    if workload == "contribute":
        return [t * 1e3 for t in seg.promote_s]
    return seg.latencies_ms


def op_ms(workload: str, seg) -> float:
    """The workload's time per unit of work (see the table above)."""
    if workload == "interactive":
        return seg.server_cpu_s * 1e3 / seg.answered
    samples = op_samples_ms(workload, seg)
    return mean(samples) if workload == "catalog-batch" else median(samples)


def end_to_end(workload: str, seg) -> dict:
    """The bounded, workload-neutral metrics of one untraced segment."""
    if workload == "train":
        throughput = seg.points * len(seg.train_s) / sum(seg.train_s)
    else:
        throughput = seg.answered / seg.seconds
    return {
        "setup_s": median(seg.setups_s),
        "op_ms": op_ms(workload, seg),
        "throughput_per_s": throughput,
        "peak_rss_mb": seg.peak_rss_mb,
    }


def named(workload: str, seg) -> dict:
    """The workload-specific end-to-end values (0 on other workloads)."""
    batch = workload == "catalog-batch"
    query = workload in ("interactive", "contribute")
    return {
        "batch_qps": seg.answered / seg.seconds if batch else 0.0,
        "batch_p50_ms": median(seg.latencies_ms) if batch else 0.0,
        "query_p50_ms": median(seg.latencies_ms) if query else 0.0,
        "promote_s": median(seg.promote_s) if seg.promote_s else 0.0,
        "train_s": median(seg.train_s) if seg.train_s else 0.0,
        "failed_share": seg.tally.share,
    }


def report(workload: str, seg) -> list[str]:
    """Human-readable lines: every end-to-end value with its unit and
    sample count, and the p99 where the sample supports it."""
    ops = len(op_samples_ms(workload, seg))
    counts = {"setup_s": len(seg.setups_s), "op_ms": ops}
    lines = []
    for name, value in end_to_end(workload, seg).items():
        n = f" (n={counts[name]})" if name in counts else ""
        lines.append(f"{name} {value:.4f} {UNITS[name]}{n}")
    for name, value in named(workload, seg).items():
        shown = f"{value:.4f}" if value or name == "failed_share" else "n/a"
        lines.append(f"{name} {shown} {UNITS[name]}")
    samples = seg.train_s if workload == "train" else seg.latencies_ms
    label = {"catalog-batch": "batch_p99_ms", "train": "train_p99_s"}.get(
        workload, "query_p99_ms")
    unit = "s" if workload == "train" else "ms"
    if supported(len(samples), 99.0):
        lines.append(f"{label} {percentile(samples, 99.0):.4f} {unit} "
                     f"(n={len(samples)})")
    else:
        lines.append(f"{label} n/a {unit} (n={len(samples)}; a p99 needs "
                     f">= {MIN_BEYOND * 100} samples)")
    return lines


def _in_window(spans: list, start: float, end: float) -> list:
    """Spans outside [start, end] lose their names (indices stay valid)."""
    return [s if s[1] >= start and s[2] is not None and s[2] <= end
            else [None, s[1], s[2], s[3], s[4]] for s in spans]


def per_layer(workload: str, untraced, traced) -> dict:
    """Every per-layer metric from a traced segment (0 = not on path)."""
    out = {name: 0.0 for name, *_ in PER_LAYER}
    out.update(named(workload, untraced))

    client = _in_window(traced.spans, traced.start, traced.end)
    server_all = traced.server_spans
    server = _in_window(server_all, traced.start, traced.end)
    c = summarize(client)
    s = summarize(server)
    s_all = summarize(server_all)
    counters = traced.counters

    def total(summary, name, key="total_s"):
        return summary.get(name, {}).get(key, 0.0)

    def attr(summary, name, key):
        return summary.get(name, {}).get("attrs", {}).get(key, 0)

    def count(summary, name):
        return summary.get(name, {}).get("count", 0)

    def mean_ms(summary, name):
        return _share(total(summary, name) * 1e3, count(summary, name))

    queries = traced.tally.attempted - len(traced.ack_ms)
    out["net.client.encode_ms"] = _share(
        total(c, "client.encode", "self_s") * 1e3, attr(c, "client.encode", "frames"))
    out["net.client.decode_ms"] = _share(
        total(c, "client.decode", "self_s") * 1e3, attr(c, "client.decode", "frames"))
    out["net.request_bytes_per_query"] = _share(
        attr(c, "client.encode", "bytes"), queries)
    out["net.reply_bytes_per_answer"] = _share(
        attr(c, "client.decode", "bytes"), traced.answered)

    out["net.server.latency_ms"] = _share(
        counters.get("net.request_latency_s.sum", 0.0) * 1e3,
        counters.get("net.request_latency_s.count", 0.0))
    out["net.server.queue_wait_ms"] = mean_ms(s, "server.queue_wait")
    out["net.server.codec_ms"] = _share(
        total(s, "server.codec", "self_s") * 1e3, count(s, "server.request"))
    out["reliability.admission.shed"] = counters.get(
        "net.admission.shed", 0.0) + counters.get("reliability.admission.shed", 0.0)
    out["reliability.degraded"] = counters.get("reliability.degraded", 0.0)

    out["service.handle_ms"] = mean_ms(s, "service.handle")
    engine_in_batch = within(server, "serving.recommend_batch", "service.query_batch")
    out["service.wrapper_ms"] = _share(
        (total(s, "service.query_batch") - engine_in_batch["total_s"]) * 1e3,
        count(s, "service.query_batch"))
    out["service.cache_hit_share"] = _share(
        counters.get("service.cache.hits", 0.0),
        counters.get("service.cache.hits", 0.0)
        + counters.get("service.cache.misses", 0.0))
    out["service.invalidations"] = counters.get("service.invalidations", 0.0)

    engine_queries = attr(s, "serving.recommend_batch", "queries")
    join = within(server, "serving.join", "serving.recommend_batch")
    predict = within(server, "serving.predict", "serving.recommend_batch")
    rank = within(server, "serving.rank", "serving.recommend_batch")
    per_frame = _share(256e3, engine_queries)       # ms per 256 queries
    out["serving.join_ms"] = join["total_s"] * per_frame
    out["serving.predict_ms"] = predict["total_s"] * per_frame
    out["serving.rank_ms"] = rank["total_s"] * per_frame
    out["serving.candidates_scored_per_query"] = _share(
        predict["attrs"].get("rows", 0), engine_queries)
    out["serving.candidate_matrix.hit_share"] = _share(
        counters.get("serving.candidate_matrix.hits", 0.0),
        counters.get("serving.candidate_matrix.hits", 0.0)
        + counters.get("serving.candidate_matrix.misses", 0.0))
    out["serving.artifacts.pack_bytes"] = float(traced.pack_bytes)

    # Boot-time and retrain-cycle spans count whole: the server lived
    # only for this segment, and the last cycle ends after the window.
    out["online.ack_ms"] = median(traced.ack_ms) if traced.ack_ms else 0.0
    out["online.retrain_ms"] = mean_ms(s_all, "online.retrain")
    out["online.shadow_ms"] = mean_ms(s_all, "online.shadow")
    out["online.swap_ms"] = mean_ms(s_all, "online.swap")
    out["online.promotions_per_cycle"] = _share(
        attr(s_all, "online.cycle", "promotions"), attr(s_all, "online.cycle", "cycles"))

    if workload == "train":
        t = summarize(traced.spans)
        runs = len(traced.train_s)
        out["serving.artifacts.load_ms"] = median(traced.load_ms)
        out["serving.artifacts.save_ms"] = mean_ms(t, "artifacts.save")
        out["ml.fit_ms"] = mean_ms(t, "ml.fit")
        out["ml.fit_samples"] = _share(attr(t, "ml.fit", "samples"),
                                       count(t, "ml.fit"))
        out["pb.screen_ms"] = mean_ms(t, "pb.screen")
        out["training.collect_ms"] = mean_ms(t, "training.collect")
        out["training.points"] = _share(attr(t, "training.collect", "points"), runs)
        out["iosim.runs"] = _share(count(t, "iosim.run"), runs)
    else:
        out["serving.artifacts.load_ms"] = mean_ms(s_all, "artifacts.load")

    if traced.late_ms:
        out["loadgen.late_p99_ms"] = percentile(traced.late_ms, 99.0)
    out["telemetry.overhead_share"] = (
        op_ms(workload, traced) / op_ms(workload, untraced) - 1.0)
    return out


def render(metrics: dict) -> list[str]:
    """The per-layer table: value, unit and where it should move."""
    lines = [f"{'metric':38} {'value':>14} {'unit':6}  should move / "
             "mechanism / bypass"]
    for name, unit, _better, (moves, mechanism, bypass) in PER_LAYER:
        lines.append(f"{name:38} {metrics[name]:14.4f} {unit:6}  "
                     f"{moves} / {mechanism} / {bypass}")
    return lines
