"""Which program functions a traced run wraps, per process.

Three processes carry spans: the benchmark's client (wire codec and
framing), the ``acic serve`` server started through
``serve_shim.py`` (server codec, queue wait, service, engine, online
loop, artifacts) and the training child (``train_child.py``: PB
screening, IOR collection, CART fit, artifact save/load).  Span names
are the ones ``layers.py`` reads.
"""

from __future__ import annotations


def _rows(args, kwargs, result) -> dict:
    return {"rows": int(args[1].shape[0])}


def client(recorder) -> None:
    """Client-side encode/decode: request payloads, frames, replies.

    Only the main thread's calls are recorded: that is the asyncio
    client carrying the measured traffic, while the contribute
    workload's second connection runs on an executor thread.
    """
    import threading

    import repro.net.client as net_client
    from repro.net.protocol import FrameDecoder
    from repro.service.api import BatchQueryResponse, QueryRequest, QueryResponse

    main = threading.main_thread()
    recorder.wrap(QueryRequest, "to_payload", "client.encode", thread=main)
    recorder.wrap(
        net_client, "encode_frame", "client.encode", thread=main,
        measure=lambda a, k, r: {"bytes": len(r), "frames": 1},
    )
    recorder.wrap(
        FrameDecoder, "feed", "client.decode", thread=main,
        measure=lambda a, k, r: {"bytes": len(a[1]), "frames": len(r)},
    )
    recorder.wrap(QueryResponse, "from_payload", "client.decode", thread=main)
    recorder.wrap(BatchQueryResponse, "from_payload", "client.decode",
                  thread=main)


def server(recorder) -> None:
    """Server process: codec, queue wait, service, engine, online loop."""
    import repro.net.server as net_server
    import repro.online.isolation as isolation
    import repro.serving.engine as engine
    from repro.net.protocol import FrameDecoder
    from repro.online.coordinator import OnlineCoordinator
    from repro.online.log import ContributionLog
    from repro.online.shadow import ShadowEvaluator
    from repro.service.api import BatchQueryRequest, QueryRequest, QueryResponse
    from repro.service.server import AcicService

    recorder.wrap(net_server, "encode_frame", "server.codec")
    recorder.wrap(FrameDecoder, "feed", "server.codec")
    recorder.wrap(QueryRequest, "from_payload", "server.codec")
    recorder.wrap(BatchQueryRequest, "from_payload", "server.codec")
    recorder.wrap(QueryResponse, "to_payload", "server.codec")

    recorder.wrap(AcicService, "handle", "service.handle")
    recorder.wrap(AcicService, "query_batch", "service.query_batch")
    recorder.wrap(AcicService, "load", "artifacts.load")
    recorder.wrap(
        engine.BatchQueryEngine, "recommend_batch", "serving.recommend_batch",
        measure=lambda a, k, r: {"queries": len(a[1])},
    )
    # The engine's three stages: each query's candidate join, the one
    # model call over the stacked rows, and each query's ranking.
    recorder.wrap(engine.BatchQueryEngine, "_join", "serving.join")
    recorder.wrap(engine.BatchQueryEngine, "_predict", "serving.predict",
                  measure=_rows)
    recorder.wrap(engine, "rank_scored", "serving.rank")

    recorder.wrap(ContributionLog, "append", "online.append")
    recorder.wrap(
        OnlineCoordinator, "run_once", "online.cycle",
        measure=lambda a, k, r: {
            "cycles": int(r not in ("idle", "waiting")),
            "promotions": int(r == "promoted"),
        },
    )
    recorder.wrap(isolation, "train_candidate_isolated", "online.retrain")
    recorder.wrap(ShadowEvaluator, "evaluate", "online.shadow")
    recorder.wrap(AcicService, "adopt_generation", "online.swap")

    # Queue wait: from frame receipt on the event loop to the pool thread
    # starting the request.  The server stamps receipt itself; the two
    # hooks below pair that stamp with the pool start by frame identity.
    started: dict[int, float] = {}
    execute = net_server.AcicServer._execute
    finish = net_server.AcicServer._finish_request

    def timed_execute(self, frame, *args, **kwargs):
        started[id(frame)] = self.clock.now()
        return execute(self, frame, *args, **kwargs)

    def timed_finish(self, frame, ctx, reply_kind, received_at, *args, **kwargs):
        begun = started.pop(id(frame), None)
        if begun is not None:
            recorder.add("server.queue_wait", received_at, begun)
        finish(self, frame, ctx, reply_kind, received_at, *args, **kwargs)
        recorder.add("server.request", received_at, self.clock.now())

    net_server.AcicServer._execute = timed_execute
    net_server.AcicServer._finish_request = timed_finish


def training(recorder) -> None:
    """Training child: screening, collection, simulator, fit, artifacts."""
    import repro.pb.ranking as ranking
    from repro.core.configurator import Acic
    from repro.core.training import TrainingCollector
    from repro.iosim.engine import IOSimulator
    from repro.service.server import AcicService

    recorder.wrap(ranking, "screen_parameters", "pb.screen")
    recorder.wrap(
        TrainingCollector, "collect", "training.collect",
        measure=lambda a, k, r: {"points": a[1].size},
    )
    recorder.wrap(IOSimulator, "run", "iosim.run")
    recorder.wrap(
        Acic, "train", "ml.fit",
        measure=lambda a, k, r: {"samples": len(a[0].database)},
    )
    recorder.wrap(AcicService, "save", "artifacts.save")
    recorder.wrap(AcicService, "load", "artifacts.load")
