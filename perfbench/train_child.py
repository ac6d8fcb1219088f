"""One cold training run in a fresh interpreter: empty database to a
saved, servable artifact pack, through the program's public functions.

Usage: python3 train_child.py OUT_DIR [--trace | --imports-only]

Prints one JSON line with: when the imports finished (``perf_counter``
is the system-wide monotonic clock, so the parent times interpreter
start plus imports from its spawn), the train time, the pack's size,
peak resident memory, the trained service's answers to the paper's
nine runs (the parent checks the reloaded pack against them) and, with
``--trace``, the spans recorded around each layer's calls.  With
``--imports-only`` it stops after the imports and prints their time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    recorder = None
    if "--trace" in argv:
        import instrument
        from spans import Recorder

        recorder = Recorder()
        instrument.training(recorder)
    import repro.pb.ranking as ranking
    from repro.core.database import TrainingDatabase
    from repro.core.objectives import Goal
    from repro.core.training import TrainingCollector, TrainingPlan
    from repro.service.server import AcicService

    imported = time.perf_counter()
    if "--imports-only" in argv:
        print(json.dumps({"imported_at": imported}))
        return 0
    screening = ranking.screen_parameters()
    database = TrainingDatabase()
    plan = TrainingPlan.build(screening.ranked_names(), 10)
    TrainingCollector(database).collect(plan)
    service = AcicService(feature_names=tuple(screening.ranked_names()[:10]))
    service.host_database(database)
    for goal in (Goal.PERFORMANCE, Goal.COST):
        service.warm(database.platform_name, goal)
    service.save(out)
    trained = time.perf_counter()
    import gen
    from server import peak_rss_mb

    answers = [r.to_payload() for r in service.query_batch(gen.nine_runs())]
    print(json.dumps({
        "imported_at": imported,
        "train_s": trained - imported,
        "points": plan.size,
        "pack_bytes": sum(f.stat().st_size for f in out.iterdir()),
        "peak_rss_mb": peak_rss_mb("self"),
        "answers": answers,
        "spans": recorder.snapshot() if recorder else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
