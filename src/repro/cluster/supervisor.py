"""Boot, kill, and restart a replica fleet; the chaos harness's hand.

The :class:`ClusterSupervisor` turns an artifact pack and a topology
(N replicas, R-way replication) into running ``AcicServer`` replicas,
each warm-started with *only* the shards the ring assigns it
(``AcicService.load(..., platforms=...)``).  Two execution modes share
one surface:

* ``thread`` — each replica is a :class:`ServerThread` in this process;
  fast, hermetic, what the unit and chaos tests use.  ``kill`` stops
  the thread without draining, which the router observes as the same
  connection-reset a dead process produces.
* ``process`` — each replica is an ``acic serve --listen`` subprocess;
  ``kill`` is a real ``SIGKILL``.  The CI cluster-smoke job and
  ``acic cluster serve`` run this mode.

Chaos integration: :meth:`apply_chaos` consults the process-wide fault
injector at site ``cluster.supervisor.<name>`` per live replica and
executes any ``replica_kill`` decision — so replica death is scheduled
by the same deterministic :class:`~repro.reliability.faults.FaultPlan`
machinery as every other injected fault.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.replica import ReplicaHandle, ReplicaSpec
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.net.server import AcicServer, ServerThread
from repro.reliability.faults import get_injector
from repro.service.server import AcicService
from repro.telemetry.logging import get_logger

__all__ = ["SupervisorConfig", "ClusterSupervisor"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Topology and execution-mode knobs.

    Attributes:
        replicas: fleet size N (names ``r0`` .. ``r{N-1}``).
        replication: owners per shard R (clamped to N).
        vnodes: virtual points per replica on the hash ring.
        mode: ``thread`` (in-process) or ``process`` (subprocesses).
        host: bind address for every replica.
        workers: scoring worker threads per replica server.
        boot_timeout_s: per-replica startup budget (process mode waits
            this long for the listening banner).
        auto_restart: when True, a watchdog thread re-runs
            :meth:`ClusterSupervisor.restart` on any replica found
            dead, rebinding its old port so routers fail back without
            a topology change.  Off by default: chaos tests that kill
            replicas on purpose must not fight a resurrector unless
            they asked for one.
        watch_interval_s: seconds between watchdog sweeps.
    """

    replicas: int = 3
    replication: int = 2
    vnodes: int = 64
    mode: str = "thread"
    host: str = "127.0.0.1"
    workers: int = 2
    boot_timeout_s: float = 30.0
    auto_restart: bool = False
    watch_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.mode not in ("thread", "process"):
            raise ValueError(f"mode must be thread|process, got {self.mode!r}")
        if self.watch_interval_s <= 0:
            raise ValueError(
                f"watch_interval_s must be > 0, got {self.watch_interval_s}"
            )


class _ThreadMember:
    """One in-process replica: its service and server thread."""

    def __init__(self, spec: ReplicaSpec, thread: ServerThread) -> None:
        self.spec = spec
        self.thread: ServerThread | None = thread

    @property
    def alive(self) -> bool:
        return self.thread is not None

    def kill(self) -> None:
        if self.thread is not None:
            self.thread.stop()
            self.thread = None


class _ProcessMember:
    """One subprocess replica (``acic serve --listen``)."""

    def __init__(self, spec: ReplicaSpec, proc: subprocess.Popen) -> None:
        self.spec = spec
        self.proc: subprocess.Popen | None = proc

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self, force: bool = True) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(
                signal.SIGKILL if force else signal.SIGTERM
            )
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None


class ClusterSupervisor:
    """Lifecycle owner for a sharded replica fleet.

    Args:
        artifacts: an ``AcicService.save`` directory every replica
            warm-starts from (each loads only its assigned platforms).
        config: topology/mode knobs.

    Usage::

        with ClusterSupervisor(pack_dir) as sup:
            router = sup.router()
            ... router.query_batch(...) ...
            sup.kill("r1")            # chaos: replica gone mid-run
            ... failover keeps answers byte-identical ...
    """

    def __init__(
        self, artifacts: str | Path, config: SupervisorConfig | None = None
    ) -> None:
        self.artifacts = Path(artifacts)
        self.config = config if config is not None else SupervisorConfig()
        self.names = [f"r{i}" for i in range(self.config.replicas)]
        self.ring = HashRing(self.names, vnodes=self.config.vnodes)
        self.platforms = AcicService.manifest_platforms(self.artifacts)
        self.assignments = self.ring.assignments(
            self.platforms, self.config.replication
        )
        self._members: dict[str, _ThreadMember | _ProcessMember] = {}
        self._started = False
        self._stop_event = threading.Event()
        self._watchdog: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> list[ReplicaSpec]:
        """Boot every replica; returns their specs in name order."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        for name in self.names:
            self._members[name] = self._boot(name, port=0)
        get_logger().info(
            "cluster.started",
            replicas=len(self.names),
            replication=self.config.replication,
            platforms=len(self.platforms),
            mode=self.config.mode,
        )
        if self.config.auto_restart:
            self._watchdog = threading.Thread(
                target=self._watch,
                name="acic-cluster-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        return self.specs()

    def _boot(self, name: str, port: int) -> _ThreadMember | _ProcessMember:
        platforms = tuple(self.assignments[name])
        if self.config.mode == "thread":
            service = AcicService.load(self.artifacts, platforms=platforms)
            server = AcicServer(
                service,
                host=self.config.host,
                port=port,
                workers=self.config.workers,
            )
            # No drain on stop: a supervisor kill should look like a
            # crash to the router, not a graceful goodbye.
            thread = ServerThread(server, drain=False)
            host, bound_port = thread.start()
            spec = ReplicaSpec(
                name=name, host=host, port=bound_port, platforms=platforms
            )
            return _ThreadMember(spec, thread)
        command = self._serve_command(port, platforms)
        src = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        address = self._await_banner(proc, name)
        host, _, port_text = address.rpartition(":")
        spec = ReplicaSpec(
            name=name, host=host, port=int(port_text), platforms=platforms
        )
        return _ProcessMember(spec, proc)

    def _serve_command(self, port: int, platforms: tuple[str, ...]) -> list[str]:
        """The ``acic serve`` argv for one process-mode replica.

        ``--platforms`` is always passed explicitly — an empty value
        means "load nothing", matching thread mode's ``platforms=()``;
        omitting the flag would make a shardless replica load the
        ENTIRE artifact pack.
        """
        return [
            sys.executable, "-m", "repro.cli", "serve",
            "--artifacts", str(self.artifacts),
            "--listen", f"{self.config.host}:{port}",
            "--workers", str(self.config.workers),
            "--platforms", ",".join(platforms),
        ]

    def _await_banner(self, proc: subprocess.Popen, name: str) -> str:
        """Wait (bounded) for the child's listening banner.

        ``readline`` blocks with no timeout of its own, so the reads
        run on a daemon thread and the deadline is enforced around the
        queue instead — a child that stays alive but never prints the
        banner is killed when ``boot_timeout_s`` expires rather than
        hanging ``start()`` forever.  The pump keeps draining stdout
        after the banner so the child can never block on a full pipe;
        post-banner output is discarded.
        """
        assert proc.stdout is not None
        lines: queue.Queue[str] = queue.Queue()
        banner_seen = threading.Event()

        def _pump(stream) -> None:
            try:
                for line in iter(stream.readline, ""):
                    if not banner_seen.is_set():
                        lines.put(line)
            except (ValueError, OSError):
                # Stream closed under us during teardown — same as EOF.
                pass
            finally:
                lines.put("")

        threading.Thread(
            target=_pump,
            args=(proc.stdout,),
            name=f"cluster-banner-{name}",
            daemon=True,
        ).start()
        deadline = time.monotonic() + self.config.boot_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                break
            if not line:
                raise RuntimeError(
                    f"replica {name!r} exited during boot "
                    f"(code {proc.poll()})"
                )
            if line.startswith("# listening on "):
                banner_seen.set()
                return line.split("# listening on ", 1)[1].strip()
        proc.kill()
        proc.wait(timeout=10.0)
        raise RuntimeError(
            f"replica {name!r} did not report an address within "
            f"{self.config.boot_timeout_s:.0f}s"
        )

    # ------------------------------------------------------------------
    def specs(self) -> list[ReplicaSpec]:
        """Current replica specs (killed members keep their last spec,
        so a router built earlier still routes around them)."""
        return [self._members[name].spec for name in self.names]

    def alive(self, name: str) -> bool:
        """Whether the named replica is currently running."""
        return self._members[name].alive

    def pid(self, name: str) -> int | None:
        """OS pid of a live process-mode replica (None otherwise).

        Exposed so an external chaos driver (the CI smoke) can
        ``kill -9`` a replica without going through the supervisor.
        """
        member = self._members[name]
        if isinstance(member, _ProcessMember) and member.proc is not None:
            return member.proc.pid
        return None

    def router(
        self,
        config: RouterConfig | None = None,
        **handle_kwargs,
    ) -> ClusterRouter:
        """A :class:`ClusterRouter` over the current fleet.

        The router's ring mirrors the supervisor's (same names, same
        vnodes), so router-side preference lists agree with the shard
        assignments replicas actually loaded.
        """
        if config is None:
            config = RouterConfig(
                replication=self.config.replication,
                vnodes=self.config.vnodes,
            )
        handles = [
            ReplicaHandle(spec, **handle_kwargs) for spec in self.specs()
        ]
        return ClusterRouter(handles, config=config)

    # ------------------------------------------------------------------
    def kill(self, name: str, force: bool = True) -> None:
        """Take one replica down — SIGKILL in process mode.

        Idempotent; the spec survives so routers keep routing around
        the corpse and :meth:`restart` knows the assignment.
        """
        member = self._members[name]
        if not member.alive:
            return
        if isinstance(member, _ProcessMember):
            member.kill(force=force)
        else:
            member.kill()
        get_logger().warning(
            "cluster.replica_killed", replica=name, force=force
        )

    def restart(self, name: str) -> ReplicaSpec:
        """Bring a killed replica back on its previous port.

        Rebinding the old address means existing routers fail back to
        it without a topology change — the supervisor's answer to a
        crashed-and-recovered node.
        """
        member = self._members[name]
        if member.alive:
            return member.spec
        self._members[name] = self._boot(name, port=member.spec.port)
        get_logger().info("cluster.replica_restarted", replica=name)
        return self._members[name].spec

    def apply_chaos(self) -> list[str]:
        """Execute the fault plan's ``replica_kill`` decisions.

        One injector visit per live replica at site
        ``cluster.supervisor.<name>``; returns the names killed this
        sweep (deterministic given the plan's seed and visit counts).
        """
        killed = []
        for name in self.names:
            if not self._members[name].alive:
                continue
            decision = get_injector().perturb(f"cluster.supervisor.{name}")
            if decision.kill:
                self.kill(name, force=True)
                killed.append(name)
        return killed

    # ------------------------------------------------------------------
    def check_replicas(self) -> list[str]:
        """One watchdog sweep: restart every dead replica.

        Exposed separately from the background thread so tests can
        drive recovery deterministically (call this instead of waiting
        out ``watch_interval_s``).  Returns the names restarted.  A
        replica whose restart fails (e.g. its old port was stolen) is
        logged and retried on the next sweep rather than crashing the
        watchdog.
        """
        restarted = []
        for name in self.names:
            if self._stop_event.is_set():
                break
            if name not in self._members or self._members[name].alive:
                continue
            try:
                self.restart(name)
            except Exception as exc:
                get_logger().error(
                    "cluster.watchdog_restart_failed",
                    replica=name,
                    error=str(exc),
                )
            else:
                restarted.append(name)
        return restarted

    def _watch(self) -> None:
        """Watchdog loop: sweep until :meth:`stop` raises the flag."""
        while not self._stop_event.wait(self.config.watch_interval_s):
            restarted = self.check_replicas()
            if restarted:
                get_logger().info(
                    "cluster.watchdog_restarted", replicas=restarted
                )

    def stop(self) -> None:
        """Take the whole fleet down (idempotent).

        The stop flag is raised *before* any kill so the watchdog
        cannot resurrect replicas mid-teardown.
        """
        self._stop_event.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=10.0)
            self._watchdog = None
        for name in self.names:
            if name in self._members:
                self.kill(name)

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
