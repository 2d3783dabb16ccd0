"""The four traffic mixes, the deployments they drive, and their timed phases.

``cold_ingest`` and ``warm_zipf`` call ``DetectionServer.submit_many`` in
fixed-size batches (a closed loop: the next batch goes when the last
returns).  ``live_tail`` calls ``submit`` per event on a fixed open-loop
schedule.  ``fleet_replay`` sends the ``warm_zipf`` traffic through a
``FleetRouter`` to two ``FleetNode`` s on localhost TCP, one chunk at a
time: ``submit_many`` and ``flush``, then wait until every event of the
chunk is acknowledged.  The timed traffic is a source whose ``take(n)``
never runs dry, so every phase lasts as long as it is timed for.

Closed-loop phases and set-up rounds read the machine's speed with
:mod:`perfbench.speed` after every program call, untimed.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import resource
import shutil
import statistics
import time
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.fleet.config import FleetConfig
from repro.fleet.node import FleetNode
from repro.fleet.router import FleetRouter
from repro.ids import IntrusionDetectionService
from repro.serving import CommandEvent, DetectionServer, ServingConfig

from perfbench import speed, traffic

#: Events per ``submit_many`` call on cold_ingest and warm_zipf.
BATCH_EVENTS = 64
#: Fleet nodes of fleet_replay, and events per router ``submit_many``.
FLEET_NODES = 2
FLEET_CHUNK = 128
#: Seconds a fleet chunk may wait for its acks before it counts as failed.
ACK_TIMEOUT = 30.0
#: Open-loop send rate of live_tail (events/s), below saturation.
LIVE_RATE = 200.0
#: live_tail history served (untimed, batched) before the tail starts.
LIVE_HISTORY = 4000
#: Distinct lines in the warm pool (fits the default 4096-entry cache).
WARM_POOL = 3072
#: Distinct lines cold_ingest cycles through.  Served in the same order
#: every pass, a pool this much larger than the default 4096-entry LRU
#: cache never hits it, however fast the program gets through it.
COLD_POOL = 12_000
#: Deployments built (and timed) per run; setup_s is their median.
SETUP_ROUNDS = 25
#: Speed readings taken just before and just after each set-up round.
SETUP_PROBES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "batch", "open" or "fleet"
    #: Whether the timed phase's time metrics are given at the reference
    #: machine speed (see :mod:`perfbench.speed`).  Only where the
    #: reference kernel follows the phase's cost: cold_ingest's is mostly
    #: BLAS, which slows far less than the interpreter when the machine
    #: does (its calibrated throughput ran opposite to the machine's
    #: speed), and live_tail's times are set by its send schedule and the
    #: micro-batcher's deadline.
    calibrated: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_ingest", "distinct fleet telemetry via submit_many: tokenize and the "
                 "float64 forward dominate; cache, batcher and fleet idle", "batch", False),
        Workload("warm_zipf", "Zipf repeats of a cache-resident pool via submit_many: parse "
                 "and cache dominate; the model is nearly idle", "batch", True),
        Workload("live_tail", "per-event submit at a fixed open-loop rate with an evasion "
                 "campaign: batcher, canonicalizer, sequence stage and delivery", "open", False),
        Workload("fleet_replay", "warm_zipf traffic through FleetRouter to 2 FleetNodes over "
                 "localhost TCP: frame encoding, sockets and acks", "fleet", True),
    )
}


def serving_config(name: str, run_dir: Path) -> ServingConfig:
    """The deployment each workload serves with."""
    if name != "live_tail":
        return ServingConfig()
    # shaped like examples/serve.toml, with the canonicalizer and the
    # sequence stage switched on and the sinks writing into run_dir
    return ServingConfig.from_dict({
        "concurrency": 8,
        "batch": {"max_batch": 16, "max_latency_ms": 10.0, "columnar": True},
        "canonicalize": {"enabled": True, "decode_base64": True, "max_passes": 4},
        "cache": {"size": 4096, "ttl_seconds": 900.0, "admission": "tinylfu"},
        "backend": {"kind": "auto", "workers": 1, "compiled": True, "precision": "float64"},
        "shards": {"count": 2, "virtual_nodes": 64},
        "session": {"mode": "sequence", "window_seconds": 300.0, "escalation_threshold": 5,
                    "sequence_threshold": 0.7, "context_window": 3,
                    "context_max_gap_seconds": 180.0, "max_hosts": 100_000},
        "sinks": [
            {"uri": "ring://2048", "name": "dashboard"},
            {"uri": f"jsonl://{run_dir / 'alerts.jsonl'}", "name": "siem-handoff",
             "policy": {"queue_size": 512, "on_full": "block", "max_retries": 5,
                        "backoff_ms": 100.0, "backoff_multiplier": 2.0,
                        "max_backoff_ms": 2000.0,
                        "dead_letter_path": str(run_dir / "dead_letters.jsonl")}},
        ],
    })


def generate(name: str, seed: int, seconds: float, scale: float = 1.0):
    """``(warm, stream)`` for one run of workload *name*: the untimed warm
    events, and the timed traffic as a source whose ``take(n)`` never runs
    dry (``traffic.Cycle`` or ``traffic.ZipfStream``)."""
    if name == "cold_ingest":
        events = traffic.distinct_telemetry(seed, BATCH_EVENTS + int(COLD_POOL * scale))
        return events[:BATCH_EVENTS], traffic.Cycle(events[BATCH_EVENTS:])
    if name in ("warm_zipf", "fleet_replay"):
        return traffic.zipf_stream(seed, max(int(WARM_POOL * scale), 64))
    if name == "live_tail":
        warm, tail = traffic.live_tail(
            seed, int(LIVE_HISTORY * scale), max(int(LIVE_RATE * seconds), 100)
        )
        return warm, traffic.Cycle(tail)
    raise KeyError(name)


def _command(event: traffic.Event) -> CommandEvent:
    return CommandEvent(line=event.line, host=event.host, timestamp=event.timestamp)


class ServerDeployment:
    """One ``DetectionServer`` from a bundle and a config."""

    def __init__(self, bundle: Path, config: ServingConfig):
        self.bundle, self.config = bundle, config
        self.server: DetectionServer | None = None

    async def start(self) -> float:
        started = time.perf_counter()
        service = IntrusionDetectionService.load(self.bundle)
        self.server = DetectionServer.from_config(service, self.config, record=False)
        await self.server.start()
        return time.perf_counter() - started

    @property
    def servers(self) -> list[DetectionServer]:
        return [self.server]

    async def submit_many(self, events) -> list:
        return await self.server.submit_many(_command(event) for event in events)

    async def submit(self, event):
        return await self.server.submit(event.line, host=event.host, timestamp=event.timestamp)

    def wire_failures(self) -> dict:
        return {}

    def install(self, tracer) -> None:
        tracer.install_server(self.server)

    async def stop(self) -> None:
        await self.server.stop()


class FleetDeployment:
    """Two ``FleetNode`` s and a ``FleetRouter`` in this process (no heartbeats)."""

    def __init__(self, bundle: Path, config: ServingConfig):
        self.bundle, self.config = bundle, config
        self.nodes: list[FleetNode] = []
        self.router: FleetRouter | None = None
        self._collected: list = []
        self._chunk: dict = {}
        self.sent = 0

    async def start(self) -> float:
        started = time.perf_counter()
        for _ in range(FLEET_NODES):
            service = IntrusionDetectionService.load(self.bundle)
            server = DetectionServer.from_config(service, self.config, record=False)
            node = FleetNode(server)
            self.nodes.append(node)
            await node.start()
        self.router = FleetRouter(
            FleetConfig(nodes=tuple(node.address for node in self.nodes)), heartbeats=False
        )
        await self.router.start()
        elapsed = time.perf_counter() - started
        for node in self.nodes:
            # keep every node-side result: the oracle checks them
            self._collect(node.server)
        self.router.acks = _AckLog(self.router.acks.maxlen, self._acked)
        return elapsed

    def _acked(self, message: dict) -> None:
        chunk = self._chunk
        if not chunk:
            return
        chunk["pending"] -= int(message.get("events", 0))
        if chunk["pending"] <= 0:
            chunk["done"].set()

    def _collect(self, server: DetectionServer) -> None:
        submit_many, collected = server.submit_many, self._collected

        async def collecting(events):
            results = await submit_many(events)
            collected.extend(results)
            return results

        server.submit_many = collecting

    @property
    def servers(self) -> list[DetectionServer]:
        return [node.server for node in self.nodes]

    async def submit_many(self, events) -> list:
        """Route one chunk and wait until all of it is acknowledged."""
        chunk = self._chunk = {"pending": len(events), "done": asyncio.Event()}
        try:
            await self.router.submit_many([_command(event) for event in events])
            await self.router.flush()
            await asyncio.wait_for(chunk["done"].wait(), ACK_TIMEOUT)
        finally:
            self._chunk = {}
            self.sent += len(events)
        results, self._collected[:] = list(self._collected), []
        return results

    async def submit(self, event):
        raise NotImplementedError("fleet_replay is a batch workload")

    def wire_failures(self) -> dict:
        stats = self.router.stats()
        acked = sum(ack.get("events", 0) for ack in self.router.acks)
        return {
            "nacked_batches": stats["batches_nacked"],
            "orphaned_events": stats["orphaned_events"],
            "unacked_events": self.sent - acked,
            "replayed_events": stats["events_replayed"],
            "evicted_nodes": stats["nodes_evicted"],
        }

    def install(self, tracer) -> None:
        for server in self.servers:
            tracer.install_server(server)
        tracer.install_fleet(self.router)

    async def stop(self) -> None:
        await self.router.stop()
        for node in self.nodes:
            await node.stop()


class _AckLog(deque):
    """The router's ack log, telling the benchmark when each ack lands."""

    def __init__(self, maxlen: int | None, on_ack):
        super().__init__(maxlen=maxlen)
        self._on_ack = on_ack

    def append(self, message) -> None:
        super().append(message)
        self._on_ack(message)


def deployment_for(name: str, bundle: Path, run_dir: Path):
    config = serving_config(name, run_dir)
    if WORKLOADS[name].mode == "fleet":
        return FleetDeployment(bundle, config)
    return ServerDeployment(bundle, config)


async def time_set_up(name: str, bundle: Path, run_dir: Path,
                      rounds: int = SETUP_ROUNDS) -> tuple[list, list]:
    """Build and stop the deployment *rounds* times.

    Returns each round's set-up time and the machine's slowdown read just
    before and after that round.
    """
    times, slowdowns = [], []
    for round_index in range(rounds):
        round_dir = run_dir / f"setup-{round_index}"
        shutil.rmtree(round_dir, ignore_errors=True)
        round_dir.mkdir(parents=True)
        deployment = deployment_for(name, bundle, round_dir)
        readings = [speed.probe() for _ in range(SETUP_PROBES)]
        times.append(await deployment.start())
        readings += [speed.probe() for _ in range(SETUP_PROBES)]
        slowdowns.append(speed.slowdown(readings))
        await deployment.stop()
        del deployment
        gc.collect()
    return times, slowdowns


def cpu_seconds() -> float:
    """User + system CPU of this process, every thread included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _status_mb(field: str) -> float | None:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def reset_peak_rss() -> tuple[float, bool]:
    """Start a fresh resident-memory peak here.

    Collects garbage, hands freed heap back to the system, then resets
    the kernel's high-water mark (``VmHWM``) to the current RSS.
    Returns ``(rss_mb, reset)``; *reset* is False where ``/proc`` cannot
    reset the mark, and the later peak is then the whole process's.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
        reset = True
    except OSError:
        reset = False
    rss = _status_mb("VmRSS")
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rss, reset


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss` (or process start)."""
    peak = _status_mb("VmHWM")
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak


@dataclass
class Phase:
    """What one timed phase did."""

    events: int = 0
    attempted: int = 0
    calls: int = 0
    failed: int = 0
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    latencies_ms: array = field(default_factory=lambda: array("d"))  # open loop
    lag_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # closed loop, per completed call: seconds, CPU seconds, events, and
    # the reference kernel's reading right after the call
    call_seconds: array = field(default_factory=lambda: array("d"))
    call_cpu: array = field(default_factory=lambda: array("d"))
    call_events: array = field(default_factory=lambda: array("l"))
    readings: array = field(default_factory=lambda: array("d"))

    @property
    def throughput(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0


def observe(outcomes: Counter, results) -> None:
    """Tally served outcomes per raw line (the oracle checks each once)."""
    outcomes.update(
        (r.raw_line, r.dropped, r.score, r.is_intrusion, r.line) for r in results
    )


async def run_batches(deployment, source, seconds: float, batch: int,
                      outcomes: Counter) -> Phase:
    """Closed loop over *source* for *seconds* of program calls.

    After each call, outside the timed spans, the machine's speed is
    read once (``phase.readings``).
    """
    phase = Phase()
    busy = cpu = 0.0
    while busy < seconds:
        chunk = source.take(batch)
        phase.attempted += len(chunk)
        cpu0, sent = cpu_seconds(), time.perf_counter()
        try:
            results = await deployment.submit_many(chunk)
        except Exception as exc:  # counted, reported, never fatal
            phase.failed += len(chunk)
            phase.errors.append(repr(exc))
            continue
        finally:
            elapsed, used = time.perf_counter() - sent, cpu_seconds() - cpu0
            busy += elapsed
            cpu += used
        phase.calls += 1
        phase.failed += max(len(chunk) - len(results), 0)
        phase.events += len(results)
        phase.call_seconds.append(elapsed)
        phase.call_cpu.append(used)
        phase.call_events.append(len(results))
        phase.readings.append(speed.probe())
        observe(outcomes, results)
    phase.seconds, phase.cpu_seconds = busy, cpu
    return phase


async def run_open_loop(deployment, events, rate: float, outcomes: Counter) -> Phase:
    """Send *events* at *rate* per second regardless of completions.

    Latency runs from each event's scheduled send time, so a stall also
    charges the events queued behind it; ``lag_ms`` is how late the
    generator itself dispatched.
    """
    phase = Phase(attempted=len(events))
    loop = asyncio.get_running_loop()
    cpu0 = cpu_seconds()
    origin = time.perf_counter() + 0.02
    last_done = [origin]

    async def one(event, due: float) -> None:
        try:
            result = await deployment.submit(event)
        except Exception as exc:
            phase.failed += 1
            phase.errors.append(repr(exc))
            return
        done = time.perf_counter()
        phase.calls += 1
        last_done[0] = max(last_done[0], done)
        phase.latencies_ms.append((done - due) * 1000.0)
        phase.events += 1
        observe(outcomes, (result,))

    tasks = []
    for index, event in enumerate(events):
        due = origin + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.lag_ms.append(max(time.perf_counter() - due, 0.0) * 1000.0)
        tasks.append(loop.create_task(one(event, due)))
    await asyncio.gather(*tasks)
    phase.seconds = last_done[0] - origin
    phase.cpu_seconds = cpu_seconds() - cpu0
    return phase


async def run_phase(name: str, deployment, source, seconds: float,
                    outcomes: Counter) -> Phase:
    if WORKLOADS[name].mode == "open":
        events = source.take(max(int(LIVE_RATE * seconds), 1))
        return await run_open_loop(deployment, events, LIVE_RATE, outcomes)
    return await run_batches(deployment, source, seconds, batch_size(name), outcomes)


def batch_size(name: str) -> int:
    """Events per ``submit_many`` call (warm passes included)."""
    return FLEET_CHUNK if WORKLOADS[name].mode == "fleet" else BATCH_EVENTS


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation; 0 when empty."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
