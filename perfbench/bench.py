"""One benchmark run of one workload: set up, drive, trace, check, measure."""

from __future__ import annotations

import asyncio
import gc
import shutil
from collections import Counter, OrderedDict
from pathlib import Path

import numpy as np

from perfbench import speed
from perfbench import workloads as wl
from perfbench.oracle import TOLERANCE, Reference, compare, detection_quality
from perfbench.tracing import Tracer

#: End-to-end metrics: name -> unit (printed from untraced phases only).
END_TO_END = {
    "throughput_eps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_us_per_event": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "alert_recall": "ratio",
    "alert_precision": "ratio",
}

#: Per-layer metrics: name -> unit (printed from the traced phase).
PER_LAYER = {
    "loadgen.lag_ms_p99": "ms",
    "preprocess.normalize_us": "us",
    "shell.validate_us": "us",
    "shell.drop_ratio": "ratio",
    "preprocess.canonicalize_us": "us",
    "preprocess.canonicalize_changed_ratio": "ratio",
    "preprocess.canonicalize_failures": "count",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.lookup_us": "us",
    "serving.microbatch.batch_size_mean": "count",
    "serving.microbatch.deadline_flush_ratio": "ratio",
    "serving.microbatch.wait_ms_p50": "ms",
    "tokenizer.encode_us_per_line": "us",
    "tokenizer.pad_ratio": "ratio",
    "nn.forward_us_per_line": "us",
    "nn.rows_per_batch": "count",
    "nn.mflop_per_line": "MFLOP",
    "serving.backends.overhead_us_per_batch": "us",
    "serving.sessions.observe_us": "us",
    "serving.sessions.sequence_calls": "count",
    "serving.sessions.sequence_us_per_call": "us",
    "serving.delivery.emit_us_per_alert": "us",
    "serving.delivery.dead_letters": "count",
    "fleet.encode_us_per_batch": "us",
    "fleet.frame_bytes_per_event": "B",
    "fleet.ack_rtt_ms_p50": "ms",
    "fleet.replayed_events": "count",
    "fleet.router.self_us_per_event": "us",
    "serving.shard.self_us_per_event": "us",
    "trace.coverage_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def phase_figures(phase: wl.Phase, calibrated: bool) -> dict[str, float]:
    """Throughput, latency and CPU of a phase, as measured or, if
    *calibrated*, at the reference machine speed: each closed-loop call's
    time and CPU divided by the slowdown read around it."""
    if not len(phase.call_seconds):  # open loop: latency per event
        return {
            "throughput_eps": phase.throughput,
            "latency_p50_ms": wl.percentile(phase.latencies_ms, 50),
            "latency_p99_ms": wl.percentile(phase.latencies_ms, 99),
            "cpu_us_per_event": _ratio(phase.cpu_seconds * 1e6, phase.events),
        }
    slowdowns = speed.local_slowdowns(phase.readings) if calibrated else 1.0
    seconds = np.asarray(phase.call_seconds) / slowdowns
    events = np.asarray(phase.call_events)
    # every event of a call gets the call's latency
    latencies = np.repeat(seconds * 1000.0, events)
    return {
        "throughput_eps": _ratio(events.sum(), seconds.sum()),
        "latency_p50_ms": wl.percentile(latencies, 50),
        "latency_p99_ms": wl.percentile(latencies, 99),
        "cpu_us_per_event": _ratio(
            float((np.asarray(phase.call_cpu) / slowdowns).sum()) * 1e6, events.sum()),
    }


def layer_metrics(tracer: Tracer, traced: wl.Phase, untraced: wl.Phase, replayed: int,
                  dead_letters: int, calibrated: bool) -> dict[str, float]:
    """Per-layer figures of the traced phase (0 where a layer did no work)."""
    own = tracer.self_times()
    calls, counts = tracer.calls, tracer.counts

    def us_per(op: str, denominator: float) -> float:
        return _ratio(own.get(op, 0.0) * 1e6, denominator)

    # at the reference speed where the workload is calibrated: the two
    # phases ran at different times
    untraced_cpu, traced_cpu = (phase_figures(phase, calibrated)["cpu_us_per_event"]
                                for phase in (untraced, traced))
    return {
        "loadgen.lag_ms_p99": wl.percentile(untraced.lag_ms, 99),
        "preprocess.normalize_us": us_per("preprocess.normalize", calls["preprocess.normalize"]),
        "shell.validate_us": us_per("shell.validate", calls["shell.validate"]),
        "shell.drop_ratio": _ratio(counts["dropped"], calls["shell.validate"]),
        "preprocess.canonicalize_us": us_per(
            "preprocess.canonicalize", calls["preprocess.canonicalize"]),
        "preprocess.canonicalize_changed_ratio": _ratio(
            counts["canon_changed"], calls["preprocess.canonicalize"]),
        "preprocess.canonicalize_failures": counts["canon_failures"],
        "serving.cache.hit_ratio": _ratio(counts["cache_hits"], calls["serving.cache.lookup"]),
        "serving.cache.lookup_us": us_per("serving.cache.lookup", calls["serving.cache.lookup"]),
        "serving.microbatch.batch_size_mean": _ratio(counts["flushed_items"], counts["flushes"]),
        "serving.microbatch.deadline_flush_ratio": _ratio(
            counts["deadline_flushes"], counts["flushes"]),
        "serving.microbatch.wait_ms_p50": wl.percentile(tracer.waits_ms, 50),
        "tokenizer.encode_us_per_line": us_per("tokenizer.encode", counts["encode_rows"]),
        "tokenizer.pad_ratio": _ratio(counts["encode_pad"], counts["encode_cells"]),
        "nn.forward_us_per_line": us_per("nn.forward", counts["forward_rows"]),
        "nn.rows_per_batch": _ratio(counts["forward_rows"], calls["nn.forward"]),
        "nn.mflop_per_line": _ratio(counts["forward_flops"] / 1e6, counts["forward_rows"]),
        "serving.backends.overhead_us_per_batch": us_per(
            "serving.backends", calls["serving.backends"]),
        "serving.sessions.observe_us": us_per(
            "serving.sessions.observe", calls["serving.sessions.observe"]),
        "serving.sessions.sequence_calls": float(calls["serving.sessions.sequence"]),
        "serving.sessions.sequence_us_per_call": us_per(
            "serving.sessions.sequence", calls["serving.sessions.sequence"]),
        "serving.delivery.emit_us_per_alert": us_per(
            "serving.delivery.emit", calls["serving.delivery.emit"]),
        "serving.delivery.dead_letters": float(dead_letters),
        "fleet.encode_us_per_batch": us_per("fleet.encode", calls["fleet.encode"]),
        "fleet.frame_bytes_per_event": _ratio(counts["frame_bytes"], counts["frame_events"]),
        "fleet.ack_rtt_ms_p50": wl.percentile(tracer.ack_rtt_ms, 50),
        "fleet.replayed_events": float(replayed),
        "fleet.router.self_us_per_event": us_per("fleet.router", traced.events),
        "serving.shard.self_us_per_event": us_per("serving.shard", traced.events),
        "trace.coverage_ratio": _ratio(sum(own.values()), traced.seconds),
        "trace.overhead_ratio": _ratio(traced_cpu, untraced_cpu),
    }


def _traffic(events, reference: Reference, warm_count: int, cache_size: int) -> dict:
    """The properties of the traffic a claim can cite its share on.

    ``resident_share`` is the share of timed events whose scored text an
    LRU cache of the deployment's configured size would already hold.
    """
    expected = reference.expected
    lru: OrderedDict = OrderedDict()
    resident = live = changed = 0
    for position, event in enumerate(events):
        outcome = expected[event.line]
        if outcome.dropped:
            continue
        live += 1
        changed += outcome.changed
        hit = outcome.text in lru
        if hit:
            lru.move_to_end(outcome.text)
        else:
            lru[outcome.text] = None
            if len(lru) > cache_size:
                lru.popitem(last=False)
        resident += hit and position >= warm_count
    total = max(len(events), 1)
    return {
        "events": len(events),
        "distinct_line_share": len({event.line for event in events}) / total,
        "resident_share": _ratio(resident, len(events) - warm_count),
        "drop_share": 1.0 - live / total,
        "canonicalize_changed_share": _ratio(changed, live),
        "attack_share": sum(event.malicious for event in events) / total,
        "hosts": len({event.host for event in events}),
    }


async def _serve(name: str, bundle: Path, run_dir: Path, warm, stream, seconds: float,
                 trace: bool, setup_rounds: int) -> dict:
    setup_times, setup_slowdowns = await wl.time_set_up(name, bundle, run_dir, setup_rounds)
    # the workload's memory peak starts here, after its traffic pool
    # exists and the timed set-up rounds are gone
    rss_before, rss_reset = wl.reset_peak_rss()
    (run_dir / "serve").mkdir()
    deployment = wl.deployment_for(name, bundle, run_dir / "serve")
    await deployment.start()
    outcomes: Counter = Counter()
    out: dict = {"setup_times": setup_times, "setup_slowdowns": setup_slowdowns,
                 "warm_failed": 0, "outcomes": outcomes}
    try:
        batch = wl.batch_size(name)
        for start in range(0, len(warm), batch):
            chunk = warm[start : start + batch]
            try:
                results = await deployment.submit_many(chunk)
            except Exception as exc:
                out["warm_failed"] += len(chunk)
                out.setdefault("errors", []).append(repr(exc))
                continue
            out["warm_failed"] += max(len(chunk) - len(results), 0)
            wl.observe(outcomes, results)
        # a traced run gives each phase half of the time
        untraced = await wl.run_phase(
            name, deployment, stream, seconds / 2 if trace else seconds, outcomes
        )
        out["rss"] = {"before_mb": rss_before, "peak_mb": wl.peak_rss_mb(),
                      "peak_reset": rss_reset}
        out["untraced"] = untraced
        if trace:
            tracer = Tracer()
            replayed = deployment.wire_failures().get("replayed_events", 0)
            deployment.install(tracer)
            try:
                out["traced"] = await wl.run_phase(
                    name, deployment, stream, seconds / 2, outcomes
                )
            finally:
                tracer.uninstall()
            out["tracer"] = tracer
            out["replayed_traced"] = deployment.wire_failures().get("replayed_events", 0) - replayed
    finally:
        await deployment.stop()
    out["wire"] = deployment.wire_failures()
    out["dead_letters"] = sum(server.sinks.dead_lettered for server in deployment.servers)
    out["precision"] = deployment.config.backend.precision
    out["canonicalize"] = deployment.config.canonicalize
    out["cache_size"] = deployment.config.cache.size
    return out


def run_workload(name: str, bundle: Path, run_dir: Path, *, seed: int, seconds: float,
                 trace: bool, scale: float = 1.0, setup_rounds: int | None = None) -> dict:
    """Run one workload and return its metrics, checks and descriptions.

    *scale* shrinks the generated pools and *setup_rounds* the timed
    deployments (default ``workloads.SETUP_ROUNDS``); the benchmark's own
    tests use small values of both.
    """
    setup_rounds = setup_rounds or wl.SETUP_ROUNDS
    warm, stream = wl.generate(name, seed, seconds, scale)
    # the generated traffic lives for the whole run: keep it out of the
    # program's garbage-collection passes
    gc.collect()
    gc.freeze()
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        served = asyncio.run(
            _serve(name, bundle, run_dir, warm, stream, seconds, trace, setup_rounds)
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        gc.unfreeze()
    untraced: wl.Phase = served["untraced"]
    phases = [untraced] + ([served["traced"]] if trace else [])
    outcomes = served["outcomes"]
    events = list(warm) + stream.served()

    reference = Reference(bundle, served["canonicalize"])
    reference.extend(event.line for event in events)
    check = compare(outcomes, reference, TOLERANCE.get(served["precision"], 1e-5))
    truth: dict[str, bool] = {}
    for event in events:
        truth[event.line] = truth.get(event.line, False) or event.malicious
    recall, precision, positives, alerts = detection_quality(outcomes, truth)

    wire = served["wire"]
    raised = served["warm_failed"] + sum(phase.failed for phase in phases)
    wire_failed = (wire.get("nacked_batches", 0) + wire.get("orphaned_events", 0)
                   + max(wire.get("unacked_events", 0), 0))
    attempted = len(warm) + sum(phase.attempted for phase in phases)
    failed = raised + wire_failed + check.mismatches
    rss = served["rss"]

    measured = {**phase_figures(untraced, False),
                "setup_s": wl.median(served["setup_times"])}
    # times at the reference machine speed (perfbench.speed); set-up is
    # the same interpreter-bound load and compile on every workload
    metrics = {
        **phase_figures(untraced, wl.WORKLOADS[name].calibrated),
        "peak_rss_mb": rss["peak_mb"],
        "setup_s": wl.median([seconds / factor for seconds, factor
                              in zip(served["setup_times"], served["setup_slowdowns"])]),
        "alert_recall": recall,
        "alert_precision": precision,
    }
    report = {
        "workload": name,
        "why": wl.WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "end_to_end": metrics,
        "measured": measured,
        "speed": {"calibrated": wl.WORKLOADS[name].calibrated,
                  "slowdown": speed.slowdown(untraced.readings),
                  "readings": len(untraced.readings),
                  "setup_slowdowns": served["setup_slowdowns"],
                  "reference_s": speed.REFERENCE_S},
        "samples": {
            "latency_events": untraced.events,
            "latency_calls": untraced.calls,
            "setup_rounds": len(served["setup_times"]),
            "distinct_lines": len(truth),
            "positives": positives,
            "alerts": alerts,
        },
        "phase": {"events": untraced.events, "seconds": untraced.seconds,
                  "cpu_seconds": untraced.cpu_seconds,
                  "pool_passes": getattr(stream, "passes", None)},
        "rss": rss,
        "traffic": _traffic(events, reference, len(warm), served["cache_size"]),
        "oracle": {"mismatches": check.mismatches, "inexact_scores": check.inexact_scores,
                   "max_score_diff": check.max_score_diff,
                   "tolerance": TOLERANCE.get(served["precision"], 1e-5),
                   "examples": check.examples},
        "wire": wire,
        "error_rate": _ratio(failed, attempted),
        "raised": raised,
        "errors": (served.get("errors", []) + [e for p in phases for e in p.errors])[:5],
        "setup_times_s": served["setup_times"],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        traced = served["traced"]
        report["per_layer"] = layer_metrics(
            served["tracer"], traced, untraced, served["replayed_traced"], served["dead_letters"],
            wl.WORKLOADS[name].calibrated,
        )
        report["traced_phase"] = {"events": traced.events, "seconds": traced.seconds,
                                  "throughput_eps": traced.throughput}
        report["notes"] = {
            "nn.mflop_per_line": "matmul FLOPs computed from the tensor shapes each forward "
                                 "pass received, not counted by hardware",
            "zero": "a per-layer value of 0 means the layer did no work on this workload",
        }
    return report
