#!/usr/bin/env python3
"""End-to-end NTCS benchmark: three closed-loop workloads through the
public ``repro`` API, with per-layer attribution from a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload echo_chain3 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
timed ones scaled to a reference host speed (see ``hostspeed.py``).
``--trace 1`` reports the per-layer metrics instead: exact counts read
from the program after an untraced pass, a wire digest from a separate
untimed pass, and self time per Fig. 2-1 layer from a pass with span
wrappers installed (see ``spans.py``); the spans are written to
``.perfbench/`` at the end.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# The benchmark's other modules import ``repro``, so they are imported
# inside functions, once main() has put the program's src/ on the path.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("echo_chain3", "stream_2net", "churn_2net")

# The layers reported by the traced run: the Fig. 2-1 stack as
# repro.analysis.layermap names it, plus the benchmark's own handlers.
LAYERS = ("netsim", "ipcs", "nd", "gateway", "ip", "lcm", "ntcs_vocab",
          "conversion", "nsp", "ali", "nucleus", "foundation", "app")

# Printed in the readable report but not in the JSON result, which
# holds the metrics a regression bound can be set on.  Simulated latency
# reads the same on every run; the error rate is 0 whenever the result
# is correct (``failed`` carries it); and the 99th percentile follows
# the shared host's slow spells, spreading more from run to run than
# any usable bound (see README.md).
REPORT_ONLY = frozenset({"virtual_ms_p50", "error_rate", "latency_us_p99",
                         "host_slowdown"})

# Samples per latency-tail window: the 99th percentile of 1,000 has
# ten samples beyond it.
TAIL_WINDOW = 1000

# Span names the count metrics need from the traced run.
DELIVERY_SPANS = ("netsim:Interface.deliver", "netsim:Interface.deliver_train")
CONNECT_SPANS = ("ipcs:SimTcpIpcs.connect", "ipcs:SimMbxIpcs.connect")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall seconds of timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def round_rng(seed: int, index: int) -> random.Random:
    """The input stream of round ``index``: same seed, same inputs."""
    return random.Random(seed * 1_000_003 + index)


class Round:
    """One set-up plus one timed round, with the counts it added and the
    host's mean slowdown around it (see ``hostspeed.py``)."""

    def __init__(self, setup_s, result, counts):
        self.setup_s = setup_s
        self.result = result
        self.counts = counts
        self.slowdown = 1.0

    @property
    def wall_s(self) -> float:
        return self.result.wall_ns / 1e9


def one_round(workload, seed: int, index: int, roots=None,
              wire: bool = False) -> Tuple[Round, Optional[str]]:
    """Build and warm a fresh topology, then run round ``index``.

    The set-up heap is frozen for the round so the collector, which
    stays on, scans only what the operations allocate.  With ``wire``
    the round's frames are recorded and digested."""
    import counts
    from workloads import NO_ROOTS

    t0 = time.perf_counter()
    session = workload.setup()
    setup_s = time.perf_counter() - t0
    inputs = workload.inputs(round_rng(seed, index))
    log = session.bed.record_wire_trace() if wire else None
    gc.collect()
    gc.freeze()
    try:
        before = counts.snapshot(session.bed)
        result = workload.run(session, inputs,
                              NO_ROOTS if roots is None else roots)
        added = counts.delta(before, counts.snapshot(session.bed))
    finally:
        gc.unfreeze()
    digest = None
    if log is not None:
        h = hashlib.sha256()
        for event in log.events:
            h.update(json.dumps(event, sort_keys=True).encode())
        digest = f"{h.hexdigest()[:16]} ({len(log.events)} frames)"
        log.detach()
    # The deployment is one big reference cycle: reclaim it now, so no
    # round's peak memory includes an earlier round's garbage.
    del session, log
    gc.collect()
    return Round(setup_s, result, added), digest


def measure(workload, seed: int, seconds: float, host) -> List[Round]:
    """Rounds ``0, 1, ...`` until their timed walls add up to
    ``seconds`` (at least one round), the host probed between rounds."""
    rounds: List[Round] = []
    spent = 0.0
    before = host.slowdown()
    while not rounds or spent < seconds:
        done, _ = one_round(workload, seed, len(rounds))
        after = host.slowdown()
        done.slowdown = (before + after) / 2
        before = after
        rounds.append(done)
        spent += done.wall_s
    return rounds


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    rank = max(1, min(len(sorted_values), round(q * len(sorted_values) + 0.5)))
    return sorted_values[rank - 1]


def errors_of(rounds: List[Round]) -> List[str]:
    return [e for r in rounds for e in r.result.errors]


def tail_windows(rounds: List[Round]) -> List[Tuple[float, int]]:
    """(99th percentile in us, samples) of each window of consecutive
    rounds holding at least :data:`TAIL_WINDOW` samples; a short last
    window joins the one before it.  Samples are at reference speed."""
    windows: List[List[float]] = []
    for r in rounds:
        if not windows or len(windows[-1]) >= TAIL_WINDOW:
            windows.append([])
        windows[-1].extend(x / r.slowdown for x in r.result.latency_ns)
    if len(windows) > 1 and len(windows[-1]) < TAIL_WINDOW:
        windows[-2].extend(windows.pop())
    return [(percentile(sorted(w), 0.99) / 1e3, len(w)) for w in windows]


def end_to_end(rounds: List[Round]) -> Tuple[Dict[str, tuple], List[str]]:
    """The end-to-end metrics as ``name -> (value, unit, note)``.

    Every timed metric is at the reference host speed: each round's wall
    times are divided by the host's slowdown around that round (see
    ``hostspeed.py``); the notes give the raw wall-clock figure.  Rates
    are totals over every round.  The median latency pools every sample.
    The tail is taken per window of consecutive rounds holding at least
    :data:`TAIL_WINDOW` samples, so each window's 99th percentile has
    ten samples beyond it, and is the median over windows."""
    # Read before the pooled sample lists below add to the process.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latency = sorted(x / r.slowdown / 1e3
                     for r in rounds for x in r.result.latency_ns)
    raw_latency = sorted(x / 1e3 for r in rounds for x in r.result.latency_ns)
    virtual = sorted(x * 1e3 for r in rounds for x in r.result.virtual_s)
    attempted = sum(r.result.attempted for r in rounds)
    payload = sum(r.result.payload_bytes for r in rounds)
    wall = sum(r.wall_s / r.slowdown for r in rounds)
    raw_wall = sum(r.wall_s for r in rounds)
    slowdowns = [r.slowdown for r in rounds]
    raw_setup = statistics.median(r.setup_s for r in rounds)
    failed = len(errors_of(rounds))
    tails = tail_windows(rounds)
    metrics = {
        "ops_per_s": (attempted / wall, "1/s",
                      f"raw {attempted / raw_wall:.6g}; {attempted} ops in "
                      f"{len(rounds)} rounds"),
        "latency_us_p50": (percentile(latency, 0.50), "us",
                           f"raw {percentile(raw_latency, 0.50):.6g}; "
                           f"n={len(latency)}"),
        "latency_us_p99": (statistics.median(p for p, _ in tails), "us",
                           f"raw {percentile(raw_latency, 0.99):.6g} pooled; "
                           f"median of {len(tails)} windows, each n>="
                           f"{min(n for _, n in tails)}"),
        "virtual_ms_p50": (percentile(virtual, 0.50), "ms",
                           f"n={len(virtual)}, simulated time"),
        "goodput_kB_per_s": (payload / wall / 1e3, "kB/s",
                             f"raw {payload / raw_wall / 1e3:.6g}; "
                             "application payload"),
        "error_rate": (failed / attempted if attempted else 1.0, "ratio",
                       f"{failed} of {attempted} ops"),
        "setup_s": (statistics.median(r.setup_s / r.slowdown for r in rounds),
                    "s", f"raw {raw_setup:.6g}; median of {len(rounds)} "
                    "set-ups"),
        "peak_rss_mb": (peak_rss_mb, "MB", "peak resident set"),
        "host_slowdown": (statistics.median(slowdowns), "ratio",
                          f"median over rounds; {min(slowdowns):.3g} to "
                          f"{max(slowdowns):.3g}"),
    }
    return metrics, errors_of(rounds)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(c: Dict[str, int], ops: int) -> Dict[str, tuple]:
    """Per-layer metrics that are exact program counts of one round."""
    per = lambda *names: _ratio(sum(c.get(n, 0) for n in names), ops)
    get = c.get
    return {
        "netsim.events_per_op": (per("sched.events"), "1/op"),
        "netsim.frames_per_op": (per("net.frames_sent"), "1/op"),
        "netsim.wire_bytes_per_op": (per("net.bytes_sent"), "B/op"),
        "ipcs.segments_per_op": (per("ipcs.segments"), "1/op"),
        "ipcs.retransmits_per_op": (per("ipcs.retransmits"), "1/op"),
        "nd.train_frame_share": (_ratio(get("nd_train_frames", 0),
                                        get("nd_messages_sent", 0)), "ratio"),
        "nd.malformed_per_op": (per("nd_malformed_messages"), "1/op"),
        "gateway.forwarded_per_op": (per("gateway.messages_forwarded"),
                                     "1/op"),
        "gateway.zero_copy_share": (_ratio(
            get("gateway.frames_forwarded_zero_copy", 0),
            get("gateway.messages_forwarded", 0)), "ratio"),
        "gateway.circuits_established_per_op": (
            per("gateway.circuits_established"), "1/op"),
        "gateway.drops_per_op": (per("gateway_messages_dropped",
                                     "gateway.credit_overruns_dropped"),
                                 "1/op"),
        "ip.ivcs_opened_per_op": (per("ivc_direct_opened",
                                      "ivc_chained_opened"), "1/op"),
        "ip.credit_stalls_per_op": (per("ip_credit_stalls"), "1/op"),
        "ip.credit_grants_per_op": (per("ip_credit_grants"), "1/op"),
        "ip.credit_probes_per_op": (per("ip_credit_probes"), "1/op"),
        "lcm.train_drains_per_op": (per("lcm_train_drains"), "1/op"),
        "lcm.rx_queue_high_water": (float(get("lvc_rx_queue_high_water", 0)),
                                    "count"),
        "lcm.retries_per_op": (per("lcm_call_retries",
                                   "lcm_reconnect_attempts"), "1/op"),
        "lcm.undecodable_per_op": (per("lcm_undecodable_messages"), "1/op"),
        "conversion.packs_per_op": (per("pack_calls"), "1/op"),
        "conversion.image_share": (_ratio(
            get("image_sends", 0),
            get("image_sends", 0) + get("pack_calls", 0)), "ratio"),
        "conversion.codec_cache_hit_ratio": (_ratio(
            get("codec_cache_hits", 0),
            get("codec_cache_hits", 0) + get("codec_cache_misses", 0)),
            "ratio"),
        "nsp.ns_requests_per_op": (per("nsp_calls"), "1/op"),
        "nsp.cache_hit_ratio": (_ratio(
            get("nsp_cache_hits", 0),
            get("nsp_cache_hits", 0) + get("nsp_cache_misses", 0)), "ratio"),
        "nsp.coalesced_per_op": (per("nsp_calls_coalesced"), "1/op"),
        "ali.send_blocked_per_op": (per("ali_send_blocked"), "1/op"),
    }


def span_metrics(log, done: Round, untraced: List[Round]) -> Dict[str, tuple]:
    """Per-layer self time and calls from the traced round, plus the
    counts only the trace observes and the trace's own cost."""
    import spans

    ops = done.result.attempted
    totals = spans.layer_totals(log)
    names = spans.name_counts(log)
    metrics = {}
    for layer in LAYERS:
        own, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}.self_us_per_op"] = (
            own / done.slowdown / ops * 1e6, "us/op")
        metrics[f"{layer}.calls_per_op"] = (calls / ops, "1/op")
    deliveries = sum(names.get(n, 0) for n in DELIVERY_SPANS)
    metrics["netsim.frames_per_delivery"] = (
        _ratio(done.counts.get("net.frames_delivered", 0), deliveries),
        "ratio")
    metrics["ipcs.connects_per_op"] = (
        sum(names.get(n, 0) for n in CONNECT_SPANS) / ops, "1/op")
    untraced_wall = statistics.median(r.wall_s / r.slowdown for r in untraced)
    metrics["trace.overhead_ratio"] = (done.wall_s / done.slowdown
                                       / untraced_wall, "ratio")
    unattributed = totals.get(spans.ROOT_LAYER, (0.0, 0))[0]
    metrics["trace.unattributed_share"] = (
        _ratio(unattributed, spans.root_time(log)), "ratio")
    return metrics


def traced(workload, seed: int, host=None):
    """The traced pass: install the span wrappers, run round 0 on a
    fresh topology, restore.  Returns the span log, the round and the
    first wrapper left behind (None when all were restored)."""
    import spans

    log = spans.SpanLog()
    installation = spans.install(log)
    before = host.slowdown() if host else 1.0
    try:
        done, _ = one_round(workload, seed, 0, log)
    finally:
        installation.restore()
    done.slowdown = (before + host.slowdown()) / 2 if host else 1.0
    return log, done, spans.unwrapped_everywhere()


def per_layer(workload, seed: int, seconds: float, host):
    """``--trace 1``: counts, wire digest, traced self times."""
    untraced = measure(workload, seed, seconds, host)
    base = untraced[0]
    _, digest = one_round(workload, seed, 0, wire=True)
    log, done, leftover = traced(workload, seed, host)
    errors = errors_of(untraced) + done.result.errors
    if done.counts != base.counts:
        diff = sorted(k for k in set(base.counts) | set(done.counts)
                      if base.counts.get(k) != done.counts.get(k))
        errors.append(f"traced round counts differ from untraced: {diff}")
    if leftover is not None:
        errors.append(f"span wrapper not restored: {leftover}")
    metrics = count_metrics(base.counts, base.result.attempted)
    metrics.update(span_metrics(log, done, untraced))
    virtual = sorted(base.result.virtual_s)
    notes = [
        f"wire digest of round 0: {digest}",
        f"virtual_ms_p50 of round 0: {percentile(virtual, 0.5) * 1e3:.6f} ms",
        f"traced round 0: {len(log)} spans",
    ]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{seed}.spans.tsv"
    log.write_tsv(path)
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    attempted = (sum(r.result.attempted for r in untraced)
                 + done.result.attempted)
    return metrics, errors, notes, attempted


def emit(workload: str, metrics: Dict[str, tuple], errors: List[str],
         notes: List[str], attempted: int) -> None:
    """Print the readable report, then the one-line JSON result, which
    leaves out the :data:`REPORT_ONLY` metrics."""
    print(f"perfbench {workload}: {attempted} ops attempted, "
          f"{len(errors)} failed")
    for name, spec in metrics.items():
        value, unit = spec[0], spec[1]
        note = f"  ({spec[2]})" if len(spec) > 2 else ""
        print(f"  {name:<38} {value:>14.6g} {unit}{note}")
    for note in notes:
        print(f"  {note}")
    for error in errors[:20]:
        print(f"  ERROR {error}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": spec[0], "unit": spec[1]}
                    for name, spec in metrics.items()
                    if name not in REPORT_ONLY},
    }
    print(json.dumps(result))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program to measure in {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(src))
    import workloads
    from hostspeed import HostSpeed

    workload = workloads.make(args.workload)
    with HostSpeed() as host:
        if args.trace:
            metrics, errors, notes, attempted = per_layer(
                workload, args.seed, args.seconds, host)
            emit(args.workload, metrics, errors, notes, attempted)
            return 0
        rounds = measure(workload, args.seed, args.seconds, host)
    metrics, errors = end_to_end(rounds)
    attempted = sum(r.result.attempted for r in rounds)
    emit(args.workload, metrics, errors, [], attempted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
