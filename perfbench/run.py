"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload service --seed 1 --seconds 30 --trace 0

A rep is one set-up plus a fixed run phase on inputs drawn from an
input seed, which :func:`input_seed` derives from ``--seed`` and an
index below :data:`INPUT_SEEDS`.  With ``--trace 0`` the run makes
passes of one rep per input seed while another pass fits in
``--seconds`` (at least one pass); a run of one pass then repeats the
first input seed once.  Each end-to-end metric is the median over input
seeds of the per-seed mean, so every run averages over the same number
of grids, whatever the speed of the host.
With ``--trace 1`` it runs an untraced rep, a traced rep and another
untraced rep on the first input seed, and reports the per-layer metrics
of the traced one; traced timings never feed an end-to-end metric.
Every rep passes through the correctness gate, and reps on one input
seed must repeat each other's exact work counts; a failure marks every
operation of the run failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file
with a host fingerprint goes to ``perfbench/out/``, next to the traced
run's spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: input seeds per run; a pass over them takes about 25 s on a 2-core host
INPUT_SEEDS = 6

Metric = Tuple[float, str]


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    src = (ROOT / "src").resolve()
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program: {exc}")
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from outside {src}")


def host_fingerprint(seed: int) -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    describe = "unknown"
    if (ROOT / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_describe": describe,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(samples: List[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(samples, q)) * 1e3


def input_seed(seed: int, index: int) -> int:
    """The ``index``-th input seed of a run on ``seed``."""
    import numpy

    return int(numpy.random.SeedSequence([seed, index]).generate_state(1)[0])


def median_of_means(values: Dict[int, List[float]]) -> float:
    """Median over input seeds of the mean of each seed's values."""
    return statistics.median(statistics.mean(v) for v in values.values())


def end_to_end(seeds, reps, attempted: int, failed: int) -> Dict[str, Metric]:
    setup: Dict[int, List[float]] = {}
    rate: Dict[int, List[float]] = {}
    for s, r in zip(seeds, reps):
        setup.setdefault(s, []).append(r.setup_s)
        rate.setdefault(s, []).append(r.ops / r.run_s)
    latencies = [x for rep in reps for x in rep.op_latencies]
    return {
        "setup_s": (median_of_means(setup), "s"),
        "ops_per_s": (median_of_means(rate), "1/s"),
        "op_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


#: per-layer metrics read from the traced rep's spans, by span name
SPAN_CALLS = (
    "overlay.add_node", "hb.join", "hb.round", "agg.step", "sched.place",
    "service.fail_node", "ledger.submit", "ledger.transition",
)
SPAN_SHARES = (
    ("workload.gen", "workload.gen_share"),
    *((name, f"{name}.share") for name in SPAN_CALLS),
    ("hb.fail", "hb.fail.share"),
    ("net.transmit", "net.transmit.share"),
    ("service.submit", "service.submit.share"),
)
SELF_SHARES = (
    ("sim.run", "sim.self_share"),
    ("service.submit", "service.submit.self_share"),
)
#: per-layer metrics read from the traced rep's exact counts
COUNTERS = (
    ("hb.msgs.heartbeat", "count"),
    ("hb.msgs.heartbeat_full", "count"),
    ("hb.msgs.join_reply", "count"),
    ("hb.msgs.join_notify", "count"),
    ("hb.msgs.handoff", "count"),
    ("hb.msgs.takeover_notify", "count"),
    ("hb.msgs.full_update_request", "count"),
    ("hb.msgs.full_update_reply", "count"),
    ("hb.kbytes", "KiB"),
    ("hb.claims", "count"),
    ("hb.failures", "count"),
    ("net.attempts", "count"),
    ("net.delivered_frac", "frac"),
    ("net.dropped_loss", "count"),
    ("net.dropped_partition", "count"),
    ("net.dropped_link_down", "count"),
    ("sched.push_hops", "count"),
    ("sched.placed_on_free_frac", "frac"),
    ("sched.fallback_searches", "count"),
    ("sched.unplaced", "count"),
    ("recovery.jobs_lost", "count"),
    ("recovery.resubmitted", "count"),
    ("recovery.abandoned", "count"),
    ("result.hb_kbytes_per_node_min", "KiB/node-min"),
    ("result.broken_links_steady", "count"),
    ("result.route_delivered_frac", "frac"),
)


def per_layer(traced, spans, overhead_frac: float) -> Dict[str, Metric]:
    """Layer metrics of the traced rep; time is a share of its wall time."""
    total = spans["bench.rep"]["s"]
    unattributed = spans["bench.rep"]["self_s"] / total
    out: Dict[str, Metric] = {"sim.events": (traced.counts["sim.events"], "count")}
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = (spans.get(name, {}).get("calls", 0), "count")
    for name, metric in SPAN_SHARES:
        out[metric] = (spans.get(name, {}).get("s", 0.0) / total, "frac")
    for name, metric in SELF_SHARES:
        out[metric] = (spans.get(name, {}).get("self_s", 0.0) / total, "frac")
    for name, unit in COUNTERS:
        out[name] = (traced.counts.get(name, 0), unit)
    out["trace.unattributed_share"] = (unattributed, "frac")
    out["trace.coverage_frac"] = (1.0 - unattributed, "frac")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    out_dir: Path = OUT_DIR,
) -> Dict[str, object]:
    """Run ``workload`` and return the result object the CLI prints."""
    import numpy

    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, install_layer_spans

    rep_fn = WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = str(out_dir)

    seeds: List[int] = []
    reps = []

    def rep(index: int, tracer=None) -> None:
        # start every rep from the same heap: garbage left by the previous
        # rep would otherwise be collected at a varying point inside this
        # one, moving its timings and the peak resident memory
        gc.collect()
        seeds.append(input_seed(seed, index))
        reps.append(rep_fn(seeds[-1], scale, tracer, workdir))

    if trace:
        rep(0)
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            rep(0, tracer)
        finally:
            tracer.restore()
        rep(0)
    else:
        t0 = time.perf_counter()
        while True:
            t1 = time.perf_counter()
            for index in range(INPUT_SEEDS):
                rep(index)
            now = time.perf_counter()
            if now - t0 + (now - t1) > seconds:
                break
        if len(reps) == INPUT_SEEDS:
            rep(0)  # the determinism check: the first input seed again

    gate_errors = [r.gate_error for r in reps if r.gate_error]
    first: Dict[int, Dict[str, float]] = {}
    diffs = set()
    for s, r in zip(seeds, reps):
        base = first.setdefault(s, r.counts)
        diffs |= {
            key
            for key in set(r.counts) | set(base)
            if r.counts.get(key) != base.get(key)
        }
    diffs = sorted(diffs)
    correct = not gate_errors and not diffs
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps) if correct else attempted

    untraced = [i for i in range(len(reps)) if not (trace and i == 1)]
    e2e = end_to_end(
        [seeds[i] for i in untraced], [reps[i] for i in untraced],
        attempted, failed,
    )
    if trace:
        traced = reps[1]
        wall = [r.setup_s + r.run_s for r in reps]
        overhead = wall[1] / statistics.mean((wall[0], wall[2])) - 1.0
        spans = tracer.summary()
        metrics = per_layer(traced, spans, overhead)
        numpy.savez_compressed(
            out_dir / f"{workload}-seed{seed}-spans.npz", **tracer.arrays()
        )
    else:
        metrics = e2e

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "host": host_fingerprint(seed),
        "peak_rss_mb": peak_rss_mb(),
        "op_samples": sum(len(r.op_latencies) for r in reps),
        "reps": [
            {
                "input_seed": s,
                "setup_s": r.setup_s,
                "run_s": r.run_s,
                "ops": r.ops,
                "attempted": r.attempted,
                "failed": r.failed,
                "traced": bool(trace and i == 1),
                "gate_error": r.gate_error,
            }
            for i, (s, r) in enumerate(zip(seeds, reps))
        ],
        "work_counts": {str(s): counts for s, counts in first.items()},
        "determinism_diffs": diffs,
        "gate_errors": gate_errors,
        # informational only in a traced run: the untraced reps' figures
        "end_to_end": {k: v for k, (v, _u) in e2e.items()},
        "result": result,
    }
    with open(
        out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
        encoding="utf-8",
    ) as f:
        json.dump(record, f, indent=1, sort_keys=True, default=float)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: {sorted(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if not result["correct"]:
        print("CORRECTNESS GATE FAILED; see the result file in perfbench/out/")
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
