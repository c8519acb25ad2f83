"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot-cache --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing code loaded.
``--trace 1`` wraps every layer's entry points (:mod:`tracing`) and reports
the per-layer metrics instead.  Both print a human-readable table and then,
as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every answer matched its oracle, 1 otherwise.
Times measured on the benchmark's own cpu are reported at a reference
machine speed (:func:`workloads.speed_factor`); the unscaled figures are
printed in the notes as ``wall_*``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and (through the inherited
# environment) in the daemon: one thread per process keeps timings free of
# pool spin-up and oversubscription on small machines.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("hot-cache", "cold-solve", "daemon-mixed")
#: Percentiles the tail metric may report, highest first; the tail is the
#: highest one with at least ten samples beyond it.
TAIL_LADDER = (99.0, 95.0, 90.0, 50.0)


#: How strongly each time figure follows the calibration kernel: a figure
#: measured at speed factor f is divided by f ** exponent.  Set-up and
#: refresh are interpreter-bound like the kernel and follow it one to one;
#: cold-solve's requests are mostly array work over large matrices and move
#: about half as much (slopes of log figure on log kernel time over 20
#: runs: set-up 0.7-1.1, refresh 1.1, requests 0.6; see the README).
SPEED_EXPONENTS = {"setup_s": 1.0, "refresh_ms": 1.0,
                   "latency_p50_ms": 0.5, "latency_tail_ms": 0.5,
                   "throughput_qps": -0.5}

#: Latency percentiles are taken per chunk of at least this many
#: consecutive samples, at most ``MAX_CHUNKS`` chunks per run.
CHUNK_MIN = 1000
MAX_CHUNKS = 40


def tail_percentile(count: int) -> float:
    """The highest ladder percentile leaving >= 10 of *count* samples above."""
    for percentile in TAIL_LADDER:
        if count * (1.0 - percentile / 100.0) >= 10:
            return percentile
    return TAIL_LADDER[-1]


def chunks(latencies: np.ndarray) -> list[np.ndarray]:
    """The run's latency samples, in send order, cut into equal chunks.

    A shared machine's speed can switch between states that each last from
    about a second to tens of seconds.  A percentile over the whole run is
    then a step function of the share of time spent in the slow state (the
    median jumps from one state's figure to the other's as that share
    crosses a half); the mean of per-chunk percentiles moves in proportion
    to it instead.  Runs with fewer than ``2 * CHUNK_MIN`` samples are one
    chunk.
    """
    count = max(1, min(MAX_CHUNKS, len(latencies) // CHUNK_MIN))
    return np.array_split(latencies, count)


def hd_quantile(samples, percentile: float) -> float:
    """Harrell-Davis estimate of the *percentile* of *samples*.

    A weighted mean of all order statistics, with weights from the
    ``Beta((n + 1) q, (n + 1) (1 - q))`` distribution (Harrell and Davis,
    Biometrika 1982).  It estimates the same quantile as the sample
    percentile, but moves smoothly when a few samples trade places: the
    plain percentile of a multimodal sample (cold-solve mixes 1 ms and
    500 ms queries) jumps across the gap between two modes instead.
    Shapes below 1 (too few samples beyond the quantile) fall back to the
    plain percentile.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    q = percentile / 100.0
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if n < 2 or a < 1 or b < 1:
        return float(np.percentile(x, percentile))
    # Beta CDF at i / n by the trapezoid rule on a grid 16x finer.
    grid = np.linspace(0.0, 1.0, 16 * n + 1)
    inner = grid[1:-1]
    log_pdf = np.full(len(grid), -np.inf)
    log_pdf[1:-1] = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    if a == 1:
        log_pdf[0] = 0.0
    if b == 1:
        log_pdf[-1] = 0.0
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(cdf[::16] / cdf[-1])
    return float(weights @ x)


def chunked_percentile(parts: list[np.ndarray], percentile: float) -> float:
    """Mean over chunks of each chunk's Harrell-Davis *percentile*."""
    return float(np.mean([hd_quantile(part, percentile) for part in parts]))


def end_to_end(out: workloads.Outcome) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and their side notes."""
    latencies = np.frombuffer(out.latencies, dtype=np.float64)
    parts = chunks(latencies)
    chunk = min(len(part) for part in parts)
    percentile = tail_percentile(chunk)
    failed = out.errors + out.rejected + out.mismatches
    # Times measured on the benchmark's own cpu are scaled to the reference
    # machine speed (workloads.speed_factor): set-up everywhere, the timed
    # phase in-process.  daemon-mixed times its requests through the daemon
    # on the other cpu, takes no timed-phase samples and keeps wall times.
    speed = workloads.speed_factor(out.calibration_seconds)
    setup_speed = workloads.speed_factor(out.setup_calibration_seconds)
    wall = {
        "setup_s": float(np.median(out.setup_seconds)),
        "throughput_qps": out.answered / out.timed_seconds,
        "latency_p50_ms": chunked_percentile(parts, 50) * 1e3,
        "latency_tail_ms": chunked_percentile(parts, percentile) * 1e3,
        # Mean, not median: refresh times are multimodal (a rung compacts on
        # some refreshes and not on others), so any median estimate sits in
        # a sparse gap between modes; over 102 refreshes its bootstrap error
        # was 6-9 % against the mean's 4 %.
        "refresh_ms": float(np.mean(out.refresh_seconds)) * 1e3,
    }
    scaled = {name: value / (setup_speed if name == "setup_s" else speed)
              ** SPEED_EXPONENTS[name] for name, value in wall.items()}
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "throughput_qps": (scaled["throughput_qps"], "queries/s"),
        "latency_p50_ms": (scaled["latency_p50_ms"], "ms"),
        "latency_tail_ms": (scaled["latency_tail_ms"], "ms"),
        "peak_rss_mb": (out.peak_rss_mb, "MiB"),
        "approx_ratio_max": (out.approx_ratio_max, "ratio"),
        "refresh_ms": (scaled["refresh_ms"], "ms"),
    }
    notes = {
        "speed_factor": speed,
        "setup_speed_factor": setup_speed,
        "calibration_samples": len(out.calibration_seconds),
        **{f"wall_{name}": value for name, value in wall.items()},
        "fail_ratio": failed / max(out.attempted, 1),
        "tail_percentile": percentile,
        "latency_samples": len(latencies),
        "latency_chunks": len(parts),
        "latency_mean_ms": float(latencies.mean()) * 1e3,
        "latency_whole_run_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p99_9_ms": float(np.percentile(latencies, 99.9)) * 1e3,
        "samples_beyond_tail": int(round(chunk * (1 - percentile / 100))),
        "refreshes": len(out.refresh_seconds),
        "setup_samples_s": [round(s, 4) for s in out.setup_seconds],
        "errors": out.errors, "rejected": out.rejected,
        "mismatches": out.mismatches, **out.notes,
    }
    return metrics, notes


def solve_peak_mb(index, k: int) -> float:
    """tracemalloc peak of one remote-clique solve on the largest rung."""
    from repro.diversity.sequential.registry import solve_on_matrix
    rung = max(index.all_rungs(), key=lambda r: len(r.coreset))
    dist = rung.coreset.pairwise()
    tracemalloc.start()
    try:
        solve_on_matrix(dist, k, "remote-clique")
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: workloads.Scale) -> tuple[dict, dict]:
    """Run one workload and return ``(result line, report)``."""
    bench_cpu, _ = workloads.bench_cpus()
    if bench_cpu is not None:
        os.sched_setaffinity(0, {bench_cpu})
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "hot-cache":
            out = workloads.run_hot_cache(scale, seed, seconds, tracer)
        elif workload == "cold-solve":
            out = workloads.run_cold_solve(scale, seed, seconds, tracer)
        else:
            out = workloads.run_daemon_mixed(scale, seed, seconds, workdir,
                                             tracer)
        metrics, notes = end_to_end(out)
        report = {"workload": workload, "seed": seed, "seconds": seconds,
                  "end_to_end": metrics, "notes": notes,
                  "samples": {"latency_s": out.latencies.tolist(),
                              "refresh_s": list(out.refresh_seconds),
                              "calibration_s":
                                  list(out.calibration_seconds)}}
        if trace:
            metrics = _per_layer(tracer, out, scale, workload, seed, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = out.errors + out.rejected + out.mismatches
    line = {"correct": out.mismatches == 0,
            "attempted": max(out.attempted, 1), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    return line, report


def _per_layer(tracer, out, scale, workload, seed, report) -> dict:
    """Per-layer metrics of a traced run; also saves its spans."""
    import tracing
    local = tracing.SpanTable({"names": list(tracer.names),
                               "phases": list(tracer.phases),
                               **tracer.arrays()})
    daemon = None
    if out.daemon_spans is not None:
        daemon = tracing.SpanTable(tracing.load_spans(out.daemon_spans))
    peak = solve_peak_mb(out.probe_index, scale.k_max)
    metrics = tracing.layer_metrics(local, daemon, out.client, out.stats,
                                    peak)
    report["self_times"] = tracing.self_time_table(local, daemon, out.client)
    outdir = ROOT / ".perfbench_out"
    tracer.save(outdir / f"spans-{workload}-{seed}.npz")
    if out.daemon_spans is not None:
        shutil.copyfile(out.daemon_spans,
                        outdir / f"spans-{workload}-{seed}-daemon.npz")
    return metrics


def print_report(report: dict, line: dict) -> None:
    """Human-readable tables (everything before the JSON line)."""
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}")
    print("end-to-end" + ("  (traced run: includes tracing overhead)"
                          if "self_times" in report else ""))
    for name, (value, unit) in report["end_to_end"].items():
        print(f"  {name:24s} {value:14.4f} {unit}")
    notes = report["notes"]
    print(f"  {'fail_ratio':24s} {notes['fail_ratio']:14.4f} ratio")
    print(f"  p50 and tail = p{notes['tail_percentile']} per chunk, "
          f"averaged over {notes['latency_chunks']} chunks of "
          f"{notes['latency_samples']} samples "
          f"({notes['samples_beyond_tail']}+ beyond the tail per chunk)")
    shown = ("fail_ratio", "tail_percentile", "latency_samples",
             "samples_beyond_tail", "latency_chunks")
    print("  notes: " + json.dumps({key: value for key, value in notes.items()
                                    if key not in shown}))
    if "self_times" in report:
        import tracing
        print("per-layer")
        for name, metric in line["metrics"].items():
            print(f"  {name:32s} {metric['value']:16.4f} {metric['unit']}")
        print("self time along the request path (query phase)")
        total = sum(row[2] for row in report["self_times"])
        for name, calls, seconds in report["self_times"]:
            share = seconds / total if total else 0.0
            print(f"  {name:32s} {calls:9d} calls {seconds:10.4f} s "
                  f"{share:7.1%}")
        coverage = line["metrics"]["trace.coverage"]["value"]
        print(f"service-side spans cover {coverage:.1%} of client-observed "
              f"request time (sanity floor {tracing.COVERAGE_MIN:.0%})")


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the daemon is stopped and the
    # scratch directory removed on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small sizes for the benchmark's own tests")
    parser.add_argument("--report", default=None,
                        help="also write the full report as JSON here")
    args = parser.parse_args(argv)
    scale = workloads.FULL if args.scale == "full" else workloads.TINY
    line, report = run(args.workload, args.seed, args.seconds,
                       bool(args.trace), scale)
    report["result"] = line
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1))
    print_report(report, line)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
