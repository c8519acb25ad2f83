"""Steadiness tooling: repeat a workload, compare result sets, check tracing.

Usage (from the repository root)::

    # N fresh-process runs of one workload, seeds first..first+N-1
    python3 perfbench/steady.py repeat --workload cold-solve --runs 10 \\
        --out .perfbench_out/cold-a.json
    # two result sets against the bounds in BENCHMARK.json
    python3 perfbench/steady.py compare .perfbench_out/cold-a.json \\
        .perfbench_out/cold-b.json
    # untraced and traced run of one seed: overhead and self-time table
    python3 perfbench/steady.py trace --workload hot-cache --seed 1

``repeat`` prints, per metric, the median, the quartiles and the relative
IQR ``(q3 - q1) / median`` (quartiles from ``statistics.quantiles(n=4)``)
and marks it against the metric's bound and a third of it.  ``compare``
reports, per metric, how far the second set's median moved in the worse
direction, as a share of the first set's median, against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def load_spec() -> tuple[dict, float]:
    """``BENCHMARK.json`` metric specs by name, and its run length."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, \
        spec["run_seconds"]


def run_once(workload: str, seed: int, seconds: float, trace: int,
             report: Path | None = None) -> dict:
    """One fresh-process benchmark run; returns its result line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if report is not None:
        command += ["--report", str(report)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run failed: {' '.join(command)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, relative IQR)`` of a sample."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else 0.0)


def summarize(runs: list[dict], spec: dict) -> None:
    """Print the per-metric spread table of a result set."""
    names = list(runs[0]["metrics"])
    print(f"{'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'rel IQR':>8s}  bound")
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs]
        med, q1, q3, rel = spread(values)
        bound = spec.get(name, {}).get("bound")
        mark = ""
        if bound is not None:
            mark = f"{bound:.2f} " + ("ok" if rel <= bound / 3 else
                                      "within bound" if rel <= bound else
                                      "TOO NOISY")
        print(f"{name:32s} {med:14.5g} {q1:14.5g} {q3:14.5g} {rel:8.3f}  "
              f"{mark}")
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    print(f"runs {len(runs)}  correct {all(r['correct'] for r in runs)}  "
          f"failed {failed}/{attempted}")


def cmd_repeat(args) -> int:
    spec, run_seconds = load_spec()
    seconds = args.seconds or run_seconds
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds, args.trace)
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}"
            for name, metric in result["metrics"].items()), flush=True)
    summarize(runs, spec)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": runs}, indent=1))
    return 0


def cmd_compare(args) -> int:
    spec, _ = load_spec()
    first = json.loads(Path(args.first).read_text())["runs"]
    second = json.loads(Path(args.second).read_text())["runs"]
    worst = 0
    print(f"{'metric':32s} {'median A':>14s} {'median B':>14s} "
          f"{'worse by':>9s}  bound  verdict")
    for name, metric in first[0]["metrics"].items():
        a = statistics.median(r["metrics"][name]["value"] for r in first)
        b = statistics.median(r["metrics"][name]["value"] for r in second)
        meta = spec.get(name, {})
        lower_better = meta.get("better", "lower") == "lower"
        change = (b - a) / a if a else 0.0
        worse = change if lower_better else -change
        bound = meta.get("bound")
        verdict = "-"
        if bound is not None:
            verdict = "ok" if worse <= bound else "REGRESSED"
            worst += worse > bound
        print(f"{name:32s} {a:14.5g} {b:14.5g} {worse:9.3f}  "
              f"{bound if bound is not None else '':5}  {verdict}")
    return 1 if worst else 0


def cmd_trace(args) -> int:
    _, run_seconds = load_spec()
    seconds = args.seconds or run_seconds
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        plain_path, traced_path = Path(tmp) / "plain.json", \
            Path(tmp) / "traced.json"
        run_once(args.workload, args.seed, seconds, 0, plain_path)
        run_once(args.workload, args.seed, seconds, 1, traced_path)
        plain = json.loads(plain_path.read_text())
        traced = json.loads(traced_path.read_text())
    print(f"tracing overhead, {args.workload} seed {args.seed} "
          "(traced - untraced)")
    for name, (value, unit) in plain["end_to_end"].items():
        other = traced["end_to_end"][name][0]
        share = (other - value) / value if value else 0.0
        print(f"  {name:24s} {value:12.5g} -> {other:12.5g} {unit:10s} "
              f"{share:+8.1%}")
    print("per-layer (traced run)")
    for name, metric in traced["result"]["metrics"].items():
        print(f"  {name:32s} {metric['value']:16.5g} {metric['unit']}")
    print("self time along the request path (traced run, query phase)")
    rows = traced["self_times"]
    total = sum(row[2] for row in rows)
    for name, calls, secs in rows:
        print(f"  {name:32s} {calls:9d} calls {secs:10.4f} s "
              f"{secs / total if total else 0:7.1%}")
    coverage = traced["result"]["metrics"]["trace.coverage"]["value"]
    ok = coverage >= tracing.COVERAGE_MIN
    print(f"service-side spans cover {coverage:.1%} of client-observed "
          f"request time: {'ok' if ok else 'TOO LOW'} "
          f"(floor {tracing.COVERAGE_MIN:.0%})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("repeat", help="run one workload N times")
    rep.add_argument("--workload", required=True)
    rep.add_argument("--runs", type=int, default=10)
    rep.add_argument("--first-seed", type=int, default=1)
    rep.add_argument("--seconds", type=float, default=None,
                     help="default: run_seconds of BENCHMARK.json")
    rep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep.add_argument("--out", default=None)
    cmp_ = sub.add_parser("compare", help="check two result sets")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    trc = sub.add_parser("trace", help="tracing overhead and self times")
    trc.add_argument("--workload", required=True)
    trc.add_argument("--seed", type=int, default=1)
    trc.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    return {"repeat": cmd_repeat, "compare": cmd_compare,
            "trace": cmd_trace}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
