"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.reference import reference_value  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT,
         script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = _run(workload, 0)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    table = "\n".join(lines[:-1])
    for name, unit in [*expected.items(), ("fail_ratio", "ratio")]:
        assert any(name in line and line.rstrip().endswith(unit)
                   for line in table.splitlines()), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    done = _run(workload, 1)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert result["metrics"]["index.routes_per_query"]["value"] == 1.0
    assert 0.5 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    assert "self time along the request path" in done.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("hot-cache", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture(scope="module")
def tiny():
    scale = workloads.TINY
    points = workloads.make_points(scale, 5)
    index = workloads.build_index(points, scale, 5)
    batches = workloads.refresh_batches(points, 2, scale.refresh_batch, 5)
    return points, index, batches


def _oracle_answers(index, batches):
    """Daemon-shaped answers computed by the oracle itself, two epochs."""
    answers = []
    current = index
    for epoch in range(2):
        if epoch:
            current = current.extend(batches[0])
        for objective in workloads.OBJECTIVES:
            rung = current.route(objective, 3, 1.0)
            canon = checks.oracle_answer(current, objective, 3, rung.key, {})
            answers.append((epoch, epoch, 1.0, False, canon))
    return answers


def test_oracle_accepts_correct_answers(tiny):
    _, index, batches = tiny
    mismatches, oracle = checks.check_daemon_answers(
        index, batches, _oracle_answers(index, batches))
    assert mismatches == 0
    assert None not in oracle


def test_oracle_catches_a_corrupted_answer(tiny):
    _, index, batches = tiny
    answers = _oracle_answers(index, batches)
    *head, canon = answers[7]
    corrupted = canon[:3] + (canon[3] * 1.001,) + canon[4:]
    answers[7] = (*head, corrupted)
    mismatches, _ = checks.check_daemon_answers(index, batches, answers)
    assert mismatches == 1


def test_oracle_catches_an_answer_from_the_wrong_epoch(tiny):
    _, index, batches = tiny
    answers = _oracle_answers(index, batches)
    stale = [(1, 1, eps, hit, canon) for epoch, _, eps, hit, canon in answers
             if epoch == 0]
    fresh = [a for a in answers if a[0] == 1]
    expected = sum(a[-1] != b[-1] for a, b in zip(stale, fresh))
    mismatches, _ = checks.check_daemon_answers(index, batches, stale)
    assert mismatches == expected > 0


def test_oracle_catches_stale_answers_sent_after_a_refresh_ack(tiny):
    _, index, batches = tiny
    answers = _oracle_answers(index, batches)
    # Correct epoch-0 answers, but to queries sent after epoch 1 was acked.
    stale = [(0, 1, *rest) for epoch, _, *rest in answers if epoch == 0]
    mismatches, _ = checks.check_daemon_answers(index, batches, stale)
    assert mismatches == len(stale) > 0


def test_shared_gmm_kernels_give_reference_value_exactly(tiny):
    points, _, _ = tiny
    pairs = [(o, k) for o in workloads.OBJECTIVES for k in (2, 5)]
    shared = checks.reference_values(points, pairs)
    for objective, k in pairs:
        assert shared[(objective, k)] == reference_value(points, k, objective)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100_000) == 99.0
    assert run.tail_percentile(9_999) == 99.0
    assert run.tail_percentile(1_000) == 99.0
    assert run.tail_percentile(999) == 95.0
    assert run.tail_percentile(150) == 90.0
    for count in (20, 150, 999, 1000, 12_345):
        assert count * (1 - run.tail_percentile(count) / 100) >= 10 - 1e-9


def test_latency_chunks_hold_enough_samples_for_the_tail():
    import numpy as np
    assert len(run.chunks(np.ones(1999))) == 1
    assert len(run.chunks(np.ones(2000))) == 2
    parts = run.chunks(np.arange(400_123, dtype=np.float64))
    assert len(parts) == run.MAX_CHUNKS
    assert min(len(p) for p in parts) >= run.CHUNK_MIN
    assert np.concatenate(parts).tolist() == list(range(400_123))
    # Half the chunks in a slow state: the average sits between the states.
    mixed = np.concatenate([np.full(5000, 1.0), np.full(5000, 3.0)])
    assert run.chunked_percentile(run.chunks(mixed), 50) == \
        pytest.approx(2.0)


def test_harrell_davis_quantile_tracks_the_percentile():
    import numpy as np
    rng = np.random.default_rng(0)
    sample = rng.lognormal(size=5000)
    for percentile in (50, 95, 99):
        assert run.hd_quantile(sample, percentile) == pytest.approx(
            np.percentile(sample, percentile), rel=0.05)
    # Two modes with an odd count: the plain median is one mode's value;
    # the Harrell-Davis median sits between them and moves by a fraction
    # of the gap when one sample changes mode.
    modes = np.array([1.0] * 50 + [9.0] * 51)
    assert np.percentile(modes, 50) == 9.0
    before = run.hd_quantile(modes, 50)
    modes[50] = 1.0
    after = run.hd_quantile(modes, 50)
    assert 1.0 < after < before < 9.0
    assert before - after < 2.0
    assert run.hd_quantile([4.0], 50) == 4.0


def test_times_on_the_benchmark_cpu_are_scaled_to_the_reference_speed():
    from array import array
    ref = workloads.CALIBRATION_REFERENCE_S
    out = workloads.Outcome(
        setup_seconds=[2.0], latencies=array("d", [0.01] * 100),
        timed_seconds=1.0, answered=100, attempted=100,
        refresh_seconds=[0.05], calibration_seconds=[4 * ref] * 3,
        setup_calibration_seconds=[2 * ref] * 3)
    metrics, notes = run.end_to_end(out)
    # Set-up and refresh follow the kernel one to one, requests as its
    # square root; the unscaled figures stay in the notes.
    assert metrics["setup_s"][0] == pytest.approx(2.0 / 2)
    assert metrics["refresh_ms"][0] == pytest.approx(50.0 / 4)
    assert metrics["latency_p50_ms"][0] == pytest.approx(10.0 / 2)
    assert metrics["latency_tail_ms"][0] == pytest.approx(10.0 / 2)
    assert metrics["throughput_qps"][0] == pytest.approx(100.0 * 2)
    assert notes["wall_latency_p50_ms"] == pytest.approx(10.0)
    assert workloads.speed_factor([]) == 1.0
