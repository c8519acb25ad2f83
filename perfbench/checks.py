"""Answer checks: canonical answers, the approximation ratio and the oracle.

Every workload compares answers in their wire form: a result is encoded
with :func:`repro.service.protocol.encode_results`, decoded back, and
reduced to the fields a correct program must reproduce bit for bit
(objective, k, serving rung, value, indices and point coordinates).
Timing fields (``solve_seconds``) and cache flags are left out.

Nothing here runs inside a timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from dataclasses import replace

import numpy as np

from repro.diversity.objectives import get_objective
from repro.diversity.sequential.registry import solve_on_matrix
from repro.service import protocol

# Packages re-export functions under their module names, so fetch the
# modules themselves.
gmm_module = importlib.import_module("repro.coresets.gmm")
reference_module = importlib.import_module("repro.experiments.reference")


def canonical(payload: dict) -> tuple:
    """The reproducible part of one wire-form answer (a result dict)."""
    points = np.asarray(payload["points"], dtype=np.float64)
    return (payload["objective"], int(payload["k"]), tuple(payload["rung"]),
            float(payload["value"]), tuple(int(i) for i in payload["indices"]),
            points.tobytes())


def canonical_results(results: list) -> list[tuple]:
    """Canonical answers of in-process results, through the wire codec.

    One ``encode_results`` call per answer, as the daemon encodes them.
    """
    return [canonical(json.loads(protocol.encode_results(i, [result]))
                      ["results"][0])
            for i, result in enumerate(results)]


@contextlib.contextmanager
def _gmm_prefixes(points, kernel_size: int, starts):
    """Serve ``reference_value``'s GMM kernels from one run per start.

    GMM is a deterministic greedy: the first ``m`` centers of a run for
    ``M > m`` centers from the same start are exactly the ``m``-center
    run.  ``reference_value`` only reads ``kernel.indices``, so one run of
    *kernel_size* centers per start answers every smaller request.  Any
    other call falls through to the real GMM.
    """
    original = gmm_module.gmm
    runs = {int(start): original(points, kernel_size, first_index=int(start))
            for start in starts}

    def prefix_gmm(target, k, first_index=None, seed=None):
        run = runs.get(first_index)
        if target is not points or run is None or k > kernel_size:
            return original(target, k, first_index=first_index, seed=seed)
        return replace(run, indices=run.indices[:k],
                       anticover_radii=run.anticover_radii[:k])

    reference_module.gmm = prefix_gmm
    try:
        yield
    finally:
        reference_module.gmm = original


def reference_values(points, pairs, kernel_multiplier: int = 16,
                     num_starts: int = 4) -> dict:
    """``reference_value`` for every ``(objective, k)`` in *pairs*.

    The values are exactly those of
    :func:`repro.experiments.reference.reference_value`; the GMM kernels
    are shared across pairs (see :func:`_gmm_prefixes`).
    """
    pairs = sorted(set(pairs))
    if not pairs:
        return {}
    n = len(points)
    largest = min(n, max(kernel_multiplier * max(k for _, k in pairs),
                         max(k for _, k in pairs) + 1))
    starts = np.linspace(0, n - 1, num=max(num_starts, 1), dtype=int)
    with _gmm_prefixes(points, largest, starts):
        return {(objective, k): reference_module.reference_value(
                    points, k, objective, kernel_multiplier=kernel_multiplier,
                    num_starts=num_starts)
                for objective, k in pairs}


def approx_ratio_max(answers, references: dict) -> float:
    """Worst ``reference / achieved`` over distinct canonical answers."""
    worst = 0.0
    for answer in set(answers):
        objective, k, _, value = answer[:4]
        worst = max(worst, references[(objective, k)] / value)
    return worst


def oracle_answer(index, objective: str, k: int, rung_key: tuple,
                  matrices: dict) -> tuple:
    """The canonical answer of solving ``(objective, k)`` on one rung.

    Uses the same kernels the service uses (``PointSet.pairwise`` and
    ``solve_on_matrix``), so a correct service reproduces it bit for bit.
    *matrices* memoizes one pairwise matrix per rung.
    """
    rung = next(r for r in index.all_rungs() if r.key == rung_key)
    dist = matrices.get(rung_key)
    if dist is None:
        dist = matrices[rung_key] = rung.coreset.pairwise()
    objective = get_objective(objective)
    indices = solve_on_matrix(dist, k, objective)
    value = float(objective.value(dist[np.ix_(indices, indices)]))
    points = rung.coreset.points[indices]
    return canonical({"objective": objective.name, "k": k,
                      "rung": list(rung_key), "value": value,
                      "indices": np.asarray(indices).tolist(),
                      "points": points.tolist()})


def check_daemon_answers(index0, batches, answers) -> tuple[int, list]:
    """Replay the refreshes in-process and check every daemon answer.

    *answers* are ``(epoch, floor, epsilon, eps_hit, canonical)`` tuples,
    where *floor* is the highest refresh epoch acknowledged before the
    query was sent.  Epoch ``e`` is the index after the first ``e`` refresh
    batches, rebuilt here with :meth:`CoresetIndex.extend` exactly as the
    daemon's ``DiversityService.refresh`` does.  An answer is correct when
    its epoch is at least its floor (a stale epoch is a mismatch), its rung
    is the one the epoch's index routes the query to (or, for an
    epsilon-reuse hit, a larger covering rung) and its canonical form
    equals the oracle's solve on that rung.  Returns the mismatch count
    and the oracle's canonical answers.
    """
    by_epoch: dict[int, list] = {}
    for answer in answers:
        by_epoch.setdefault(answer[0], []).append(answer)
    mismatches = 0
    oracle = []
    index = index0
    for epoch in range(max(by_epoch, default=-1) + 1):
        if epoch > 0:
            if epoch > len(batches):
                mismatches += len(by_epoch.get(epoch, []))
                break
            index = index.extend(batches[epoch - 1])
        matrices: dict = {}
        solved: dict = {}
        for _, floor, epsilon, eps_hit, answer in by_epoch.get(epoch, []):
            objective, k, rung_key = answer[0], answer[1], answer[2]
            routed = index.route(objective, k, epsilon)
            covering = {r.key: r for r in index.covering_rungs(objective, k)}
            valid_rung = rung_key == routed.key or (
                eps_hit and rung_key in covering
                and covering[rung_key].k_prime > routed.k_prime)
            key = (objective, k, rung_key)
            if key not in solved and rung_key in covering:
                solved[key] = oracle_answer(index, objective, k, rung_key,
                                            matrices)
            expected = solved.get(key)
            oracle.append(expected)
            if epoch < floor or not valid_rung or expected != answer:
                mismatches += 1
    return mismatches, oracle
