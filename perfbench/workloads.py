"""The three workloads: hot-cache, cold-solve and daemon-mixed.

All three share one dataset, ``sphere_shell(n=200_000, dim=8)`` with
``k_max`` planted far points, and one index configuration
(``build_coreset_index(points, k_max=16)``: float64, default ladder,
serial build).  The seed picks the dataset, the index build and the
request order; the program only ever sees the generated points and
queries.  Each workload function returns a :class:`Outcome` holding the
raw samples; :mod:`run` turns them into metrics.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import os
import signal
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets.loaders import save_points
from repro.datasets.synthetic import sphere_shell
from repro.metricspace.points import PointSet
from repro.service import index as index_module
from repro.service import persist, protocol
from repro.service.service import DiversityService, Query

import checks

OBJECTIVES = ("remote-edge", "remote-cycle", "remote-tree", "remote-star",
              "remote-clique", "remote-bipartition")
EPSILONS = (1.0, 0.5, 0.25)
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration (full, or tiny for tests)."""

    n: int = 200_000
    dim: int = 8
    k_max: int = 16
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 3
    hot_keys: int = 64
    hot_k: tuple = (2, 8)
    cold_k: tuple = (2, 16)
    daemon_k: tuple = (2, 8)
    #: Open-loop request rate of daemon-mixed (requests/s, one query each).
    #: Below 25/s a 40 s run has fewer than 1,000 requests, so its tail is
    #: p95 with about 50 samples beyond it rather than p99 with about 12.
    daemon_rate: float = 24.0
    #: Zipf exponent of daemon-mixed key popularity.
    zipf_s: float = 1.2
    #: Seconds between two refreshes in daemon-mixed.
    refresh_every: float = 0.8
    #: Points ingested per refresh.
    refresh_batch: int = 2000
    #: Seconds between two in-process refreshes during the timed phase of
    #: hot-cache and cold-solve (their ``refresh_ms``).
    inproc_refresh_every: float = 0.4
    #: Seconds between two runs of the calibration kernel during the timed
    #: phase of hot-cache and cold-solve.
    calibrate_every: float = 0.2


FULL = Scale()
TINY = Scale(n=3000, k_max=8, setup_repeats=2, hot_keys=24, hot_k=(2, 4),
             cold_k=(2, 8), daemon_k=(2, 4), daemon_rate=30.0,
             refresh_every=0.4, refresh_batch=200)


@dataclass
class Outcome:
    """Raw samples of one workload run."""

    setup_seconds: list = field(default_factory=list)
    latencies: array = field(default_factory=lambda: array("d"))
    timed_seconds: float = 0.0
    answered: int = 0
    attempted: int = 0
    errors: int = 0
    rejected: int = 0
    mismatches: int = 0
    refresh_seconds: list = field(default_factory=list)
    #: Times of :func:`calibration_kernel` spread over the timed phase
    #: (in-process workloads only) and taken around each set-up.
    calibration_seconds: list = field(default_factory=list)
    setup_calibration_seconds: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    approx_ratio_max: float = 0.0
    notes: dict = field(default_factory=dict)
    #: Values read from ``stats()`` for the per-layer metrics.
    stats: dict = field(default_factory=dict)
    #: Client-side samples of daemon-mixed, keyed by request id.
    client: dict = field(default_factory=dict)
    daemon_spans: str | None = None
    probe_index: object = None


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def bench_cpus() -> tuple[int | None, int | None]:
    """``(load generator cpu, daemon cpu)``, or ``None`` below two cpus."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


#: Median time of :func:`calibration_kernel` between requests on the
#: reference machine (a 2-vcpu VM on a shared host).  Times measured on the
#: benchmark's own cpu are reported at this speed; see :func:`speed_factor`.
CALIBRATION_REFERENCE_S = 0.0043

_CALIBRATION_POINTS = np.random.default_rng(2017).normal(size=(160, 8))


def calibration_kernel() -> float:
    """A fixed piece of work that runs no program code.

    A pure-Python loop and a small numpy distance matrix, the two kinds
    of work the program's query and refresh paths mix.  On a shared host
    its time swings with the machine's speed state (up to 1.5x, in states
    lasting from a second to over a minute) as the program's own
    operations do.
    """
    total = 0
    for i in range(25_000):
        total += i * i % 7
    diff = _CALIBRATION_POINTS[:, None, :] - _CALIBRATION_POINTS[None, :, :]
    return total + float(np.sqrt((diff * diff).sum(-1)).max())


def calibrate(samples: list, count: int = 5) -> None:
    """Append *count* back-to-back timings of the calibration kernel."""
    for _ in range(count):
        started = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - started)


def speed_factor(calibration_seconds: list) -> float:
    """How much slower the machine ran than the reference, over a run.

    The median calibration time divided by
    :data:`CALIBRATION_REFERENCE_S`; 1.0 when there are no samples.
    """
    if not calibration_seconds:
        return 1.0
    return float(np.median(calibration_seconds)) / CALIBRATION_REFERENCE_S


def make_points(scale: Scale, seed: int) -> PointSet:
    """The shared dataset for *seed*."""
    return sphere_shell(scale.n, scale.k_max, dim=scale.dim, seed=seed)


def build_index(points: PointSet, scale: Scale, seed: int):
    """The shared index configuration (default ladder, serial build)."""
    return index_module.build_coreset_index(points, k_max=scale.k_max,
                                            seed=seed)


def refresh_batches(points: PointSet, count: int, size: int,
                    seed: int) -> list[PointSet]:
    """Refresh batches: seeded re-draws of existing points.

    Re-ingesting existing items leaves the point *set* unchanged, so the
    best-known value of every query on the base data stays the reference
    for answers of every later epoch.
    """
    rng = np.random.default_rng([seed, 7])
    size = min(size, len(points))
    return [PointSet(points.points[rng.choice(len(points), size,
                                              replace=False)],
                     metric=points.metric)
            for _ in range(count)]


def decode_queries(queries: list[Query]) -> list[Query]:
    """The workload's queries as the server codec decodes them.

    One request line per query, as daemon-mixed puts them on the wire.
    """
    return [protocol.decode_request(
                protocol.encode_request("query", i, queries=[query])).queries[0]
            for i, query in enumerate(queries)]


def hot_keys(scale: Scale) -> list[Query]:
    """The fixed hot set: *hot_keys* distinct keys, every objective present.

    The set does not depend on the seed, so every seed pays the same
    warm-up and the seed only changes the data and the request order.
    Keys come tightest ``eps`` first, the warm-up order: a looser key whose
    tighter sibling is already resident is then served by epsilon-aware
    reuse on every request, so that path runs in the timed loop too.
    """
    grid = [Query(o, k, e) for o in OBJECTIVES
            for k in range(scale.hot_k[0], scale.hot_k[1] + 1)
            for e in EPSILONS]
    rng = np.random.default_rng(2017)
    chosen = sorted(rng.choice(len(grid), min(scale.hot_keys, len(grid)),
                               replace=False))
    keys = sorted((grid[i] for i in chosen),
                  key=lambda q: (q.epsilon, q.objective, q.k))
    assert {q.objective for q in keys} == set(OBJECTIVES)
    return keys


# -- hot-cache -------------------------------------------------------------------

def run_hot_cache(scale: Scale, seed: int, seconds: float,
                  tracer=None) -> Outcome:
    """Closed loop of single cache-hit queries over a resident hot set."""
    out = Outcome()
    _phase(tracer, "setup")
    for _ in range(scale.setup_repeats):
        calibrate(out.setup_calibration_seconds)
        gc.collect()
        started = time.perf_counter()
        points = make_points(scale, seed)
        index = build_index(points, scale, seed)
        keys = decode_queries(hot_keys(scale))
        service = DiversityService(index)
        warm = [service.query(q.objective, q.k, q.epsilon) for q in keys]
        out.setup_seconds.append(time.perf_counter() - started)
        calibrate(out.setup_calibration_seconds)
    refresher = _Refresher(index, points, scale, seed, seconds, tracer)
    speedometer = _Speedometer(scale.calibrate_every, tracer)
    expected = [(r.value, r.rung) for r in warm]
    objectives = [q.objective for q in keys]
    ks = [q.k for q in keys]
    epsilons = [q.epsilon for q in keys]
    rng = np.random.default_rng([seed, 1])
    latencies = out.latencies
    query = service.query
    perf = time.perf_counter
    bad = 0
    gc.collect()
    _phase(tracer, "timed")
    started = perf()
    refresher.start(started)
    speedometer.start(started)
    deadline = started + seconds
    done = started
    request = 0
    while done < deadline:
        refresher.maybe(done, out)
        speedometer.maybe(perf(), out)
        for i in rng.permutation(len(keys)).tolist():
            if tracer is not None:
                tracer.set_request(request)
            t0 = perf()
            result = query(objectives[i], ks[i], epsilons[i])
            done = perf()
            latencies.append(done - t0)
            if tracer is not None:
                tracer.record("client.request", t0, done, request=request)
            request += 1
            if result.value != expected[i][0] or result.rung != expected[i][1]:
                bad += 1
    out.timed_seconds = perf() - started - refresher.spent - speedometer.spent
    _phase(tracer, "check")
    out.peak_rss_mb = vm_hwm_mb()
    out.answered = out.attempted = len(latencies)
    out.stats = _merge_stats([service.stats()])
    first = checks.canonical_results(warm)
    again = checks.canonical_results(
        [query(q.objective, q.k, q.epsilon) for q in keys])
    out.mismatches = bad + sum(a != b for a, b in zip(first, again))
    _phase(tracer, None)
    references = checks.reference_values(
        points, [(q.objective, q.k) for q in keys])
    out.approx_ratio_max = checks.approx_ratio_max(first, references)
    out.probe_index = index
    return out


# -- cold-solve ------------------------------------------------------------------

def cold_grid(scale: Scale) -> list[Query]:
    """Six objectives x the full ``k`` range, ``eps = 1``."""
    return [Query(o, k, 1.0) for o in OBJECTIVES
            for k in range(scale.cold_k[0], scale.cold_k[1] + 1)]


def run_cold_solve(scale: Scale, seed: int, seconds: float,
                   tracer=None) -> Outcome:
    """Closed loop of full-grid passes, each on a fresh service (all misses)."""
    out = Outcome()
    _phase(tracer, "setup")
    for _ in range(scale.setup_repeats):
        calibrate(out.setup_calibration_seconds)
        gc.collect()
        started = time.perf_counter()
        points = make_points(scale, seed)
        index = build_index(points, scale, seed)
        grid = decode_queries(cold_grid(scale))
        warm = DiversityService(index)
        for objective in OBJECTIVES:
            warm.query(objective, scale.cold_k[0], 1.0)
        out.setup_seconds.append(time.perf_counter() - started)
        calibrate(out.setup_calibration_seconds)
    refresher = _Refresher(index, points, scale, seed, seconds, tracer)
    speedometer = _Speedometer(scale.calibrate_every, tracer)
    rng = np.random.default_rng([seed, 2])
    latencies = out.latencies
    perf = time.perf_counter
    passes = []
    services = []
    request = 0
    gc.collect()
    _phase(tracer, "timed")
    started = perf()
    refresher.start(started)
    speedometer.start(started)
    while True:
        service = DiversityService(index)
        answers: list = [None] * len(grid)
        for i in rng.permutation(len(grid)).tolist():
            refresher.maybe(perf(), out)
            speedometer.maybe(perf(), out)
            q = grid[i]
            if tracer is not None:
                tracer.set_request(request)
            t0 = perf()
            answers[i] = service.query(q.objective, q.k, q.epsilon)
            done = perf()
            latencies.append(done - t0)
            if tracer is not None:
                tracer.record("client.request", t0, done, request=request)
            request += 1
        passes.append(answers)
        services.append(service.stats())
        if done - started >= seconds:
            break
    out.timed_seconds = perf() - started - refresher.spent - speedometer.spent
    _phase(tracer, "check")
    out.peak_rss_mb = vm_hwm_mb()
    del service
    out.answered = out.attempted = len(latencies)
    out.stats = _merge_stats(services)
    canon = [checks.canonical_results(answers) for answers in passes]
    out.mismatches = sum(a != b for other in canon[1:]
                         for a, b in zip(canon[0], other))
    out.notes["passes"] = len(passes)
    _phase(tracer, None)
    references = checks.reference_values(
        points, [(q.objective, q.k) for q in grid])
    out.approx_ratio_max = checks.approx_ratio_max(canon[0], references)
    out.probe_index = index
    return out


# -- shared in-process pieces ----------------------------------------------------

def _phase(tracer, phase: str | None) -> None:
    """Switch the traced run's phase; ``None`` stops recording."""
    if tracer is None:
        return
    tracer.enabled = phase is not None
    if phase is not None:
        tracer.set_phase(phase)


class _Refresher:
    """``refresh_ms`` of an in-process workload: ``DiversityService.refresh``.

    Every *inproc_refresh_every* seconds of the timed phase, between two
    requests, one batch is absorbed by a service of its own over the same
    index, so the samples spread over the whole run (the machine's speed
    drifts within a run) while the serving service and its caches are left
    alone.  The time spent refreshing is excluded from the query phase's
    wall time.
    """

    def __init__(self, index, points, scale: Scale, seed: int,
                 seconds: float, tracer):
        count = int(seconds / scale.inproc_refresh_every) + 2
        self.batches = iter(refresh_batches(points, count,
                                            scale.refresh_batch, seed))
        self.service = DiversityService(index)
        self.every = scale.inproc_refresh_every
        self.tracer = tracer
        self.next_at = float("inf")
        self.spent = 0.0

    def start(self, now: float) -> None:
        self.next_at = now + self.every

    def maybe(self, now: float, out: Outcome) -> None:
        """Absorb the next batch when one is due."""
        if now < self.next_at:
            return
        batch = next(self.batches, None)
        if batch is None:
            self.next_at = float("inf")
            return
        _phase(self.tracer, "refresh")
        started = time.perf_counter()
        self.service.refresh(batch)
        elapsed = time.perf_counter() - started
        _phase(self.tracer, "timed")
        out.refresh_seconds.append(elapsed)
        self.spent += elapsed
        self.next_at += self.every


class _Speedometer:
    """Runs :func:`calibration_kernel` every *every* seconds, between requests.

    The samples spread over the whole timed phase, like the requests, and
    their time is excluded from the query phase's wall time.
    """

    def __init__(self, every: float, tracer):
        self.every = every
        self.tracer = tracer
        self.next_at = float("inf")
        self.spent = 0.0

    def start(self, now: float) -> None:
        self.next_at = now + self.every

    def maybe(self, now: float, out: Outcome) -> None:
        """Time the kernel once when a sample is due."""
        if now < self.next_at:
            return
        _phase(self.tracer, "calibrate")
        started = time.perf_counter()
        calibration_kernel()
        elapsed = time.perf_counter() - started
        _phase(self.tracer, "timed")
        out.calibration_seconds.append(elapsed)
        self.spent += elapsed
        self.next_at = now + self.every


def _merge_stats(stats_list: list[dict]) -> dict:
    """Cache and matrix counters summed over services' ``stats()``."""
    hits = sum(s["caches"]["results"]["hits"] for s in stats_list)
    misses = sum(s["caches"]["results"]["misses"] for s in stats_list)
    return {
        "cache_hits": hits,
        "cache_misses": misses,
        "eps_hits": sum(s["counters"]["eps_hits"] for s in stats_list),
        "resident_bytes": max(s["matrices"]["local"]["resident_bytes"]
                              for s in stats_list),
        "rejected": 0,
    }


# -- daemon-mixed ----------------------------------------------------------------

def daemon_keys(scale: Scale) -> list[Query]:
    """Daemon key space in popularity order (rank 1 first, seed-free).

    Small ``k`` is the most popular, the way top-k requests usually are.
    Keys stay at ``eps = 1`` and ``k <= 8``, on rungs of at most ~1k
    points: a key on the ~4k-point rung costs ~0.5 s of matrix and solve
    after every refresh, which overloads a serial daemon at tens of
    refreshes per run (cold-solve measures those solves instead).
    """
    return [Query(o, k, 1.0)
            for k in range(scale.daemon_k[0], scale.daemon_k[1] + 1)
            for o in OBJECTIVES]


@dataclass
class _Event:
    offset: float
    request_id: int
    line: bytes
    kind: str
    query: Query | None = None


def daemon_schedule(scale: Scale, seed: int, seconds: float,
                    batch_paths: list[str]) -> list[_Event]:
    """Open-loop schedule: queries at a fixed rate, refreshes at a fixed period."""
    keys = daemon_keys(scale)
    ranks = np.arange(1, len(keys) + 1, dtype=np.float64)
    weights = ranks ** -scale.zipf_s
    rng = np.random.default_rng([seed, 3])
    count = max(int(seconds * scale.daemon_rate), 1)
    drawn = rng.choice(len(keys), size=count, p=weights / weights.sum())
    events = []
    for i, key in enumerate(drawn.tolist()):
        query = keys[key]
        line = protocol.encode_request("query", i, queries=[query]).encode()
        events.append(_Event(i / scale.daemon_rate, i, line, "query", query))
    for j, path in enumerate(batch_paths):
        rid = 1_000_000 + j
        line = protocol.encode_request("refresh", rid, data=path).encode()
        events.append(_Event((j + 0.5) * scale.refresh_every, rid, line,
                             "refresh"))
    events.sort(key=lambda event: (event.offset, event.request_id))
    return events


class Daemon:
    """One ``repro serve`` process started through the benchmark's launcher."""

    def __init__(self, index_path: Path, cpu: int | None,
                 trace_path: Path | None):
        command = [sys.executable, str(HERE / "daemon_launcher.py"),
                   "--index", str(index_path)]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        if trace_path is not None:
            command += ["--trace-out", str(trace_path)]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        line = self.process.stdout.readline()
        if " on " not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


async def _roundtrip(host: str, port: int, lines: list[bytes]) -> list[dict]:
    """Send request lines over one connection; responses in request order."""
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
    try:
        responses = {}
        for line in lines:
            writer.write(line)
        await writer.drain()
        while len(responses) < len(lines):
            payload = json.loads(await reader.readline())
            responses[payload["id"]] = payload
        return [responses[json.loads(line)["id"]] for line in lines]
    finally:
        writer.close()
        await writer.wait_closed()


async def _open_loop(host: str, port: int, events: list[_Event],
                     grace: float) -> dict:
    """Send every event at its scheduled time; collect every response.

    Returns ``{request id: (due, sent, received, response)}``; a response
    that never arrives within *grace* seconds after the last send is
    missing from the result.
    """
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
    perf = time.perf_counter
    sent: dict = {}
    received: dict = {}

    async def receive() -> None:
        while len(received) < len(events):
            line = await reader.readline()
            if not line:
                return
            at = perf()
            payload = json.loads(line)
            received[payload["id"]] = (at, payload)

    receiver = asyncio.create_task(receive())
    origin = perf() + 0.05
    for event in events:
        due = origin + event.offset
        delay = due - perf()
        if delay > 0:
            await asyncio.sleep(delay)
        writer.write(event.line)
        sent[event.request_id] = (due, perf())
    await writer.drain()
    try:
        await asyncio.wait_for(receiver, timeout=grace)
    except asyncio.TimeoutError:
        pass
    writer.close()
    await writer.wait_closed()
    return {rid: (*sent[rid], *received[rid]) for rid in received
            if rid in sent}


def run_daemon_mixed(scale: Scale, seed: int, seconds: float,
                     workdir: Path, tracer=None) -> Outcome:
    """Open-loop Zipf reads through the daemon, with periodic refreshes."""
    out = Outcome()
    _, daemon_cpu = bench_cpus()
    trace_path = workdir / "daemon-spans.npz" if tracer is not None else None
    count = max(int(seconds / scale.refresh_every), 1)
    warm_lines = [protocol.encode_request(
        "query", 3_000_000 + i, queries=[Query(o, scale.daemon_k[0], 1.0)]
    ).encode() for i, o in enumerate(OBJECTIVES)]
    _phase(tracer, "setup")
    daemon = None
    try:
        for _ in range(scale.setup_repeats):
            if daemon is not None:
                daemon.stop()
                daemon = None
            calibrate(out.setup_calibration_seconds)
            gc.collect()
            started = time.perf_counter()
            points = make_points(scale, seed)
            index = build_index(points, scale, seed)
            index_path = workdir / "index"
            persist.save_index(index, index_path)
            batches = refresh_batches(points, count, scale.refresh_batch,
                                      seed)
            paths = []
            for j, batch in enumerate(batches):
                path = workdir / f"batch-{j:03d}"
                save_points(batch, path)
                paths.append(str(path))
            daemon = Daemon(index_path, daemon_cpu, trace_path)
            warm = asyncio.run(_roundtrip(daemon.host, daemon.port,
                                          warm_lines))
            out.setup_seconds.append(time.perf_counter() - started)
            calibrate(out.setup_calibration_seconds)
            if not all(response["ok"] for response in warm):
                raise RuntimeError(f"daemon warm-up failed: {warm}")
        events = daemon_schedule(scale, seed, seconds, paths)
        gc.collect()
        _phase(tracer, "timed")
        started = time.perf_counter()
        samples = asyncio.run(_open_loop(daemon.host, daemon.port, events,
                                         grace=60.0))
        out.timed_seconds = time.perf_counter() - started
        _phase(tracer, "check")
        stats = asyncio.run(_roundtrip(
            daemon.host, daemon.port,
            [protocol.encode_request("stats", 2_000_000).encode()]))[0]
        out.peak_rss_mb = vm_hwm_mb(daemon.process.pid)
    finally:
        if daemon is not None:
            daemon.stop()
    _phase(tracer, None)
    server = stats["stats"]["server"]
    out.stats = {
        "cache_hits": stats["stats"]["caches"]["results"]["hits"],
        "cache_misses": stats["stats"]["caches"]["results"]["misses"],
        "eps_hits": stats["stats"]["counters"]["eps_hits"],
        "resident_bytes":
            stats["stats"]["matrices"]["local"]["resident_bytes"],
        "rejected": server["rejected_overload"],
    }
    # A query sent after a refresh was acknowledged must be answered from
    # that epoch or a later one: (ack time, epoch) of every refresh.
    acks = sorted((samples[e.request_id][2], samples[e.request_id][3]["epoch"])
                  for e in events if e.kind == "refresh"
                  and e.request_id in samples
                  and samples[e.request_id][3]["ok"])
    ack_times = [at for at, _ in acks]
    answers = []
    latencies = out.latencies
    for event in events:
        sample = samples.get(event.request_id)
        if event.kind == "refresh":
            if sample is None or not sample[3]["ok"]:
                out.errors += 1
                continue
            out.refresh_seconds.append(sample[2] - sample[1])
            continue
        out.attempted += 1
        if sample is None:
            out.errors += 1
            continue
        due, sent, received, response = sample
        if not response["ok"]:
            if response["error"]["code"] == protocol.ERROR_OVERLOADED:
                out.rejected += 1
            else:
                out.errors += 1
            continue
        result = response["results"][0]
        acked = bisect.bisect_left(ack_times, sent)
        floor = acks[acked - 1][1] if acked else 0
        answers.append((int(result["epoch"]), floor, event.query.epsilon,
                        bool(result["eps_hit"]), checks.canonical(result)))
        latencies.append(received - due)
        out.client[event.request_id] = (due, sent, received)
    out.answered = len(latencies)
    acked = [samples[e.request_id][3].get("epoch") for e in events
             if e.kind == "refresh" and e.request_id in samples]
    if acked != list(range(1, len(acked) + 1)):
        out.mismatches += 1
    out.mismatches += _check_daemon(out, index_path, batches, answers, points)
    out.daemon_spans = str(trace_path) if trace_path is not None else None
    out.probe_index = index
    return out


def _check_daemon(out: Outcome, index_path: Path, batches, answers,
                  points) -> int:
    """Oracle replay of every daemon answer; also sets ``approx_ratio_max``."""
    index0 = persist.load_index(index_path)
    mismatches, _ = checks.check_daemon_answers(index0, batches, answers)
    served = [answer[-1] for answer in answers]
    references = checks.reference_values(
        points, [(a[0], a[1]) for a in served])
    out.approx_ratio_max = checks.approx_ratio_max(served, references)
    return mismatches
