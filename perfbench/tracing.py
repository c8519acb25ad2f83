"""Spans around the public entry points of every layer the benchmark drives.

A traced run installs wrappers with :func:`install`; an untraced run never
imports this module, so its timings carry no tracing cost.  Each wrapper
records one span per call: name, start, end, self time (duration minus the
time its child spans cover), parent span, request id and the phase of the
run.  Spans stay in memory in flat arrays and are written out once, when
the run ends (:meth:`Tracer.save`).

Every name is wrapped where it is looked up: a module that did
``from x import f`` holds its own reference to ``f``, so :func:`install`
replaces the function object in every loaded ``repro`` module that holds it,
not only in the module that defines it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from pathlib import Path

#: ``(span name, module, attribute)`` for every wrapped layer entry point.
#: Methods are patched on their class, which every caller looks up through.
LAYER_FUNCTIONS = [
    ("service.query", "repro.service.service", "DiversityService.query"),
    ("service.query_batch", "repro.service.service",
     "DiversityService.query_batch"),
    ("index.covering_rungs", "repro.service.index",
     "CoresetIndex.covering_rungs"),
    ("index.select_rung", "repro.service.index", "CoresetIndex.select_rung"),
    ("index.extend", "repro.service.index", "CoresetIndex.extend"),
    ("index.build", "repro.service.index", "build_coreset_index"),
    ("cache.get", "repro.service.cache", "StripedLRUCache.get"),
    ("cache.peek", "repro.service.cache", "StripedLRUCache.peek"),
    ("cache.put", "repro.service.cache", "StripedLRUCache.put"),
    ("matrix.get_or_compute", "repro.service.matrices",
     "MatrixCache.get_or_compute"),
    ("distance.pairwise", "repro.metricspace.points", "PointSet.pairwise"),
    ("distance.distances_to", "repro.metricspace.points",
     "PointSet.distances_to"),
    ("doubling.estimate", "repro.metricspace.doubling",
     "estimate_doubling_dimension"),
    ("solve", "repro.diversity.sequential.registry", "solve_on_matrix"),
    ("streaming.stream_coreset", "repro.streaming.algorithm",
     "stream_coreset"),
    ("mapreduce.run_round", "repro.mapreduce.engine",
     "MapReduceEngine.run_round"),
    ("coresets.gmm", "repro.coresets.gmm", "gmm"),
    ("coresets.gmm_ext", "repro.coresets.gmm_ext", "gmm_ext"),
    ("protocol.decode_request", "repro.service.protocol", "decode_request"),
    ("protocol.encode_results", "repro.service.protocol", "encode_results"),
]


def _size_hint(name: str, args: tuple, kwargs: dict, result) -> float:
    """The per-span number a layer metric needs beside the timing.

    Query batches record their query count, pairwise computes their cell
    count, streaming calls their point count and solves their objective
    (as an index into :data:`OBJECTIVES`).
    """
    if name == "service.query_batch":
        return float(len(result))
    if name == "distance.pairwise":
        return float(len(args[0])) ** 2
    if name == "streaming.stream_coreset":
        return float(len(args[0]))
    if name == "solve":
        from repro.diversity.objectives import get_objective
        objective = args[2] if len(args) > 2 else kwargs["objective"]
        return float(OBJECTIVES.index(get_objective(objective).name))
    return 0.0


#: Objective names in a fixed order; solve spans store an index into it.
OBJECTIVES = ("remote-edge", "remote-cycle", "remote-tree", "remote-star",
              "remote-clique", "remote-bipartition")


class Tracer:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.enabled = False
        #: Free-form phase label of the run ("setup", "timed", ...);
        #: stored per span as an index into :attr:`phases`.
        self.phases: list[str] = ["none"]
        self._phase = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.phase = array("i")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.hint = array("d")

    def name_id(self, name: str) -> int:
        """Stable small integer for *name* (the span arrays store these)."""
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def set_phase(self, phase: str) -> None:
        """Label every span that starts from now on with *phase*."""
        if phase not in self.phases:
            self.phases.append(phase)
        self._phase = self.phases.index(phase)

    def set_request(self, request_id: int) -> None:
        """Tag spans opened by this thread with *request_id* (-1: none)."""
        self._local.request = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, float]:
        """Start a span on this thread; returns its id and start time."""
        with self._lock:
            span = self._next_id
            self._next_id += 1
        self._stack().append([span, 0.0])
        return span, time.perf_counter()

    def close(self, name_id: int, span: int, start: float,
              hint: float = 0.0, request: int | None = None) -> None:
        """Finish the innermost span of this thread and record it."""
        end = time.perf_counter()
        stack = self._stack()
        _, child_time = stack.pop()
        duration = end - start
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if request is None:
            request = getattr(self._local, "request", -1)
        with self._lock:
            self._append(span, parent, name_id, request, start, end,
                         duration - child_time, hint)

    def record(self, name: str, start: float, end: float, *,
               request: int = -1) -> None:
        """Record a finished root span measured by the caller itself."""
        with self._lock:
            span = self._next_id
            self._next_id += 1
            self._append(span, -1, self.name_id(name), request, start, end,
                         end - start, 0.0)

    def _append(self, span, parent, name_id, request, start, end, self_time,
                hint) -> None:
        # Caller holds self._lock.
        self.span_id.append(span)
        self.parent.append(parent)
        self.name.append(name_id)
        self.phase.append(self._phase)
        self.request.append(request)
        self.start.append(start)
        self.end.append(end)
        self.self_time.append(self_time)
        self.hint.append(hint)

    def wrap(self, name: str, fn):
        """A wrapper recording one span per call of *fn* while enabled."""
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span, start = self.open()
            result = None
            request = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if name == "protocol.decode_request" and result is not None:
                    request = _int_id(result.id)
                elif name == "protocol.encode_results":
                    request = _int_id(args[0])
                self.close(name_id, span, start,
                           _size_hint(name, args, kwargs, result), request)

        traced.__wrapped_by_tracer__ = True
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        """The span store as numpy arrays (one row per span)."""
        import numpy as np
        return {
            "span_id": np.frombuffer(self.span_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "self": np.frombuffer(self.self_time, dtype=np.float64),
            "hint": np.frombuffer(self.hint, dtype=np.float64),
        }

    def save(self, path: str | Path) -> None:
        """Write every span, with the name and phase tables, as ``.npz``."""
        import numpy as np
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=object),
                 phases=np.array(self.phases, dtype=object), **self.arrays())


def load_spans(path: str | Path) -> dict:
    """Read a span file written by :meth:`Tracer.save`."""
    import numpy as np
    with np.load(path, allow_pickle=True) as data:
        spans = {key: data[key] for key in data.files}
    spans["names"] = list(spans["names"])
    spans["phases"] = list(spans["phases"])
    return spans


def _int_id(value) -> int:
    """Request ids on the wire are ints in this benchmark; -1 otherwise."""
    return value if isinstance(value, int) else -1


def _resolve(module_name: str, attribute: str):
    """``(owner, attribute name, function)`` for a dotted attribute path."""
    owner = sys.modules[module_name]
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: Tracer) -> None:
    """Wrap every :data:`LAYER_FUNCTIONS` entry wherever it is referenced."""
    import importlib
    import repro  # noqa: F401  - loads the package's own import graph
    for _, module_name, _ in LAYER_FUNCTIONS:
        importlib.import_module(module_name)
    for name, module_name, attribute in LAYER_FUNCTIONS:
        owner, attr, original = _resolve(module_name, attribute)
        if getattr(original, "__wrapped_by_tracer__", False):
            continue
        traced = tracer.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


# -- per-layer metrics -----------------------------------------------------------

#: Phases whose spans are request-path work (in-process timed loop, daemon).
QUERY_PHASES = ("timed", "serve")
#: Phases in which solves and matrix computes happen (warm-up included).
SOLVE_PHASES = ("setup", "timed", "serve")
REFRESH_PHASES = ("refresh", "serve")


class SpanTable:
    """Column view of one process's spans with name/phase filters."""

    def __init__(self, spans: dict):
        self.spans = spans
        self.names = spans["names"]
        self.duration = spans["end"] - spans["start"]

    def roots(self):
        """Name id of each span's root span (itself when it has no parent)."""
        import numpy as np
        ids = self.spans["span_id"]
        order = np.argsort(ids)
        where = np.searchsorted(ids, self.spans["parent"], sorter=order)
        where = np.clip(where, 0, len(ids) - 1)
        parent_row = np.where(ids[order][where] == self.spans["parent"],
                              order[where], -1)
        root = np.arange(len(ids))
        for _ in range(64):
            up = parent_row[root]
            if (up < 0).all():
                break
            root = np.where(up >= 0, up, root)
        return self.spans["name"][root]

    def mask(self, names, phases=None):
        import numpy as np
        names = [names] if isinstance(names, str) else names
        ids = [self.names.index(n) for n in names if n in self.names]
        selected = np.isin(self.spans["name"], ids)
        if phases is not None:
            phase_ids = [i for i, p in enumerate(self.spans["phases"])
                         if p in phases]
            selected &= np.isin(self.spans["phase"], phase_ids)
        return selected


def _mean(values, scale: float = 1.0) -> float:
    return float(values.mean()) * scale if len(values) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def request_path(local: SpanTable, daemon: SpanTable | None,
                 client: dict) -> dict:
    """Per-request service latency, dispatch, client latency and lateness.

    In-process, the service-side latency of a request is its
    ``DiversityService.query`` span and its dispatch the ``query_batch``
    span inside it; the client latency is the benchmark's own
    ``client.request`` span and lateness the gap since the previous
    request returned (the closed loop's schedule).  Through the daemon, the
    service-side latency runs from the start of ``decode_request`` to the
    end of ``encode_results`` for the request id, its dispatch is the
    ``query_batch`` call that returned last before its encode began, and
    client latency and lateness come from the load generator's clock
    (``perf_counter`` is system-wide, so both processes share it).
    """
    import numpy as np
    if daemon is None:
        spans = local.spans
        query = np.flatnonzero(local.mask("service.query", QUERY_PHASES))
        batch = np.flatnonzero(local.mask("service.query_batch",
                                          QUERY_PHASES))
        dispatch_of = dict(zip(spans["parent"][batch].tolist(),
                               local.duration[batch].tolist()))
        service = local.duration[query]
        dispatch = np.array([dispatch_of.get(s, 0.0)
                             for s in spans["span_id"][query].tolist()])
        by_request = dict(zip(spans["request"][query].tolist(),
                              service.tolist()))
        roots = np.flatnonzero(local.mask("client.request", QUERY_PHASES))
        order = roots[np.argsort(spans["start"][roots])]
        client_latency = local.duration[order]
        gaps = spans["start"][order][1:] - spans["end"][order][:-1]
        matched = np.array([by_request.get(r, 0.0)
                            for r in spans["request"][order].tolist()])
        return {"service": service, "dispatch": dispatch,
                "client": client_latency, "lateness": gaps,
                "transit": client_latency - matched,
                "covered": matched}
    spans = daemon.spans
    decode = np.flatnonzero(daemon.mask("protocol.decode_request"))
    encode = np.flatnonzero(daemon.mask("protocol.encode_results"))
    begun = dict(zip(spans["request"][decode].tolist(),
                     spans["start"][decode].tolist()))
    batch = np.flatnonzero(daemon.mask("service.query_batch"))
    batch_end = spans["end"][batch]
    order = np.argsort(batch_end)
    batch_end, batch_duration = batch_end[order], daemon.duration[batch][order]
    service, dispatch, client_latency, lateness = [], [], [], []
    for i in encode.tolist():
        rid = int(spans["request"][i])
        if rid not in client or rid not in begun:
            continue
        due, sent, received = client[rid]
        latency = spans["end"][i] - begun[rid]
        j = np.searchsorted(batch_end, spans["start"][i], side="right") - 1
        service.append(latency)
        dispatch.append(batch_duration[j] if j >= 0 else 0.0)
        client_latency.append(received - sent)
        lateness.append(sent - due)
    service = np.array(service)
    client_latency = np.array(client_latency)
    return {"service": service, "dispatch": np.array(dispatch),
            "client": client_latency, "lateness": np.array(lateness),
            "transit": client_latency - service, "covered": service}


def layer_metrics(local: SpanTable, daemon: SpanTable | None,
                  client: dict, stats: dict, solve_peak_mb: float) -> dict:
    """Every per-layer metric of one traced run (name -> (value, unit))."""
    import numpy as np
    serving = daemon if daemon is not None else local
    m: dict = {}
    batch = serving.mask("service.query_batch", QUERY_PHASES)
    queries = float(serving.spans["hint"][batch].sum())
    funnel = serving.mask(["service.query", "service.query_batch"],
                          QUERY_PHASES)
    m["service.funnel_us"] = (
        _ratio(float(serving.spans["self"][funnel].sum()), queries) * 1e6, "us")
    route = serving.mask(["index.covering_rungs", "index.select_rung"],
                         QUERY_PHASES)
    m["index.route_us"] = (
        _ratio(float(serving.duration[route].sum()), queries) * 1e6, "us")
    selects = serving.mask("index.select_rung", QUERY_PHASES)
    m["index.routes_per_query"] = (_ratio(float(selects.sum()), queries),
                                   "count")
    extend = serving.mask("index.extend", REFRESH_PHASES)
    m["index.extend_ms"] = (_mean(serving.duration[extend], 1e3), "ms")
    stream = serving.mask("streaming.stream_coreset", REFRESH_PHASES)
    m["streaming.stream_ms"] = (_mean(serving.duration[stream], 1e3), "ms")
    m["streaming.points_per_s"] = (_ratio(
        float(serving.spans["hint"][stream].sum()),
        float(serving.duration[stream].sum())), "1/s")
    probe = serving.mask(["cache.get", "cache.peek", "cache.put"],
                         QUERY_PHASES)
    m["cache.probe_us"] = (_mean(serving.duration[probe], 1e6), "us")
    lookups = stats["cache_hits"] + stats["cache_misses"]
    m["cache.hit_ratio"] = (_ratio(stats["cache_hits"], lookups), "ratio")
    m["cache.eps_hits"] = (float(stats["eps_hits"]), "count")
    pairwise = serving.mask("distance.pairwise", SOLVE_PHASES)
    fetch = serving.mask("matrix.get_or_compute", SOLVE_PHASES)
    computing = np.isin(serving.spans["span_id"],
                        serving.spans["parent"][pairwise]) & fetch
    m["matrix.compute_ms"] = (_mean(serving.duration[computing], 1e3), "ms")
    in_queries = computing & serving.mask("matrix.get_or_compute",
                                          QUERY_PHASES)
    m["matrix.computes"] = (float(in_queries.sum()), "count")
    m["matrix.resident_mb"] = (stats["resident_bytes"] / 2**20, "MiB")
    kernel = pairwise & np.isin(serving.spans["parent"],
                                serving.spans["span_id"][fetch])
    m["distance.pairwise_cells_per_s"] = (_ratio(
        float(serving.spans["hint"][kernel].sum()),
        float(serving.duration[kernel].sum())), "1/s")
    solve = serving.mask("solve", SOLVE_PHASES)
    for j, objective in enumerate(OBJECTIVES):
        chosen = solve & (serving.spans["hint"] == j)
        m[f"solve.{objective}_ms"] = (_mean(serving.duration[chosen], 1e3),
                                      "ms")
    m["solve.peak_mb"] = (solve_peak_mb, "MiB")
    builds = float(local.mask("index.build", ("setup",)).sum())
    rounds = local.mask("mapreduce.run_round", ("setup",))
    m["mapreduce.round_ms"] = (_mean(local.duration[rounds], 1e3), "ms")
    for metric, name in (("coresets.gmm_s", "coresets.gmm"),
                         ("coresets.gmm_ext_s", "coresets.gmm_ext"),
                         ("distance.cross_s", "distance.distances_to"),
                         ("doubling.estimate_s", "doubling.estimate")):
        chosen = local.mask(name, ("setup",))
        m[metric] = (_ratio(float(local.duration[chosen].sum()), builds), "s")
    decode = serving.mask("protocol.decode_request")
    encode = serving.mask("protocol.encode_results")
    m["protocol.decode_us"] = (_mean(serving.duration[decode], 1e6), "us")
    m["protocol.encode_us"] = (_mean(serving.duration[encode], 1e6), "us")
    path = request_path(local, daemon, client)
    m["server.batch_queries"] = (_mean(serving.spans["hint"][batch]), "count")
    m["server.dispatch_ms"] = (_mean(serving.duration[batch], 1e3), "ms")
    m["server.wait_ms"] = (_mean(path["service"] - path["dispatch"], 1e3),
                           "ms")
    m["server.rejected"] = (float(stats["rejected"]), "count")
    m["client.lateness_ms"] = (_mean(path["lateness"], 1e3), "ms")
    m["client.transit_ms"] = (_mean(path["transit"], 1e3), "ms")
    m["trace.coverage"] = (_ratio(float(path["covered"].sum()),
                                  float(path["client"].sum())), "ratio")
    return m


#: Least share of client-observed request time the service-side spans must
#: cover for a traced run to pass its sanity check.
COVERAGE_MIN = 0.9


def self_time_table(local: SpanTable, daemon: SpanTable | None,
                    client: dict) -> list[tuple]:
    """``(stage, calls, total self seconds)`` along the request path.

    Span self times of the query phases, plus, through the daemon, the
    stage that is not a span of its own: queue wait and batch window
    (``server.wait``).  How much of the client-observed request time these
    service-side stages cover is ``trace.coverage``; the rest is transit
    between the load generator and the service.
    """
    import numpy as np
    table = []
    serving = daemon if daemon is not None else local
    refresh_ids = [serving.names.index(n) for n in ("index.extend",)
                   if n in serving.names]
    on_path = ~np.isin(serving.roots(), refresh_ids)
    for name in serving.names:
        if name == "client.request":
            continue
        chosen = serving.mask(name, QUERY_PHASES) & on_path
        if chosen.any():
            table.append((name, int(chosen.sum()),
                          float(serving.spans["self"][chosen].sum())))
    path = request_path(local, daemon, client)
    if daemon is not None:
        # Daemon spans overlap across requests of one batch; attribute the
        # queueing stage per request.
        table.append(("server.wait (derived)", len(path["service"]),
                      float((path["service"] - path["dispatch"]).sum())))
    table.sort(key=lambda row: -row[2])
    return table
