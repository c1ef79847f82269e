"""Benchmark-owned layer tracing: wrappers, spans, self times, layer metrics.

The traced run times the calls into each pipeline layer from *outside*
the program: :func:`install` replaces public functions at their use
sites (the module attribute a caller actually looks up) with thin
wrappers that record one wall-clock span per call. Nothing under
``src/`` changes, and ``repro.trace`` stays off -- enabling it would
switch ``use_batch_path(None)`` to the scalar engine and so measure a
different program.

Each wrapper keeps a thread-local parent stack, so a span's children are
exactly the wrapped calls made beneath it on the same thread, and a
layer's *self time* is its span minus the part of it the children cover.
Spans stay in memory and are written at exit: one JSON file per process
(:meth:`Recorder.dump`), merged by the benchmark into a Chrome/Perfetto
trace (:func:`chrome_trace`) and the per-layer metrics
(:func:`layer_metrics`).

Timestamps are ``time.perf_counter()`` values. On Linux that clock is
``CLOCK_MONOTONIC``, shared by every process on the host, so spans from
the daemon, the executors and the benchmark line up on one timeline.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "Span",
    "Recorder",
    "install",
    "load_spans",
    "self_times",
    "layer_metrics",
    "chrome_trace",
    "PER_LAYER_UNITS",
]


@dataclass
class Span:
    """One wrapped call: ``[start, end]`` in perf_counter seconds."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    pid: int
    tid: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        """Wall seconds the call took."""
        return self.end - self.start


class Recorder:
    """In-memory span sink plus the patches that feed it.

    ``admitted`` maps a service campaign id to the moment the daemon
    admitted it; the ``run_campaign`` wrapper consumes it to emit the
    campaign's queue-wait span.
    """

    def __init__(self, role: str = "bench") -> None:
        self.role = role
        self.spans: list[Span] = []
        self.admitted: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, **attrs: Any) -> Span:
        """Record a root span that was not produced by a wrapper."""
        span = Span(next(self._ids), None, name, start, end, os.getpid(),
                    threading.get_ident(), dict(attrs))
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             hook: "Hook | None") -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        before = hook.before(self, args, kwargs) if hook and hook.before else None
        stack.append(sid)
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs: dict[str, Any] = {}
            if not ok:
                attrs["error"] = True
            elif hook is not None and hook.after is not None:
                attrs.update(hook.after(self, args, kwargs, result, before, end))
            self.spans.append(Span(sid, parent, name, start, end, os.getpid(),
                                   threading.get_ident(), attrs))

    def patch(self, owner: Any, attr: str, name: str, hook: "Hook | None") -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        if getattr(original, "__pipeline_span__", None) is not None:
            return  # already wrapped through another use site

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, hook)

        wrapper.__pipeline_span__ = name
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str | os.PathLike) -> None:
        """Write this process's spans as JSON (one file per process)."""
        Path(path).write_text(json.dumps({
            "role": self.role, "pid": os.getpid(),
            "spans": [asdict(s) for s in self.spans],
        }), encoding="utf-8")


@dataclass(frozen=True)
class Hook:
    """Optional per-wrapper attribute extraction.

    ``before(recorder, args, kwargs)`` runs before the call and its
    return value is handed to ``after(recorder, args, kwargs, result,
    before, end)``, which returns the span's attributes.
    """

    before: Callable | None = None
    after: Callable | None = None


def _campaign_of_spec(rec, args, kwargs, result, before, end):
    spec = args[0] if args else kwargs.get("spec")
    return {"campaign": getattr(spec, "name", None)}


def _outcome_stats(rec, args, kwargs, result, before, end):
    stats = result.stats
    retries = sum(max(0, r.attempts - 1) for r in result.results.values()
                  if not r.cached)
    return {"campaign": result.spec.name, "executed": stats.executed,
            "cache_hits": stats.cache_hits + stats.journal_hits,
            "failed": stats.failed, "retries": retries}


def _queue_wait(rec, args, kwargs):
    """On daemon ``run_campaign`` entry: emit admission -> start wait."""
    cid = Path(kwargs.get("campaign_dir", "")).name
    admitted = rec.admitted.pop(cid, None)
    if admitted is not None:
        rec.add("service.queue_wait", admitted, time.perf_counter(),
                campaign=cid)
    return None


def _admitted(rec, args, kwargs, result, before, end):
    record, deduped, rejection = result
    if record is not None and not deduped:
        rec.admitted[record.id] = end
    return {"campaign": getattr(record, "id", None), "deduped": deduped,
            "rejected": rejection is not None}


def _handle_before(rec, args, kwargs):
    return args[0].handle_ms_total


def _submit_after(rec, args, kwargs, result, before, end):
    return {"campaign": result.get("id"), "deduped": bool(result.get("deduped")),
            "handle_s": (args[0].handle_ms_total - before) / 1000.0}


def _status_after(rec, args, kwargs, result, before, end):
    return {"campaign": args[1] if len(args) > 1 else kwargs.get("campaign_id"),
            "terminal": result.get("state") in ("complete", "broken", "interrupted")}


def _claim_after(rec, args, kwargs, result, before, end):
    return {"empty": result is None,
            "campaign": None if result is None else result.get("campaign")}


def _ship_after(rec, args, kwargs, result, before, end):
    manifest = args[2] if len(args) > 2 else kwargs.get("manifest", {})
    return {"wave": manifest.get("wave"), "rows": manifest.get("rows")}


def _ingest_before(rec, args, kwargs):
    report = args[0].report
    return report.rows, report.deduped


def _ingest_after(rec, args, kwargs, result, before, end):
    manifest = args[1] if len(args) > 1 else kwargs.get("manifest")
    return {"wave": getattr(manifest, "wave", None),
            "rows": result.rows - before[0], "deduped": result.deduped - before[1]}


def _wave_points(rec, args, kwargs, result, before, end):
    return {"points": len(result)}


def _fuse_points(rec, args, kwargs, result, before, end):
    return {"points": len(args[0])}


def _dispatch_after(rec, args, kwargs, result, before, end):
    return {"campaign": args[0].campaign}


_CAMPAIGN = Hook(after=_campaign_of_spec)
_RUN = Hook(after=_outcome_stats)

#: (module, attribute path, span name, hook). Every row is a *use site*:
#: the module whose global (or class attribute) the caller looks up.
WRAPPERS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("repro.scenarios.runner", "resolve_spec", "scenarios.resolve", None),
    ("repro.scenarios.analyses", "make_context", "scenarios.resolve", None),
    ("repro.scenarios.analyses", "resolve_case", "scenarios.resolve", None),
    ("repro.suite.batch", "measure_case_batch", "suite.measure_batch", None),
    ("repro.suite.wrappers", "run_case", "suite.run_case", None),
    ("repro.campaign.executor", "run_case", "suite.run_case", None),
    ("repro.execution.context", "ExecutionContext.simulate", "sim.scalar", None),
    ("repro.suite.batch", "simulate_cpu_arrays", "sim.batch", None),
    ("repro.sim.wave", "fuse_wave", "sim.wave.fuse", Hook(after=_fuse_points)),
    ("repro.sim.wave", "simulate_wave", "sim.wave.simulate",
     Hook(after=_wave_points)),
    ("repro.campaign.executor", "plan_campaign", "campaign.plan", _CAMPAIGN),
    ("repro.service.scheduler", "plan_campaign", "campaign.plan", _CAMPAIGN),
    ("repro.campaign", "run_campaign", "campaign.run", _RUN),
    ("repro.campaign.executor", "run_campaign", "campaign.run", _RUN),
    ("repro.service.scheduler", "run_campaign", "campaign.run",
     Hook(before=_queue_wait, after=_outcome_stats)),
    ("repro.campaign.store", "ResultStore.put", "store.put", None),
    ("repro.campaign.shard", "ShardIndex.append", "store.index", None),
    ("repro.campaign.store", "Journal.append", "store.journal", None),
    ("repro.campaign.store", "ResultStore.result_for", "store.lookup", None),
    ("repro.campaign.store", "ResultStore.quarantine", "store.quarantine", None),
    ("repro.service.scheduler", "load_campaign", "store.load_campaign", None),
    ("repro.service.scheduler", "CampaignService.submit", "service.admit",
     Hook(after=_admitted)),
    ("repro.service.client", "ServiceClient.submit", "service.submit",
     Hook(before=_handle_before, after=_submit_after)),
    ("repro.service.client", "ServiceClient.status", "service.status",
     Hook(after=_status_after)),
    ("repro.service.client", "ServiceClient.results", "service.results", None),
    ("repro.service.client", "ServiceClient.claim_wave", "remote.claim",
     Hook(after=_claim_after)),
    ("repro.service.client", "ServiceClient.ship_segment", "remote.ship",
     Hook(after=_ship_after)),
    ("repro.remote.ship", "SegmentIngestor.ingest", "remote.ingest",
     Hook(before=_ingest_before, after=_ingest_after)),
    ("repro.remote.executor", "execute_wave", "remote.execute_wave", None),
    ("repro.remote.coordinator", "RemoteCoordinator.dispatch", "remote.dispatch",
     Hook(after=_dispatch_after)),
)


def install(role: str = "bench") -> Recorder:
    """Import every wrapped module, then patch each use site.

    All modules are imported *before* any patch, so ``from x import f``
    bindings made at import time still hold the originals and each use
    site is wrapped exactly once.
    """
    modules = {mod: importlib.import_module(mod) for mod, *_ in WRAPPERS}
    rec = Recorder(role)
    for mod, path, name, hook in WRAPPERS:
        owner = modules[mod]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        rec.patch(owner, attr, name, hook)
    return rec


def load_spans(paths: Iterable[str | os.PathLike]) -> tuple[list[Span], dict[int, str]]:
    """Read per-process span dumps; returns (spans, pid -> role)."""
    spans: list[Span] = []
    roles: dict[int, str] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        roles[int(doc["pid"])] = doc["role"]
        spans.extend(Span(**s) for s in doc["spans"])
    return spans, roles


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """(pid, span id) -> the span's duration minus what its children cover.

    Children are spans whose ``parent`` is the span (same process); the
    covered part is the union of their intervals clipped to the parent's,
    so overlapping or out-of-range children are never counted twice.
    """
    children: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.pid, span.parent)].append(span)
    out: dict[tuple[int, int], float] = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children.get((span.pid, span.id), ()),
                            key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[(span.pid, span.id)] = max(0.0, span.dur - covered)
    return out


#: Every per-layer metric the traced run reports, with its unit. The
#: order is the report order; BENCHMARK.json lists the same names.
PER_LAYER_UNITS: dict[str, str] = {
    "scenarios.resolve.calls": "count",
    "scenarios.resolve.self_s": "s",
    "suite.measure_batch.calls": "count",
    "suite.measure_batch.self_s": "s",
    "suite.run_case.calls": "count",
    "suite.run_case.self_s": "s",
    "sim.scalar.calls": "count",
    "sim.scalar.self_s": "s",
    "sim.batch.calls": "count",
    "sim.batch.self_s": "s",
    "sim.wave.points": "count",
    "sim.wave.fuse_s": "s",
    "sim.wave.simulate_s": "s",
    "sim.wave_coverage": "ratio",
    "sim.executed_points": "count",
    "campaign.plan.calls": "count",
    "campaign.plan.self_s": "s",
    "campaign.run.calls": "count",
    "campaign.run.self_s": "s",
    "campaign.cache_hit_ratio": "ratio",
    "campaign.lookups": "count",
    "campaign.points_executed": "count",
    "campaign.points_failed": "count",
    "campaign.retries": "count",
    "store.put.calls": "count",
    "store.put.self_s": "s",
    "store.index.appends": "count",
    "store.index.self_s": "s",
    "store.journal.appends": "count",
    "store.journal.self_s": "s",
    "store.lookup.calls": "count",
    "store.lookup.self_s": "s",
    "store.load_campaign.calls": "count",
    "store.load_campaign.self_s": "s",
    "store.quarantined": "count",
    "service.submit.calls": "count",
    "service.submit.wall_s": "s",
    "service.submit.handle_s": "s",
    "service.status_polls": "count",
    "service.poll_waste_ratio": "ratio",
    "service.results.wall_s": "s",
    "service.queue_wait_s": "s",
    "service.rejected": "count",
    "service.dedup_hit_ratio": "ratio",
    "service.dup_submissions": "count",
    "remote.claims": "count",
    "remote.idle_claim_ratio": "ratio",
    "remote.ship.calls": "count",
    "remote.ship.wall_s": "s",
    "remote.ingest.self_s": "s",
    "remote.ingest.rows": "count",
    "remote.ingest.deduped": "count",
    "remote.execute_wave.self_s": "s",
    "remote.dispatch.self_s": "s",
    "remote.waves_reclaimed_local": "count",
    "trace.spans": "count",
    "trace.items": "count",
    "trace.window_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], window: tuple[float, float],
                  counters: Mapping[str, float] | None = None,
                  overhead_ratio: float = 0.0, items: float = 0.0) -> dict[str, float]:
    """The per-layer metrics of every span that started inside ``window``.

    Counts and seconds are totals over the window; ``trace.items`` (the
    work items completed in it) and ``trace.window_s`` are their bases.

    ``counters`` carries the numbers no wrapper can see: service-side
    ``/metrics`` deltas (``service.rejected``,
    ``remote.waves_reclaimed_local``) and the client's dup/dedup tally
    (``service.dup_submissions``, ``service.dedup_hits``).
    """
    lo, hi = window
    spans = [s for s in spans if lo <= s.start <= hi]
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    attr: dict[tuple[str, str], float] = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        wall[span.name] += span.dur
        own[span.name] += selfs[(span.pid, span.id)]
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                attr[(span.name, key)] += float(value)
    counters = dict(counters or {})
    executed = attr[("campaign.run", "executed")]
    hits = attr[("campaign.run", "cache_hits")]
    polls = calls["service.status"]
    claims = calls["remote.claim"]
    dups = counters.get("service.dup_submissions", 0.0)
    out = {
        "scenarios.resolve.calls": calls["scenarios.resolve"],
        "scenarios.resolve.self_s": own["scenarios.resolve"],
        "suite.measure_batch.calls": calls["suite.measure_batch"],
        "suite.measure_batch.self_s": own["suite.measure_batch"],
        "suite.run_case.calls": calls["suite.run_case"],
        "suite.run_case.self_s": own["suite.run_case"],
        "sim.scalar.calls": calls["sim.scalar"],
        "sim.scalar.self_s": own["sim.scalar"],
        "sim.batch.calls": calls["sim.batch"],
        "sim.batch.self_s": own["sim.batch"],
        "sim.wave.points": attr[("sim.wave.simulate", "points")],
        "sim.wave.fuse_s": own["sim.wave.fuse"],
        "sim.wave.simulate_s": own["sim.wave.simulate"],
        "sim.wave_coverage": _ratio(attr[("sim.wave.simulate", "points")], executed),
        "sim.executed_points": executed,
        "campaign.plan.calls": calls["campaign.plan"],
        "campaign.plan.self_s": own["campaign.plan"],
        "campaign.run.calls": calls["campaign.run"],
        "campaign.run.self_s": own["campaign.run"],
        "campaign.cache_hit_ratio": _ratio(hits, hits + executed),
        "campaign.lookups": hits + executed,
        "campaign.points_executed": executed,
        "campaign.points_failed": attr[("campaign.run", "failed")],
        "campaign.retries": attr[("campaign.run", "retries")],
        "store.put.calls": calls["store.put"],
        "store.put.self_s": own["store.put"],
        "store.index.appends": calls["store.index"],
        "store.index.self_s": own["store.index"],
        "store.journal.appends": calls["store.journal"],
        "store.journal.self_s": own["store.journal"],
        "store.lookup.calls": calls["store.lookup"],
        "store.lookup.self_s": own["store.lookup"],
        "store.load_campaign.calls": calls["store.load_campaign"],
        "store.load_campaign.self_s": own["store.load_campaign"],
        "store.quarantined": calls["store.quarantine"],
        "service.submit.calls": calls["service.submit"],
        "service.submit.wall_s": wall["service.submit"],
        "service.submit.handle_s": attr[("service.submit", "handle_s")],
        "service.status_polls": polls,
        "service.poll_waste_ratio": _ratio(
            polls - attr[("service.status", "terminal")], polls),
        "service.results.wall_s": wall["service.results"],
        "service.queue_wait_s": wall["service.queue_wait"],
        "service.rejected": counters.get("service.rejected", 0.0),
        "service.dedup_hit_ratio": _ratio(counters.get("service.dedup_hits", 0.0), dups),
        "service.dup_submissions": dups,
        "remote.claims": claims,
        "remote.idle_claim_ratio": _ratio(attr[("remote.claim", "empty")], claims),
        "remote.ship.calls": calls["remote.ship"],
        "remote.ship.wall_s": wall["remote.ship"],
        "remote.ingest.self_s": own["remote.ingest"],
        "remote.ingest.rows": attr[("remote.ingest", "rows")],
        "remote.ingest.deduped": attr[("remote.ingest", "deduped")],
        "remote.execute_wave.self_s": own["remote.execute_wave"],
        "remote.dispatch.self_s": own["remote.dispatch"],
        "remote.waves_reclaimed_local": counters.get("remote.waves_reclaimed_local", 0.0),
        "trace.spans": len(spans),
        "trace.items": items,
        "trace.window_s": hi - lo,
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: float(out[name]) for name in PER_LAYER_UNITS}


def chrome_trace(spans: list[Span], roles: Mapping[int, str],
                 origin: float) -> dict[str, Any]:
    """Spans as Chrome/Perfetto trace-event JSON (``ph: X``, microseconds).

    Every event carries ``clock: "wall"`` -- the benchmark only measures
    wall time -- plus the span's attributes (campaign, points, ...).
    """
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": f"{role} ({pid})"}}
        for pid, role in sorted(roles.items())
    ]
    for span in sorted(spans, key=lambda s: s.start):
        events.append({
            "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.dur * 1e6, 3),
            "pid": span.pid, "tid": span.tid,
            "args": {"clock": "wall", "span": span.id, "parent": span.parent,
                     **span.attrs},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
