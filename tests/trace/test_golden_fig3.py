"""Fig. 3 trace-structure tests, backed by the fidelity golden.

The structure summary (track names, span names per category, event
counts -- not floating-point durations) is pinned as the ``golden``
claim of ``refdata/fig3.json`` and checked by the fidelity harness;
refresh it with::

    pstl-fidelity run --artifact fig3 --update-golden

This file keeps the trace-format contract tests and exercises the
golden claim through the same engine path ``pstl-fidelity run`` uses.
"""

from __future__ import annotations

import json

from repro.fidelity import build_artifact, check_claim, load_refdata
from repro.fidelity.artifacts import fig3_trace_spec, trace_fig3_calls
from repro.scenarios import run_scenario
from repro.trace import Tracer, to_chrome_trace, use_tracer


def traced_sweep() -> Tracer:
    """The fig3 golden's traced calls: Mach A, GCC-TBB, k_it=1000, 2^16."""
    with use_tracer(Tracer()) as tracer:
        trace_fig3_calls()
    return tracer


def test_fig3_trace_matches_refdata_golden():
    """The golden claim passes through the real engine path."""
    ref = load_refdata("fig3")
    golden_claims = [c for c in ref.claims if c.kind == "golden"]
    assert golden_claims, "fig3 refdata must pin the trace structure"
    measured = build_artifact("fig3")
    for claim in golden_claims:
        result = check_claim(claim, measured, ref)
        assert result.status == "pass", result.detail


def test_fig3_trace_is_perfetto_parseable(tmp_path):
    """The minimal contract a Chrome/Perfetto importer relies on."""
    doc = to_chrome_trace(traced_sweep())
    out = tmp_path / "fig3.json"
    out.write_text(json.dumps(doc))
    loaded = json.loads(out.read_text())
    assert isinstance(loaded["traceEvents"], list) and loaded["traceEvents"]
    for e in loaded["traceEvents"]:
        assert e["ph"] in ("X", "M")
        if e["ph"] == "X":
            assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
            assert isinstance(e["dur"], (int, float)) and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)


def test_one_call_span_per_thread_count():
    tracer = traced_sweep()
    calls = [s for s in tracer.spans if s.category == "call"]
    threads = [s.attributes["threads"] for s in calls]
    curve = run_scenario(fig3_trace_spec()).curves["GCC-TBB/k1000/A"]
    curve_threads = [t for t, _ in curve]
    assert set(threads) == set(curve_threads)
    # one call per sweep point, plus the serial baseline at threads=1
    assert len(calls) == len(curve_threads) + 1
