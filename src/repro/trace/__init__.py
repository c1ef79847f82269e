"""Execution tracing and metrics for the simulated pipeline.

Observability layer over the four execution layers (see
``docs/OBSERVABILITY.md`` for the full walkthrough):

* the **cost engine** emits one span per costed phase plus one lane
  span per simulated thread (instruction time vs memory time, and
  which bound won), for a call costed alone or inside a fused wave;
* the **execution context** wraps every algorithm call in a root span
  carrying machine/backend/threads/mode attributes;
* the **bench harness** brackets warmup and the min-time measurement
  loop and records iteration counts;
* the **suite CLI** captures all of it with ``pstl-bench --trace out.json``.

Exports go to Chrome trace-event JSON (:func:`write_chrome_trace`, open
in Perfetto) or a flat metrics table (:func:`metrics_rows`,
:func:`aggregate_phases`) consumable by ``repro.analysis.breakdown``.
Tracing is off by default and free when off (:data:`NULL_TRACER`).
"""

from repro.trace.chrome import chrome_trace_events, to_chrome_trace, write_chrome_trace
from repro.trace.core import (
    MAIN_TRACK,
    NULL_TRACER,
    PHASE_TRACK,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    thread_track,
    use_tracer,
)
from repro.trace.metrics import aggregate_phases, metrics_csv, metrics_rows

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MAIN_TRACK",
    "PHASE_TRACK",
    "thread_track",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "metrics_rows",
    "metrics_csv",
    "aggregate_phases",
]
