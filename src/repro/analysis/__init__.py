"""Analysis utilities: speedups, efficiency, roofline, exports, breakdowns."""

from repro.analysis.breakdown import PhaseShare, breakdown, render_breakdown
from repro.analysis.export import (
    bench_result_to_dict,
    curve_to_dict,
    dump_json,
    sweep_to_dict,
)
from repro.analysis.roofline import (
    Boundedness,
    RooflinePoint,
    analyze_profile,
    machine_balance,
)
from repro.analysis.speedup import (
    ScalingCurve,
    efficiency,
    max_threads_above_efficiency,
    speedup,
    speedup_series,
)

__all__ = [
    "PhaseShare",
    "breakdown",
    "render_breakdown",
    "bench_result_to_dict",
    "curve_to_dict",
    "dump_json",
    "sweep_to_dict",
    "Boundedness",
    "RooflinePoint",
    "analyze_profile",
    "machine_balance",
    "ScalingCurve",
    "efficiency",
    "max_threads_above_efficiency",
    "speedup",
    "speedup_series",
]
