"""JSON export of sweeps, scaling curves and benchmark rows.

Downstream users plot the regenerated figures with their own tooling;
this module flattens the sweep/curve/result objects into plain JSON.
Every exporter returns a JSON-serialisable dict; ``dump_json`` renders it.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.speedup import ScalingCurve
from repro.bench.state import BenchResult
from repro.errors import ConfigurationError
from repro.suite.sweeps import SweepResult

__all__ = [
    "sweep_to_dict",
    "curve_to_dict",
    "bench_result_to_dict",
    "dump_json",
]


def sweep_to_dict(sweep: SweepResult) -> dict[str, Any]:
    """Flatten a problem/thread sweep."""
    return {
        "label": sweep.label,
        "variable": sweep.variable,
        "points": [
            {"x": p.x, "seconds": None if not p.supported else p.seconds}
            for p in sweep.points
        ],
    }


def curve_to_dict(curve: ScalingCurve) -> dict[str, Any]:
    """Flatten a strong-scaling curve, with derived speedups/efficiencies."""
    return {
        "label": curve.label,
        "baseline_seconds": curve.baseline_seconds,
        "threads": list(curve.threads),
        "seconds": list(curve.seconds),
        "speedups": curve.speedups(),
        "efficiencies": curve.efficiencies(),
    }


def bench_result_to_dict(result: BenchResult) -> dict[str, Any]:
    """Flatten a harness result row (Google-Benchmark JSON-ish)."""
    return {
        "name": result.name,
        "iterations": result.iterations,
        "mean_time": result.mean_time,
        "total_time": result.total_time,
        "bytes_per_second": result.bytes_per_second,
        "counters": {
            "instructions": result.counters.instructions,
            "fp_scalar": result.counters.fp_scalar,
            "fp_packed_128": result.counters.fp_packed_128,
            "fp_packed_256": result.counters.fp_packed_256,
            "bytes_read": result.counters.bytes_read,
            "bytes_written": result.counters.bytes_written,
        },
    }


def dump_json(payload: Any, indent: int = 2) -> str:
    """Serialise a converted payload, rejecting non-finite floats."""
    text = json.dumps(payload, indent=indent, allow_nan=False, sort_keys=True)
    if not text:
        raise ConfigurationError("empty JSON payload")
    return text
