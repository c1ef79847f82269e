"""Measured artifacts: the checkable form of a regenerated figure/table.

Fidelity checks need flat numbers. A :class:`MeasuredArtifact` carries
three maps:

* ``cells`` -- scalar values keyed like the refdata claims reference them
  (``"GCC-TBB/find/A"``, ``"scaling/GCC-TBB/max_speedup"`` ...); ``None``
  is an N/A cell (a capability gap the paper also reports as N/A);
* ``curves`` -- (x, y) series for crossover claims (problem-size or
  thread sweeps);
* ``objects`` -- JSON-able structures for golden claims (every
  artifact's float-hex ``output``, plus the fig3 trace-event summary).

:func:`crossover_x` implements the crossover-tier semantics: the first x
of the common grid where curve *a* becomes faster (smaller y) than curve
*b* and stays comparable on a shared axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import FidelityError

__all__ = [
    "MeasuredArtifact",
    "Curve",
    "crossover_x",
    "step_distance",
    "trace_structure_summary",
]

#: A measured series: ordered (x, y) pairs.
Curve = Sequence[tuple[float, float]]


@dataclass(frozen=True)
class MeasuredArtifact:
    """One regenerated artifact in checkable form."""

    artifact: str
    cells: Mapping[str, float | None] = field(default_factory=dict)
    curves: Mapping[str, Curve] = field(default_factory=dict)
    objects: Mapping[str, Any] = field(default_factory=dict)

    def cell(self, key: str) -> float | None:
        """The value of one cell; raises if the key was never measured.

        A missing key is a *harness* bug (the extractor and the refdata
        disagree about naming), distinct from a measured N/A (``None``).
        """
        if key not in self.cells:
            raise FidelityError(
                f"{self.artifact}: no measured cell {key!r} "
                f"({len(self.cells)} cells present)"
            )
        return self.cells[key]

    def curve(self, key: str) -> Curve:
        """One measured series; raises if absent."""
        if key not in self.curves:
            raise FidelityError(
                f"{self.artifact}: no measured curve {key!r} "
                f"(known: {sorted(self.curves)})"
            )
        return self.curves[key]


def crossover_x(curve_a: Curve, curve_b: Curve) -> float | None:
    """First common x where ``curve_a`` is faster (smaller y) than ``curve_b``.

    Both curves are restricted to their common x grid first, so a backend
    whose sweep skips unsupported points still compares fairly. Returns
    ``None`` when *a* never beats *b* on the common grid.
    """
    a = dict(curve_a)
    b = dict(curve_b)
    common = sorted(set(a) & set(b))
    if not common:
        raise FidelityError("crossover: curves share no x values")
    for x in common:
        if a[x] < b[x]:
            return x
    return None


def step_distance(curve_a: Curve, curve_b: Curve, x_from: float, x_to: float) -> int:
    """Distance between two x positions in sweep steps of the common grid.

    Positions are indices into the sorted common x grid; off-grid values
    snap to the nearest grid point (the paper quotes round thresholds
    like "around 2^16" that need not be exact sweep points).
    """
    a = dict(curve_a)
    b = dict(curve_b)
    common = sorted(set(a) & set(b))
    if not common:
        raise FidelityError("step distance: curves share no x values")

    def index_of(x: float) -> int:
        return min(range(len(common)), key=lambda i: abs(common[i] - x))

    return abs(index_of(x_from) - index_of(x_to))


def trace_structure_summary(doc: Mapping[str, Any]) -> dict[str, Any]:
    """Structure-level summary of a Chrome trace-event document.

    Pins track names, span names per category and event counts -- not
    floating-point durations -- so the golden stays stable across cost
    model tuning. This is the summary the fig3 golden claim compares
    (promoted from the former bespoke ``tests/trace`` golden file).
    """
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    tracks = sorted(
        e["args"]["name"] for e in events if e.get("name") == "thread_name"
    )
    by_cat: dict[str, int] = {}
    for e in xs:
        by_cat[e["cat"]] = by_cat.get(e["cat"], 0) + 1
    return {
        "tracks": tracks,
        "events_by_category": dict(sorted(by_cat.items())),
        "call_span_names": sorted({e["name"] for e in xs if e["cat"] == "call"}),
        "phase_span_names": sorted({e["name"] for e in xs if e["cat"] == "phase"}),
        "overhead_span_names": sorted(
            {e["name"] for e in xs if e["cat"] == "overhead"}
        ),
        "total_events": len(events),
    }
