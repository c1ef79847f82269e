"""The conformance engine: evaluate refdata claims against measurements.

:func:`check_artifact` applies one artifact's claims to its measured
grid, producing a :class:`ClaimResult` per claim with one of three
statuses:

* ``pass`` -- the paper's statement holds in the reproduction;
* ``waived`` -- the claim fails, but a waiver documents it as a known
  deviation (with its EXPERIMENTS.md citation);
* ``deviation`` -- the claim fails and nothing waives it: a regression
  in the model, the scenario kinds or the wave engine flipped a winner, moved
  a factor out of band, or shifted a crossover.

:func:`run_fidelity` orchestrates the full suite -- build each measured
artifact (through the shared campaign store when given), check it, and
collect a :class:`FidelityReport` -- emitting one ``fidelity.artifact``
trace span per artifact via ``repro.trace`` when tracing is enabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import FidelityError
from repro.fidelity.artifacts import build_artifact
from repro.fidelity.measure import MeasuredArtifact, crossover_x, step_distance
from repro.fidelity.refdata import (
    ArtifactRef,
    Claim,
    Waiver,
    load_all_refdata,
)
from repro.scenarios.analyses import RunOptions
from repro.trace import get_tracer

__all__ = [
    "ClaimResult",
    "ArtifactReport",
    "FidelityReport",
    "check_claim",
    "check_artifact",
    "run_fidelity",
    "PASS",
    "WAIVED",
    "DEVIATION",
]

#: Claim statuses.
PASS = "pass"
WAIVED = "waived"
DEVIATION = "deviation"

#: Track name for fidelity trace spans.
FIDELITY_TRACK = "fidelity"


@dataclass(frozen=True)
class ClaimResult:
    """The outcome of checking one claim."""

    claim: Claim
    status: str
    measured: float | None = None
    detail: str = ""
    waiver: Waiver | None = None

    @property
    def ok(self) -> bool:
        """Whether the claim does not block a strict run."""
        return self.status != DEVIATION


def _check_ordering(claim: Claim, measured: MeasuredArtifact) -> tuple[bool, str, float | None]:
    value = measured.cell(claim.cell)
    if value is None:
        return False, f"{claim.cell} is N/A but should be the group {claim.expect}", None
    present = {
        key: measured.cell(key)
        for key in claim.group
        if measured.cell(key) is not None
    }
    pick = max if claim.expect == "max" else min
    winner = pick(present, key=present.get)
    detail = ", ".join(f"{k}={v:.4g}" for k, v in present.items())
    if winner != claim.cell:
        return False, f"group {claim.expect} is {winner}, not {claim.cell} ({detail})", value
    return True, detail, value


def _check_ratio(claim: Claim, measured: MeasuredArtifact) -> tuple[bool, str, float | None]:
    value = measured.cell(claim.cell)
    if value is None:
        return False, f"{claim.cell} is N/A, paper reports {claim.paper:g}", None
    if claim.paper == 0:
        ok = value == 0
        return ok, f"paper value 0, measured {value:g}", value
    ratio = value / claim.paper
    lo, hi = claim.band
    ok = lo <= ratio <= hi
    return ok, (
        f"measured {value:.4g} vs paper {claim.paper:g} "
        f"(ratio {ratio:.3f}, band [{lo:g}, {hi:g}])"
    ), value


def _check_bound(claim: Claim, measured: MeasuredArtifact) -> tuple[bool, str, float | None]:
    value = measured.cell(claim.cell)
    if value is None:
        return False, f"{claim.cell} is N/A but a bound is claimed", None
    ok = True
    if claim.min is not None and value < claim.min:
        ok = False
    if claim.max is not None and value > claim.max:
        ok = False
    lo = "-inf" if claim.min is None else f"{claim.min:g}"
    hi = "+inf" if claim.max is None else f"{claim.max:g}"
    return ok, f"measured {value:.4g}, bound [{lo}, {hi}]", value


def _check_na(claim: Claim, measured: MeasuredArtifact) -> tuple[bool, str, float | None]:
    value = measured.cell(claim.cell)
    if value is None:
        return True, f"{claim.cell} is N/A as the paper reports", None
    return False, f"{claim.cell} measured {value:.4g} but the paper reports N/A", value


def _check_crossover(claim: Claim, measured: MeasuredArtifact) -> tuple[bool, str, float | None]:
    a = measured.curve(claim.curve_a)
    b = measured.curve(claim.curve_b)
    x = crossover_x(a, b)
    if x is None:
        return False, (
            f"{claim.curve_a} never beats {claim.curve_b}; paper crossover "
            f"near {claim.paper_x:g}"
        ), None
    steps = step_distance(a, b, x, claim.paper_x)
    ok = steps <= claim.steps
    return ok, (
        f"crossover at {x:g}, paper near {claim.paper_x:g} "
        f"({steps} sweep step(s) apart, tolerance {claim.steps})"
    ), float(x)


def _check_golden(
    claim: Claim, measured: MeasuredArtifact, ref: ArtifactRef
) -> tuple[bool, str, float | None]:
    if claim.cell not in measured.objects:
        raise FidelityError(
            f"{measured.artifact}: no measured object {claim.cell!r} for "
            f"golden claim {claim.id!r}"
        )
    ours = measured.objects[claim.cell]
    golden = ref.goldens[claim.cell]
    if ours == golden:
        return True, f"{claim.cell} matches the stored golden", None
    changed = []
    if isinstance(ours, dict) and isinstance(golden, dict):
        for key in sorted(set(ours) | set(golden)):
            if ours.get(key) != golden.get(key):
                changed.append(key)
    return False, (
        f"{claim.cell} diverges from the stored golden"
        + (f" (fields: {', '.join(changed)})" if changed else "")
    ), None


def check_claim(
    claim: Claim, measured: MeasuredArtifact, ref: ArtifactRef
) -> ClaimResult:
    """Evaluate one claim; waivers turn a failure into ``waived``."""
    if claim.kind == "ordering":
        ok, detail, value = _check_ordering(claim, measured)
    elif claim.kind == "ratio":
        ok, detail, value = _check_ratio(claim, measured)
    elif claim.kind == "bound":
        ok, detail, value = _check_bound(claim, measured)
    elif claim.kind == "na":
        ok, detail, value = _check_na(claim, measured)
    elif claim.kind == "crossover":
        ok, detail, value = _check_crossover(claim, measured)
    else:  # golden (kinds are validated at load time)
        ok, detail, value = _check_golden(claim, measured, ref)
    if ok:
        return ClaimResult(claim=claim, status=PASS, measured=value, detail=detail)
    waiver = ref.waiver_for(claim.id)
    if waiver is not None:
        return ClaimResult(
            claim=claim, status=WAIVED, measured=value, detail=detail, waiver=waiver
        )
    return ClaimResult(claim=claim, status=DEVIATION, measured=value, detail=detail)


@dataclass(frozen=True)
class ArtifactReport:
    """All claim results of one artifact."""

    artifact: str
    title: str
    source: str
    results: tuple[ClaimResult, ...]

    def count(self, status: str) -> int:
        """How many claims ended in ``status``."""
        return sum(1 for r in self.results if r.status == status)

    @property
    def deviations(self) -> tuple[ClaimResult, ...]:
        """The unwaived failures (what a strict run blocks on)."""
        return tuple(r for r in self.results if r.status == DEVIATION)

    @property
    def ok(self) -> bool:
        """True when no unwaived deviation remains."""
        return not self.deviations


@dataclass(frozen=True)
class FidelityReport:
    """A full conformance run over (a subset of) the artifacts."""

    artifacts: tuple[ArtifactReport, ...]
    fingerprint: str = ""
    elapsed_seconds: float = 0.0

    def count(self, status: str) -> int:
        """Total claims across artifacts that ended in ``status``."""
        return sum(a.count(status) for a in self.artifacts)

    @property
    def total_claims(self) -> int:
        """Number of claims checked."""
        return sum(len(a.results) for a in self.artifacts)

    @property
    def deviations(self) -> tuple[tuple[str, ClaimResult], ...]:
        """(artifact, result) for every unwaived deviation."""
        return tuple(
            (a.artifact, r) for a in self.artifacts for r in a.deviations
        )

    @property
    def ok(self) -> bool:
        """True when the whole run has zero unwaived deviations."""
        return not self.deviations


def check_artifact(ref: ArtifactRef, measured: MeasuredArtifact) -> ArtifactReport:
    """Apply one artifact's reference claims to its measured grid."""
    if ref.artifact != measured.artifact:
        raise FidelityError(
            f"refdata is for {ref.artifact!r} but measurement is "
            f"{measured.artifact!r}"
        )
    results = tuple(check_claim(claim, measured, ref) for claim in ref.claims)
    return ArtifactReport(
        artifact=ref.artifact, title=ref.title, source=ref.source, results=results
    )


def run_fidelity(
    artifacts: Sequence[str] | None = None,
    *,
    refdata_root: Path | None = None,
    options: RunOptions | None = None,
    progress=None,
) -> FidelityReport:
    """Regenerate and check ``artifacts`` (default: every figure/table).

    ``options`` threads the campaign store/worker knobs to the grid
    builders; ``progress`` (artifact_id, ArtifactReport) is invoked as
    each artifact finishes. One ``fidelity.artifact`` span is recorded
    per artifact when tracing is enabled.
    """
    from repro.campaign.fingerprint import model_fingerprint

    opts = options if options is not None else RunOptions()
    refs = load_all_refdata(artifacts, refdata_root)
    tracer = get_tracer()
    reports: list[ArtifactReport] = []
    t0 = time.perf_counter()
    for ref in refs:
        span = tracer.begin(
            "fidelity.artifact", category="fidelity", track=FIDELITY_TRACK,
            artifact=ref.artifact,
        ) if tracer.enabled else None
        try:
            measured = build_artifact(ref.artifact, opts)
            report = check_artifact(ref, measured)
        finally:
            if span is not None:
                span.set_attribute("claims", len(ref.claims))
                tracer.end()
        reports.append(report)
        if progress is not None:
            progress(ref.artifact, report)
    return FidelityReport(
        artifacts=tuple(reports),
        fingerprint=model_fingerprint(),
        elapsed_seconds=time.perf_counter() - t0,
    )
