"""Paper-fidelity conformance harness (``pstl-fidelity``).

Closes the loop between the reproduction and the source paper. For each
of the 14 paper artifacts (Figures 1-9, Tables 3-7), a JSON file under
``refdata/`` transcribes the paper's values and claims; the harness
regenerates the artifact through its registered scenario
(:mod:`repro.scenarios`) and checks three tiers of claims against it:

* **ordering** -- who wins (fastest backend, highest speedup, N/A
  pattern);
* **ratio** -- measured values within a per-cell tolerance band of the
  paper's numbers (plus absolute bounds and golden-object equality --
  every artifact's float-hex ``output`` golden pins the scenario's
  cells and curves bit for bit);
* **crossover** -- thresholds (e.g. the size where parallel overtakes
  sequential) within one sweep step of the paper's.

Known deviations documented in EXPERIMENTS.md are encoded as *waivers*
that must quote the matching note verbatim, so the strict run
(``pstl-fidelity run --strict``) passes exactly when the reproduction
matches the paper everywhere except the documented deviations. See
docs/FIDELITY.md for the walkthrough.
"""

from repro.fidelity.artifacts import artifact_builders, build_artifact
from repro.fidelity.engine import (
    DEVIATION,
    PASS,
    WAIVED,
    ArtifactReport,
    ClaimResult,
    FidelityReport,
    check_artifact,
    check_claim,
    run_fidelity,
)
from repro.fidelity.measure import (
    MeasuredArtifact,
    crossover_x,
    step_distance,
    trace_structure_summary,
)
from repro.fidelity.refdata import (
    ARTIFACT_IDS,
    ArtifactRef,
    Claim,
    Waiver,
    load_all_refdata,
    load_refdata,
    refdata_dir,
    refdata_path,
    save_refdata,
)
from repro.fidelity.report import (
    diff_reports,
    load_report_json,
    render_markdown,
    render_text,
    report_to_json,
    update_experiments_md,
)

__all__ = [
    "ARTIFACT_IDS",
    "ArtifactRef",
    "Claim",
    "Waiver",
    "MeasuredArtifact",
    "ArtifactReport",
    "ClaimResult",
    "FidelityReport",
    "PASS",
    "WAIVED",
    "DEVIATION",
    "artifact_builders",
    "build_artifact",
    "check_claim",
    "check_artifact",
    "run_fidelity",
    "crossover_x",
    "step_distance",
    "trace_structure_summary",
    "load_refdata",
    "load_all_refdata",
    "refdata_dir",
    "refdata_path",
    "save_refdata",
    "report_to_json",
    "render_text",
    "render_markdown",
    "update_experiments_md",
    "diff_reports",
    "load_report_json",
]
