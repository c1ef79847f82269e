"""``pstl-fidelity`` command-line entry point.

Examples::

    pstl-fidelity run                          # regenerate + check all 14 artifacts
    pstl-fidelity run --artifact table5 --strict
    pstl-fidelity run --campaign-dir campaigns/fid --workers 4 --json report.json
    pstl-fidelity report --markdown            # EXPERIMENTS.md summary table
    pstl-fidelity report --write-experiments EXPERIMENTS.md
    pstl-fidelity diff old.json new.json
    pstl-fidelity waive table5 t5-hpx-find-c --reason "..." --cite "HPX find"

Exit codes: 0 = success; 1 = ``run --strict`` found unwaived deviations
(or ``diff`` found differences); 2 = bad invocation or malformed
refdata/report files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.errors import ReproError
from repro.fidelity.artifacts import build_artifact
from repro.fidelity.engine import run_fidelity
from repro.fidelity.refdata import (
    ARTIFACT_IDS,
    Waiver,
    load_refdata,
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
from repro.scenarios.analyses import RunOptions
from repro.trace import Tracer, use_tracer, write_chrome_trace

__all__ = ["main", "build_parser"]

#: Default EXPERIMENTS.md location (repo root, two levels above src/).
_EXPERIMENTS_MD = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="pstl-fidelity",
        description="Check the reproduction against the paper's figures and "
        "tables (refdata/ claims; see docs/FIDELITY.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="regenerate artifacts and check claims")
    run.add_argument("--artifact", action="append", choices=ARTIFACT_IDS,
                     default=None, metavar="ID",
                     help="check only this artifact (repeatable; default all)")
    run.add_argument("--refdata", default=None, metavar="DIR",
                     help="reference-data directory (default: repo refdata/)")
    run.add_argument("--strict", action="store_true",
                     help="exit 1 when any unwaived deviation remains")
    run.add_argument("--json", default=None, metavar="OUT.json",
                     help="also write the machine-readable report")
    run.add_argument("--campaign-dir", default=None, metavar="DIR",
                     help="campaign directory whose cache the table grids "
                     "reuse (cache lives under DIR/cache)")
    run.add_argument("--workers", type=int, default=0,
                     help="process-pool width for the campaign-backed grids "
                     "(default 0 = inline)")
    run.add_argument("--trace", metavar="OUT.json", default=None,
                     help="write a Chrome trace (one fidelity.artifact span "
                     "per artifact plus the underlying model spans)")
    run.add_argument("--verbose", action="store_true",
                     help="list every claim, not just waived/deviating ones")
    run.add_argument("--update-golden", action="store_true",
                     help="refresh stored golden objects from this run "
                     "(review the refdata diff before committing)")

    report = sub.add_parser(
        "report", help="render a report (fresh run or a saved --from JSON)"
    )
    report.add_argument("--from", dest="from_json", default=None,
                        metavar="REPORT.json",
                        help="render a saved report instead of re-running")
    report.add_argument("--refdata", default=None, metavar="DIR")
    report.add_argument("--markdown", action="store_true",
                        help="emit the EXPERIMENTS.md summary table")
    report.add_argument("--write-experiments", default=None, metavar="PATH",
                        nargs="?", const=str(_EXPERIMENTS_MD),
                        help="splice the summary table into EXPERIMENTS.md "
                        "between the generated-table markers (default: the "
                        "repo's EXPERIMENTS.md)")

    diff = sub.add_parser("diff", help="compare two saved JSON reports")
    diff.add_argument("old", help="baseline report JSON")
    diff.add_argument("new", help="candidate report JSON")

    waive = sub.add_parser(
        "waive", help="record a documented deviation for one claim"
    )
    waive.add_argument("artifact", choices=ARTIFACT_IDS)
    waive.add_argument("claim", help="claim id inside the artifact's refdata")
    waive.add_argument("--reason", required=True,
                       help="why the reproduction deviates")
    waive.add_argument("--cite", required=True,
                       help="verbatim snippet of the matching EXPERIMENTS.md "
                       "deviation note")
    waive.add_argument("--refdata", default=None, metavar="DIR")
    waive.add_argument("--experiments", default=str(_EXPERIMENTS_MD),
                       help="EXPERIMENTS.md to validate --cite against")
    return parser


def _run_options(args) -> RunOptions:
    """The scenario run knobs of ``run`` (campaign store and pool width)."""
    store = None
    if args.campaign_dir is not None:
        from repro.campaign.store import ResultStore

        store = ResultStore(Path(args.campaign_dir) / "cache")
    return RunOptions(store=store, workers=args.workers)


def _update_goldens(artifacts: list[str] | None, refdata_root: str | None) -> int:
    """Rewrite stored golden objects from freshly measured ones."""
    root = Path(refdata_root) if refdata_root else None
    updated = 0
    for artifact in artifacts or ARTIFACT_IDS:
        ref = load_refdata(artifact, root)
        if not ref.goldens:
            continue
        measured = build_artifact(artifact)
        goldens = {key: measured.objects[key] for key in ref.goldens}
        if goldens != dict(ref.goldens):
            save_refdata(dataclasses.replace(ref, goldens=goldens), root)
            updated += 1
            print(f"updated goldens: {refdata_path(artifact, root)}",
                  file=sys.stderr)
    if not updated:
        print("goldens already up to date", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    """``pstl-fidelity run``."""
    if args.update_golden:
        return _update_goldens(args.artifact, args.refdata)
    tracer = Tracer() if args.trace else None
    root = Path(args.refdata) if args.refdata else None
    with use_tracer(tracer) if tracer is not None else nullcontext():
        report = run_fidelity(
            args.artifact, refdata_root=root, options=_run_options(args)
        )
    if tracer is not None:
        n_spans = write_chrome_trace(tracer, args.trace)
        print(f"trace: {n_spans} spans -> {args.trace}", file=sys.stderr)
    print(render_text(report, verbose=args.verbose))
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(report_to_json(report), indent=2) + "\n", encoding="utf-8"
        )
        print(f"report: {args.json}", file=sys.stderr)
    if args.strict and not report.ok:
        return 1
    return 0


def _cmd_report(args) -> int:
    """``pstl-fidelity report``."""
    if args.from_json is not None and args.write_experiments is None and not args.markdown:
        doc = load_report_json(Path(args.from_json))
        print(json.dumps(doc, indent=2))
        return 0
    if args.from_json is not None:
        raise ReproError(
            "report --from renders saved JSON only; --markdown and "
            "--write-experiments need a fresh run (claims are re-evaluated)"
        )
    report = run_fidelity(None, refdata_root=Path(args.refdata) if args.refdata else None)
    if args.write_experiments is not None:
        target = Path(args.write_experiments)
        target.write_text(update_experiments_md(report, target), encoding="utf-8")
        print(f"updated summary table in {target}", file=sys.stderr)
        return 0
    print(render_markdown(report) if args.markdown else render_text(report))
    return 0


def _cmd_diff(args) -> int:
    """``pstl-fidelity diff``: 0 = identical claim statuses, 1 = changes."""
    changes = diff_reports(
        load_report_json(Path(args.old)), load_report_json(Path(args.new))
    )
    for line in changes:
        print(line)
    if not changes:
        print("reports agree", file=sys.stderr)
        return 0
    return 1


def _cmd_waive(args) -> int:
    """``pstl-fidelity waive``: append a cited waiver to refdata."""
    root = Path(args.refdata) if args.refdata else None
    ref = load_refdata(args.artifact, root)
    known = {c.id for c in ref.claims}
    if args.claim not in known:
        raise ReproError(
            f"{args.artifact} has no claim {args.claim!r}; known: {sorted(known)}"
        )
    experiments = Path(args.experiments).read_text(encoding="utf-8")
    if args.cite not in experiments:
        raise ReproError(
            f"--cite text not found verbatim in {args.experiments}; waivers "
            "must quote a documented deviation note"
        )
    if ref.waiver_for(args.claim) is not None:
        raise ReproError(f"claim {args.claim!r} is already waived")
    waivers = ref.waivers + (
        Waiver(claim=args.claim, reason=args.reason, experiments_md=args.cite),
    )
    save_refdata(dataclasses.replace(ref, waivers=waivers), root)
    print(f"waived {args.artifact}:{args.claim} -> {refdata_path(args.artifact, root)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "report": _cmd_report,
        "diff": _cmd_diff,
        "waive": _cmd_waive,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
