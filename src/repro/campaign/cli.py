"""``pstl-campaign`` command-line entry point.

Examples::

    pstl-campaign run --spec table5 --dir campaigns/t5 --workers 4
    pstl-campaign run --spec table5 --dir campaigns/t5 --workers 4   # warm: all cache hits
    pstl-campaign status campaigns/t5
    pstl-campaign resume campaigns/t5 --workers 4
    pstl-campaign query campaigns/t5 --backend GCC-TBB --format csv
    pstl-campaign run --spec-file mysweep.json --dir campaigns/mine
    pstl-campaign run --spec table5 --dir campaigns/chaos \\
        --faults plan.json --fault-seed 7 --retries 2
    pstl-campaign verify campaigns/t5
    pstl-campaign compact campaigns/t5

Exit codes: 0 = success, 1 = campaign finished but some points FAILED
(for ``verify``: integrity errors were found), 2 = bad invocation or
corrupt campaign state.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.bench.reporters import csv_report, json_report
from repro.campaign.executor import BackoffPolicy, load_campaign, run_campaign
from repro.campaign.query import bench_rows, filter_results, speedup_grid
from repro.campaign.shard import DB_NAME
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    FAILED,
    Journal,
    JournalReader,
    ResultStore,
    read_spec,
)
from repro.errors import ReproError
from repro.faults import load_fault_plan
from repro.trace import Tracer, use_tracer, write_chrome_trace

__all__ = ["main", "build_parser"]

#: Named grid specs: the campaign-shaped paper scenarios.
_NAMED_SPECS = ("table5", "table6")


def _named_spec(name: str, size_exp: int):
    """(spec, render) for one of the named paper grids.

    The spec is the registered scenario's campaign form at ``size_exp``;
    ``render`` folds an outcome into the scenario's flat cell table.
    """
    from repro.scenarios.analyses import campaign_cells
    from repro.scenarios.runner import ScenarioRun, campaign_spec, resolve_spec
    from repro.scenarios.schema import validate_scenario

    scenario = validate_scenario(
        resolve_spec(name).with_axes(size_exps=(size_exp,)))

    def render(outcome) -> str:
        cells = campaign_cells(scenario, outcome)
        return ScenarioRun(spec=scenario, cells=cells).rendered()

    return campaign_spec(scenario), render


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="pstl-campaign",
        description="Plan, execute, cache and query pSTL-Bench campaigns "
        "(parallel sweeps with a content-addressed result cache; "
        "see docs/CAMPAIGNS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="plan and execute a campaign")
    run.add_argument("--spec", choices=_NAMED_SPECS, default=None,
                     help="a named paper grid")
    run.add_argument("--spec-file", default=None,
                     help="JSON CampaignSpec file (alternative to --spec)")
    run.add_argument("--size-exp", type=int, default=30,
                     help="problem-size exponent for named specs (default 2^30)")
    run.add_argument("--dir", default=None,
                     help="campaign directory (spec.json, journal, cache); "
                     "omit for a throwaway in-memory run")
    run.add_argument("--workers", type=int, default=4,
                     help="process-pool width; 0/1 = run inline (default 4)")
    run.add_argument("--timeout", type=float, default=None,
                     help="per-task wall-clock budget in seconds (pool mode)")
    run.add_argument("--retries", type=int, default=1,
                     help="re-executions of a failed point (default 1)")
    run.add_argument("--resume", action="store_true",
                     help="skip tasks already journaled in --dir")
    run.add_argument("--trace", metavar="OUT.json", default=None,
                     help="write a Chrome trace of the campaign "
                     "(plan/execute/cache-hit/cache-miss spans)")
    _add_robustness_flags(run)

    resume = sub.add_parser("resume", help="continue an interrupted campaign")
    resume.add_argument("dir", help="campaign directory to resume")
    resume.add_argument("--workers", type=int, default=4)
    resume.add_argument("--timeout", type=float, default=None)
    resume.add_argument("--retries", type=int, default=1)
    _add_robustness_flags(resume)

    verify = sub.add_parser(
        "verify",
        help="audit a campaign's store + journal integrity "
        "(checksums, content addresses, torn lines)",
    )
    verify.add_argument("dir", help="campaign directory to audit")
    verify.add_argument("--quarantine", action="store_true",
                        help="pull every corrupt record out of service "
                        "(its row deleted, its bytes copied to "
                        "cache/quarantine/) instead of only reporting it")

    compact = sub.add_parser(
        "compact",
        help="report the rows superseded and quarantined since the last "
        "compaction, then vacuum the store's database",
    )
    compact.add_argument("dir", help="campaign directory, or a bare store "
                         "root (a directory holding cache.db)")

    status = sub.add_parser("status", help="summarise a campaign directory")
    status.add_argument("dir", help="campaign directory")

    query = sub.add_parser("query", help="filter and report stored results")
    query.add_argument("dir", help="campaign directory")
    query.add_argument("--machine", default=None)
    query.add_argument("--backend", default=None)
    query.add_argument("--case", default=None)
    query.add_argument("--status", default=None,
                       choices=["done", "na", "failed"])
    query.add_argument("--format", choices=["console", "csv", "json"],
                       default="console")
    return parser


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    """Fault-injection and retry-backoff flags shared by run/resume."""
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="deterministic fault-injection plan (chaos "
                        "testing; see docs/ROBUSTNESS.md)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="override the plan's seed (requires --faults)")
    parser.add_argument("--backoff-base", type=float, default=0.0,
                        help="first-retry delay in seconds (default 0: "
                        "retry immediately)")
    parser.add_argument("--backoff-factor", type=float, default=2.0,
                        help="exponential growth per retry (default 2)")
    parser.add_argument("--backoff-max", type=float, default=30.0,
                        help="delay ceiling in seconds (default 30)")
    parser.add_argument("--backoff-jitter", type=float, default=0.0,
                        help="+/- jitter fraction in [0, 1], seeded "
                        "deterministically per task (default 0)")


def _robustness(args) -> tuple:
    """(faults, backoff) for run/resume from the shared flags."""
    faults = None
    if args.faults is not None:
        faults = load_fault_plan(args.faults)
        if args.fault_seed is not None:
            faults = faults.with_seed(args.fault_seed)
    elif args.fault_seed is not None:
        raise ReproError("--fault-seed requires --faults")
    backoff = None
    if args.backoff_base > 0:
        backoff = BackoffPolicy(
            base=args.backoff_base, factor=args.backoff_factor,
            max_delay=args.backoff_max, jitter=args.backoff_jitter,
        )
    return faults, backoff


def _print_outcome(outcome, render=None) -> None:
    """Shared run/resume reporting."""
    if render is not None:
        print(render(outcome))
    else:
        grid = speedup_grid(outcome)
        for key in sorted(grid):
            value = grid[key]
            print(f"{key} = " + ("N/A" if value is None else f"{value:.2f}x"))
    print(f"campaign: {outcome.stats.summary()}", file=sys.stderr)


def _failures(outcome) -> int:
    """Count of FAILED points (drives the exit code)."""
    return sum(1 for r in outcome.results.values() if r.status == FAILED)


def _cmd_run(args) -> int:
    """``pstl-campaign run``."""
    if (args.spec is None) == (args.spec_file is None):
        print("error: pass exactly one of --spec / --spec-file", file=sys.stderr)
        return 2
    render = None
    if args.spec is not None:
        spec, render = _named_spec(args.spec, args.size_exp)
    else:
        with open(args.spec_file, encoding="utf-8") as fh:
            try:
                spec = CampaignSpec.from_dict(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"invalid spec file {args.spec_file}: {exc}"
                ) from None
    faults, backoff = _robustness(args)
    tracer = Tracer() if args.trace else None
    with use_tracer(tracer) if tracer is not None else nullcontext():
        outcome = run_campaign(
            spec,
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            campaign_dir=args.dir,
            resume=args.resume,
            faults=faults,
            backoff=backoff,
        )
    if tracer is not None:
        n_spans = write_chrome_trace(tracer, args.trace)
        print(f"trace: {n_spans} spans -> {args.trace}", file=sys.stderr)
    _print_outcome(outcome, render)
    return 1 if _failures(outcome) else 0


def _cmd_resume(args) -> int:
    """``pstl-campaign resume``: reload spec.json and continue."""
    spec = CampaignSpec.from_dict(read_spec(Path(args.dir) / "spec.json"))
    faults, backoff = _robustness(args)
    outcome = run_campaign(
        spec,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        campaign_dir=args.dir,
        resume=True,
        faults=faults,
        backoff=backoff,
    )
    _print_outcome(outcome)
    return 1 if _failures(outcome) else 0


def _cmd_verify(args) -> int:
    """``pstl-campaign verify``: audit store + journal integrity.

    Exit 0 when every stored record parses, verifies its checksum and
    matches its content address (and the journal has at most a torn
    tail, which resume tolerates by design); exit 1 otherwise.
    """
    root = Path(args.dir)
    read_spec(root / "spec.json")  # fail fast (exit 2) on a non-campaign dir
    store = ResultStore(root / "cache")
    scan = store.scan(quarantine=args.quarantine)
    journal = Journal(root / "journal.jsonl")
    torn = journal.torn_lines()
    reader = JournalReader(journal.path)
    replayed = 0
    while True:  # drain exactly the way service pollers consume it
        batch = reader.poll()
        if not batch:
            break
        replayed += len(batch)
    tail = 0
    if journal.path.exists():
        tail = max(0, journal.path.stat().st_size - reader.offset)
    print(f"store:    {scan.summary()}")
    for key, reason in scan.corrupt:
        print(f"  corrupt {key[:16]}...: {reason}")
    print(f"index:    {store.count_objects()} row(s)")
    print(f"journal:  {len(journal.entries())} intact entr(ies), "
          f"{torn} torn line(s)")
    print(f"reader:   {replayed} entr(ies) replayed, "
          f"{reader.torn} torn skip(s), {reader.resyncs} resync(s), "
          f"{tail} unterminated tail byte(s)")
    if scan.errors:
        print(f"verify: {scan.errors} integrity error(s)", file=sys.stderr)
        if not args.quarantine:
            print("re-run with --quarantine to pull them out of service, "
                  "then resume to recompute", file=sys.stderr)
        return 1
    print("verify: OK")
    return 0


def _store_root(path: Path) -> Path:
    """Resolve a compact target: a campaign dir's ``cache/`` or a bare store.

    Accepts either a campaign directory (holding ``spec.json``) or a
    store root itself (holding ``cache.db``, or an older layout's
    ``objects/``, which then raises naming the migration tool); anything
    else raises.
    """
    if (path / "spec.json").exists():
        return path / "cache"
    if (path / DB_NAME).exists() or (path / "objects").is_dir():
        return path
    raise ReproError(
        f"{path} is neither a campaign directory (no spec.json) "
        f"nor a result store (no {DB_NAME})")


def _cmd_compact(args) -> int:
    """``pstl-campaign compact``: report superseded and quarantined rows
    since the last compaction, then vacuum the database."""
    store = ResultStore(_store_root(Path(args.dir)))  # old layout -> exit 2
    report = store.compact()
    print(f"compact:  {report.summary()}")
    return 0


def _cmd_status(args) -> int:
    """``pstl-campaign status``: plan vs journal bookkeeping."""
    outcome = load_campaign(args.dir)
    entries = Journal(Path(args.dir) / "journal.jsonl").entries()
    by_status: dict[str, int] = {}
    for result in outcome.results.values():
        by_status[result.status] = by_status.get(result.status, 0) + 1
    pending = [t for t in outcome.plan.tasks if t.task_id not in outcome.results]
    print(f"campaign: {outcome.spec.name}")
    print(f"planned:  {len(outcome.plan.tasks)} tasks "
          f"({len(outcome.plan.baselines)} shared baselines, "
          f"{len(outcome.plan.pruned)} pruned N/A)")
    print(f"journal:  {len(entries)} entries")
    for status in ("done", "na", "failed"):
        if by_status.get(status):
            print(f"  {status:6s} {by_status[status]}")
    _print_wall_time(outcome, entries)
    store = ResultStore(Path(args.dir) / "cache")
    print(f"cache:    {store.count_objects()} object(s)")
    print(f"pending:  {len(pending)}")
    if pending:
        print("resume with: pstl-campaign resume " + str(args.dir))
    return 0


def _print_wall_time(outcome, entries, slowest: int = 3) -> None:
    """Summarize real executor wall-time from the journal's ``wall_ms``."""
    timed = [e for e in entries if e.get("wall_ms") is not None]
    if not timed:
        return
    tasks = {t.task_id: t for t in outcome.plan.tasks}
    total = sum(e["wall_ms"] for e in timed)
    print(f"wall:     {total:.1f} ms executed across {len(timed)} task(s)")
    for entry in sorted(timed, key=lambda e: e["wall_ms"], reverse=True)[:slowest]:
        task = tasks.get(entry["task_id"])
        if task is None:  # journal from an older plan; still show the id
            label = entry["task_id"][:12]
        else:
            p = task.point
            label = (f"{p.case}<{p.backend}>@Mach{p.machine}"
                     f"/{p.threads}t/n=2^{p.size_exp}")
        print(f"  slowest {entry['wall_ms']:8.1f} ms  {label} ({entry['status']})")


def _cmd_query(args) -> int:
    """``pstl-campaign query``: filtered rows through the reporters."""
    outcome = load_campaign(args.dir)
    pairs = filter_results(
        outcome, machine=args.machine, backend=args.backend,
        case=args.case, status=args.status,
    )
    if args.format == "csv":
        print(csv_report(bench_rows(pairs)), end="")
        return 0
    if args.format == "json":
        print(json_report(bench_rows(pairs)))
        return 0
    for task, result in pairs:
        p = task.point
        label = f"{p.case}<{p.backend}>@Mach{p.machine}/{p.threads}t/n=2^{p.size_exp}"
        if result.status == "done":
            print(f"{label}: {result.seconds:.6g} s"
                  + (" (cached)" if result.cached else ""))
        else:
            print(f"{label}: {result.status.upper()} ({result.error})")
    if not pairs:
        print("no stored results match", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "resume": _cmd_resume,
        "status": _cmd_status,
        "query": _cmd_query,
        "verify": _cmd_verify,
        "compact": _cmd_compact,
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
