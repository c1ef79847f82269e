"""Append-and-gate harness for the repo's benchmark trajectory.

Performance work in this repo is tracked as a *trajectory*: every PR
appends one entry per benchmark family to a committed JSON ledger, and
CI fails if the newest entry regresses more than 10% against the
previous one or falls below an absolute floor. Two families live at the
repo root (schema documented in ``docs/PERFORMANCE.md``):

``BENCH_SWEEP.json``
    The Fig. 2 problem-size sweep through the scalar engine vs. the
    vectorized (``batch=True``, i.e. wave) engine. Metrics:
    ``scalar_s``, ``batch_s``, ``batch_speedup`` (floor:
    :data:`GATES`, currently >= 5.0).

``BENCH_CAMPAIGN.json``
    The Table 5 campaign grid, cold scalar vs. cold wave-fused vs. warm
    cache. Metrics: ``cold_scalar_s``, ``cold_wave_s``, ``warm_s``,
    ``wave_speedup`` = cold_scalar/cold_wave (floor >= 5.0), and
    ``cache_speedup`` = cold_wave/warm (floor >= 5.0). The warm run
    still pays planning and one store lookup per point, so its ratio
    against the already-fast wave engine sits near 9x on the reference
    host; the floor leaves headroom below that, and the regression rule
    does the real work. (Entries before this pair of metrics recorded
    ``wave_over_batch`` and ``warm_speedup`` against the retired
    per-curve batch tier; a metric absent from the previous entry starts
    a new series instead of being compared.)

``BENCH_SERVICE.json``
    The campaign-service SLO harness: one in-process daemon, 1000
    concurrent mixed cold/warm/duplicate submissions through
    ``repro.service.loadgen``. Floors: ``dedup_hit_rate`` and
    ``completed_rate`` must both be exactly 1.0 (zero lost, every
    duplicate collapsed). Ceiling: ``submit_p99_ms`` (lower is better)
    must stay under :data:`CEILINGS` and may grow at most 10% vs. the
    previous entry. ``throughput_rps``, ``submit_p50_ms`` and
    ``request_overhead_ms`` ride along ungated for trend-reading.

``BENCH_STORE.json``
    The sharded result store's lookup path: synthetic stores of 10k and
    100k objects, full-tree audit scan (the v1 O(all objects) path)
    vs. index-backed count + sampled lookups (the v2 O(result) path),
    plus compaction throughput. Floor: ``lookup_speedup_100k`` >= 10.0
    -- the ISSUE 8 acceptance bound. ``cold_scan_s_*``, ``indexed_s_*``
    and ``compact_rows_per_s`` ride along ungated for trend-reading.

``BENCH_REMOTE.json``
    The multi-host shipping protocol (``repro.remote``,
    ``docs/DISTRIBUTION.md``): one in-process daemon fans a campaign
    out across a 4-executor fleet. Floors: ``remote_completed_rate``
    (waves completed remotely / waves offered) and
    ``exactly_once_rate`` (live index rows / (live + superseded) after
    ingest) must both be exactly 1.0 -- a fleet that loses waves or
    double-lands rows is a correctness failure, not a slow run --
    and ``scaleout_rows_per_s`` (remote rows landed per wall second
    across the fleet) has a deliberately generous absolute floor with
    the regression rule doing the real work, like the service p99.
    Ceiling: ``ship_ingest_overhead_ms``, the coordinator-side cost of
    one sealed :data:`REMOTE_SEGMENT_ROWS`-row segment (append + seal
    + manifest verify + ledger/index ingest).

Floor gating compares *dimensionless ratios* (speedups, hit rates),
never wall seconds, so those gates are stable across CI hardware of
different absolute speeds; the raw seconds are recorded alongside for
human trend-reading. The one wall-clock gate -- the service p99
ceiling -- is deliberately generous in absolute terms for the same
reason, with the adjacent-entry regression rule doing the real work.

Usage::

    python tools/bench_trajectory.py run [--benchmark all|sweep|campaign|service]
    python tools/bench_trajectory.py check

``run`` measures (best-of-N wall clock, N=3) and appends one entry
keyed by the current commit SHA -- re-running on the same commit
replaces that commit's entry instead of duplicating it, so the append
is idempotent per commit. ``check`` validates both files against the
schema (malformed files are a hard error with a pointed message, not a
silent skip) and enforces the floors plus the 10% regression rule.
Exit codes: 0 OK, 1 gate failure, 2 malformed trajectory file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SCHEMA_VERSION = 1

#: benchmark family -> committed ledger file at the repo root.
TRAJECTORY_FILES = {
    "sweep": "BENCH_SWEEP.json",
    "campaign": "BENCH_CAMPAIGN.json",
    "service": "BENCH_SERVICE.json",
    "store": "BENCH_STORE.json",
    "remote": "BENCH_REMOTE.json",
}

#: Absolute floors on dimensionless ratio metrics (family -> metric -> min).
GATES = {
    "sweep": {"batch_speedup": 5.0},
    "campaign": {"wave_speedup": 5.0, "cache_speedup": 5.0},
    "service": {"dedup_hit_rate": 1.0, "completed_rate": 1.0},
    "store": {"lookup_speedup_100k": 10.0},
    "remote": {"remote_completed_rate": 1.0, "exactly_once_rate": 1.0,
               "scaleout_rows_per_s": 25.0},
}

#: Absolute ceilings on lower-is-better metrics (family -> metric -> max).
#: Ceiling metrics also obey the regression rule in the *upward*
#: direction: the newest entry may exceed the previous one by at most
#: :data:`REGRESSION_TOLERANCE`.
CEILINGS = {
    "sweep": {},
    "campaign": {},
    "service": {"submit_p99_ms": 500.0},
    "store": {},
    "remote": {"ship_ingest_overhead_ms": 250.0},
}

#: Newest entry may lose at most this fraction vs. the previous entry.
REGRESSION_TOLERANCE = 0.10

#: Wall-clock measurements take the min over this many repetitions.
DEFAULT_REPEATS = 3

#: Problem-size exponent for the campaign family.
CAMPAIGN_SIZE_EXP = 26

#: Size stride for the sweep family (every other Fig. 2 problem size:
#: the full scalar sweep is accurate but slow for a per-PR gate).
SWEEP_SIZE_STEP = 2


class TrajectoryError(ValueError):
    """A trajectory file is malformed (bad JSON, schema, or entries)."""


class GateError(RuntimeError):
    """The newest entry fails a floor or regresses past tolerance."""


def _best_of(fn, repeats: int) -> float:
    """Min wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fig2_sweep(size_step: int, batch: bool) -> None:
    """Every Fig. 2 curve (3 machines x k_it in {1, 1000} x 6 backends)."""
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.resolve import make_context, resolve_case
    from repro.suite.sweeps import problem_scaling, problem_sizes

    spec = get_scenario("fig2")
    sizes = problem_sizes(step=size_step)
    for machine in spec.machines:
        for k in spec.k_values:
            case = resolve_case(f"for_each_k{k}")
            for backend in spec.backends:
                problem_scaling(case, make_context(machine, backend), sizes,
                                batch=batch)


def measure_sweep(repeats: int = DEFAULT_REPEATS) -> dict:
    """Time the Fig. 2 sweep through the scalar and vectorized engines."""
    _fig2_sweep(8, batch=True)  # warm imports/caches off the clock
    scalar_s = _best_of(lambda: _fig2_sweep(SWEEP_SIZE_STEP, False), repeats)
    batch_s = _best_of(lambda: _fig2_sweep(SWEEP_SIZE_STEP, True), repeats)
    return {
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "batch_speedup": scalar_s / batch_s,
    }


def measure_campaign(repeats: int = DEFAULT_REPEATS) -> dict:
    """Time the Table 5 grid: cold scalar, cold wave, warm cache."""
    from repro.campaign import ResultStore, run_campaign
    from repro.scenarios import campaign_spec

    spec = campaign_spec("table5", {"size_exps": [CAMPAIGN_SIZE_EXP]})
    run_campaign(spec)  # warm imports/caches off the clock

    cold_scalar_s = _best_of(
        lambda: run_campaign(spec, store=ResultStore(None), batch=False),
        repeats,
    )
    cold_wave_s = _best_of(
        lambda: run_campaign(spec, store=ResultStore(None)), repeats
    )
    store = ResultStore(None)
    run_campaign(spec, store=store)  # populate the cache once
    warm_s = _best_of(lambda: run_campaign(spec, store=store), repeats)
    return {
        "cold_scalar_s": cold_scalar_s,
        "cold_wave_s": cold_wave_s,
        "warm_s": warm_s,
        "wave_speedup": cold_scalar_s / cold_wave_s,
        "cache_speedup": cold_wave_s / warm_s,
    }


def measure_service(repeats: int = DEFAULT_REPEATS,
                    submissions: int = 1000, concurrency: int = 64) -> dict:
    """Drive the loadgen SLO harness against an in-process daemon.

    One load run is already 1000 submissions, so ``repeats`` is ignored
    (a single run is the sample, not a timing to take the min of). The
    run must itself pass the SLOs -- a lost or corrupted campaign is a
    measurement *error*, not a data point to record.
    """
    import tempfile

    from repro.service import start_background
    from repro.service.loadgen import LoadgenConfig, assert_slo, run_loadgen

    del repeats  # one 1000-submission run is the sample
    with tempfile.TemporaryDirectory() as tmp:
        with start_background(Path(tmp) / "svc", concurrent=8) as svc:
            config = LoadgenConfig(submissions=submissions,
                                   concurrency=concurrency)
            report = run_loadgen(svc.base_url, config)
    assert_slo(report)
    return {
        "submissions": report.submissions,
        "campaigns": report.campaigns,
        "throughput_rps": report.throughput_rps,
        "submit_p50_ms": report.submit_p50_ms,
        "submit_p99_ms": report.submit_p99_ms,
        "request_overhead_ms": report.request_overhead_ms,
        "dedup_hit_rate": report.dedup_hit_rate,
        "completed_rate": report.completed_rate,
    }


#: Object counts for the store family (tag -> synthetic store size).
STORE_SIZES = {"10k": 10_000, "100k": 100_000}

#: Sampled index lookups per indexed-path measurement.
STORE_LOOKUPS = 64


def _build_store(root: Path, count: int, fingerprint: str):
    """Populate a fresh indexed store with ``count`` synthetic points."""
    from repro.campaign.spec import PointSpec
    from repro.campaign.store import ResultStore

    store = ResultStore(root, fingerprint=fingerprint)
    cases = ("for_each", "reduce", "scan", "transform_reduce", "sort", "find")
    keys = []
    for i in range(count):
        point = PointSpec(
            machine="A", backend="GCC-TBB", case=cases[i % len(cases)],
            size_exp=10 + (i // len(cases)) % 20, threads=1 + i,
        )
        keys.append(store.put(
            point, {"status": "done", "seconds": 1e-3 * (i + 1), "error": None},
            wall_ms=float(i % 97),
        ))
    return store, keys


def measure_store(repeats: int = DEFAULT_REPEATS) -> dict:
    """Cold full-tree scan vs indexed lookups at 10k/100k objects.

    ``cold_scan_s_*`` is the v1 O(all objects) path (open, parse and
    checksum every record); ``indexed_s_*`` is the v2 path on a fresh
    store handle: an index-backed full count plus :data:`STORE_LOOKUPS`
    key lookups, reading only the compacted shard snapshots.
    ``lookup_speedup_*`` is their ratio -- the ISSUE 8 acceptance bound
    gates the 100k one at >= 10x. ``compact_rows_per_s`` is the
    compaction pass folding the 100k freshly-appended log rows into
    snapshots.
    """
    import tempfile

    from repro.campaign.store import ResultStore

    fingerprint = "bench-store-v1"
    out: dict[str, float] = {}
    for tag, count in STORE_SIZES.items():
        with tempfile.TemporaryDirectory(prefix=f"bench_store_{tag}_") as tmp:
            root = Path(tmp) / "cache"
            store, keys = _build_store(root, count, fingerprint)
            t0 = time.perf_counter()
            report = store.compact()
            compact_s = time.perf_counter() - t0
            assert report.rows_kept == count, "compaction dropped live rows"
            sample = keys[:: max(1, count // STORE_LOOKUPS)]

            def cold_scan():
                scan = ResultStore(root, fingerprint=fingerprint).scan()
                assert scan.objects == count and scan.errors == 0

            def indexed():
                fresh = ResultStore(root, fingerprint=fingerprint)
                assert fresh.count_objects() == count
                for key in sample:
                    assert fresh.index.lookup(key) is not None

            cold_s = _best_of(cold_scan, repeats)
            indexed_s = _best_of(indexed, repeats)
            out[f"cold_scan_s_{tag}"] = cold_s
            out[f"indexed_s_{tag}"] = indexed_s
            out[f"lookup_speedup_{tag}"] = cold_s / indexed_s
            if tag == "100k":
                out["compact_rows_per_s"] = count / compact_s
    return out


#: Fleet size for the remote family (matches the distributed harness).
REMOTE_FLEET = 4

#: Rows per segment in the ship+ingest overhead micro-measurement.
REMOTE_SEGMENT_ROWS = 64

#: Campaign fanned out across the fleet (same shape as the distributed
#: bit-identity harness, small enough to finish in seconds).
REMOTE_SPEC = {
    "name": "bench-remote",
    "machines": ["A"],
    "backends": ["GCC-SEQ", "GCC-TBB", "GCC-GNU"],
    "cases": ["reduce", "transform", "sort", "find", "copy", "merge"],
    "size_exps": [10, 11],
    "threads": [2, 4],
}


def _ship_ingest_ms(root: Path, repeats: int) -> float:
    """Coordinator-side cost of one sealed segment, best-of ``repeats``.

    Each repetition is end to end on fresh state: append
    :data:`REMOTE_SEGMENT_ROWS` rows to a private segment, seal it
    (manifest publish), then verify + ingest into an empty indexed
    store through the segment ledger -- i.e. exactly the per-segment
    work the shipping protocol adds over local execution, minus the
    HTTP hop (measured separately by the fleet campaign's throughput).
    """
    from repro.campaign.spec import PointSpec
    from repro.campaign.store import ResultStore
    from repro.remote import SegmentIngestor, SegmentWriter
    from repro.remote.segment import result_row

    rows = [
        result_row(
            f"t{i}",
            PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=10 + i % 20, threads=1 + i).to_dict(),
            {"status": "done", "seconds": 1e-3 * (i + 1), "error": None},
        )
        for i in range(REMOTE_SEGMENT_ROWS)
    ]
    serial = iter(range(10_000))

    def one_segment():
        run = next(serial)
        writer = SegmentWriter(root / f"seg{run}", "bench", executor="ex-1",
                               epoch=1, wave="bench/w1")
        for row in rows:
            writer.append(row)
        manifest = writer.seal()
        store = ResultStore(root / f"cache{run}")
        ingestor = SegmentIngestor(store, root / f"ledger{run}.jsonl")
        report = ingestor.ingest(manifest, writer.rows())
        assert report.ingested == REMOTE_SEGMENT_ROWS, "ingest dropped rows"

    return _best_of(one_segment, repeats) * 1000.0


def measure_remote(repeats: int = DEFAULT_REPEATS) -> dict:
    """Fan a campaign across a 4-executor fleet; measure the protocol.

    The fleet campaign runs once (a multi-second end-to-end sample, not
    a timing to take the min of); ``repeats`` drives only the
    ship+ingest micro-measurement. The run must itself be correct --
    every offered wave completed remotely and the shared store holding
    exactly one live row per point -- before its numbers are recorded.
    """
    import tempfile
    import threading

    from repro.campaign.store import ResultStore
    from repro.remote import RemoteExecutor
    from repro.service import ServiceClient, start_background

    with tempfile.TemporaryDirectory(prefix="bench_remote_") as tmp:
        root = Path(tmp)
        with start_background(root / "svc", concurrent=2) as svc:
            executors = [
                RemoteExecutor(svc.base_url, root / f"ex{i}",
                               host=f"bench-host-{i}", poll=0.005)
                for i in range(REMOTE_FLEET)
            ]
            for executor in executors:
                executor.register()  # all live before the campaign starts
            stop = threading.Event()
            threads = [
                threading.Thread(
                    target=executor.run,
                    kwargs={"max_idle": 60.0, "should_stop": stop.is_set},
                    daemon=True)
                for executor in executors
            ]
            for thread in threads:
                thread.start()
            client = ServiceClient(svc.base_url, api_key="bench-remote")
            t0 = time.perf_counter()
            done = client.wait(client.submit(REMOTE_SPEC)["id"], timeout=120)
            wall_s = time.perf_counter() - t0
            assert done["state"] == "complete", done
            metrics = client.metrics()
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

        offered = metrics["service_remote_waves_offered"]
        completed = metrics["service_remote_waves_completed"]
        assert offered > 0, "no waves went remote -- fleet never engaged"
        remote_rows = sum(executor.rows for executor in executors)
        assert remote_rows > 0, "executors computed nothing"

        store = ResultStore(root / "svc" / "cache")
        superseded = store.compact().superseded
        live_rows = store.index.count() if store.index is not None else 0

        overhead_ms = _ship_ingest_ms(root / "micro", repeats)

    return {
        "fleet": REMOTE_FLEET,
        "remote_rows": remote_rows,
        "remote_wall_s": wall_s,
        "remote_completed_rate": completed / offered,
        "exactly_once_rate": live_rows / (live_rows + superseded),
        "scaleout_rows_per_s": remote_rows / wall_s,
        "ship_ingest_overhead_ms": overhead_ms,
    }


MEASURES = {"sweep": measure_sweep, "campaign": measure_campaign,
            "service": measure_service, "store": measure_store,
            "remote": measure_remote}


def current_commit() -> str:
    """The HEAD SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_trajectory(path: Path, benchmark: str) -> dict:
    """Parse and validate one ledger; a missing file is an empty ledger."""
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "benchmark": benchmark, "entries": []}
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TrajectoryError(
            f"{path.name}: not valid JSON ({exc}); fix or delete the file "
            f"and re-run 'bench_trajectory.py run'"
        ) from None
    validate_trajectory(data, benchmark, name=path.name)
    return data


def validate_trajectory(data, benchmark: str, *, name: str = "trajectory") -> None:
    """Raise :class:`TrajectoryError` unless ``data`` matches the schema."""
    if not isinstance(data, dict):
        raise TrajectoryError(f"{name}: top level must be an object, "
                              f"got {type(data).__name__}")
    if data.get("schema") != SCHEMA_VERSION:
        raise TrajectoryError(
            f"{name}: unsupported schema {data.get('schema')!r} "
            f"(this tool writes schema {SCHEMA_VERSION})"
        )
    if data.get("benchmark") != benchmark:
        raise TrajectoryError(
            f"{name}: benchmark is {data.get('benchmark')!r}, "
            f"expected {benchmark!r}"
        )
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise TrajectoryError(f"{name}: 'entries' must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise TrajectoryError(f"{name}: entries[{i}] must be an object")
        for key in ("commit", "recorded", "metrics"):
            if key not in entry:
                raise TrajectoryError(
                    f"{name}: entries[{i}] is missing {key!r}"
                )
        metrics = entry["metrics"]
        if not isinstance(metrics, dict):
            raise TrajectoryError(f"{name}: entries[{i}].metrics must be "
                                  f"an object")
        for metric in (*GATES[benchmark], *CEILINGS[benchmark]):
            if metric not in metrics:
                continue  # recorded before the metric existed
            value = metrics.get(metric)
            if not isinstance(value, (int, float)):
                raise TrajectoryError(
                    f"{name}: entries[{i}].metrics.{metric} must be a "
                    f"number, got {value!r}"
                )


def append_entry(path: Path, benchmark: str, metrics: dict,
                 commit: str, recorded: str) -> dict:
    """Append (or replace, for a repeated commit) one trajectory entry."""
    data = load_trajectory(path, benchmark)
    entries = [e for e in data["entries"] if e["commit"] != commit]
    entries.append({"commit": commit, "recorded": recorded,
                    "metrics": metrics})
    data["entries"] = entries
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def check_trajectory(path: Path, benchmark: str) -> list[str]:
    """Validate one ledger and enforce floors + the regression rule.

    Returns human-readable OK lines; raises :class:`GateError` on any
    violation and :class:`TrajectoryError` on a malformed file (a
    missing or empty ledger is also a gate failure: the PR forgot to
    run the trajectory).
    """
    data = load_trajectory(path, benchmark)
    entries = data["entries"]
    if not entries:
        raise GateError(
            f"{path.name}: no entries -- run "
            f"'python tools/bench_trajectory.py run --benchmark {benchmark}'"
        )
    last = entries[-1]
    prev = entries[-2]["metrics"] if len(entries) > 1 else {}
    prev_commit = entries[-2]["commit"][:12] if len(entries) > 1 else ""
    lines = []
    missing = [m for m in (*GATES[benchmark], *CEILINGS[benchmark])
               if m not in last["metrics"]]
    if missing:
        raise TrajectoryError(
            f"{path.name}: newest entry is missing gated metric(s) "
            f"{', '.join(missing)}"
        )
    for metric, floor in GATES[benchmark].items():
        value = last["metrics"][metric]
        if value < floor:
            raise GateError(
                f"{path.name}: {metric} = {value:.3f} is below the "
                f"floor {floor:.3f} (commit {last['commit'][:12]})"
            )
        if metric in prev:
            baseline = prev[metric]
            allowed = baseline * (1.0 - REGRESSION_TOLERANCE)
            if value < allowed:
                raise GateError(
                    f"{path.name}: {metric} regressed {value:.3f} < "
                    f"{allowed:.3f} (= {baseline:.3f} from commit "
                    f"{prev_commit} minus "
                    f"{REGRESSION_TOLERANCE:.0%} tolerance)"
                )
            lines.append(f"{path.name}: {metric} = {value:.3f} "
                         f"(floor {floor}, prev {baseline:.3f})")
        else:
            lines.append(f"{path.name}: {metric} = {value:.3f} "
                         f"(floor {floor}, first value)")
    for metric, ceiling in CEILINGS[benchmark].items():
        value = last["metrics"][metric]
        if value > ceiling:
            raise GateError(
                f"{path.name}: {metric} = {value:.3f} is over the "
                f"ceiling {ceiling:.3f} (commit {last['commit'][:12]})"
            )
        if metric in prev:
            baseline = prev[metric]
            allowed = baseline * (1.0 + REGRESSION_TOLERANCE)
            if value > allowed:
                raise GateError(
                    f"{path.name}: {metric} regressed {value:.3f} > "
                    f"{allowed:.3f} (= {baseline:.3f} from commit "
                    f"{prev_commit} plus "
                    f"{REGRESSION_TOLERANCE:.0%} tolerance)"
                )
            lines.append(f"{path.name}: {metric} = {value:.3f} "
                         f"(ceiling {ceiling}, prev {baseline:.3f})")
        else:
            lines.append(f"{path.name}: {metric} = {value:.3f} "
                         f"(ceiling {ceiling}, first value)")
    return lines


def _cmd_run(args) -> int:
    root = Path(args.root)
    families = list(TRAJECTORY_FILES) if args.benchmark == "all" \
        else [args.benchmark]
    commit = args.commit or current_commit()
    recorded = args.recorded or datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    for family in families:
        print(f"[{family}] measuring (best of {args.repeats})...", flush=True)
        metrics = MEASURES[family](repeats=args.repeats)
        path = root / TRAJECTORY_FILES[family]
        append_entry(path, family, metrics, commit, recorded)
        rendered = ", ".join(f"{k}={v:.4g}" for k, v in sorted(metrics.items()))
        print(f"[{family}] {path.name} @ {commit[:12]}: {rendered}")
    return 0


def _cmd_check(args) -> int:
    root = Path(args.root)
    try:
        for family, name in TRAJECTORY_FILES.items():
            for line in check_trajectory(root / name, family):
                print(line)
    except TrajectoryError as exc:
        print(f"MALFORMED: {exc}", file=sys.stderr)
        return 2
    except GateError as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        return 1
    print("benchmark trajectory OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure, append, and gate the benchmark trajectory "
                    "(BENCH_SWEEP.json / BENCH_CAMPAIGN.json)."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="measure and append one entry per "
                                       "family (idempotent per commit)")
    run_p.add_argument("--benchmark", choices=("all", *TRAJECTORY_FILES),
                       default="all")
    run_p.add_argument("--commit", default=None,
                       help="entry key (default: git HEAD SHA)")
    run_p.add_argument("--recorded", default=None,
                       help="ISO timestamp (default: now, UTC)")
    run_p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                       help="wall-clock repetitions; the min is recorded")
    run_p.add_argument("--root", default=str(REPO_ROOT),
                       help="directory holding the BENCH_*.json ledgers")
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("check", help="validate both ledgers and "
                                           "enforce floors + regression rule")
    check_p.add_argument("--root", default=str(REPO_ROOT))
    check_p.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
