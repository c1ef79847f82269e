"""Append-and-gate harness for the repo's benchmark trajectory.

Performance work in this repo is tracked as a *trajectory*: every PR
appends one entry per benchmark family to a committed JSON ledger, and
CI fails if the newest entry regresses more than 10% against the
previous one or falls below an absolute floor. Two families live at the
repo root (schema documented in ``docs/PERFORMANCE.md``):

``BENCH_SWEEP.json``
    The Fig. 2 problem-size sweep: each point's profile costed one at a
    time on the scalar reference engine (``simulate_cpu`` on its
    ``arrays_to_profile`` view, called directly) vs. each curve as one
    fused wave (``problem_scaling``). The reference is a fixed
    yardstick no product path runs, so a slower wave engine or a lost
    fusion shows as a lower ratio. Metrics: ``reference_s``,
    ``fused_s``, ``reference_speedup`` (floor: :data:`GATES`,
    currently >= 5.0). (Older entries recorded ``scalar_s``,
    ``batch_s`` and ``batch_speedup``, whose scalar side ran through
    the harness and predates a faster profile conversion; a metric
    absent from the previous entry starts a new series instead of being
    compared.)

``BENCH_CAMPAIGN.json``
    The Table 5 campaign grid: its runnable points costed one at a
    time on the scalar reference engine vs. a cold wave-fused campaign
    vs. a warm cache. Metrics: ``cold_reference_s``, ``cold_wave_s``,
    ``warm_s``, ``cold_reference_speedup`` = cold_reference/cold_wave
    (floor >= 5.0), and ``cache_speedup`` = cold_wave/warm (floor >=
    5.0). The warm run
    still pays planning and one store lookup per point, so its ratio
    against the already-fast wave engine sits near 9x on the reference
    host; the floor leaves headroom below that, and the regression rule
    does the real work. (Older entries recorded ``wave_over_batch`` and
    ``warm_speedup`` against the retired per-curve batch tier, then
    ``cold_scalar_s`` and ``wave_speedup`` against the scalar engine
    behind ``run_campaign(batch=False)``.)

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
    ``docs/DISTRIBUTION.md``): in each of :data:`REMOTE_ROUNDS`
    interleaved rounds, one in-process daemon runs a campaign alone,
    another fans the same campaign out across a 4-executor fleet, and
    one segment is shipped into a live store. Floors:
    ``remote_completed_rate`` (waves completed remotely / waves
    offered) and ``exactly_once_rate`` (live index rows / (live +
    superseded) after ingest) must both be exactly 1.0 -- a fleet that
    loses waves or double-lands rows is a correctness failure, not a
    slow run. Ceilings, generous in absolute terms with the regression
    rule doing the real work: ``fleet_slowdown``, the median per-round
    ratio of the fleet campaign's wall to the local one's, and
    ``segment_ingest_over_put``, the median per-round ratio of one
    sealed :data:`REMOTE_SEGMENT_ROWS`-row segment's CPU (append + seal
    + manifest verify + ledger/index ingest) to a plain ``put_many`` of
    as many rows. The walls, ``fleet_rows_per_s`` and both segment
    sides in milliseconds ride along for trend-reading. (Older entries
    recorded ``scaleout_rows_per_s`` and ``ship_ingest_overhead_ms``,
    single wall-clock samples that moved by 3x between runs on one
    tree.)

Floor gating compares *dimensionless ratios* (speedups, hit rates),
never wall seconds, so those gates are stable across CI hardware of
different absolute speeds; the raw seconds are recorded alongside for
human trend-reading. The one wall-clock gate -- the service p99
ceiling -- is deliberately generous in absolute terms for the same
reason, with the adjacent-entry regression rule doing the real work.

Usage::

    python tools/bench_trajectory.py run [--benchmark all|sweep|campaign|service]
    python tools/bench_trajectory.py check

``run`` measures (best-of-N wall clock, N=3; the sweep, campaign and
remote families instead take medians over :data:`FAMILY_ROUNDS`
interleaved rounds) and appends one entry keyed by the
current commit SHA -- re-running on the same commit
replaces that commit's entry instead of duplicating it, so the append
is idempotent per commit. ``check`` validates every ledger against the
schema (malformed files are a hard error with a pointed message, not a
silent skip) and enforces the floors plus the 10% regression rule. It
checks every family and prints every violation before it exits.
Exit codes: 0 OK, 1 gate failure, 2 malformed trajectory file (either
alongside gate failures or alone).
"""

from __future__ import annotations

import argparse
import json
import statistics
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
    "sweep": {"reference_speedup": 5.0},
    "campaign": {"cold_reference_speedup": 5.0, "cache_speedup": 5.0},
    "service": {"dedup_hit_rate": 1.0, "completed_rate": 1.0},
    "store": {"lookup_speedup_100k": 10.0},
    "remote": {"remote_completed_rate": 1.0, "exactly_once_rate": 1.0},
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
    "remote": {"fleet_slowdown": 20.0, "segment_ingest_over_put": 20.0},
}

#: Newest entry may lose at most this fraction vs. the previous entry.
REGRESSION_TOLERANCE = 0.10

#: Wall-clock measurements take the min over this many repetitions.
DEFAULT_REPEATS = 3

#: Interleaved rounds for the sweep and campaign families. Their ratios
#: divide sub-second timings, so they take the median of per-round
#: ratios, which keeps a fresh entry within the regression tolerance of
#: the last one on an unchanged tree (see docs/PERFORMANCE.md).
RATIO_ROUNDS = 15

#: Interleaved rounds for the remote family: a fleet campaign is a
#: tenth of a second of threads and loopback HTTP, and its wall moved by
#: 2x between stretches of host load, so it takes more rounds.
REMOTE_ROUNDS = 31

#: Default rounds of the families measured in interleaved rounds; the
#: others take :data:`DEFAULT_REPEATS`.
FAMILY_ROUNDS = {"sweep": RATIO_ROUNDS, "campaign": RATIO_ROUNDS,
                 "remote": REMOTE_ROUNDS}

#: Problem-size exponent for the campaign family.
CAMPAIGN_SIZE_EXP = 26

#: Size stride for the sweep family (every other Fig. 2 problem size:
#: the full reference sweep is accurate but slow for a per-PR gate).
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


def _rounds(fns, repeats: int) -> list[list[float]]:
    """CPU seconds of each of ``fns`` over ``repeats`` interleaved rounds.

    Each round runs every function once, in turn, so the sides of a
    ratio sample the same stretch of host load; the clock is this
    process's CPU time, which leaves out time the host gives to other
    tenants.
    """
    times: list[list[float]] = [[] for _ in fns]
    for _ in range(max(1, repeats)):
        for fn, samples in zip(fns, times):
            t0 = time.process_time()
            fn()
            samples.append(time.process_time() - t0)
    return times


def _median_ratio(numerator: list[float], denominator: list[float]) -> float:
    """Median over rounds of one side's seconds over the other's."""
    return statistics.median(a / b for a, b in zip(numerator, denominator))


def _reference_point(case, ctx, n: int) -> None:
    """Cost one point on the scalar reference engine, called directly.

    Builds the profile the harness builds and costs its
    ``arrays_to_profile`` view with ``simulate_cpu``, which no product
    path runs; a capability gap (an N/A cell) costs nothing.
    """
    from repro.errors import UnsupportedOperationError
    from repro.sim.engine import arrays_to_profile, simulate_cpu

    try:
        profile = case.profile(ctx, n)
    except UnsupportedOperationError:
        return
    simulate_cpu(ctx.machine, ctx.backend, arrays_to_profile(profile))


def _fig2_sweep(size_step: int, fused: bool) -> None:
    """Every Fig. 2 curve (3 machines x k_it in {1, 1000} x 6 backends),
    each one fused wave, or its points one at a time on the reference
    engine."""
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.resolve import make_context, resolve_case
    from repro.suite.sweeps import problem_scaling, problem_sizes

    spec = get_scenario("fig2")
    sizes = problem_sizes(step=size_step)
    for machine in spec.machines:
        for k in spec.k_values:
            case = resolve_case(f"for_each_k{k}")
            for backend in spec.backends:
                ctx = make_context(machine, backend)
                if fused:
                    problem_scaling(case, ctx, sizes)
                else:
                    for n in sizes:
                        _reference_point(case, ctx, n)


def measure_sweep(repeats: int = RATIO_ROUNDS) -> dict:
    """Time the Fig. 2 sweep on the reference engine and as fused curves."""
    _fig2_sweep(8, fused=True)  # warm imports/caches off the clock
    reference, fused = _rounds(
        [lambda: _fig2_sweep(SWEEP_SIZE_STEP, False),
         lambda: _fig2_sweep(SWEEP_SIZE_STEP, True)], repeats)
    return {
        "reference_s": min(reference),
        "fused_s": min(fused),
        "reference_speedup": _median_ratio(reference, fused),
    }


def measure_campaign(repeats: int = RATIO_ROUNDS) -> dict:
    """Time the Table 5 grid: cold reference, cold wave, warm cache."""
    from repro.campaign import ResultStore, run_campaign
    from repro.campaign.executor import point_context
    from repro.campaign.plan import plan_campaign
    from repro.campaign.spec import PointSpec
    from repro.scenarios import campaign_spec
    from repro.suite.cases import get_case

    spec = campaign_spec("table5", {"size_exps": [CAMPAIGN_SIZE_EXP]})
    run_campaign(spec)  # warm imports/caches off the clock
    payloads = [task.point.to_dict() for task in plan_campaign(spec).runnable]
    store = ResultStore(None)
    run_campaign(spec, store=store)  # populate the cache once

    def cold_reference():
        for payload in payloads:
            point = PointSpec.from_dict(payload)
            _reference_point(get_case(point.case), point_context(point),
                             point.n)

    reference, cold, warm = _rounds(
        [cold_reference,
         lambda: run_campaign(spec, store=ResultStore(None)),
         lambda: run_campaign(spec, store=store)], repeats)
    return {
        "cold_reference_s": min(reference),
        "cold_wave_s": min(cold),
        "warm_s": min(warm),
        "cold_reference_speedup": _median_ratio(reference, cold),
        "cache_speedup": _median_ratio(cold, warm),
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


def _segment_rows(k: int, machine: str) -> list[dict]:
    """:data:`REMOTE_SEGMENT_ROWS` result rows, distinct for every ``k``."""
    from repro.campaign.spec import PointSpec
    from repro.remote.segment import result_row

    return [
        result_row(
            f"t{k}-{i}",
            PointSpec(machine=machine, backend="GCC-TBB", case="reduce",
                      size_exp=10 + i % 20,
                      threads=1 + i + k * REMOTE_SEGMENT_ROWS).to_dict(),
            {"status": "done", "seconds": 1e-3 * (i + 1), "error": None},
        )
        for i in range(REMOTE_SEGMENT_ROWS)
    ]


def _segment_ingest_s(ingestor, k: int) -> tuple[float, float]:
    """CPU seconds of shipping segment ``k``, and of storing as many rows.

    The first is one segment's seal, verify and ingest: the rows sealed
    in memory (as a remote executor seals each wave), then verified and
    ingested through ``ingestor`` into its store, deduplicated against
    its index -- the per-segment work the shipping protocol adds over
    local execution, minus the HTTP hop (which the fleet campaigns
    carry). The second is a plain ``put_many`` of as many other fresh
    rows into the same store, the write a local run makes for them.
    The store is long-lived, as a daemon's is, so neither creates a
    fresh store's shard logs. The clock is this process's CPU time (the
    caller runs no other thread meanwhile). On the 2-vCPU reference
    host either side alone moved by 15% between runs on one tree, with
    the host's load, while their ratio moved by 1%.
    """
    from repro.campaign.spec import PointSpec
    from repro.remote import seal

    store = ingestor.store
    puts = []
    for row in _segment_rows(k, "B"):
        point = PointSpec.from_dict(row["point"])
        puts.append((store.key_for(point), point, row["result"], None))
    rows = _segment_rows(k, "A")
    before = ingestor.report.ingested
    t0 = time.process_time()
    manifest = seal(rows, segment=f"bench-w{k}-e1", executor="ex-1",
                    epoch=1, wave=f"bench/w{k}")
    report = ingestor.ingest(manifest, rows)
    t1 = time.process_time()
    store.put_many(puts)
    t2 = time.process_time()
    assert report.ingested - before == REMOTE_SEGMENT_ROWS, \
        "ingest dropped rows"
    return t1 - t0, t2 - t1


def _service_campaign(root: Path, fleet: int) -> dict:
    """Run :data:`REMOTE_SPEC` once on a fresh daemon under ``root``.

    ``fleet`` executor threads serve its waves; with none, the daemon
    runs the campaign itself. Returns the campaign's wall seconds on
    the daemon's clock (submission to finish, so client polling does
    not quantise it), the rows the executors computed, the waves the
    registry offered and completed, and the store's live and superseded
    index rows after ingest. The campaign must complete.
    """
    import threading

    from repro.campaign.store import ResultStore
    from repro.remote import RemoteExecutor
    from repro.service import ServiceClient, start_background

    with start_background(root / "svc", concurrent=2) as svc:
        executors = [
            RemoteExecutor(svc.base_url, host=f"bench-host-{i}", poll=0.005)
            for i in range(fleet)
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
        done = client.wait(client.submit(REMOTE_SPEC)["id"], timeout=120)
        assert done["state"] == "complete", done
        record = svc.daemon.service.records[done["id"]]
        while record.finished_at is None:  # set just after the state
            time.sleep(0.001)
        metrics = client.metrics()
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
    store = ResultStore(root / "svc" / "cache")
    superseded = store.compact().superseded
    return {
        "wall_s": record.finished_at - record.submitted_at,
        "rows": sum(executor.rows for executor in executors),
        "offered": metrics["service_remote_waves_offered"],
        "completed": metrics["service_remote_waves_completed"],
        "live": store.index.count() if store.index is not None else 0,
        "superseded": superseded,
    }


def measure_remote(repeats: int = REMOTE_ROUNDS) -> dict:
    """Fan a campaign across a 4-executor fleet; measure the protocol.

    Each of ``repeats`` rounds, after one warm-up round off the clock,
    runs :data:`REMOTE_SPEC` on a fresh daemon alone, then on a fresh
    daemon with the fleet, then ships one segment and stores as many
    rows (:func:`_segment_ingest_s`). The sides of each ratio share one
    stretch of host load, which moved a fleet campaign of about 0.1 s
    by 2x within a minute on the 2-vCPU reference host; the entry
    records the median per-round ratios. (Older entries recorded
    ``scaleout_rows_per_s`` from one fleet campaign timed at the
    client's 50 ms status polls, which read 337-1,080 rows/s on one
    tree, and ``ship_ingest_overhead_ms`` into a fresh store.) Every
    fleet run must be correct -- every offered wave completed remotely
    and each store holding exactly one live row per point -- before its
    numbers are recorded.
    """
    import tempfile

    from repro.campaign.store import ResultStore
    from repro.remote import SegmentIngestor

    with tempfile.TemporaryDirectory(prefix="bench_remote_") as tmp:
        root = Path(tmp)
        ingestor = SegmentIngestor(ResultStore(root / "micro" / "cache"))
        _service_campaign(root / "warmup-local", 0)
        _service_campaign(root / "warmup-fleet", REMOTE_FLEET)
        _segment_ingest_s(ingestor, 0)
        local, fleet, segments, puts = [], [], [], []
        for k in range(1, max(1, repeats) + 1):
            local.append(_service_campaign(root / f"local{k}", 0))
            fleet.append(_service_campaign(root / f"fleet{k}", REMOTE_FLEET))
            segment_s, put_s = _segment_ingest_s(ingestor, k)
            segments.append(segment_s)
            puts.append(put_s)

    offered = sum(run["offered"] for run in fleet)
    assert offered > 0, "no waves went remote -- fleet never engaged"
    assert all(run["rows"] > 0 for run in fleet), "executors computed nothing"
    live = sum(run["live"] for run in fleet)
    return {
        "fleet": REMOTE_FLEET,
        "fleet_rounds": len(fleet),
        "fleet_rows": statistics.median(run["rows"] for run in fleet),
        "fleet_wall_s": statistics.median(run["wall_s"] for run in fleet),
        "local_wall_s": statistics.median(run["wall_s"] for run in local),
        "remote_completed_rate":
            sum(run["completed"] for run in fleet) / offered,
        "exactly_once_rate":
            live / (live + sum(run["superseded"] for run in fleet)),
        "fleet_rows_per_s": statistics.median(
            run["rows"] / run["wall_s"] for run in fleet),
        "segment_ingest_ms": statistics.median(segments) * 1000.0,
        "segment_put_ms": statistics.median(puts) * 1000.0,
        "fleet_slowdown": _median_ratio(
            [run["wall_s"] for run in fleet],
            [run["wall_s"] for run in local]),
        "segment_ingest_over_put": _median_ratio(segments, puts),
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
        for metric, value in metrics.items():
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

    Returns human-readable OK lines; raises :class:`GateError` naming
    every violated gate of the family (one per line) and
    :class:`TrajectoryError` on a malformed file (a missing or empty
    ledger is also a gate failure: the PR forgot to run the trajectory).
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
    lines: list[str] = []
    failures: list[str] = []
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
            failures.append(
                f"{path.name}: {metric} = {value:.3f} is below the "
                f"floor {floor:.3f} (commit {last['commit'][:12]})"
            )
        if metric in prev:
            baseline = prev[metric]
            allowed = baseline * (1.0 - REGRESSION_TOLERANCE)
            if value < allowed:
                failures.append(
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
            failures.append(
                f"{path.name}: {metric} = {value:.3f} is over the "
                f"ceiling {ceiling:.3f} (commit {last['commit'][:12]})"
            )
        if metric in prev:
            baseline = prev[metric]
            allowed = baseline * (1.0 + REGRESSION_TOLERANCE)
            if value > allowed:
                failures.append(
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
    if failures:
        raise GateError("\n".join(failures))
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
        repeats = args.repeats
        if repeats is None:
            repeats = FAMILY_ROUNDS.get(family, DEFAULT_REPEATS)
        print(f"[{family}] measuring ({repeats} repeats)...", flush=True)
        metrics = MEASURES[family](repeats=repeats)
        path = root / TRAJECTORY_FILES[family]
        append_entry(path, family, metrics, commit, recorded)
        rendered = ", ".join(f"{k}={v:.4g}" for k, v in sorted(metrics.items()))
        print(f"[{family}] {path.name} @ {commit[:12]}: {rendered}")
    return 0


def _cmd_check(args) -> int:
    """Check every family and print every violation: exit 2 if any ledger
    is malformed, else 1 if any gate failed, else 0."""
    root = Path(args.root)
    malformed = failed = False
    for family, name in TRAJECTORY_FILES.items():
        try:
            for line in check_trajectory(root / name, family):
                print(line)
        except TrajectoryError as exc:
            print(f"MALFORMED: {exc}", file=sys.stderr)
            malformed = True
        except GateError as exc:
            for violation in str(exc).splitlines():
                print(f"GATE FAILED: {violation}", file=sys.stderr)
            failed = True
    if malformed:
        return 2
    if failed:
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
    run_p.add_argument("--repeats", type=int, default=None,
                       help="repetitions per measurement, or interleaved "
                            "rounds for the sweep and campaign families "
                            "(default: each family's own)")
    run_p.add_argument("--root", default=str(REPO_ROOT),
                       help="directory holding the BENCH_*.json ledgers")
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("check", help="validate every ledger and "
                                           "enforce floors + regression rule")
    check_p.add_argument("--root", default=str(REPO_ROOT))
    check_p.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
