"""The four pipeline workloads: seeded inputs, timed closed loops, gates.

========================  ==================================================
``paper-suite``           every registered scenario, seeded order, one
                          fresh ``python`` process and store per pass
``grid-cold``             one seeded user grid (machines A/B/C x 5 study
                          backends x 33 cases x 2 sizes x 4 thread counts)
                          into an empty campaign directory, per unit
``grid-warm``             the same shape, pre-filled in set-up; timed
                          passes are pure cache hits
``service-fleet``         a ``pstl-service`` daemon plus 2 ``pstl-executor``
                          processes; 2 closed-loop clients submit a seeded
                          cold/warm/dup schedule
========================  ==================================================

Every workload is a closed loop driven from this one process: each
caller waits for its result before it sends the next request, with at
most two client threads. The seed picks every input (grid axes, scenario
order, submission schedule); the program only ever sees those inputs.

A workload runs ``setup()`` (timed into ``setup_samples``), then
``measure()`` -- units of work until ``seconds`` have passed and at
least ``min_units`` are done -- then ``close()`` and ``check()``. The
correctness gates in ``check()`` (and the cheap per-unit checks) run
outside the timed regions; every failure is counted in ``failed``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.campaign as campaign
from repro.backends import PARALLEL_CPU_BACKENDS
from repro.campaign import CampaignSpec, PointSpec, ResultStore, execute_point
from repro.campaign.store import DONE, FAILED
from repro.errors import QuotaExceededError, ServiceError
from repro.scenarios import scenario_names
from repro.service.client import ServiceClient
from repro.suite.batch import BATCH_CASES
from repro.suite.cases import case_names

import launch
import tracing

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
GOLDEN = HERE / "golden.json"

#: Points re-costed through the scalar path per grid-cold / service run.
SAMPLE_POINTS = 64


def _rng(seed: int, purpose: str) -> random.Random:
    """A generator for one input of one seed (string seeding is stable)."""
    return random.Random(f"pipeline:{seed}:{purpose}")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


@dataclass(frozen=True)
class GridShape:
    """The axes a seeded campaign grid draws from.

    Sizes and thread counts come from the range where one scalar point
    costs about the same (~0.3 ms): above 2^19 elements or 8 threads the
    cost climbs, and for GCC-HPX it grows with n (its chunk count does),
    so a 2^30 grid takes ~65 s against ~4 s here. Drawing from the whole
    range would make the amount of work a function of the seed.
    """

    machines: tuple[str, ...] = ("A", "B", "C")
    backends: tuple[str, ...] = PARALLEL_CPU_BACKENDS
    cases: tuple[str, ...] = tuple(case_names())
    size_exps: tuple[int, ...] = (16, 17, 18, 19)
    size_count: int = 2
    thread_choices: tuple[int, ...] = (1, 2, 4, 6, 8)
    thread_count: int = 4


@dataclass(frozen=True)
class FleetShape:
    """The service workload's grid axes, client count and schedule length.

    A cold grid is one machine x backend x size pair x thread set over the
    batch cases. Size pairs and thread sets are seeded *partitions* of
    ``size_exps`` and ``thread_pool``, so no two cold grids share a point
    (grids that did would turn later "cold" submissions into cache hits):
    2 machines x 5 backends x 5 pairs x 6 sets = 300 cold grids per client.
    Sizes stop at 2^20: executors memoize one array profile per point, and
    GCC-HPX profiles grow with n, so larger sizes make the fleet's memory
    grow with the number of grids a run gets through.
    """

    machines: tuple[str, ...] = ("A", "B", "C", "arm")
    backends: tuple[str, ...] = PARALLEL_CPU_BACKENDS
    cases: tuple[str, ...] = BATCH_CASES
    size_exps: tuple[int, ...] = tuple(range(10, 21))
    thread_pool: tuple[int, ...] = tuple(range(1, 31))
    threads_per_grid: int = 5
    warmup_threads: int = 32
    clients: int = 2
    length: int = 800


def suite_order(seed: int, index: int, names: tuple[str, ...]) -> list[str]:
    """The scenario order of pass ``index``."""
    order = list(names)
    _rng(seed, f"suite:{index}").shuffle(order)
    return order


def grid_spec(seed: int, shape: GridShape, name: str, purpose: str) -> CampaignSpec:
    """A seeded grid: ``size_count`` sizes and ``thread_count`` thread counts."""
    rng = _rng(seed, purpose)
    return CampaignSpec(
        name=name, machines=shape.machines, backends=shape.backends,
        cases=shape.cases,
        size_exps=tuple(sorted(rng.sample(shape.size_exps, shape.size_count))),
        threads=tuple(sorted(rng.sample(shape.thread_choices, shape.thread_count))),
    )


@dataclass(frozen=True)
class Submission:
    """One scheduled service request; ``ref`` is the repeated entry's index."""

    kind: str
    payload: dict
    ref: int | None = None


def _partition(rng: random.Random, values: tuple[int, ...], size: int) -> list[tuple]:
    """Disjoint sorted groups of ``size`` drawn from a shuffle of ``values``."""
    pool = list(values)
    rng.shuffle(pool)
    return [tuple(sorted(pool[i:i + size])) for i in range(0, len(pool) - size + 1, size)]


def service_schedule(seed: int, shape: FleetShape) -> list[list[Submission]]:
    """Per-client submission lists: 50% cold, 25% warm, 25% dup.

    A warm entry re-submits an earlier cold grid of the same client under
    a new name (all cache hits), a dup re-sends an earlier payload
    verbatim (same campaign id). Kinds come in shuffled blocks of four,
    so every prefix of a schedule -- however far a run gets -- holds the
    same mix. Client ``k`` only draws the machines ``machines[k::clients]``,
    so the two clients' grids never share a point either.
    """
    schedule = []
    for client in range(shape.clients):
        rng = _rng(seed, f"fleet:{client}")
        grids = list(itertools.product(
            shape.machines[client::shape.clients], shape.backends,
            _partition(rng, shape.size_exps, 2),
            _partition(rng, shape.thread_pool, shape.threads_per_grid)))
        rng.shuffle(grids)
        kinds: list[str] = []
        while len(kinds) < shape.length:
            block = ["cold", "cold", "warm", "dup"]
            rng.shuffle(block)
            kinds += block
        first = kinds.index("cold")  # something to repeat must come first
        kinds[0], kinds[first] = kinds[first], kinds[0]
        entries: list[Submission] = []
        colds: list[int] = []
        for i, kind in enumerate(kinds[:shape.length]):
            if kind == "cold":
                if not grids:
                    break
                machine, backend, sizes, threads = grids.pop()
                payload = CampaignSpec(
                    name=f"cold-{seed}-{client}-{i}", machines=(machine,),
                    backends=(backend,), cases=shape.cases, size_exps=sizes,
                    threads=threads,
                ).to_dict()
                colds.append(i)
                entries.append(Submission("cold", payload))
            elif kind == "warm":
                ref = rng.choice(colds)
                payload = dict(entries[ref].payload, name=f"warm-{seed}-{client}-{i}")
                entries.append(Submission("warm", payload, ref))
            else:
                ref = rng.randrange(len(entries))
                entries.append(Submission("dup", entries[ref].payload, ref))
        schedule.append(entries)
    return schedule


def fleet_warmup(shape: FleetShape) -> dict:
    """The warm-up campaign: a thread count no schedule ever draws.

    It computes every sequential baseline a cold grid can share
    (machine x case x size), so each timed cold submission is one wave
    of fresh points rather than slower while baselines are still new.
    """
    return CampaignSpec(
        name="warmup", machines=shape.machines, backends=shape.backends[:1],
        cases=shape.cases, size_exps=shape.size_exps,
        threads=(shape.warmup_threads,),
    ).to_dict()


@dataclass
class Measured:
    """One timed phase: work items done, timed wall, per-unit latencies."""

    items: int = 0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)
    counters: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def items_per_s(self) -> float:
        """Work items per timed second."""
        return self.items / self.wall_s if self.wall_s > 0 else 0.0


class TraceSession:
    """Where one traced run's spans come from: this process and children."""

    def __init__(self, directory: Path) -> None:
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        for stale in self.dir.glob("spans-*.json"):
            stale.unlink()
        self.files: list[Path] = []
        self.local: tracing.Recorder | None = None
        self.spans: list[tracing.Span] = []
        self._serial = itertools.count()

    def env(self, role: str) -> dict[str, str]:
        """Environment for a child that must record its spans."""
        path = self.dir / f"spans-{role}-{next(self._serial)}.json"
        self.files.append(path)
        return {**os.environ, launch.TRACE_ENV: str(path)}

    def start(self) -> None:
        """Install the wrappers in this process."""
        self.local = tracing.install("bench")

    def stop(self) -> None:
        """Remove the wrappers from this process, keeping its spans."""
        if self.local is not None:
            self.local.uninstall()
            self.spans.extend(self.local.spans)
            self.local = None

    def collect(self) -> tuple[list[tracing.Span], dict[int, str]]:
        """Every span recorded so far, plus pid -> role; removes the dumps."""
        self.stop()
        spans, roles = tracing.load_spans(p for p in self.files if p.exists())
        for path in self.files:
            path.unlink(missing_ok=True)
        roles[os.getpid()] = "bench"
        return spans + self.spans, roles


def _spawn(args: list[str], env: dict | None = None, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(LAUNCH), *args], env=env, **kwargs)


def run_child(args: list[str], env: dict | None = None,
            timeout: float = 120.0) -> tuple[dict | None, str]:
    """Run a reporting child (probe / suite-pass): (last-line JSON, stderr)."""
    proc = _spawn(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                  text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, f"timed out after {timeout:g}s\n{err}"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, err
    return json.loads(lines[-1]), err


class Workload:
    """Shared life cycle; subclasses fill in setup/measure/check."""

    name = ""
    min_units = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.units = 0

    def fail(self, message: str) -> None:
        """Count one failed operation (kept for the report)."""
        self.failures.append(message)

    def probe_setup(self, count: int = 3) -> None:
        """Time ``count`` cold starts: python + campaign imports + store open."""
        for i in range(count):
            store = self.work / f"probe-{i}"
            doc, err = run_child(["probe", "--store", str(store),
                                "--spawned-at", repr(time.perf_counter())])
            if doc is None:
                raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
            self.setup_samples.append(doc["setup_s"])
            shutil.rmtree(store, ignore_errors=True)

    def setup(self, session: TraceSession | None = None) -> None:
        """Prepare inputs; appends to ``setup_samples``."""

    def unit(self, index: int, session: TraceSession | None) -> tuple[int, float | None]:
        """Run unit ``index``: (work items done, timed seconds or None)."""
        raise NotImplementedError

    def measure(self, seconds: float, min_units: int,
                session: TraceSession | None = None) -> Measured:
        """Run units until ``seconds`` passed and ``min_units`` are done.

        With a ``session`` the wrappers are installed in this process for
        the whole loop (children record through ``session.env``).
        """
        out = Measured()
        start = time.perf_counter()
        if session:
            session.start()
        try:
            done = 0
            while done < min_units or time.perf_counter() - start < seconds:
                items, wall = self.unit(self.units, session)
                self.units += 1
                done += 1
                out.items += items
                if wall is not None:
                    out.wall_s += wall
                    out.latencies_ms.append(wall * 1000.0)
        finally:
            if session:
                session.stop()
        out.window = (start, time.perf_counter())
        out.detail = {"units": done}
        return out

    def close(self) -> None:
        """Stop whatever ``setup`` started (idempotent)."""

    def check(self) -> None:
        """Post-run correctness gates (untimed)."""

    def peak_rss_mb(self) -> float:
        """Peak RSS of the program's processes, in MiB."""
        return launch.peak_rss_mb()

    def run_traced(self, seconds: float,
                   session: TraceSession) -> tuple[Measured, Measured]:
        """An untraced then a traced phase, each half the run, same set-up."""
        half = math.ceil(self.min_units / 2)
        self.setup()
        ref = self.measure(seconds / 2, half)
        traced = self.measure(seconds / 2, half, session)
        return ref, traced


class PaperSuite(Workload):
    """All registered scenarios; a fresh process and store for every pass."""

    name = "paper-suite"
    min_units = 5

    def __init__(self, seed: int, work: Path,
                 scenarios: tuple[str, ...] | None = None,
                 golden: dict[str, str] | None = None) -> None:
        super().__init__(seed, work)
        self.scenarios = tuple(scenarios or scenario_names())
        if golden is None:
            golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["scenarios"]
        self.golden = golden
        self.rss_mb = 0.0

    def unit(self, index, session):
        order = suite_order(self.seed, index, self.scenarios)
        store = self.work / f"pass-{index}"
        doc, err = run_child(
            ["suite-pass", "--store", str(store), "--order", ",".join(order),
             "--spawned-at", repr(time.perf_counter())],
            env=session.env("suite-pass") if session else None)
        shutil.rmtree(store, ignore_errors=True)
        self.attempted += len(order)
        if doc is None:
            for name in order:
                self.fail(f"pass {index}: {name}: pass process failed: "
                          f"{err.strip()[-400:]}")
            return 0, None
        self.setup_samples.append(doc["setup_s"])
        self.rss_mb = max(self.rss_mb, doc["rss_mb"])
        for name in order:
            if name in doc["errors"]:
                self.fail(f"pass {index}: {name}: {doc['errors'][name]}")
            elif doc["digests"].get(name) != self.golden.get(name):
                self.fail(f"pass {index}: {name}: digest "
                          f"{doc['digests'].get(name)} != golden")
        return len(order) - len(doc["errors"]), doc["pass_s"]

    def peak_rss_mb(self):
        return self.rss_mb


class GridCold(Workload):
    """One seeded grid campaign into an empty campaign directory per unit."""

    name = "grid-cold"
    min_units = 1

    def __init__(self, seed: int, work: Path, shape: GridShape = GridShape()) -> None:
        super().__init__(seed, work)
        self.shape = shape
        self.executed: list[tuple[PointSpec, float]] = []

    def setup(self, session=None):
        self.probe_setup()

    def unit(self, index, session):
        spec = grid_spec(self.seed, self.shape, f"grid-cold-{index}", "grid-cold")
        directory = self.work / f"cold-{index}"
        t0 = time.perf_counter()
        outcome = campaign.run_campaign(spec, campaign_dir=directory, workers=0)
        wall = time.perf_counter() - t0
        self._record(outcome)
        shutil.rmtree(directory, ignore_errors=True)
        return outcome.stats.executed, wall

    def _record(self, outcome) -> None:
        """Count executed points; keep done ones for the scalar recompute."""
        for task in outcome.plan.runnable:
            result = outcome.results.get(task.task_id)
            self.attempted += 1
            if result is None:
                self.fail(f"{task.task_id}: no result recorded")
            elif result.status == FAILED:
                self.fail(f"{task.task_id}: failed: {result.error}")
            elif result.status == DONE and not result.cached:
                self.executed.append((task.point, result.seconds))

    def check(self):
        sample = _rng(self.seed, "grid-cold-sample").sample(
            self.executed, min(SAMPLE_POINTS, len(self.executed)))
        for point, seconds in sample:
            self.attempted += 1
            scalar = execute_point(point.to_dict())
            if scalar["status"] != DONE or scalar["seconds"] != seconds:
                self.fail(f"{point.canonical()}: campaign {seconds!r} != "
                          f"scalar {scalar['seconds']!r}")


class GridWarm(Workload):
    """Set-up fills a store; timed passes re-run the grid as pure cache hits."""

    name = "grid-warm"
    min_units = 10

    def __init__(self, seed: int, work: Path, shape: GridShape = GridShape()) -> None:
        super().__init__(seed, work)
        self.spec = grid_spec(seed, shape, "grid-warm", "grid-warm")
        self.fill_dir = self.work / "fill"
        self.cold: dict[str, tuple[str, float | None]] = {}

    def setup(self, session=None):
        self.probe_setup()
        t0 = time.perf_counter()
        outcome = campaign.run_campaign(self.spec, campaign_dir=self.fill_dir, workers=0)
        fill_s = time.perf_counter() - t0
        self.setup_samples = [s + fill_s for s in self.setup_samples]
        self.cold = {tid: (r.status, r.seconds) for tid, r in outcome.results.items()}
        if outcome.stats.failed:
            self.fail(f"fill: {outcome.stats.failed} failed points")

    def unit(self, index, session):
        directory = self.work / f"warm-{index}"
        t0 = time.perf_counter()
        store = ResultStore(self.fill_dir / "cache")
        outcome = campaign.run_campaign(
            self.spec, campaign_dir=directory, store=store, workers=0)
        wall = time.perf_counter() - t0
        self._check_pass(index, outcome)
        shutil.rmtree(directory, ignore_errors=True)
        return outcome.stats.cache_hits, wall

    def _check_pass(self, index: int, outcome) -> None:
        """Every task returns the fill's value; nothing executes."""
        self.attempted += len(outcome.results)
        if outcome.stats.executed:
            self.fail(f"pass {index}: executed {outcome.stats.executed} points")
        for tid, result in outcome.results.items():
            if (result.status, result.seconds) != self.cold.get(tid):
                self.fail(f"pass {index}: {tid}: {result.seconds!r} != "
                          f"{self.cold.get(tid)!r}")


class ServiceFleet(Workload):
    """A daemon and two executors behind two closed-loop HTTP clients."""

    name = "service-fleet"
    min_units = 200
    executors = 2
    poll_s = 0.005

    def __init__(self, seed: int, work: Path, shape: FleetShape = FleetShape()) -> None:
        super().__init__(seed, work)
        self.shape = shape
        self.schedule = service_schedule(seed, shape)
        self.procs: list[subprocess.Popen] = []
        self.logs: list[Any] = []
        self.root: Path | None = None
        self.url = ""
        self.roots: list[Path] = []
        self.samples: list[dict] = []
        self.rss_mb = 0.0
        self._lock = threading.Lock()

    # -- fleet life cycle ---------------------------------------------------

    def setup(self, session=None):
        t0 = time.perf_counter()
        self.root = self.work / f"fleet-{len(self.roots)}"
        self.roots.append(self.root)
        self.root.mkdir(parents=True)
        self._start("service", ["serve", str(self.root), "--concurrent", "2"],
                    session)
        meta = self.root / "service.json"
        self._wait(meta.exists, 60.0, "daemon did not publish service.json")
        doc = json.loads(meta.read_text(encoding="utf-8"))
        self.url = f"http://{doc['host']}:{doc['port']}"
        for i in range(self.executors):
            self._start("executor", ["--service-root", str(self.root),
                                     "--root", str(self.root / f"executor-{i}"),
                                     "--max-idle", "600"], session)
        client = ServiceClient(self.url, api_key="bench-setup")
        self._wait(lambda: len(client.executors()["executors"]) >= self.executors,
                   60.0, "executors did not register")
        warm = client.submit(fleet_warmup(self.shape))
        state = client.wait(warm["id"], timeout=60.0, poll=self.poll_s)
        if state["state"] != "complete":
            raise RuntimeError(f"warm-up campaign ended {state['state']}")
        client.results(warm["id"])
        self.setup_samples.append(time.perf_counter() - t0)

    def _start(self, role: str, args: list[str], session) -> None:
        log = open(self.root / f"{role}-{len(self.procs)}.log", "wb")
        self.logs.append(log)
        self.procs.append(_spawn([role, *args],
                                 env=session.env(role) if session else None,
                                 stdout=log, stderr=subprocess.STDOUT))

    def _wait(self, ready, timeout: float, message: str) -> None:
        deadline = time.monotonic() + timeout
        while True:
            for proc in self.procs:
                if proc.poll() is not None:
                    raise RuntimeError(f"{message}: a fleet process exited "
                                       f"with {proc.returncode}")
            try:
                if ready():
                    return
            except ServiceError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(message)
            time.sleep(0.01)

    def close(self):
        """SIGTERM the daemon (it drains), then wait for the executors."""
        if not self.procs:
            return
        daemon, *executors = self.procs
        daemon.terminate()
        for proc in [daemon, *executors]:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if daemon.returncode != 0:
            self.fail(f"daemon exited with {daemon.returncode}")
        self.procs = []
        for log in self.logs:
            log.close()
        self.logs = []

    def run_traced(self, seconds, session):
        half = math.ceil(self.min_units / 2)
        self.setup()
        ref = self.measure(seconds / 2, half)
        self.close()
        self.setup(session)
        traced = self.measure(seconds / 2, half, session)
        return ref, traced

    # -- the timed loop -----------------------------------------------------

    def measure(self, seconds, min_units, session=None):
        out = Measured()
        probe = ServiceClient(self.url, api_key="bench-metrics")
        before = probe.metrics()
        records: list[dict] = []
        start = time.perf_counter()
        deadline = start + seconds
        if session:
            session.start()
        try:
            threads = [threading.Thread(
                target=self._client, name=f"client-{k}",
                args=(k, entries, deadline, min_units, records))
                for k, entries in enumerate(self.schedule)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            if session:
                session.stop()
        end = time.perf_counter()
        after = probe.metrics()
        ok = [r for r in records if r["ok"]]
        out.items = len(ok)
        out.wall_s = end - start
        out.window = (start, end)
        # The latency metric is the cold class's: with 50% cold the
        # all-class median sits on the warm/cold boundary and flips
        # between the two modes. A refused or failed submission of any
        # kind misses every latency limit.
        out.latencies_ms = [r["turnaround_ms"] if r["ok"] else math.inf
                            for r in records if r["kind"] == "cold" or not r["ok"]]
        dups = [r for r in records if r["kind"] == "dup"]
        out.counters = {
            "service.rejected": after.get("service_rejected", 0.0)
            - before.get("service_rejected", 0.0),
            "remote.waves_reclaimed_local":
                after.get("service_remote_waves_reclaimed_local", 0.0)
                - before.get("service_remote_waves_reclaimed_local", 0.0),
            "service.dup_submissions": len(dups),
            "service.dedup_hits": sum(1 for r in dups if r["deduped"]),
        }
        out.detail = self._detail(records)
        return out

    @staticmethod
    def _detail(records: list[dict]) -> dict[str, Any]:
        def p50(kind=None):
            return percentile([r["turnaround_ms"] for r in records if r["ok"]
                               and kind in (None, r["kind"])], 0.5)

        return {
            "samples": len(records),
            "turnaround_p50_ms": p50(),
            "turnaround_p95_ms": percentile(
                [r["turnaround_ms"] if r["ok"] else math.inf for r in records], 0.95),
            "cold_turnaround_p50_ms": p50("cold"),
            "warm_turnaround_p50_ms": p50("warm"),
            "dup_turnaround_p50_ms": p50("dup"),
            "submit_p50_ms": percentile([r["submit_ms"] for r in records
                                         if r["submit_ms"] is not None], 0.5),
            "by_kind": {k: sum(1 for r in records if r["kind"] == k)
                        for k in ("cold", "warm", "dup")},
        }

    def _client(self, k: int, entries: list[Submission], deadline: float,
                min_units: int, records: list[dict]) -> None:
        """One closed-loop client: submit, wait at 5 ms polls, fetch results."""
        client = ServiceClient(self.url, api_key=f"bench-{k}")
        rows_of: dict[int, dict] = {}
        for i, sub in enumerate(entries):
            with self._lock:
                if time.perf_counter() >= deadline and len(records) >= min_units:
                    return
            record = {"kind": sub.kind, "ok": False, "deduped": False,
                      "submit_ms": None, "turnaround_ms": math.inf}
            t0 = time.perf_counter()
            try:
                doc = client.submit(sub.payload, max_attempts=8)
                record["submit_ms"] = (time.perf_counter() - t0) * 1000.0
                record["deduped"] = bool(doc.get("deduped"))
                state = client.wait(doc["id"], timeout=60.0, poll=self.poll_s)
                result = client.results(doc["id"])
                record["turnaround_ms"] = (time.perf_counter() - t0) * 1000.0
            except (QuotaExceededError, ServiceError) as exc:
                with self._lock:
                    self.attempted += 1
                    self.fail(f"client {k} entry {i}: {type(exc).__name__}: {exc}")
                    records.append(record)
                continue
            problems = self._audit(sub, state, result, record, rows_of.get(sub.ref))
            rows_of[i] = {row["task_id"]: (row["status"], row["seconds"])
                          for row in result["rows"]}
            with self._lock:
                self.attempted += 1
                for problem in problems:
                    self.fail(f"client {k} entry {i} ({sub.kind}): {problem}")
                record["ok"] = not problems
                records.append(record)
                if len(records) == min_units:
                    self.rss_mb = max(self.rss_mb, self._fleet_rss_mb())
                if sub.kind == "cold":
                    self.samples.extend(r for r in result["rows"]
                                        if r["status"] == DONE)

    @staticmethod
    def _audit(sub: Submission, state: dict, result: dict, record: dict,
               ref_rows: dict | None) -> list[str]:
        """Per-campaign checks: complete, whole, no failures, dedup, warm hits."""
        problems = []
        rows = result["rows"]
        if state["state"] != "complete":
            problems.append(f"state {state['state']}")
        if len(rows) != state["points"]:
            problems.append(f"{len(rows)} rows for {state['points']} points")
        if any(row["status"] == FAILED for row in rows):
            problems.append("failed rows")
        if record["deduped"] != (sub.kind == "dup"):
            problems.append(f"deduped={record['deduped']}")
        if ref_rows is not None:
            got = {row["task_id"]: (row["status"], row["seconds"]) for row in rows}
            if got != ref_rows:
                problems.append("rows differ from the repeated entry's")
        return problems

    def check(self):
        sample = _rng(self.seed, "fleet-sample").sample(
            self.samples, min(SAMPLE_POINTS, len(self.samples)))
        for row in sample:
            self.attempted += 1
            point = PointSpec(machine=row["machine"], backend=row["backend"],
                              case=row["case"], size_exp=row["size_exp"],
                              threads=row["threads"])
            scalar = execute_point(point.to_dict())
            if scalar["status"] != DONE or scalar["seconds"] != row["seconds"]:
                self.fail(f"{point.canonical()}: served {row['seconds']!r} != "
                          f"scalar {scalar['seconds']!r}")
        for root in self.roots:
            self.attempted += 1
            report = ResultStore(root / "cache").compact()
            if report.superseded:
                self.fail(f"{root.name}: compaction superseded "
                          f"{report.superseded} rows (a point was stored twice)")

    def _fleet_rss_mb(self) -> float:
        """Largest peak RSS so far (``VmHWM``) among the fleet's processes."""
        peak = 0.0
        for proc in self.procs:
            for line in Path(f"/proc/{proc.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def peak_rss_mb(self):
        """The fleet's peak RSS once ``min_units`` campaigns had completed.

        The daemon's memory grows with every campaign it serves, so the
        peak at the end of a time-bounded run would measure how many
        campaigns the run got through; at a fixed count it measures
        memory per campaign.
        """
        return self.rss_mb


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperSuite, GridCold, GridWarm, ServiceFleet)
}


def e2e_metrics(workload: Workload, measured: Measured) -> dict[str, float]:
    """The end-to-end metrics of an untraced run (see BENCHMARK.json)."""
    return {
        "setup_s": statistics.median(workload.setup_samples),
        "items_per_s": measured.items_per_s,
        "latency_p50_ms": statistics.median(measured.latencies_ms),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
