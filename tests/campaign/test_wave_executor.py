"""Wave-fused campaign execution: same answers, fewer and bigger submissions.

The executor's default path fuses every eligible point of a wave into
one struct-of-arrays program (``repro.sim.wave``). These tests pin the
properties that make that safe to default on:

* **bit-identity** -- a wave campaign reproduces the scalar reference
  engine's statuses and bit-identical seconds, serial and pooled;
* **per-point fallbacks** -- points a fused wave cannot serve (run mode
  here) run alone through ``execute_point``, and fused points never do;
* **retry parity** -- a failed fused wave degrades to per-point
  retries;
* **observability** -- a traced wave campaign carries ``wave.fuse`` /
  ``wave.execute`` spans on the ``wave`` track;
* **profile gates** -- the wave path reuses contexts instead of
  rebuilding them per point, and builds one thread layout per distinct
  partition, after which a point-at-a-time replay builds none;
* **bounded memory** -- a wave whose profiles outgrow
  ``WAVE_CHUNK_BUDGET`` (or ``WAVE_POINT_BUDGET`` points) runs as
  several sub-waves, and the profile memo never holds more than that
  many chunk entries, yet still serves a repeated small grid, at a
  bounded number of bytes per profile.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np

from repro.backends import PARALLEL_CPU_BACKENDS, get_backend
from repro.campaign import executor as executor_mod
from repro.campaign.executor import point_context, run_campaign
from repro.campaign.plan import plan_campaign
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.campaign.store import DONE, FAILED, NA
from repro.errors import UnsupportedOperationError
from repro.machines import get_machine
from repro.sim import wave as wave_mod
from repro.sim.engine import arrays_to_profile, simulate_cpu
from repro.suite.batch import simulate_cpu_arrays
from repro.suite.cases import get_case
from repro.trace import Tracer, use_tracer

from tests.campaign.test_executor import per_point, tiny_spec


def wider_spec(**kwargs):
    base = dict(name="wider", machines=("A", "B"),
                backends=("GCC-TBB", "GCC-GNU", "GCC-SEQ"),
                cases=("reduce", "inclusive_scan", "sort", "find"),
                size_exps=(10, 12))
    base.update(kwargs)
    return tiny_spec(**base)


def _assert_outcomes_identical(left, right):
    assert set(left.results) == set(right.results)
    for tid, a in left.results.items():
        b = right.results[tid]
        assert a.status == b.status, tid
        if a.seconds is None or b.seconds is None:
            assert a.seconds == b.seconds, tid
        else:
            assert a.seconds.hex() == b.seconds.hex(), tid


def _reference_outcome(outcome):
    """Each task of ``outcome`` costed on the scalar reference engine."""
    results = {}
    for tid, result in outcome.results.items():
        point = result.point
        ctx = point_context(point)
        try:
            profile = get_case(point.case).profile(ctx, point.n)
        except UnsupportedOperationError:
            results[tid] = SimpleNamespace(status=NA, seconds=None)
            continue
        report = simulate_cpu(ctx.machine, ctx.backend,
                              arrays_to_profile(profile))
        results[tid] = SimpleNamespace(status=DONE, seconds=report.seconds)
    return SimpleNamespace(results=results)


def test_wave_batch_and_scalar_campaigns_bit_identical():
    spec = wider_spec()
    wave = run_campaign(spec)  # wave fusion is the default
    scalar = _reference_outcome(wave)
    assert wave.stats.failed == 0
    _assert_outcomes_identical(wave, scalar)


def test_pool_wave_matches_serial_wave():
    spec = wider_spec()
    serial = run_campaign(spec)
    pooled = run_campaign(spec, workers=2)
    assert pooled.stats.failed == 0
    _assert_outcomes_identical(pooled, serial)


def test_per_point_fallbacks_never_fuse(monkeypatch):
    """Run-mode points call execute_point once each; model-mode points
    are fused and never do."""
    points = []
    real_point = executor_mod.execute_point

    def spy_point(payload):
        points.append(payload)
        return real_point(payload)

    monkeypatch.setattr(executor_mod, "execute_point", spy_point)
    outcome = run_campaign(tiny_spec(modes=("model", "run")))
    assert outcome.stats.failed == 0
    assert points and {p["mode"] for p in points} == {"run"}
    run_points = [r for r in outcome.results.values()
                  if r.point.mode == "run" and not r.cached
                  and r.status != NA]
    assert len(points) == len(run_points)


def test_wave_failure_retries_scalar_and_recovers(monkeypatch):
    """Every point of a failed fused wave retries through execute_point."""

    def failed(payloads):
        return [
            {"status": FAILED, "seconds": None, "error": "injected wave failure"}
            for _ in payloads
        ]

    monkeypatch.setattr(executor_mod, "execute_wave", failed)
    outcome = run_campaign(tiny_spec(), retries=1)
    assert outcome.stats.failed == 0
    executed = [r for r in outcome.results.values() if not r.cached]
    assert executed
    for result in executed:
        if result.status == DONE:
            assert result.attempts == 2  # wave failure + scalar retry
    monkeypatch.undo()

    per_point(monkeypatch)
    clean = run_campaign(tiny_spec())
    _assert_outcomes_identical(outcome, clean)


def test_wave_fused_stage_exception_falls_back_per_point(monkeypatch):
    """A crash inside fusion degrades execute_wave itself to scalar points."""
    from repro.sim import wave as wave_mod

    def boom(entries):
        raise RuntimeError("fusion blew up")

    # execute_wave imports fuse_wave lazily, so the module patch is seen.
    monkeypatch.setattr(wave_mod, "fuse_wave", boom)
    outcome = run_campaign(tiny_spec())
    assert outcome.stats.failed == 0
    per_point(monkeypatch)
    clean = run_campaign(tiny_spec())
    _assert_outcomes_identical(outcome, clean)


def test_shard_wave_is_balanced_and_complete():
    plan = plan_campaign(wider_spec())
    for tasks in plan.waves():
        tasks = list(tasks)
        for shards in (1, 2, 3, 7, len(tasks), len(tasks) + 5):
            parts = executor_mod._shard_wave(tasks, shards)
            assert [t for part in parts for t in part] == tasks
            assert all(parts)  # no empty shards
            sizes = {len(part) for part in parts}
            assert max(sizes) - min(sizes) <= 1  # balanced


def test_traced_wave_campaign_emits_wave_spans():
    tracer = Tracer()
    with use_tracer(tracer):
        run_campaign(tiny_spec())
    names = [s.name for s in tracer.spans if s.track == "wave"]
    assert "wave.fuse" in names
    assert "wave.execute" in names
    fuse = next(s for s in tracer.spans if s.name == "wave.fuse")
    assert fuse.category == "wave"
    assert fuse.attributes["points"] >= 1


def test_wave_campaign_builds_one_context_per_cell():
    """Context construction is cached across a wave, not repeated per point."""
    spec = wider_spec()
    executor_mod._cached_context.cache_clear()
    run_campaign(spec)
    info = executor_mod._cached_context.cache_info()
    plan = plan_campaign(spec)
    cells = {
        (t.point.machine, t.point.backend, t.point.threads,
         t.point.allocator, t.point.mode)
        for t in plan.runnable
    }
    assert 0 < info.misses <= len(cells)
    assert info.hits > info.misses  # most points reuse a cached context


def test_wave_path_builds_fewer_thread_layouts_than_batch(monkeypatch):
    """From a cleared layout memo, a campaign builds one fold layout per
    distinct thread-id array of its waves; replaying every point as a
    one-entry wave then builds none and gives bit-identical seconds."""
    spec = wider_spec()
    memo = wave_mod.WeightedLRU(wave_mod.WAVE_CHUNK_BUDGET,
                                wave_mod._LAYOUTS.size)
    monkeypatch.setattr(wave_mod, "_LAYOUTS", memo)
    counts = {"n": 0}
    real_layout = wave_mod._thread_layout

    def counting_layout(thread):
        counts["n"] += 1
        return real_layout(thread)

    monkeypatch.setattr(wave_mod, "_thread_layout", counting_layout)
    outcome = run_campaign(spec)

    done = []
    for task in plan_campaign(spec).runnable:
        result = outcome.result_for(task)
        if result.status != DONE:
            continue
        point = task.point
        machine, backend = get_machine(point.machine), get_backend(point.backend)
        profile = executor_mod._cached_profile(
            machine, backend, point.threads, point.allocator, point.mode,
            point.case, point.n,
        )
        done.append((machine, backend, profile, result.seconds))
    partitions = {phase.thread.astype(np.int64).tobytes()
                  for _, _, profile, _ in done for phase in profile.phases}
    assert done and counts["n"] == memo.misses == len(partitions)

    for machine, backend, profile, seconds in done:
        report = simulate_cpu_arrays(machine, backend, profile)
        assert report.seconds.hex() == seconds.hex()
    assert counts["n"] == memo.misses == len(partitions)


def _hpx_payloads():
    """64 GCC-HPX reduce points at 2^30: 32,769 chunk entries each."""
    return [PointSpec(machine="C", backend="GCC-HPX", case="reduce",
                      size_exp=30, threads=threads).to_dict()
            for threads in range(2, 66)]


def _fresh_memo(monkeypatch):
    memo = wave_mod.WeightedLRU(executor_mod.WAVE_CHUNK_BUDGET,
                                executor_mod._PROFILES.size)
    monkeypatch.setattr(executor_mod, "_PROFILES", memo)
    return memo


def test_oversized_wave_runs_as_bounded_sub_waves(monkeypatch):
    """Profiles past the budget split the wave; the memo stays in budget."""
    memo = _fresh_memo(monkeypatch)
    payloads = _hpx_payloads()
    tracer = Tracer()
    with use_tracer(tracer):
        out = executor_mod.execute_wave(payloads)
    assert [p["status"] for p in out] == [DONE] * len(payloads)
    fuses = [s for s in tracer.spans if s.name == "wave.fuse"]
    assert len(fuses) > 1
    assert sum(s.attributes["points"] for s in fuses) == len(payloads)
    assert all(s.attributes["chunks"] <= executor_mod.WAVE_CHUNK_BUDGET
               for s in fuses)
    assert 0 < memo.weight <= executor_mod.WAVE_CHUNK_BUDGET
    assert len(memo) < len(payloads)

    # Sub-waving changes no answer: the same points one at a time.
    for payload, result in zip(payloads[::21], out[::21]):
        (alone,) = executor_mod.execute_wave([payload])
        assert alone["seconds"].hex() == result["seconds"].hex()


def test_repeated_small_grid_is_served_from_the_memo(monkeypatch):
    spec = wider_spec()
    memo = _fresh_memo(monkeypatch)
    first = run_campaign(spec)
    built = memo.misses
    assert built > 0 and len(memo) == built
    hits = memo.hits
    second = run_campaign(spec)  # a fresh in-memory store: executes again
    assert second.stats.executed == first.stats.executed
    assert memo.misses == built
    assert memo.hits - hits == built  # every profile came from the memo
    _assert_outcomes_identical(first, second)


def test_profile_memo_is_thread_safe():
    """Concurrent get/put keep the weight total exact and within budget
    in the LRU class every wave memo (profiles, layouts, node maps) uses."""
    memo = wave_mod.WeightedLRU(64, executor_mod._PROFILES.size)
    profiles = [SimpleNamespace(chunk_entries=1 + k % 7) for k in range(40)]
    rounds = 3000

    def worker(seed: int) -> None:
        for r in range(rounds):
            key = (seed * 7 + r) % len(profiles)
            if memo.get(key) is None:
                memo.put(key, profiles[key])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert memo.hits + memo.misses == 8 * rounds
    stored = [memo.get(key) for key in range(len(profiles))]
    assert memo.weight == sum(p.chunk_entries for p in stored if p is not None)
    assert memo.weight <= memo.budget


def test_wide_wave_runs_in_point_bounded_sub_waves(monkeypatch):
    """Small profiles still split: no sub-wave exceeds the point budget."""
    monkeypatch.setattr(executor_mod, "WAVE_POINT_BUDGET", 5)
    payloads = [t.point.to_dict() for t in plan_campaign(wider_spec()).runnable]
    tracer = Tracer()
    with use_tracer(tracer):
        out = executor_mod.execute_wave(payloads)
    fuses = [s.attributes["points"] for s in tracer.spans if s.name == "wave.fuse"]
    assert sum(fuses) == sum(1 for p in out if p["status"] == DONE)
    assert max(fuses) == 5 and len(fuses) > 1
    monkeypatch.undo()
    assert [p["seconds"] for p in out] == [
        p["seconds"] for p in executor_mod.execute_wave(payloads)]


def test_profile_memo_bytes_per_profile_are_bounded(monkeypatch):
    """A grid-cold-shaped grid (3 machines x 5 backends x 33 cases x 2 sizes
    x 4 thread counts: 4,038 profiles, 98,868 chunk entries) memoises at
    under 1 KiB per profile. On grids of small profiles the per-profile
    overhead, not the chunk data the budget weighs, is what the memo
    holds: six chunk-field arrays per phase, unshared, read ~3 KB."""
    from repro.suite.cases import case_names

    spec = CampaignSpec(
        name="grid-cold-shaped", machines=("A", "B", "C"),
        backends=PARALLEL_CPU_BACKENDS, cases=tuple(case_names()),
        size_exps=(18, 19), threads=(2, 4, 6, 8),
    )
    points = [task.point for task in plan_campaign(spec).runnable]
    models = {name: get_machine(name) for name in spec.machines}
    backends = {name: get_backend(name) for name in (*spec.backends, "GCC-SEQ")}

    def fill():
        for p in points:
            executor_mod._cached_profile(
                models[p.machine], backends[p.backend], p.threads,
                p.allocator, p.mode, p.case, p.n)

    _fresh_memo(monkeypatch)
    fill()  # warms shared partitions, placements and contexts
    memo = _fresh_memo(monkeypatch)
    gc.collect()
    tracemalloc.start()
    try:
        fill()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        assert (len(memo), memo.weight) == (len(points), 98_868) == (4038, 98_868)
        memo.clear()
        gc.collect()
        released = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert released / len(points) < 1024, f"{released / len(points):.0f} B"
