#!/usr/bin/env python
"""Differential harness: the wave engine must agree bitwise with the
scalar reference engine.

Every case builds one array profile (``repro.algorithms._build``); the
reference side costs it with ``repro.sim.engine.simulate_cpu`` on
``arrays_to_profile`` of it, called directly, and the product costs it
on the wave engine (``repro.sim.wave``), which is the only engine any
product path runs on a CPU. The wave engine promises *bit-identical*
results to the reference: not "close", identical, so cached campaign
results, golden figures and the paper's speedup ratios do not depend
on how the points were grouped into waves. This tool is the
enforcement, in three layers:

1. :func:`compare_point` sweeps randomized configurations (machine x
   backend x allocator x case x size x threads x element type, over all
   33 cases) through the reference and a one-entry wave and compares
   the full
   :class:`repro.sim.SimReport` field by field -- total seconds,
   fork/join, every hardware counter, and the per-phase
   name/seconds/compute/memory/overhead/counter breakdown -- using
   exact float equality on the hex encodings; the harness's measured
   seconds (``measure_case``, which costs through
   ``ExecutionContext.simulate``) must equal the reference's too.
   Capability gaps must also agree: a configuration that raises
   ``UnsupportedOperationError`` on one side must raise it on the other.
2. :func:`compare_wave` fuses groups of those same configurations into
   one ``repro.sim.wave`` program -- deliberately mixing machines,
   backends and cases the way a campaign wave does -- and compares each
   fused entry's report against the reference report for the same
   configuration. It also checks the seconds path the fused feeders
   read: ``result.seconds[i]`` (computed without building a report)
   must equal ``result[i].seconds``, the reference's seconds and the
   one-entry wave's. The whole sample is also fused as one wave, so
   the engine's phase blocks fill up, and under a small block budget
   (:data:`SMALL_BLOCK_ENTRIES`), so equal-length phases split across
   many blocks, as they do in a large campaign wave; each of the two
   runs with the engine memos cleared first and again warm.
3. :func:`compare_memos` costs the sample once with the engine's
   process-wide memos (fold layouts, NUMA node maps) cleared before
   every configuration, and once warm, and requires identical bits:
   the memos hold index bookkeeping only, never a float.

Wired into tier-1 via ``tests/sim/test_batch_differential.py`` and
``tests/sim/test_wave_differential.py`` (marker ``diffcheck``) and into
CI as a standalone job step. Run directly::

    python tools/diffcheck.py --configs 200 --seed 0

Exit codes: 0 = all configurations agree, 1 = at least one divergence.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: The sampled axes. Every (machine, backend) pair of the paper's grid,
#: every named allocator (plus the backend default), every case.
MACHINES = ("A", "B", "C")
BACKENDS = ("GCC-SEQ", "GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP")
ALLOCATORS = (None, "default", "first-touch", "hpx", "interleaved")
DTYPES = ("double", "double", "double", "float", "int")  # weighted to the paper's


def _ensure_importable() -> None:
    """Make ``repro`` importable when running from a source checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class DiffConfig:
    """One randomized configuration to push through both paths."""

    machine: str
    backend: str
    allocator: str | None
    case: str
    n: int
    threads: int
    dtype: str

    def label(self) -> str:
        """Human-readable one-liner for divergence reports."""
        return (
            f"{self.case}<{self.backend}>@Mach{self.machine}"
            f"/alloc={self.allocator}/n={self.n}/t={self.threads}/{self.dtype}"
        )


def _random_size(rng: random.Random) -> int:
    """A problem size biased toward the interesting edges.

    Mixes exact powers of two (the paper's grid), off-by-one sizes (chunk
    remainder handling), tiny n (sequential-fallback and single-chunk
    paths) and uniformly random interior points.
    """
    kind = rng.randrange(4)
    if kind == 0:
        return 1 << rng.randrange(0, 31)
    if kind == 1:
        exp = rng.randrange(1, 31)
        return max(1, (1 << exp) + rng.choice((-1, 1)))
    if kind == 2:
        return rng.randrange(1, 64)
    return rng.randrange(1, 1 << 27)


def random_configs(count: int, seed: int) -> list[DiffConfig]:
    """``count`` deterministic pseudo-random configurations."""
    _ensure_importable()
    from repro.machines import get_machine
    from repro.suite.cases import case_names

    cases = case_names()
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        machine = rng.choice(MACHINES)
        cores = get_machine(machine).total_cores
        threads = rng.choice(
            sorted({1, 2, 3, rng.randrange(1, cores + 1), cores})
        )
        configs.append(
            DiffConfig(
                machine=machine,
                backend=rng.choice(BACKENDS),
                allocator=rng.choice(ALLOCATORS),
                case=rng.choice(cases),
                n=_random_size(rng),
                threads=threads,
                dtype=rng.choice(DTYPES),
            )
        )
    return configs


def _context(config: DiffConfig):
    """The execution context a configuration describes."""
    from repro.scenarios.resolve import make_context

    return make_context(
        config.machine, config.backend, threads=config.threads,
        allocator=config.allocator,
    )


def _hex(value: float) -> str:
    """Exact float identity (distinguishes -0.0, compares NaN equal)."""
    return float(value).hex()


def _report_fields(report) -> list[tuple[str, str]]:
    """A SimReport flattened to (field-path, exact value) pairs."""
    fields = [
        ("seconds", _hex(report.seconds)),
        ("fork_join_seconds", _hex(report.fork_join_seconds)),
        ("migration_seconds", _hex(report.migration_seconds)),
    ]
    for prefix, counters in [("counters", report.counters)] + [
        (f"phases[{i}:{p.name}].counters", p.counters)
        for i, p in enumerate(report.phases)
    ]:
        for attr in (
            "instructions",
            "fp_scalar",
            "fp_packed_128",
            "fp_packed_256",
            "bytes_read",
            "bytes_written",
        ):
            fields.append((f"{prefix}.{attr}", _hex(getattr(counters, attr))))
    for i, phase in enumerate(report.phases):
        prefix = f"phases[{i}:{phase.name}]"
        fields.append((f"{prefix}.name", phase.name))
        for attr in (
            "seconds",
            "compute_seconds",
            "memory_seconds",
            "overhead_seconds",
        ):
            fields.append((f"{prefix}.{attr}", _hex(getattr(phase, attr))))
    return fields


def _scalar_run(config: DiffConfig):
    """``(report, exception)`` of the reference engine for one configuration.

    Builds the profile the harness's first invocation builds
    (``BenchCase.profile``) and costs it with ``simulate_cpu`` on its
    ``arrays_to_profile`` view -- never through
    ``ExecutionContext.simulate``, which runs the wave engine.
    ``exception`` is the UnsupportedOperationError text for capability
    gaps (``report`` is then None).
    """
    from repro.errors import UnsupportedOperationError
    from repro.sim.engine import arrays_to_profile, simulate_cpu
    from repro.suite.cases import get_case
    from repro.types import elem_type

    ctx = _context(config)
    try:
        profile = get_case(config.case).profile(
            ctx, config.n, elem_type(config.dtype)
        )
    except UnsupportedOperationError as exc:
        return None, f"UnsupportedOperationError: {exc}"
    return simulate_cpu(ctx.machine, ctx.backend,
                        arrays_to_profile(profile)), None


def _diff_reports(label: str, scalar, wave,
                  sides: tuple[str, str] = ("scalar", "wave")) -> list[str]:
    """Field-by-field divergences between a scalar and a wave report
    (or any two reports, named by ``sides``)."""
    scalar_fields = _report_fields(scalar)
    wave_fields = _report_fields(wave)
    if len(scalar_fields) != len(wave_fields):
        return [
            f"{label}: report shape differs "
            f"({len(scalar_fields)} vs {len(wave_fields)} fields)"
        ]
    left, right = sides
    return [
        f"{label}: {name_s}: {left}={value_s} {right}={value_w}"
        for (name_s, value_s), (name_w, value_w) in zip(scalar_fields, wave_fields)
        if name_s != name_w or value_s != value_w
    ]


def compare_point(config: DiffConfig) -> list[str]:
    """Divergences between the reference and the product for one config.

    Costs the configuration on the reference engine and as a one-entry
    wave, diffs the flattened reports, and checks the harness's
    measured seconds against the reference's. An empty list means
    bitwise agreement, including exception parity.
    """
    _ensure_importable()
    from repro.errors import UnsupportedOperationError
    from repro.suite.batch import simulate_case_batch
    from repro.suite.cases import get_case
    from repro.suite.wrappers import measure_case
    from repro.types import elem_type

    scalar_report, scalar_exc = _scalar_run(config)
    try:
        wave_report = simulate_case_batch(
            get_case(config.case), _context(config), config.n,
            elem_type(config.dtype),
        )
        wave_exc = None
    except UnsupportedOperationError as exc:
        wave_exc = f"UnsupportedOperationError: {exc}"

    label = config.label()
    if scalar_exc or wave_exc:
        if scalar_exc != wave_exc:
            return [
                f"{label}: exception mismatch: scalar={scalar_exc!r} "
                f"wave={wave_exc!r}"
            ]
        return []
    divergences = _diff_reports(label, scalar_report, wave_report)
    measured = measure_case(get_case(config.case), _context(config),
                            config.n, elem_type(config.dtype))
    if _hex(measured) != _hex(scalar_report.seconds):
        divergences.append(
            f"{label}: measured seconds: scalar={_hex(scalar_report.seconds)} "
            f"harness={_hex(measured)}"
        )
    return divergences


#: How many configurations one wave group fuses in :func:`run_diffcheck`.
#: Sized like a real campaign wave: big enough to mix machines, backends
#: and cases in one program, small enough to localise a divergence.
WAVE_GROUP = 16

#: Block budget of :func:`run_diffcheck`'s second whole-sample wave. At
#: the engine's own budget a 200-configuration sample rarely puts more
#: than two blocks in a group of equal-length phases; at this one, groups
#: span many blocks, so a block evaluated or filed out of order shows.
SMALL_BLOCK_ENTRIES = 64


def _wave_entries(configs: list[DiffConfig]) -> list[tuple]:
    """``(config, WaveEntry)`` for every configuration whose profile
    builds; capability gaps are skipped (exception parity is
    :func:`compare_point`'s job)."""
    from repro.errors import UnsupportedOperationError
    from repro.sim.wave import WaveEntry
    from repro.suite.cases import get_case
    from repro.types import elem_type

    built = []
    for config in configs:
        ctx = _context(config)
        try:
            profile = get_case(config.case).profile(
                ctx, config.n, elem_type(config.dtype)
            )
        except UnsupportedOperationError:
            continue
        built.append((config, WaveEntry(ctx.machine, ctx.backend, profile)))
    return built


def compare_wave(configs: list[DiffConfig],
                 block_entries: int | None = None,
                 cold: bool = False) -> list[str]:
    """Divergences between a fused wave and the reference, entry by entry.

    Builds every configuration's :class:`ArrayProfile`, fuses
    them all into a single wave program -- deliberately mixing machines,
    backends and cases the way a campaign wave does -- and diffs each
    fused entry's report against the reference report for the same
    configuration; ``block_entries`` evaluates the wave under that
    block budget instead of the engine's, and ``cold`` clears the
    engine's memos just before it. The seconds path is checked too:
    each entry's ``result.seconds[i]`` (what the fused feeders read,
    computed without a report) must equal its report's seconds, the
    reference's and the one-entry wave's. Configurations that raise on
    build (capability gaps) are skipped: :func:`compare_point` already
    enforces their exception parity. An empty list means every entry of
    the wave agrees bitwise.
    """
    _ensure_importable()
    from repro.sim import wave
    from repro.sim.wave import fuse_wave, simulate_wave

    entries: list = []
    labels: list[str] = []
    scalar_reports: list = []
    alone: list[float] = []
    divergences: list[str] = []
    for config, entry in _wave_entries(configs):
        scalar_report, scalar_exc = _scalar_run(config)
        if scalar_exc is not None:
            divergences.append(f"{config.label()}: {scalar_exc}")
            continue
        entries.append(entry)
        labels.append(config.label())
        scalar_reports.append(scalar_report)
        alone.append(wave.simulate_cpu_arrays(
            entry.machine, entry.backend, entry.profile).seconds)
    if not entries:
        return divergences

    blocks = block_entries or wave.BLOCK_ENTRIES
    saved, wave.BLOCK_ENTRIES = wave.BLOCK_ENTRIES, blocks
    try:
        if cold:
            wave._LAYOUTS.clear()
            wave._NODE_MAPS.clear()
        result = simulate_wave(fuse_wave(entries))
    finally:
        wave.BLOCK_ENTRIES = saved
    where = (f"wave of {len(entries)}, blocks of {blocks}, "
             f"memos {'cold' if cold else 'warm'}")
    for i, (label, scalar_report) in enumerate(zip(labels, scalar_reports)):
        wave_report = result[i]
        divergences.extend(_diff_reports(
            f"{label} [{where}]", scalar_report, wave_report,
        ))
        seconds = _hex(result.seconds[i])
        for side, value in (("report", wave_report.seconds),
                            ("scalar", scalar_report.seconds),
                            ("one-entry", alone[i])):
            if _hex(value) != seconds:
                divergences.append(
                    f"{label} [{where}]: seconds path: "
                    f"result.seconds={seconds} {side}={_hex(value)}"
                )
    return divergences


def compare_memos(configs: list[DiffConfig]) -> list[str]:
    """Divergences between the sample costed cold and warm on the memos.

    Cold: each configuration alone, as a one-entry wave, right after the
    wave engine's layout and node-map memos are cleared, so every layout
    and node map it reads is built for it. Warm: the whole sample fused
    as one wave, costed once to fill the memos and again to compare.
    Configurations that raise on build are skipped, as in
    :func:`compare_wave`.
    """
    _ensure_importable()
    from repro.sim import wave
    from repro.sim.wave import fuse_wave, simulate_wave

    built = _wave_entries(configs)
    cold = []
    for _config, entry in built:
        wave._LAYOUTS.clear()
        wave._NODE_MAPS.clear()
        cold.append(wave.simulate_cpu_arrays(
            entry.machine, entry.backend, entry.profile))
    entries = [entry for _config, entry in built]
    simulate_wave(fuse_wave(entries))
    warm = simulate_wave(fuse_wave(entries))
    divergences: list[str] = []
    for (config, _entry), cold_report, warm_report in zip(built, cold, warm):
        divergences.extend(_diff_reports(config.label(), cold_report,
                                         warm_report, ("cold", "warm")))
    return divergences


def run_diffcheck(
    configs: int = 200, seed: int = 0, verbose: bool = False
) -> list[str]:
    """Sweep ``configs`` randomized configurations; return all divergences.

    Each configuration goes through the reference-vs-wave point check,
    and the same sample is then fused in groups of :data:`WAVE_GROUP`,
    and as a whole under the engine's block budget and under
    :data:`SMALL_BLOCK_ENTRIES`, each with the memos cleared first and
    again warm, and checked entry by entry (reports and the seconds
    path) against the reference; finally it is costed with the engine
    memos cold and warm (:func:`compare_memos`).
    """
    divergences = []
    sample = random_configs(configs, seed)
    for i, config in enumerate(sample):
        if verbose:
            print(f"[{i + 1}/{configs}] {config.label()}", file=sys.stderr)
        divergences.extend(compare_point(config))
    for start in range(0, len(sample), WAVE_GROUP):
        group = sample[start:start + WAVE_GROUP]
        if verbose:
            print(f"[wave {start // WAVE_GROUP + 1}] fusing {len(group)} "
                  "configurations", file=sys.stderr)
        divergences.extend(compare_wave(group))
    for blocks in (None, SMALL_BLOCK_ENTRIES):
        for cold in (True, False):
            if verbose:
                print(f"[whole sample] fusing {len(sample)} configurations"
                      f" (blocks of {blocks or 'the engine budget'}, memos "
                      f"{'cold' if cold else 'warm'})", file=sys.stderr)
            divergences.extend(compare_wave(sample, blocks, cold))
    if verbose:
        print("[memos] costing the sample cold and warm", file=sys.stderr)
    divergences.extend(compare_memos(sample))
    return divergences


def main(argv: list[str] | None = None) -> int:
    """CLI entry; exit 1 if any configuration diverges."""
    parser = argparse.ArgumentParser(
        description="Differential check: the wave engine must produce "
        "SimReports bit-identical to the scalar reference engine's."
    )
    parser.add_argument("--configs", type=int, default=200,
                        help="number of randomized configurations (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for the configuration sample")
    parser.add_argument("--verbose", action="store_true",
                        help="print each configuration as it runs")
    args = parser.parse_args(argv)
    divergences = run_diffcheck(args.configs, args.seed, args.verbose)
    if divergences:
        print(f"diffcheck: {len(divergences)} divergence(s)", file=sys.stderr)
        for line in divergences:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"diffcheck: OK ({args.configs} configurations, seed {args.seed}, "
          "bit-identical reports and fused seconds on the reference and "
          "wave engines, with the engine memos cold and warm)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
