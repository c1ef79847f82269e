#!/usr/bin/env python
"""Differential harness: scalar and wave simulation must agree bitwise.

Every case builds one array profile (``repro.algorithms._build``); the
scalar path costs it on the reference engine (``repro.sim.engine``,
through ``arrays_to_profile``) and the wave path on the vectorized
engine (``repro.sim.wave``). The wave path promises *bit-identical*
results to the scalar per-point path: not "close", identical, so cached
campaign results, golden figures and the paper's speedup ratios are the
same no matter which path produced them. This tool is the enforcement,
in two layers:

1. :func:`compare_point` sweeps randomized configurations (machine x
   backend x allocator x case x size x threads x element type, over all
   33 cases) through the scalar path and a one-entry wave and compares
   the full
   :class:`repro.sim.SimReport` field by field -- total seconds,
   fork/join, every hardware counter, and the per-phase
   name/seconds/compute/memory/overhead/counter breakdown -- using
   exact float equality on the hex encodings. Capability gaps must also
   agree: a configuration that raises ``UnsupportedOperationError`` on
   one path must raise it on the other.
2. :func:`compare_wave` fuses groups of those same configurations into
   one ``repro.sim.wave`` program -- deliberately mixing machines,
   backends and cases the way a campaign wave does -- and compares each
   fused entry's report against the scalar report captured for the same
   configuration. The whole sample is also fused as one wave, so the
   engine's phase blocks fill up and equal-length phases split across
   several blocks, as they do in a large campaign wave.

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
    """``(report, exception)`` of the scalar path for one configuration.

    Runs ``measure_case`` while capturing the SimReport the case's
    simulation produced; ``exception`` is the UnsupportedOperationError
    text for capability gaps (``report`` is then None). A captured
    report whose seconds disagree with the measured seconds is returned
    as an exception text too, since nothing downstream could trust it.
    """
    from repro.errors import UnsupportedOperationError
    from repro.execution.context import ExecutionContext
    from repro.suite.cases import get_case
    from repro.suite.wrappers import measure_case
    from repro.types import elem_type

    captured = []
    original = ExecutionContext.simulate

    def spy(self, profile, arrays=()):
        report = original(self, profile, arrays)
        captured.append(report)
        return report

    ExecutionContext.simulate = spy
    try:
        seconds = measure_case(get_case(config.case), _context(config),
                               config.n, elem_type(config.dtype))
    except UnsupportedOperationError as exc:
        return None, f"UnsupportedOperationError: {exc}"
    finally:
        ExecutionContext.simulate = original
    if not captured:
        return None, "scalar path produced no SimReport to compare"
    if _hex(seconds) != _hex(captured[-1].seconds):
        return None, "captured report does not match measured seconds"
    return captured[-1], None


def _diff_reports(label: str, scalar, wave) -> list[str]:
    """Field-by-field divergences between a scalar and a wave report."""
    scalar_fields = _report_fields(scalar)
    wave_fields = _report_fields(wave)
    if len(scalar_fields) != len(wave_fields):
        return [
            f"{label}: report shape differs "
            f"({len(scalar_fields)} vs {len(wave_fields)} fields)"
        ]
    return [
        f"{label}: {name_s}: scalar={value_s} wave={value_w}"
        for (name_s, value_s), (name_w, value_w) in zip(scalar_fields, wave_fields)
        if name_s != name_w or value_s != value_w
    ]


def compare_point(config: DiffConfig) -> list[str]:
    """Divergences between the scalar and one-entry wave paths for one config.

    Runs the scalar path (capturing the SimReport the case's simulation
    produced) and the vectorized path, and diffs the flattened reports.
    An empty list means bitwise agreement, including exception parity.
    """
    _ensure_importable()
    from repro.errors import UnsupportedOperationError
    from repro.suite.batch import simulate_case_batch
    from repro.suite.cases import get_case
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
    return _diff_reports(label, scalar_report, wave_report)


#: How many configurations one wave group fuses in :func:`run_diffcheck`.
#: Sized like a real campaign wave: big enough to mix machines, backends
#: and cases in one program, small enough to localise a divergence.
WAVE_GROUP = 16


def compare_wave(configs: list[DiffConfig]) -> list[str]:
    """Divergences between a fused wave and the scalar path, entry by entry.

    Builds every configuration's :class:`ArrayProfile`, fuses
    them all into a single wave program -- deliberately mixing machines,
    backends and cases the way a campaign wave does -- and diffs each
    fused entry's report against the scalar report captured for the same
    configuration. Configurations that raise on build (capability gaps)
    are skipped: :func:`compare_point` already enforces their exception
    parity. An empty list means every entry of the wave agrees bitwise.
    """
    _ensure_importable()
    from repro.errors import UnsupportedOperationError
    from repro.sim.wave import WaveEntry, fuse_wave, simulate_wave
    from repro.suite.cases import get_case
    from repro.types import elem_type

    entries: list = []
    labels: list[str] = []
    scalar_reports: list = []
    divergences: list[str] = []
    for config in configs:
        ctx = _context(config)
        try:
            profile = get_case(config.case).profile(
                ctx, config.n, elem_type(config.dtype)
            )
        except UnsupportedOperationError:
            continue  # exception parity is compare_point's job
        scalar_report, scalar_exc = _scalar_run(config)
        if scalar_exc is not None:
            divergences.append(f"{config.label()}: {scalar_exc}")
            continue
        entries.append(WaveEntry(ctx.machine, ctx.backend, profile))
        labels.append(config.label())
        scalar_reports.append(scalar_report)
    if not entries:
        return divergences

    reports = simulate_wave(fuse_wave(entries))
    for label, scalar_report, wave_report in zip(labels, scalar_reports, reports):
        divergences.extend(_diff_reports(
            f"{label} [wave of {len(entries)}]", scalar_report, wave_report
        ))
    return divergences


def run_diffcheck(
    configs: int = 200, seed: int = 0, verbose: bool = False
) -> list[str]:
    """Sweep ``configs`` randomized configurations; return all divergences.

    Each configuration goes through the scalar-vs-wave point check, and
    the same sample is then fused in groups of :data:`WAVE_GROUP`, and
    once as a whole, and checked entry by entry against the scalar path.
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
    if verbose:
        print(f"[whole sample] fusing {len(sample)} configurations",
              file=sys.stderr)
    divergences.extend(compare_wave(sample))
    return divergences


def main(argv: list[str] | None = None) -> int:
    """CLI entry; exit 1 if any configuration diverges."""
    parser = argparse.ArgumentParser(
        description="Differential check: the scalar and wave simulation "
        "paths must produce bit-identical SimReports."
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
          "bit-identical reports on the scalar and wave paths)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
