#!/usr/bin/env python
"""Frozen builder golden: every case's profile, costed, bit for bit.

``repro.algorithms._build`` is the one place that turns a case's work
into an array profile. This tool pins what it builds against a golden
captured from an earlier, independent builder: one seeded configuration
per (machine x CPU backend x case) triple -- 3 x 6 x 33 = 594 -- each
with a drawn size (powers of two, odd sizes next to them, tiny n and
random interior sizes), thread count, allocator and element type, drawn
the way ``tools/diffcheck.py`` draws them.

For each configuration the golden holds the ``SimReport`` seconds as a
float-hex string plus a digest of diffcheck's ``_report_fields`` (every
counter and phase field), or the error the invocation raised. The file
names the commit it was captured at.

Two modes::

    python tools/builder_golden.py capture OUT.json   # from measure_case
    python tools/builder_golden.py check [GOLDEN]     # exit 1 on a mismatch

``capture`` costs each configuration through ``measure_case`` (the
scalar reference path); ``check`` builds every configuration's profile
with ``BenchCase.profile`` and costs them all as one fused wave, so it
runs in tier-1 time (``tests/algorithms/test_builder_golden.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO = TOOLS.parent
GOLDEN = REPO / "tests" / "algorithms" / "builder_golden.json"

if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import diffcheck  # noqa: E402 - sibling tool, path set above

#: Seed of the frozen sample.
SEED = 17


def golden_configs(seed: int = SEED) -> list[diffcheck.DiffConfig]:
    """One seeded configuration per (machine, CPU backend, case) triple."""
    diffcheck._ensure_importable()
    from repro.machines import get_machine
    from repro.suite.cases import case_names

    rng = random.Random(seed)
    configs = []
    for machine in diffcheck.MACHINES:
        cores = get_machine(machine).total_cores
        for backend in diffcheck.BACKENDS:
            for case in case_names():
                threads = rng.choice(
                    sorted({1, 2, 3, rng.randrange(1, cores + 1), cores})
                )
                configs.append(diffcheck.DiffConfig(
                    machine=machine, backend=backend,
                    allocator=rng.choice(diffcheck.ALLOCATORS), case=case,
                    n=diffcheck._random_size(rng), threads=threads,
                    dtype=rng.choice(diffcheck.DTYPES),
                ))
    return configs


def _entry(report) -> dict:
    """A report's golden entry: float-hex seconds plus a field digest."""
    fields = json.dumps(diffcheck._report_fields(report), separators=(",", ":"))
    return {"seconds": diffcheck._hex(report.seconds),
            "digest": hashlib.sha256(fields.encode()).hexdigest()[:24]}


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def capture(configs: list[diffcheck.DiffConfig]) -> dict[str, dict]:
    """Golden entries from the scalar path (``measure_case``)."""
    from repro.errors import ReproError

    entries = {}
    for config in configs:
        try:
            report, exc = diffcheck._scalar_run(config)
        except ReproError as err:
            entries[config.label()] = _error(err)
            continue
        entries[config.label()] = (
            _entry(report) if exc is None else {"error": exc}
        )
    return entries


def rebuild(configs: list[diffcheck.DiffConfig]) -> dict[str, dict]:
    """Golden entries from ``BenchCase.profile``, costed as one fused wave."""
    diffcheck._ensure_importable()
    from repro.errors import ReproError
    from repro.sim.wave import WaveEntry, fuse_wave, simulate_wave
    from repro.suite.cases import get_case
    from repro.types import elem_type

    entries: dict[str, dict] = {}
    built = []
    for config in configs:
        ctx = diffcheck._context(config)
        try:
            profile = get_case(config.case).profile(
                ctx, config.n, elem_type(config.dtype))
        except ReproError as err:
            entries[config.label()] = _error(err)
            continue
        built.append((config.label(), WaveEntry(ctx.machine, ctx.backend, profile)))
    reports = simulate_wave(fuse_wave([entry for _, entry in built]))
    for (label, _entry_), report in zip(built, reports):
        entries[label] = _entry(report)
    return {config.label(): entries[config.label()] for config in configs}


def mismatches(golden: dict[str, dict], got: dict[str, dict]) -> list[str]:
    """Labels whose entry differs from the golden's, with both values."""
    return [
        f"{label}: golden={golden.get(label)} got={got.get(label)}"
        for label in sorted(set(golden) | set(got))
        if golden.get(label) != got.get(label)
    ]


def load(path: Path = GOLDEN) -> dict:
    """The golden document (``commit``, ``seed``, ``entries``)."""
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    """CLI entry: ``capture OUT`` writes a golden, ``check`` compares."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cap = sub.add_parser("capture", help="write a golden from measure_case")
    cap.add_argument("out", type=Path)
    chk = sub.add_parser("check", help="compare BenchCase.profile to a golden")
    chk.add_argument("golden", type=Path, nargs="?", default=GOLDEN)
    args = parser.parse_args(argv)

    if args.command == "capture":
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        doc = {"commit": commit, "seed": SEED,
               "entries": capture(golden_configs(SEED))}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"captured {len(doc['entries'])} entries at {commit}")
        return 0

    doc = load(args.golden)
    bad = mismatches(doc["entries"], rebuild(golden_configs(doc["seed"])))
    for line in bad:
        print(f"  {line}", file=sys.stderr)
    print(f"builder golden: {len(doc['entries']) - len(bad)}/"
          f"{len(doc['entries'])} entries match ({doc['commit'][:12]})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
