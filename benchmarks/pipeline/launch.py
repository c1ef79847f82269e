"""Launcher shim for every process the pipeline benchmark starts.

    python benchmarks/pipeline/launch.py suite-pass --store DIR --order fig1,... --spawned-at T
    python benchmarks/pipeline/launch.py probe --store DIR --spawned-at T
    python benchmarks/pipeline/launch.py service serve ROOT [pstl-service args]
    python benchmarks/pipeline/launch.py executor --service-root ROOT [pstl-executor args]

``service`` and ``executor`` hand their arguments to the unchanged
``pstl-service`` / ``pstl-executor`` ``main``. ``suite-pass`` runs the
registered scenarios once, in the given order, against a fresh on-disk
store; ``probe`` only imports the campaign layer and opens a store. Both
print one JSON line; ``setup_s`` in it is the time from the parent's
``--spawned-at`` (a ``perf_counter`` value, a host-wide clock on Linux)
to "imports done and store open".

When the environment names a span file in ``PIPELINE_TRACE_OUT``, the
shim installs the benchmark's layer wrappers before running the target
and writes the process's spans to that file on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
TRACE_ENV = "PIPELINE_TRACE_OUT"


def bootstrap() -> None:
    """Put the checkout's ``src/`` on ``sys.path``, or exit 2 if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipeline benchmark: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _canon(value):
    """JSON-ready form with every float spelled exactly (``float.hex``)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    raise TypeError(f"cannot digest {type(value).__name__}")


def scenario_digest(run) -> str:
    """sha256 over a scenario run's cells and curves, floats as hex."""
    doc = {"cells": _canon(dict(run.cells)), "curves": _canon(dict(run.curves))}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def suite_pass(order: list[str], store_dir: str, spawned_at: float) -> dict:
    """Run every scenario in ``order`` once; time the pass, then digest it."""
    from repro.campaign.store import ResultStore
    from repro.scenarios import run_scenario
    from repro.scenarios.analyses import RunOptions

    options = RunOptions(store=ResultStore(store_dir))
    ready = time.perf_counter()
    runs, errors = {}, {}
    for name in order:
        try:
            runs[name] = run_scenario(name, options)
        except Exception as exc:  # noqa: BLE001 - reported as a failed scenario
            errors[name] = f"{type(exc).__name__}: {exc}"
    pass_s = time.perf_counter() - ready
    return {
        "setup_s": ready - spawned_at,
        "pass_s": pass_s,
        "digests": {name: scenario_digest(run) for name, run in runs.items()},
        "errors": errors,
        "rss_mb": peak_rss_mb(),
    }


def probe(store_dir: str, spawned_at: float) -> dict:
    """Import the campaign layer and open a store: a cold start, nothing more."""
    from repro.campaign import ResultStore

    ResultStore(store_dir)
    return {"setup_s": time.perf_counter() - spawned_at}


def _emit(argv: list[str], role: str) -> int:
    parser = argparse.ArgumentParser(prog=f"launch.py {role}")
    parser.add_argument("--store", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--order", default="")
    args = parser.parse_args(argv)
    if role == "probe":
        doc = probe(args.store, args.spawned_at)
    else:
        doc = suite_pass([n for n in args.order.split(",") if n],
                         args.store, args.spawned_at)
    print(json.dumps(doc, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    """Dispatch ``role args...``; returns the process exit status."""
    if not argv:
        raise SystemExit("usage: launch.py {suite-pass,probe,service,executor} ...")
    role, rest = argv[0], argv[1:]
    bootstrap()
    trace_out = os.environ.get(TRACE_ENV)
    recorder = None
    if trace_out:
        import tracing

        recorder = tracing.install(role)
    try:
        if role in ("suite-pass", "probe"):
            return _emit(rest, role)
        if role == "service":
            from repro.service.cli import main as service_main

            return service_main(rest)
        if role == "executor":
            from repro.remote.cli import main as executor_main

            return executor_main(rest)
        raise SystemExit(f"launch.py: unknown role {role!r}")
    finally:
        if recorder is not None:
            recorder.uninstall()
            recorder.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
