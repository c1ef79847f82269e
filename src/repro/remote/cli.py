"""``pstl-executor``: run one remote wave executor against a daemon.

A multi-host deployment is N shells running::

    pstl-executor --url http://coordinator:8631
    pstl-executor --url http://coordinator:8631
    ...

Each process registers with the daemon's executor registry, then loops:
claim a wave (the claim carries the registry's epoch for it; an idle
claim parks at the daemon until a wave is offered), compute it through
the shared simulator, seal the rows in memory, ship the sealed segment
back. An executor writes no file anywhere -- all
coordination is over HTTP. ``--root`` is accepted and ignored, so
command lines written when executors kept their segments on disk still
run.

Like the other CLIs, the daemon address can be given as ``--url`` or
resolved from a service root's ``service.json`` via ``--service-root``.
The run ends after ``--max-idle`` seconds without work (or
``--max-waves`` served) and prints a JSON summary of waves, rows and
re-ships.

``--faults`` activates the executor-side chaos sites
(``executor_dead``, ``segment_dup_ship``) from a standard fault plan;
the distributed identity harness uses this to kill executors mid-wave.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.faults import load_fault_plan
from repro.remote.executor import RemoteExecutor

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    """The ``pstl-executor`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="pstl-executor",
        description="remote wave executor for the campaign service")
    parser.add_argument("--url", help="daemon base URL (http://host:port)")
    parser.add_argument("--service-root",
                        help="service root; reads its service.json for the URL")
    parser.add_argument("--root",
                        help="ignored: executors keep no files (accepted "
                             "so older command lines still run)")
    parser.add_argument("--host",
                        help="advertised host label (default: pid-derived)")
    parser.add_argument("--max-idle", type=float, default=60.0,
                        help="exit after this many idle seconds")
    parser.add_argument("--max-waves", type=int,
                        help="exit after serving this many waves")
    parser.add_argument("--faults", help="fault plan JSON (executor chaos)")
    parser.add_argument("--fault-seed", type=int,
                        help="override the fault plan's seed")
    return parser


def _base_url(args: argparse.Namespace) -> str:
    """Resolve the daemon address from ``--url`` or a service root."""
    if args.url:
        return args.url
    if args.service_root:
        meta = json.loads((Path(args.service_root) / "service.json")
                          .read_text(encoding="utf-8"))
        return f"http://{meta['host']}:{meta['port']}"
    raise ReproError("pass --url or --service-root to locate the daemon")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        faults = None
        if args.faults:
            faults = load_fault_plan(args.faults)
            if args.fault_seed is not None:
                faults = faults.with_seed(args.fault_seed)
        executor = RemoteExecutor(_base_url(args), host=args.host,
                                  faults=faults)
        summary = executor.run(
            max_idle=args.max_idle, max_waves=args.max_waves)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"pstl-executor: {exc}", file=sys.stderr)
        return 1
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
