"""``pstl-service``: run and talk to the campaign daemon from a shell.

Subcommands mirror the service's lifecycle::

    pstl-service serve ROOT [--port P] [--concurrent N] [--faults plan.json]
    pstl-service submit SPEC.json --url http://... [--wait]
    pstl-service submit --scenario table5 --url http://... [--override J]
    pstl-service status CAMPAIGN_ID --url http://...
    pstl-service events CAMPAIGN_ID --url http://... [--offset N]
    pstl-service results CAMPAIGN_ID --url http://...
    pstl-service store --url http://...
    pstl-service executors --url http://...
    pstl-service loadgen --url http://... [--submissions N] [--concurrency N]

``--root ROOT`` may replace ``--url`` on every client subcommand: the
daemon publishes its bound address to ``<root>/service.json`` when it
starts listening, so scripts that launched ``serve`` against a known
root never have to parse ports out of logs. All outputs are JSON on
stdout (one document per invocation); exit status is 0 on success,
1 on any service/transport error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.faults import load_fault_plan
from repro.service.client import ServiceClient
from repro.service.daemon import serve
from repro.service.loadgen import LoadgenConfig, assert_slo, run_loadgen
from repro.service.quotas import QuotaPolicy

__all__ = ["main"]


def _emit(doc: Any) -> None:
    """Print one JSON document to stdout."""
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _base_url(args: argparse.Namespace) -> str:
    """Resolve the daemon address from ``--url`` or ``<root>/service.json``."""
    if args.url:
        return args.url
    if args.root:
        meta = json.loads(
            (Path(args.root) / "service.json").read_text(encoding="utf-8"))
        return f"http://{meta['host']}:{meta['port']}"
    raise ReproError("pass --url or --root to locate the daemon")


def _add_target(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--url`` / ``--root`` / ``--api-key`` options."""
    parser.add_argument("--url", help="daemon base URL (http://host:port)")
    parser.add_argument("--root", help="service root; reads its service.json")
    parser.add_argument("--api-key", default="cli",
                        help="identity quotas are enforced against")


def _build_parser() -> argparse.ArgumentParser:
    """The ``pstl-service`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="pstl-service",
        description="campaign-as-a-service daemon and client")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the daemon in the foreground")
    p.add_argument("root", help="service root directory (store + campaigns)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port (published to service.json)")
    p.add_argument("--concurrent", type=int, default=2,
                   help="campaigns executing at once")
    p.add_argument("--workers", type=int, default=0,
                   help="process-pool width inside each campaign")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="per-API-key in-flight campaign cap")
    p.add_argument("--max-points", type=int, default=100_000,
                   help="largest admissible campaign (planned points)")
    p.add_argument("--max-queue", type=int, default=256,
                   help="total campaigns admitted but unfinished")
    p.add_argument("--faults", help="fault plan JSON (service chaos mode)")
    p.add_argument("--fault-seed", type=int,
                   help="override the fault plan's seed")
    p.add_argument("--lease-ttl", type=float, default=5.0,
                   help="remote wave lease TTL in seconds")
    p.add_argument("--executor-ttl", type=float, default=10.0,
                   help="executor liveness window in seconds")
    p.add_argument("--wave-timeout", type=float, default=60.0,
                   help="reclaim a remote wave for local execution after this")

    p = sub.add_parser("submit", help="submit a campaign spec or scenario")
    p.add_argument("spec", nargs="?",
                   help="path to the campaign spec JSON")
    p.add_argument("--scenario", metavar="NAME",
                   help="submit a registered scenario by name instead "
                        "of a spec file")
    p.add_argument("--override", metavar="JSON", default=None,
                   help="axis overrides for --scenario, as a JSON "
                        'object (e.g. \'{"size_exps": [12]}\')')
    _add_target(p)
    p.add_argument("--wait", action="store_true",
                   help="block until the campaign reaches a terminal state")
    p.add_argument("--max-attempts", type=int, default=8,
                   help="retry budget for 429/503 + Retry-After")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait budget in seconds")

    p = sub.add_parser("status", help="one campaign's state and progress")
    p.add_argument("id")
    _add_target(p)

    p = sub.add_parser("events", help="journal rows past a byte offset")
    p.add_argument("id")
    _add_target(p)
    p.add_argument("--offset", type=int, default=0,
                   help="resume cursor from a prior call's next_offset")

    p = sub.add_parser("results", help="a finished campaign's result rows")
    p.add_argument("id")
    _add_target(p)

    p = sub.add_parser("store", help="shared-cache stats off the result table")
    _add_target(p)

    p = sub.add_parser("executors",
                       help="the remote executor registry and its counters")
    _add_target(p)

    p = sub.add_parser("loadgen", help="drive the SLO load harness")
    _add_target(p)
    p.add_argument("--submissions", type=int, default=1000)
    p.add_argument("--concurrency", type=int, default=64)
    p.add_argument("--warm-fraction", type=float, default=0.25)
    p.add_argument("--dup-fraction", type=float, default=0.25)
    p.add_argument("--check", action="store_true",
                   help="exit non-zero when the run violates the SLOs")
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the daemon until SIGTERM/SIGINT."""
    faults = None
    if args.faults:
        faults = load_fault_plan(args.faults)
        if args.fault_seed is not None:
            faults = faults.with_seed(args.fault_seed)
    serve(
        args.root, host=args.host, port=args.port,
        policy=QuotaPolicy(max_inflight_per_key=args.max_inflight,
                           max_points_per_campaign=args.max_points,
                           max_queue=args.max_queue),
        concurrent=args.concurrent, campaign_workers=args.workers,
        faults=faults,
        lease_ttl=args.lease_ttl, executor_ttl=args.executor_ttl,
        wave_timeout=args.wave_timeout,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a spec file or a named scenario; optionally wait."""
    if (args.spec is None) == (args.scenario is None):
        raise ReproError("pass exactly one of SPEC.json or --scenario NAME")
    if args.override is not None and args.scenario is None:
        raise ReproError("--override only applies to --scenario submissions")
    if args.scenario:
        payload = {"scenario": args.scenario}
        if args.override:
            overrides = json.loads(args.override)
            if not isinstance(overrides, dict):
                raise ReproError("--override must be a JSON object")
            payload.update(overrides)
    else:
        payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    client = ServiceClient(_base_url(args), api_key=args.api_key)
    doc = client.submit(payload, max_attempts=args.max_attempts)
    if args.wait:
        doc = client.wait(doc["id"], timeout=args.timeout)
    _emit(doc)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Run the load generator and print its report."""
    config = LoadgenConfig(
        submissions=args.submissions, concurrency=args.concurrency,
        warm_fraction=args.warm_fraction, dup_fraction=args.dup_fraction,
    )
    report = run_loadgen(_base_url(args), config)
    _emit(report.to_dict())
    if args.check:
        assert_slo(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            _emit(ServiceClient(_base_url(args),
                                api_key=args.api_key).status(args.id))
            return 0
        if args.command == "events":
            _emit(ServiceClient(_base_url(args), api_key=args.api_key)
                  .events(args.id, args.offset))
            return 0
        if args.command == "results":
            _emit(ServiceClient(_base_url(args),
                                api_key=args.api_key).results(args.id))
            return 0
        if args.command == "store":
            _emit(ServiceClient(_base_url(args),
                                api_key=args.api_key).store())
            return 0
        if args.command == "executors":
            _emit(ServiceClient(_base_url(args),
                                api_key=args.api_key).executors())
            return 0
        if args.command == "loadgen":
            return _cmd_loadgen(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"pstl-service: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
