"""Pipeline benchmark: four end-to-end workloads and a traced per-layer split.

Run (from the repository root)::

    python3 benchmarks/pipeline/run.py --workload grid-cold --seed 0 --seconds 10
    python3 benchmarks/pipeline/run.py --seed 0                  # all four
    python3 benchmarks/pipeline/run.py --seed 0 --trace 1 --trace-dir out/
    python3 benchmarks/pipeline/run.py --seed 0 --out a.jsonl    # append records
    python3 benchmarks/pipeline/run.py compare a.jsonl b.jsonl
    python3 benchmarks/pipeline/run.py golden                    # rewrite golden.json

An untraced run prints every end-to-end metric of BENCHMARK.json with
its unit; ``--trace 1`` instead runs the workload twice on one set-up
(untraced, then with the benchmark's layer wrappers installed) and
prints the per-layer metrics, writing ``trace-<workload>.json``
(Chrome/Perfetto) and ``layers-<workload>.json`` to the trace directory.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
status is 1 when a correctness gate failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import launch

BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = launch.ROOT / ".pipeline_bench"
SPEC_PATH = launch.ROOT / "BENCHMARK.json"

#: Units of the end-to-end metrics (the order they are printed in).
E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: What one work item and one latency sample are, per workload.
ITEMS = {
    "paper-suite": ("scenarios", "one pass over every scenario"),
    "grid-cold": ("executed points", "one cold grid campaign"),
    "grid-warm": ("cache-hit points", "one warm grid pass"),
    "service-fleet": ("campaigns", "one cold submit -> results turnaround"),
}


def _benchmark_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def run_one(name: str, seed: int, seconds: float, trace_dir: Path | None) -> dict:
    """Run one workload once; returns its result record."""
    import tracing
    import workloads

    work = STATE_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.WORKLOADS[name](seed, work)
    detail: dict = {}
    try:
        if trace_dir is None:
            workload.setup()
            measured = workload.measure(seconds, workload.min_units)
            workload.close()
            workload.check()
            values = workloads.e2e_metrics(workload, measured)
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
            detail = measured.detail
        else:
            session = workloads.TraceSession(trace_dir / f"spans-{name}")
            ref, traced = workload.run_traced(seconds, session)
            workload.close()
            workload.check()
            spans, roles = session.collect()
            overhead = (ref.items_per_s / traced.items_per_s
                        if traced.items_per_s else 0.0)
            values = tracing.layer_metrics(spans, traced.window, traced.counters,
                                           overhead_ratio=overhead, items=traced.items)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in tracing.PER_LAYER_UNITS.items()}
            origin = min((s.start for s in spans), default=0.0)
            (trace_dir / f"trace-{name}.json").write_text(
                json.dumps(tracing.chrome_trace(spans, roles, origin)),
                encoding="utf-8")
            (trace_dir / f"layers-{name}.json").write_text(json.dumps({
                "workload": name, "seed": seed, "seconds": seconds,
                "window_s": traced.window[1] - traced.window[0],
                "metrics": metrics,
            }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            shutil.rmtree(session.dir, ignore_errors=True)
            detail = {"untraced": ref.detail, "traced": traced.detail}
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    failed = len(workload.failures)
    attempted = max(workload.attempted, 1)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace_dir is not None),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics, "detail": detail,
        "failures": workload.failures[:20],
    }


def _print_record(record: dict) -> None:
    items, unit = ITEMS[record["workload"]]
    print(f"pipeline benchmark: {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']}")
    print(f"  (items = {items}; latency = {unit})")
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"failed_ratio={record['failed_ratio']:.4g}")
    if record["detail"]:
        print(f"  detail: {json.dumps(record['detail'], sort_keys=True)}")
    for message in record["failures"]:
        print(f"  FAILED: {message}")


def _append(out: Path | None, record: dict) -> None:
    if out is not None:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _run(args: argparse.Namespace) -> int:
    trace_dir = None
    if args.trace:
        trace_dir = Path(args.trace_dir) if args.trace_dir else STATE_DIR / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else None
    if args.workload:
        record = run_one(args.workload, args.seed, args.seconds, trace_dir)
        _print_record(record)
        _append(out, record)
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if record["correct"] else 1
    # All workloads, each in its own process so peak RSS and imports
    # belong to that workload alone.
    records = []
    for name in ITEMS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        if out is not None:
            cmd += ["--out", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines else {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        records.append((name, result))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in records),
        "attempted": sum(r["attempted"] for _, r in records),
        "failed": sum(r["failed"] for _, r in records),
        "workloads": {name: r["metrics"] for name, r in records},
    }))
    return 0 if all(r["correct"] for _, r in records) else 1


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_rows(a: list[dict], b: list[dict], spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both sets."""
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        worse_sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in ITEMS:
            va = [r["metrics"][name]["value"] for r in a
                  if r["workload"] == workload and name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b
                  if r["workload"] == workload and name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            diff = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = diff * worse_sign
            all_better = all(x * worse_sign < y * worse_sign for x in vb for y in va)
            if max(spread_a, spread_b) > bound:
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif -worse > spread_a:
                verdict = "better"
            else:
                verdict = "within"
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "a": qa, "b": qb, "n_a": len(va), "n_b": len(vb),
                         "diff": diff, "bound": bound, "verdict": verdict})
    return rows


def _compare(paths: list[str]) -> int:
    if len(paths) != 2:
        print("usage: run.py compare A.jsonl B.jsonl", file=sys.stderr)
        return 2
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sets.append([r for r in map(json.loads, filter(str.strip, fh))
                         if not r.get("trace")])
    rows = compare_rows(sets[0], sets[1], _benchmark_spec())
    print(f"{'workload':<14} {'metric':<15} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'diff':>8} {'bound':>6}  verdict")
    for row in rows:
        a = f"{row['a'][1]:.5g} [{row['a'][0]:.5g}, {row['a'][2]:.5g}] n={row['n_a']}"
        b = f"{row['b'][1]:.5g} [{row['b'][0]:.5g}, {row['b'][2]:.5g}] n={row['n_b']}"
        print(f"{row['workload']:<14} {row['metric']:<15} {a:<30} {b:<30} "
              f"{row['diff']:>+8.2%} {row['bound']:>6.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def _golden() -> int:
    """Regenerate golden.json from one pass over every scenario."""
    import workloads

    from repro.scenarios import scenario_names

    store = STATE_DIR / "golden-store"
    shutil.rmtree(store, ignore_errors=True)
    doc, err = workloads.run_child(["suite-pass", "--store", str(store),
                                  "--order", ",".join(scenario_names()),
                                  "--spawned-at", repr(time.perf_counter())])
    shutil.rmtree(store, ignore_errors=True)
    if doc is None or doc["errors"]:
        print(f"golden: pass failed: {err or doc['errors']}", file=sys.stderr)
        return 1
    workloads.GOLDEN.write_text(json.dumps({"scenarios": doc["digests"]},
                                           indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {len(doc['digests'])} digests to {workloads.GOLDEN}")
    return 0


def _parser(default_seconds: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description="pipeline benchmark (see README.md)")
    parser.add_argument("--workload", choices=sorted(ITEMS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="timed seconds per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-dir",
                        help="where a traced run writes its files "
                             "(default .pipeline_bench/trace)")
    parser.add_argument("--out", help="append one JSON record per workload run")
    return parser


def main(argv: list[str]) -> int:
    """Entry point; returns the exit status."""
    launch.bootstrap()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    if argv and argv[0] == "golden":
        return _golden()
    args = _parser(_benchmark_spec()["run_seconds"]).parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
