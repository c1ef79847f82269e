"""Per-point vs. fused costing on one campaign, one engine.

    python examples/wave_campaign.py

Runs the paper's Table 5 grid (90 cells + 18 shared sequential
baselines) two ways (docs/PERFORMANCE.md):

1. **per point**: each runnable point alone through
   ``execute_point``, the executor's per-point path (its fallbacks and
   retries), which costs a CPU profile as a one-entry wave;
2. **wave-fused** (what ``run_campaign`` does): every eligible point of
   a campaign wave packed into one ``repro.sim.wave`` struct-of-arrays
   program, shared baselines computed once per cell.

It then proves the contract that makes fusion safe -- both give
*bit-identical* seconds -- prints the wall-clock ratio, and captures a
trace showing the ``wave.fuse`` / ``wave.execute`` spans.

Uses a large problem size so simulator work dominates. The fused
campaign is gated against the scalar reference engine by the
``cold_reference_speedup`` floor in ``tools/bench_trajectory.py``.
"""

import time

from repro.campaign import ResultStore, execute_point, run_campaign
from repro.campaign.plan import plan_campaign
from repro.scenarios import campaign_spec
from repro.trace import Tracer, use_tracer

SIZE_EXP = 26  # 2^26 elements; big enough for engine work to dominate


def main() -> None:
    spec = campaign_spec("table5", {"size_exps": [SIZE_EXP]})
    # warm imports and shared caches so the comparison is costing-vs-costing
    run_campaign(spec)
    tasks = plan_campaign(spec).runnable

    t0 = time.perf_counter()
    per_point = {t.task_id: execute_point(t.point.to_dict()) for t in tasks}
    per_point_wall = time.perf_counter() - t0
    print(f"{'per point':>16}: {per_point_wall * 1e3:7.1f} ms  "
          f"({len(per_point)} points)")

    t0 = time.perf_counter()
    fused = run_campaign(spec, store=ResultStore(None))
    fused_wall = time.perf_counter() - t0
    print(f"{'wave-fused':>16}: {fused_wall * 1e3:7.1f} ms  "
          f"({fused.stats.summary()})")

    print(f"\nfused over per point: {per_point_wall / fused_wall:5.2f}x")

    # the contract: two ways of costing, one set of bits
    for tid, payload in per_point.items():
        result = fused.results[tid]
        assert (result.status, result.seconds) == (payload["status"],
                                                   payload["seconds"])
    print("\nboth grids are bit-identical")

    # the observability story: two spans per fused wave, on track "wave"
    with use_tracer(Tracer()) as tracer:
        run_campaign(campaign_spec("table5", {"size_exps": [12]}))
    fuses = [s for s in tracer.spans if s.name == "wave.fuse"]
    executes = [s for s in tracer.spans if s.name == "wave.execute"]
    assert fuses and len(fuses) == len(executes)
    fused_points = sum(s.attributes["points"] for s in fuses)
    print(f"traced run: {len(fuses)} fused wave(s) covering "
          f"{fused_points} points, "
          f"{sum(s.duration for s in executes):.4f} simulated seconds")


if __name__ == "__main__":
    main()
