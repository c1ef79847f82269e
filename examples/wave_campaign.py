"""The two engine tiers on one campaign: wave vs. scalar.

    python examples/wave_campaign.py

Runs the paper's Table 5 grid (90 cells + 18 shared sequential
baselines) through each of the executor's two tiers
(docs/PERFORMANCE.md):

1. **wave-fused** (the default): every eligible point of a campaign
   wave packed into one ``repro.sim.wave`` struct-of-arrays program,
   shared baselines computed once per cell;
2. **scalar** (``batch=False``, the CLI's ``--no-batch``): one Python
   simulation per point -- the reference engine.

It then proves the contract that makes the default safe -- both grids
are *bit-identical* -- prints the wall-clock ratio, and captures a
trace showing the ``wave.fuse`` / ``wave.execute`` spans.

Uses a large problem size so simulator work dominates: wave over scalar
is gated by the ``wave_speedup`` floor in ``tools/bench_trajectory.py``.
"""

import time

from repro.campaign import ResultStore, run_campaign, speedup_grid
from repro.experiments.table5 import table5_campaign_spec
from repro.trace import Tracer, use_tracer

SIZE_EXP = 26  # 2^26 elements; big enough for engine work to dominate


def _timed(label: str, **kwargs):
    spec = table5_campaign_spec(SIZE_EXP)
    t0 = time.perf_counter()
    outcome = run_campaign(spec, store=ResultStore(None), **kwargs)
    wall = time.perf_counter() - t0
    print(f"{label:>16}: {wall * 1e3:7.1f} ms  ({outcome.stats.summary()})")
    return outcome, wall


def main() -> None:
    # warm imports and shared caches so the comparison is engine-vs-engine
    run_campaign(table5_campaign_spec(SIZE_EXP))

    wave, wave_wall = _timed("wave-fused")
    scalar, scalar_wall = _timed("scalar", batch=False)

    print(f"\nwave over scalar: {scalar_wall / wave_wall:5.2f}x")

    # the contract: two executors, one set of bits
    assert speedup_grid(wave) == speedup_grid(scalar)
    for tid, result in wave.results.items():
        assert result.seconds == scalar.results[tid].seconds
    print("\nboth grids are bit-identical")

    # the observability story: two spans per fused wave, on track "wave"
    with use_tracer(Tracer()) as tracer:
        run_campaign(table5_campaign_spec(12))
    fuses = [s for s in tracer.spans if s.name == "wave.fuse"]
    executes = [s for s in tracer.spans if s.name == "wave.execute"]
    assert fuses and len(fuses) == len(executes)
    fused_points = sum(s.attributes["points"] for s in fuses)
    print(f"traced run: {len(fuses)} fused wave(s) covering "
          f"{fused_points} points, "
          f"{sum(s.duration for s in executes):.4f} simulated seconds")


if __name__ == "__main__":
    main()
