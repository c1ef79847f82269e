"""Table 5 as a campaign: cold run, warm cache, interrupt + resume.

    python examples/campaign_table5.py

Walks the whole `repro.campaign` loop on the paper's Table 5 grid
(90 cells + 18 shared sequential baselines, 9 of them N/A by
construction):

1. a **cold run** into a campaign directory executes every point and
   journals it;
2. a **warm re-run** of the same spec is served entirely from the
   content-addressed cache -- zero simulator invocations, bit-identical
   values;
3. a simulated **interruption** (the journal cut in half, the cache
   wiped) resumes from the journal and recomputes only the missing
   tasks.

Uses a small problem size to finish in seconds; the paper-scale grid is
``campaign_spec("table5")`` (or ``pstl-campaign run --spec table5``).
"""

import shutil
import tempfile
import time
from pathlib import Path

from repro.campaign import run_campaign, speedup_grid
from repro.scenarios import ScenarioRun, campaign_spec, get_scenario

SIZE_EXP = 16  # 2^16 elements; the paper's grid uses 2^30


def main() -> None:
    spec = campaign_spec("table5", {"size_exps": [SIZE_EXP]})
    workdir = Path(tempfile.mkdtemp(prefix="campaign_table5_"))
    cdir = workdir / "t5"
    try:
        # --- 1. cold run --------------------------------------------------
        t0 = time.perf_counter()
        cold = run_campaign(spec, campaign_dir=cdir)
        cold_wall = time.perf_counter() - t0
        print(f"cold: {cold.stats.summary()}  ({cold_wall:.2f}s wall)")

        # --- 2. warm re-run: pure cache ----------------------------------
        t0 = time.perf_counter()
        warm = run_campaign(spec, campaign_dir=cdir, resume=True)
        warm_wall = time.perf_counter() - t0
        print(f"warm: {warm.stats.summary()}  ({warm_wall:.2f}s wall)")
        assert warm.stats.executed == 0
        assert speedup_grid(warm) == speedup_grid(cold)  # bit-identical

        # --- 3. interrupt + resume ---------------------------------------
        journal = cdir / "journal.jsonl"
        lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
        journal.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
        shutil.rmtree(cdir / "cache")  # make the cut tasks truly recompute
        resumed = run_campaign(spec, campaign_dir=cdir, resume=True)
        print(f"resume after interrupt: {resumed.stats.summary()}")
        assert speedup_grid(resumed) == speedup_grid(cold)

        # --- the speedup cells -------------------------------------------
        print()
        print(ScenarioRun(get_scenario("table5"),
                          cells=speedup_grid(resumed)).rendered())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
