"""Generate ``refdata/*.json`` from the paper transcription below.

The single source of truth for the fidelity harness's reference data:
every claim (paper value, tolerance band, ordering statement, crossover
threshold) and every waiver (documented deviation + its EXPERIMENTS.md
citation) is authored here and serialised through the
``repro.fidelity.refdata`` schema. Re-run after editing::

    PYTHONPATH=src python tools/gen_refdata.py

Every artifact also carries one ``golden`` claim on its ``output``
object: the registered scenario's cells and curves as float hex, so any
change to a scenario's output is a deviation that names the cell. The
stored goldens (``output`` everywhere, plus fig3's trace-structure
summary) are *not* rewritten by this script -- they are refreshed
explicitly with ``pstl-fidelity run --update-golden`` so a model change
never silently re-blesses them; a golden missing from its refdata file
is seeded from a fresh measurement.

Paper values are transcribed from the ICPP 2024 text (Tables 3-7,
Figures 1-9) and mirror EXPERIMENTS.md's "paper" columns. Tolerance
bands follow the repo's calibration policy: [0.55, 1.8] for the Table 5
speedup grid (``pstl-fidelity run --artifact table5 --verbose`` prints
each cell's measured/paper ratio), tighter bands where the
reproduction is exact by construction (binary sizes, counter columns),
and absolute bounds for statements like "never exceeds the STREAM
ratio".
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.errors import FidelityError  # noqa: E402
from repro.fidelity.artifacts import build_artifact  # noqa: E402
from repro.fidelity.refdata import (  # noqa: E402
    ArtifactRef,
    Claim,
    Waiver,
    load_refdata,
    save_refdata,
)

# --- paper transcriptions ---------------------------------------------------

#: Table 5 speedups (Mach A, B, C); None = the paper's N/A.
TABLE5_PAPER = {
    ("GCC-TBB", "find"): (8.9, 5.8, 4.7),
    ("GCC-TBB", "for_each_k1"): (14.2, 6.1, 8.5),
    ("GCC-TBB", "for_each_k1000"): (32.5, 54.9, 102.0),
    ("GCC-TBB", "inclusive_scan"): (4.5, 3.1, 4.7),
    ("GCC-TBB", "reduce"): (10.0, 5.1, 6.9),
    ("GCC-TBB", "sort"): (9.7, 9.4, 10.6),
    ("GCC-GNU", "find"): (8.0, 3.2, 2.2),
    ("GCC-GNU", "for_each_k1"): (15.0, 7.8, 9.1),
    ("GCC-GNU", "for_each_k1000"): (32.5, 54.9, 106.5),
    ("GCC-GNU", "inclusive_scan"): None,
    ("GCC-GNU", "reduce"): (11.0, 4.7, 6.0),
    ("GCC-GNU", "sort"): (25.4, 26.9, 66.6),
    ("GCC-HPX", "find"): (6.4, 1.4, 1.1),
    ("GCC-HPX", "for_each_k1"): (7.2, 1.8, 1.4),
    ("GCC-HPX", "for_each_k1000"): (32.4, 43.7, 84.8),
    ("GCC-HPX", "inclusive_scan"): (3.0, 0.9, 1.0),
    ("GCC-HPX", "reduce"): (7.3, 0.9, 1.2),
    ("GCC-HPX", "sort"): (10.1, 8.0, 8.1),
    ("ICC-TBB", "find"): (9.0, None, 4.8),
    ("ICC-TBB", "for_each_k1"): (13.9, None, 8.2),
    ("ICC-TBB", "for_each_k1000"): (32.5, None, 106.7),
    ("ICC-TBB", "inclusive_scan"): (4.5, None, 4.7),
    ("ICC-TBB", "reduce"): (10.2, None, 6.8),
    ("ICC-TBB", "sort"): (10.1, None, 9.0),
    ("NVC-OMP", "find"): (6.1, 1.4, 1.2),
    ("NVC-OMP", "for_each_k1"): (22.1, 15.0, 13.0),
    ("NVC-OMP", "for_each_k1000"): (32.0, 54.8, 106.5),
    ("NVC-OMP", "inclusive_scan"): (0.9, 0.8, 0.9),
    ("NVC-OMP", "reduce"): (11.0, 4.8, 11.9),
    ("NVC-OMP", "sort"): (7.1, 6.3, 6.7),
}

#: The Table 5 calibration band (measured / paper speedup).
T5_BAND = (0.55, 1.8)

MACHS = ("A", "B", "C")
CASES = ("find", "for_each_k1", "for_each_k1000", "inclusive_scan", "reduce", "sort")
BACKENDS = ("GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP")

#: The five out-of-band Table 5 cells, with their EXPERIMENTS.md causes.
TABLE5_WAIVERS = {
    ("GCC-HPX", "find", "C"): (
        "the model's HPX remote-traffic penalty overshoots on Zen 3",
        "HPX's Zen-3 remote-traffic penalty overshoots for tiny per-element work",
    ),
    ("GCC-HPX", "for_each_k1", "B"): (
        "the paper's HPX collapse on Zen 1 is non-monotone in thread count "
        "and not representable by the model",
        "likely an HPX-1.9.1/Zen-1 pathology",
    ),
    ("GCC-HPX", "for_each_k1", "C"): (
        "same mechanism as the Zen-1 HPX collapse",
        "likely an HPX-1.9.1/Zen-1 pathology",
    ),
    ("GCC-GNU", "reduce", "B"): (
        "Zen-1 reduce pathology specific to the (GNU, Mach B) pair",
        "our read-only NUMA quality is calibrated against the machine, not "
        "per backend-machine pair",
    ),
    ("NVC-OMP", "reduce", "B"): (
        "Zen-1 reduce pathology specific to the (NVC, Mach B) pair",
        "the same backend is simultaneously worst-on-B and best-on-C",
    ),
}

#: Table 3 counters on Mach A (100x for_each k=1).
TABLE3_PAPER = {
    "GCC-TBB": {"instructions": 1.72e12, "data_volume_gib": 2128, "bandwidth_gib": 107.6},
    "GCC-GNU": {"instructions": 2.41e12, "data_volume_gib": 1925, "bandwidth_gib": 116.6},
    "GCC-HPX": {"instructions": 3.83e12, "data_volume_gib": 1850, "bandwidth_gib": 75.6},
    "ICC-TBB": {"instructions": 1.55e12, "data_volume_gib": 2151, "bandwidth_gib": 104.5},
    "NVC-OMP": {"instructions": 2.24e12, "data_volume_gib": 1762, "bandwidth_gib": 119.1},
}

#: Table 4 counters on Mach A (100x reduce).
TABLE4_PAPER_INSTR = {
    "GCC-TBB": 188e9,
    "GCC-GNU": 227e9,
    "GCC-HPX": 1.74e12,
    "ICC-TBB": 107e9,
    "NVC-OMP": 295e9,
}

#: Table 7 binary sizes (MiB).
TABLE7_PAPER = {
    "GCC-SEQ": 2.52, "GCC-TBB": 17.21, "GCC-GNU": 5.31, "GCC-HPX": 61.98,
    "ICC-TBB": 16.64, "NVC-OMP": 1.81, "NVC-CUDA": 7.80,
}

#: Fig. 3 maximum speedups (k=1 and k=1000; Mach A, B, C).
FIG3_PAPER = {
    "GCC-TBB": {"k1": (14.2, 6.1, 8.5), "k1000": (32.5, 54.9, 102.0)},
    "GCC-GNU": {"k1": (15.0, 7.8, 9.1), "k1000": (32.5, 54.9, 106.5)},
    "GCC-HPX": {"k1": (7.2, 1.8, 1.4), "k1000": (32.4, 43.7, 84.8)},
    "NVC-OMP": {"k1": (22.1, 15.0, 13.0), "k1000": (32.0, 54.8, 106.5)},
    "ICC-TBB": {"k1": (13.9, None, 8.2), "k1000": (32.5, None, 106.7)},
}

HPX_ZEN_CITE = "HPX k=1 on B/C lands at 5.7/6.1 vs the paper's 1.8/1.4"


def _t5_key(backend: str, case: str, mach: str) -> str:
    return f"{backend}/{case}/{mach}"


def _goldens(artifact: str, claims: Iterable[Claim]) -> dict:
    """The stored goldens ``claims`` reference; missing ones are seeded.

    Stored goldens are preserved as they are (only ``pstl-fidelity run
    --update-golden`` re-blesses them); a golden absent from the refdata
    file is taken from a fresh measurement of the artifact.
    """
    try:
        goldens = dict(load_refdata(artifact).goldens)
    except FidelityError:
        goldens = {}
    wanted = [c.cell for c in claims if c.kind == "golden"]
    missing = [key for key in wanted if key not in goldens]
    if missing:
        objects = build_artifact(artifact).objects
        goldens.update({key: objects[key] for key in missing})
    return {key: goldens[key] for key in wanted}


def _artifact_ref(artifact: str, title: str, source: str,
                  claims: Iterable[Claim],
                  waivers: Iterable[Waiver] = ()) -> ArtifactRef:
    """One artifact's refdata: its claims plus the ``output`` golden."""
    claims = (*claims, Claim(
        # f1 ... f9, t3 ... t7 like the other claim ids
        id=f"{artifact[0]}{artifact[-1]}-output", kind="golden", cell="output",
        note="every cell and curve point of the registered scenario, as "
        "float hex (frozen from the output of the former per-figure "
        "drivers; a deviation names each changed cell)"))
    return ArtifactRef(
        artifact=artifact, title=title, source=source, claims=claims,
        waivers=tuple(waivers), goldens=_goldens(artifact, claims),
    )


def fig1_ref() -> ArtifactRef:
    """Fig. 1: custom-allocator speedup ratios on Mach A."""
    claims = [
        Claim(id="f1-foreach-k1-gain", kind="ratio", cell="GCC-TBB/for_each_k1",
              paper=1.63, band=(0.85, 1.2),
              note="paper: custom allocator helps for_each(k=1) by up to +63%"),
        Claim(id="f1-reduce-gain", kind="ratio", cell="GCC-TBB/reduce",
              paper=1.50, band=(0.85, 1.25),
              note="paper: reduce gains up to +50%"),
        Claim(id="f1-foreach-k1000-neutral", kind="ratio",
              cell="GCC-TBB/for_each_k1000", paper=1.0, band=(0.95, 1.05),
              note="paper: no effect for compute-bound for_each"),
        Claim(id="f1-sort-neutral", kind="ratio", cell="GCC-TBB/sort",
              paper=1.0, band=(0.8, 1.25),
              note="paper: no effect for sort; we show a small residual gain"),
        Claim(id="f1-find-sign", kind="ratio", cell="GCC-TBB/find",
              paper=0.76, band=(0.8, 1.25),
              note="paper: -24% for find (waived: sign not reproducible, "
              "see EXPERIMENTS.md Fig. 1)"),
        Claim(id="f1-scan-sign", kind="ratio", cell="GCC-TBB/inclusive_scan",
              paper=0.81, band=(0.8, 1.25),
              note="paper: -19% for inclusive_scan (waived, same argument)"),
        Claim(id="f1-find-least", kind="ordering", cell="GCC-TBB/find",
              expect="min",
              group=("GCC-TBB/find", "GCC-TBB/for_each_k1",
                     "GCC-TBB/reduce", "GCC-TBB/sort"),
              note="find is the clear non-beneficiary among the active cases"),
        Claim(id="f1-foreach-k1-most", kind="ordering",
              cell="GCC-TBB/for_each_k1", expect="max",
              group=("GCC-TBB/find", "GCC-TBB/for_each_k1",
                     "GCC-TBB/inclusive_scan", "GCC-TBB/sort"),
              note="for_each(k=1) benefits most"),
        Claim(id="f1-gnu-scan-na", kind="na", cell="GCC-GNU/inclusive_scan",
              note="GNU has no parallel scan"),
        Claim(id="f1-nvc-scan-least", kind="ordering",
              cell="NVC-OMP/inclusive_scan", expect="min",
              group=("NVC-OMP/inclusive_scan", "NVC-OMP/for_each_k1",
                     "NVC-OMP/reduce"),
              note="NVC's sequential-fallback scan cannot benefit"),
    ]
    for backend in ("GCC-GNU", "ICC-TBB", "NVC-OMP"):
        b = backend.lower()
        claims += [
            Claim(id=f"f1-{b}-foreach-k1-gain", kind="bound",
                  cell=f"{backend}/for_each_k1", min=1.35, max=1.95,
                  note="every backend gains substantially (paper: up to +63%)"),
            Claim(id=f"f1-{b}-reduce-gain", kind="bound",
                  cell=f"{backend}/reduce", min=1.3, max=1.95,
                  note="every backend gains on reduce (paper: up to +50%)"),
            Claim(id=f"f1-{b}-foreach-k1000-neutral", kind="bound",
                  cell=f"{backend}/for_each_k1000", min=0.93, max=1.07,
                  note="no effect for compute-bound for_each"),
            Claim(id=f"f1-{b}-sort-neutral", kind="bound",
                  cell=f"{backend}/sort", max=1.35,
                  note="little effect for sort"),
        ]
    waivers = [
        Waiver(claim="f1-find-sign",
               reason="the paper's find slowdown is inconsistent with its own "
               "Table 5 row; ordering is preserved, the sign is not",
               experiments_md="we preserve ordering, not sign"),
        Waiver(claim="f1-scan-sign",
               reason="same paper-internal inconsistency as find",
               experiments_md="we preserve ordering, not sign"),
    ]
    return _artifact_ref(
        artifact="fig1",
        title="Custom parallel allocator speedup (Mach A, 32 threads, 2^30)",
        source="Figure 1",
        claims=tuple(claims), waivers=tuple(waivers),
    )


def fig2_ref() -> ArtifactRef:
    """Fig. 2: for_each problem-size scaling."""
    claims = []
    for mach, measured_exp in (("A", 14), ("B", 15), ("C", 16)):
        claims.append(Claim(
            id=f"f2-crossover-{mach.lower()}", kind="crossover",
            curve_a=f"{mach}/k1/GCC-TBB", curve_b=f"{mach}/k1/GCC-SEQ",
            paper_x=2 ** 16, steps=2,
            note=f"paper: parallel pays off 'around 2^16' (benefits start "
            f"2^10-2^16); ours crosses at 2^{measured_exp} on Mach {mach}"))
    parallel = ("GCC-TBB", "GCC-GNU", "GCC-HPX", "NVC-OMP")
    for mach in MACHS:
        group = tuple(f"{mach}/k1/{b}/t@2^30" for b in parallel)
        claims.append(Claim(
            id=f"f2-nvc-fastest-{mach.lower()}", kind="ordering",
            cell=f"{mach}/k1/NVC-OMP/t@2^30", expect="min", group=group,
            note="NVC-OMP is the fastest parallel backend at k=1 at scale"))
        claims.append(Claim(
            id=f"f2-hpx-slowest-{mach.lower()}", kind="ordering",
            cell=f"{mach}/k1/GCC-HPX/t@2^30", expect="max", group=group,
            note="HPX is the slowest parallel backend everywhere"))
    return _artifact_ref(
        artifact="fig2",
        title="for_each problem scaling (Mach A/B/C, k in {1, 1000})",
        source="Figure 2",
        claims=tuple(claims),
    )


def fig3_ref() -> ArtifactRef:
    """Fig. 3: for_each strong scaling at 2^30."""
    claims = []
    waivers = []
    for backend, by_k in FIG3_PAPER.items():
        for k, per_mach in by_k.items():
            band = T5_BAND if k == "k1" else (0.8, 1.25)
            for mach, paper in zip(MACHS, per_mach):
                if paper is None:
                    continue
                cid = f"f3-{backend.lower()}-{k}-{mach.lower()}"
                claims.append(Claim(
                    id=cid, kind="ratio",
                    cell=f"{backend}/{k}/{mach}/max_speedup",
                    paper=paper, band=band))
    for mach in ("B", "C"):
        waivers.append(Waiver(
            claim=f"f3-gcc-hpx-k1-{mach.lower()}",
            reason="the paper's HPX collapse on the Zen machines is deeper "
            "than the contention + NUMA-decay model produces",
            experiments_md=HPX_ZEN_CITE))
    for mach in MACHS:
        group = tuple(f"{b}/k1/{mach}/max_speedup"
                      for b in ("GCC-TBB", "GCC-GNU", "GCC-HPX", "NVC-OMP"))
        claims.append(Claim(
            id=f"f3-nvc-leads-k1-{mach.lower()}", kind="ordering",
            cell=f"NVC-OMP/k1/{mach}/max_speedup", expect="max", group=group,
            note="NVC-OMP leads k=1 on every machine"))
        claims.append(Claim(
            id=f"f3-hpx-trails-k1-{mach.lower()}", kind="ordering",
            cell=f"GCC-HPX/k1/{mach}/max_speedup", expect="min", group=group,
            note="HPX trails k=1 on every machine"))
    claims.append(Claim(
        id="f3-tbb-k1-numa-inversion", kind="ordering",
        cell="GCC-TBB/k1/A/max_speedup", expect="max",
        group=("GCC-TBB/k1/A/max_speedup", "GCC-TBB/k1/B/max_speedup",
               "GCC-TBB/k1/C/max_speedup"),
        note="the 32-core Mach A beats the wider Zen machines for "
        "bandwidth-bound k=1 (the paper's NUMA inversion)"))
    for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP"):
        claims.append(Claim(
            id=f"f3-{backend.lower()}-k1000-c-full-width", kind="bound",
            cell=f"{backend}/k1000/C/speedup@128", min=90.0, max=120.0,
            note="paper: 102-106.7 at 128 threads (79-83% efficiency)"))
    claims.append(Claim(
        id="f3-gcc-hpx-k1000-c-full-width", kind="bound",
        cell="GCC-HPX/k1000/C/speedup@128", min=70.0, max=95.0,
        note="paper: HPX 84.8 at 128 threads (66% efficiency)"))
    claims.append(Claim(
        id="f3-hpx-trails-k1000-c", kind="ordering",
        cell="GCC-HPX/k1000/C/speedup@128", expect="min",
        group=("GCC-HPX/k1000/C/speedup@128", "GCC-TBB/k1000/C/speedup@128"),
        note="HPX is the one backend short of ideal at k=1000"))
    for mach, cores in (("A", 32), ("B", 64), ("C", 128)):
        claims.append(Claim(
            id=f"f3-gcc-tbb-k1-{mach.lower()}-below-ideal", kind="bound",
            cell=f"GCC-TBB/k1/{mach}/max_speedup", max=0.75 * cores,
            note="low intensity leaves speedups well under the core count"))
    claims.append(Claim(
        id="f3-trace-structure", kind="golden", cell="trace_summary",
        note="Chrome-trace structure of a traced 2^16 sweep (promoted from "
        "tests/trace's bespoke golden)"))
    return _artifact_ref(
        artifact="fig3",
        title="for_each strong scaling (2^30)",
        source="Figure 3",
        claims=tuple(claims), waivers=tuple(waivers),
    )


def fig4_ref() -> ArtifactRef:
    """Fig. 4: find on Mach B."""
    claims = [
        Claim(id="f4-tbb-max", kind="ratio", cell="scaling/GCC-TBB/max_speedup",
              paper=6.0, band=(0.7, 1.4),
              note="paper: maximum speedup about 6 with GCC-TBB and 64 threads"),
        Claim(id="f4-stream-cap", kind="bound",
              cell="scaling/GCC-TBB/max_speedup", max=7.85,
              note="STREAM predicts ~7; ours caps at 7.85, never exceeded"),
        Claim(id="f4-tbb-wins", kind="ordering",
              cell="scaling/GCC-TBB/max_speedup", expect="max",
              group=("scaling/GCC-TBB/max_speedup", "scaling/GCC-GNU/max_speedup",
                     "scaling/GCC-HPX/max_speedup", "scaling/NVC-OMP/max_speedup"),
              note="GCC-TBB wins find on Mach B"),
        Claim(id="f4-hpx-last", kind="ordering",
              cell="scaling/GCC-HPX/max_speedup", expect="min",
              group=("scaling/GCC-GNU/max_speedup", "scaling/GCC-HPX/max_speedup",
                     "scaling/NVC-OMP/max_speedup")),
        Claim(id="f4-hpx-trails", kind="bound",
              cell="scaling/GCC-HPX/max_speedup", max=3.0,
              note="HPX barely scales find on Mach B"),
        Claim(id="f4-nvc-trails", kind="bound",
              cell="scaling/NVC-OMP/max_speedup", max=3.0,
              note="NVC barely scales find on Mach B"),
        Claim(id="f4-crossover", kind="crossover",
              curve_a="problem/GCC-GNU", curve_b="problem/GCC-SEQ",
              paper_x=2 ** 18, steps=1,
              note="paper: parallel wins beyond ~2^18 (find's random target "
              "makes the threshold soft)"),
    ]
    return _artifact_ref(
        artifact="fig4", title="find on Mach B", source="Figure 4",
        claims=tuple(claims),
    )


def fig5_ref() -> ArtifactRef:
    """Fig. 5: inclusive_scan on Mach C."""
    claims = [
        Claim(id="f5-gnu-na", kind="na", cell="scaling/GCC-GNU/max_speedup",
              note="GNU has no parallel scan (UnsupportedOperationError)"),
        Claim(id="f5-tbb-max", kind="ratio", cell="scaling/GCC-TBB/max_speedup",
              paper=5.0, band=(0.75, 1.33),
              note="paper: TBB scan reaches about 5 (waived: ours 3.4, the "
              "scan model carries the Fig.-1 spread penalty)"),
        Claim(id="f5-nvc-flat", kind="bound", cell="scaling/NVC-OMP/max_speedup",
              min=0.9, max=1.3,
              note="NVC's sequential-fallback scan stays flat at ~1"),
        Claim(id="f5-hpx-flat", kind="bound", cell="scaling/GCC-HPX/max_speedup",
              min=0.8, max=1.2, note="paper: HPX shows no scan scaling"),
        Claim(id="f5-tbb-wins", kind="ordering",
              cell="scaling/GCC-TBB/max_speedup", expect="max",
              group=("scaling/GCC-TBB/max_speedup", "scaling/GCC-HPX/max_speedup",
                     "scaling/NVC-OMP/max_speedup"),
              note="only the TBB family scales scan"),
        Claim(id="f5-gcc-tbb-range", kind="bound",
              cell="scaling/GCC-TBB/max_speedup", min=2.0, max=7.0,
              note="the TBB family scales scan to a few x (paper: ~5)"),
        Claim(id="f5-icc-tbb-range", kind="bound",
              cell="scaling/ICC-TBB/max_speedup", min=2.0, max=7.0,
              note="the TBB family scales scan to a few x (paper: ~5)"),
        Claim(id="f5-crossover", kind="crossover",
              curve_a="problem/GCC-TBB", curve_b="problem/GCC-SEQ",
              paper_x=2 ** 19, steps=1,
              note="sequential wins while cache-resident, loses beyond the LLC"),
    ]
    waivers = [
        Waiver(claim="f5-tbb-max",
               reason="the scan model inherits the latency-spread penalty "
               "that reconciles Fig. 1 with Table 5",
               experiments_md="our scan model carries the Fig.-1 spread penalty"),
    ]
    return _artifact_ref(
        artifact="fig5", title="inclusive_scan on Mach C", source="Figure 5",
        claims=tuple(claims), waivers=tuple(waivers),
    )


def fig6_ref() -> ArtifactRef:
    """Fig. 6: reduce on Mach A."""
    claims = [
        Claim(id="f6-nvc-group1", kind="ratio", cell="scaling/NVC-OMP/max_speedup",
              paper=10.5, band=(0.8, 1.25),
              note="paper: group 1 {NVC, TBB, GNU} lands at about 10-11"),
        Claim(id="f6-hpx-worst-ratio", kind="ratio",
              cell="scaling/GCC-HPX/max_speedup", paper=7.3, band=T5_BAND,
              note="paper: HPX is the group-2 floor at 7.3"),
        Claim(id="f6-hpx-last", kind="ordering",
              cell="scaling/GCC-HPX/max_speedup", expect="min",
              group=("scaling/GCC-TBB/max_speedup", "scaling/GCC-GNU/max_speedup",
                     "scaling/GCC-HPX/max_speedup", "scaling/NVC-OMP/max_speedup"),
              note="HPX is the worst reduce backend"),
        Claim(id="f6-stream-ceiling", kind="bound",
              cell="scaling/NVC-OMP/max_speedup", max=11.5,
              note="ceiling below the STREAM ratio (11.5) everywhere"),
        Claim(id="f6-gcc-tbb-group1", kind="bound",
              cell="scaling/GCC-TBB/max_speedup", min=8.0, max=13.0,
              note="paper: group 1 {NVC, TBB, GNU} lands at about 10-11"),
        Claim(id="f6-gcc-gnu-group1", kind="bound",
              cell="scaling/GCC-GNU/max_speedup", min=8.0, max=13.0,
              note="paper: group 1 {NVC, TBB, GNU} lands at about 10-11"),
        Claim(id="f6-crossover-nvc", kind="crossover",
              curve_a="problem/NVC-OMP", curve_b="problem/GCC-SEQ",
              paper_x=2 ** 15, steps=1,
              note="paper: crossover around 2^15"),
        Claim(id="f6-crossover-tbb", kind="crossover",
              curve_a="problem/GCC-TBB", curve_b="problem/GCC-SEQ",
              paper_x=2 ** 15, steps=2,
              note="ours lands at 2^15-2^19 depending on backend"),
    ]
    return _artifact_ref(
        artifact="fig6", title="reduce on Mach A", source="Figure 6",
        claims=tuple(claims),
    )


def fig7_ref() -> ArtifactRef:
    """Fig. 7: sort on Mach C."""
    paper = {"GCC-GNU": 66.6, "GCC-TBB": 10.6, "ICC-TBB": 9.0,
             "GCC-HPX": 8.1, "NVC-OMP": 6.7}
    claims = [
        Claim(id=f"f7-{b.lower()}-max", kind="ratio",
              cell=f"scaling/{b}/max_speedup", paper=v, band=(0.7, 1.4))
        for b, v in paper.items()
    ]
    claims.append(Claim(
        id="f7-gnu-standout", kind="ordering",
        cell="scaling/GCC-GNU/max_speedup", expect="max",
        group=tuple(f"scaling/{b}/max_speedup" for b in paper),
        note="GNU's multiway mergesort is the standout (about 6x the next "
        "backend)"))
    claims.append(Claim(
        id="f7-nvc-last", kind="ordering",
        cell="scaling/NVC-OMP/max_speedup", expect="min",
        group=("scaling/GCC-GNU/max_speedup", "scaling/GCC-HPX/max_speedup",
               "scaling/NVC-OMP/max_speedup")))
    return _artifact_ref(
        artifact="fig7", title="sort on Mach C", source="Figure 7",
        claims=tuple(claims),
    )


def fig8_ref() -> ArtifactRef:
    """Fig. 8: GPU for_each with forced D2H."""
    claims = [
        Claim(id="f8-t4-high-intensity", kind="ratio",
              cell="k10000/t4/ratio@2^29", paper=23.5, band=(0.7, 1.4),
              note="paper: high intensity gives 23.5x over the parallel host"),
        Claim(id="f8-a2-high-intensity", kind="ratio",
              cell="k10000/a2/ratio@2^29", paper=13.3, band=(0.7, 1.4)),
        Claim(id="f8-low-intensity-loses", kind="bound",
              cell="k1/t4/ratio@2^29", max=1.0,
              note="paper: low intensity leaves the GPU slower than the "
              "parallel CPU (transfer-bound)"),
        Claim(id="f8-a2-low-intensity-loses", kind="bound",
              cell="k1/a2/ratio@2^29", max=1.0,
              note="the A2 is transfer-bound at low intensity too"),
        Claim(id="f8-t4-high-intensity-range", kind="bound",
              cell="k10000/t4/ratio@2^29", min=15.0, max=32.0,
              note="paper: 23.5x on Mach D"),
        Claim(id="f8-t4-beats-a2", kind="ordering",
              cell="k10000/t4/ratio@2^29", expect="max",
              group=("k10000/t4/ratio@2^29", "k10000/a2/ratio@2^29"),
              note="the T4 node outruns the A2 node at high intensity"),
        Claim(id="f8-seq-crossover", kind="crossover",
              curve_a="k1/t4", curve_b="k1/seq-host",
              paper_x=2 ** 13, steps=2,
              note="paper: at small sizes the GPU loses even to sequential "
              "(up to ~2^12)"),
    ]
    return _artifact_ref(
        artifact="fig8", title="GPU for_each (float, forced D2H)",
        source="Figure 8", claims=tuple(claims),
    )


def fig9_ref() -> ArtifactRef:
    """Fig. 9: GPU reduce, chained vs transferred."""
    claims = [
        Claim(id="f9-chain-saving", kind="bound", cell="t4/chain_saving",
              min=80.0, note="chaining saves >80x per call"),
        Claim(id="f9-forced-slower-than-seq", kind="ordering",
              cell="forced/t4/t@2^29", expect="max",
              group=("forced/t4/t@2^29", "forced/seq-host/t@2^29",
                     "forced/omp-host/t@2^29"),
              note="with forced D2H the T4 is slower than even the "
              "sequential CPU (communication-limited regime)"),
        Claim(id="f9-chained-fastest", kind="ordering",
              cell="chained/t4/t@2^29", expect="min",
              group=("chained/t4/t@2^29", "chained/seq-host/t@2^29",
                     "chained/omp-host/t@2^29"),
              note="chained, the T4 beats every host configuration"),
        Claim(id="f9-forced-t4-time", kind="bound", cell="forced/t4/t@2^29",
              min=0.5, max=1.0,
              note="regression guard on the documented 0.724 s per call"),
        Claim(id="f9-chained-t4-time", kind="bound", cell="chained/t4/t@2^29",
              min=0.005, max=0.015,
              note="regression guard on the documented 0.0088 s per call "
              "(the device-bandwidth floor)"),
        Claim(id="f9-seq-host-time", kind="bound", cell="forced/seq-host/t@2^29",
              min=0.15, max=0.25,
              note="regression guard on the documented 0.196 s sequential call"),
    ]
    return _artifact_ref(
        artifact="fig9", title="GPU reduce, chained vs transferred (float, 2^29)",
        source="Figure 9", claims=tuple(claims),
    )


def table3_ref() -> ArtifactRef:
    """Table 3: hardware counters for 100x for_each(k=1) on Mach A."""
    claims = []
    for backend, paper in TABLE3_PAPER.items():
        b = backend.lower()
        claims.append(Claim(
            id=f"t3-{b}-instructions", kind="ratio",
            cell=f"{backend}/instructions", paper=paper["instructions"],
            band=(0.9, 1.11), note="instruction totals within ~3%"))
        claims.append(Claim(
            id=f"t3-{b}-volume", kind="ratio",
            cell=f"{backend}/data_volume_gib", paper=paper["data_volume_gib"],
            band=(0.97, 1.03), note="memory volumes within 0.3%"))
        claims.append(Claim(
            id=f"t3-{b}-fp-scalar", kind="ratio",
            cell=f"{backend}/fp_scalar", paper=1.07374e11, band=(0.99, 1.01),
            note="paper: 107G scalar FP everywhere"))
        claims.append(Claim(
            id=f"t3-{b}-no-packed", kind="bound",
            cell=f"{backend}/fp_packed_256", max=0.0,
            note="paper: no packed FP in the for_each kernel"))
        if backend != "GCC-HPX":
            claims.append(Claim(
                id=f"t3-{b}-bandwidth", kind="ratio",
                cell=f"{backend}/bandwidth_gib", paper=paper["bandwidth_gib"],
                band=(0.85, 1.1),
                note="bandwidths run ~7% low (fork/join overhead inside the "
                "marker region); HPX is checked by ordering only"))
        claims.append(Claim(
            id=f"t3-{b}-no-packed-128", kind="bound",
            cell=f"{backend}/fp_packed_128", max=0.0,
            note="paper: no packed FP in the for_each kernel"))
    claims.append(Claim(
        id="t3-nvc-leanest-volume", kind="ordering",
        cell="NVC-OMP/data_volume_gib", expect="min",
        group=tuple(f"{b}/data_volume_gib" for b in TABLE3_PAPER),
        note="NVC moves the least data (paper: 1762 GiB)"))
    bw_group = tuple(f"{b}/bandwidth_gib" for b in TABLE3_PAPER)
    claims.append(Claim(
        id="t3-nvc-best-bandwidth", kind="ordering",
        cell="NVC-OMP/bandwidth_gib", expect="max", group=bw_group,
        note="NVC sustains the highest bandwidth"))
    claims.append(Claim(
        id="t3-hpx-worst-bandwidth", kind="ordering",
        cell="GCC-HPX/bandwidth_gib", expect="min", group=bw_group,
        note="HPX is worst by a wide margin"))
    return _artifact_ref(
        artifact="table3",
        title="Counters, 100x for_each(k=1), Mach A",
        source="Table 3", claims=tuple(claims),
    )


def table4_ref() -> ArtifactRef:
    """Table 4: hardware counters for 100x reduce on Mach A."""
    claims = []
    waivers = []
    for backend, paper in TABLE4_PAPER_INSTR.items():
        claims.append(Claim(
            id=f"t4-{backend.lower()}-instructions", kind="ratio",
            cell=f"{backend}/instructions", paper=paper, band=(0.9, 1.11)))
    waivers.append(Waiver(
        claim="t4-gcc-hpx-instructions",
        reason="the HPX scheduler's instruction overhead is modelled "
        "coarsely; ours is 1.29T vs the paper's 1.74T, still 4-7x all "
        "other backends",
        experiments_md="HPX totals 1.29T vs 1.74T"))
    for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP"):
        claims.append(Claim(
            id=f"t4-{backend.lower()}-fp-scalar", kind="ratio",
            cell=f"{backend}/fp_scalar", paper=1.07374e11, band=(0.99, 1.01),
            note="scalar backends execute exactly one FLOP per element"))
        claims.append(Claim(
            id=f"t4-{backend.lower()}-no-packed", kind="bound",
            cell=f"{backend}/fp_packed_256", max=0.0,
            note="scalar backends retire no packed FP"))
    for backend in ("ICC-TBB", "GCC-HPX"):
        claims.append(Claim(
            id=f"t4-{backend.lower()}-packed-256", kind="ratio",
            cell=f"{backend}/fp_packed_256", paper=26e9, band=(0.9, 1.11),
            note="paper: the vectorised backends retire 26G 256-bit packed ops"))
        claims.append(Claim(
            id=f"t4-{backend.lower()}-negligible-scalar", kind="bound",
            cell=f"{backend}/fp_scalar", max=1e9,
            note="the vectorised backends run (almost) no scalar FP"))
    claims.append(Claim(
        id="t4-hpx-instructions-floor", kind="bound",
        cell="GCC-HPX/instructions", min=0.9e12,
        note="paper: HPX executes up to 1.74T instructions"))
    claims.append(Claim(
        id="t4-volume", kind="ratio", cell="GCC-TBB/data_volume_gib",
        paper=1.17, band=T5_BAND,
        note="paper's volume row (0.86-1.17 GiB) contradicts its own 8 "
        "GiB/call inputs; waived, ours is first-principles (~840 GiB)"))
    waivers.append(Waiver(
        claim="t4-volume",
        reason="the paper's memory-volume row is internally inconsistent "
        "with its input sizes and bandwidths",
        experiments_md="ours are derived from first principles"))
    instr_group = tuple(f"{b}/instructions" for b in TABLE4_PAPER_INSTR)
    claims.append(Claim(
        id="t4-hpx-most-instructions", kind="ordering",
        cell="GCC-HPX/instructions", expect="max", group=instr_group,
        note="HPX executes 4-7x the instructions of everything else"))
    claims.append(Claim(
        id="t4-icc-least-instructions", kind="ordering",
        cell="ICC-TBB/instructions", expect="min", group=instr_group,
        note="ICC's vectorised kernel is the leanest"))
    return _artifact_ref(
        artifact="table4", title="Counters, 100x reduce, Mach A",
        source="Table 4", claims=tuple(claims), waivers=tuple(waivers),
    )


def table5_ref() -> ArtifactRef:
    """Table 5: the headline speedup grid."""
    claims = []
    waivers = []
    for (backend, case), paper in sorted(TABLE5_PAPER.items()):
        for mach, value in zip(MACHS, paper or (None, None, None)):
            cell = _t5_key(backend, case, mach)
            cid = f"t5-{backend.lower()}-{case.replace('_', '-')}-{mach.lower()}"
            if value is None:
                claims.append(Claim(
                    id=cid, kind="na", cell=cell,
                    note="paper N/A: GNU lacks parallel scan, ICC is absent "
                    "from Mach B"))
                continue
            claims.append(Claim(
                id=cid, kind="ratio", cell=cell, paper=value, band=T5_BAND))
            key = (backend, case, mach)
            if key in TABLE5_WAIVERS:
                reason, cite = TABLE5_WAIVERS[key]
                waivers.append(Waiver(
                    claim=cid, reason=reason, experiments_md=cite))
    for mach in MACHS:
        k1 = tuple(_t5_key(b, "for_each_k1", mach) for b in BACKENDS)
        claims.append(Claim(
            id=f"t5-nvc-tops-k1-{mach.lower()}", kind="ordering",
            cell=_t5_key("NVC-OMP", "for_each_k1", mach), expect="max",
            group=k1, note="NVC tops every for_each k=1 row"))
        claims.append(Claim(
            id=f"t5-hpx-bottoms-k1-{mach.lower()}", kind="ordering",
            cell=_t5_key("GCC-HPX", "for_each_k1", mach), expect="min",
            group=k1, note="HPX bottoms every for_each k=1 row"))
        claims.append(Claim(
            id=f"t5-gnu-tops-sort-{mach.lower()}", kind="ordering",
            cell=_t5_key("GCC-GNU", "sort", mach), expect="max",
            group=tuple(_t5_key(b, "sort", mach) for b in BACKENDS),
            note="GNU tops every sort row"))
    for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP"):
        claims.append(Claim(
            id=f"t5-{backend.lower()}-k1-numa-inversion", kind="ordering",
            cell=_t5_key(backend, "for_each_k1", "A"), expect="max",
            group=tuple(_t5_key(backend, "for_each_k1", m) for m in MACHS),
            note="the 32-core Mach A out-speeds-up the wider Zen machines "
            "for bandwidth-bound k=1 despite their higher STREAM numbers "
            "(the paper's NUMA inversion; sensitive to Mach A's calibrated "
            "bandwidth)"))
    claims.append(Claim(
        id="t5-nvc-scan-flat", kind="bound",
        cell=_t5_key("NVC-OMP", "inclusive_scan", "C"), max=1.1,
        note="NVC scan never exceeds 1.1 (sequential fallback)"))
    for mach in ("A", "B"):
        claims.append(Claim(
            id=f"t5-nvc-scan-flat-{mach.lower()}", kind="bound",
            cell=_t5_key("NVC-OMP", "inclusive_scan", mach), max=1.2,
            note="NVC's sequential-fallback scan never speeds up"))
    return _artifact_ref(
        artifact="table5", title="Speedup vs GCC-SEQ (headline grid)",
        source="Table 5", claims=tuple(claims), waivers=tuple(waivers),
    )


def table6_ref() -> ArtifactRef:
    """Table 6: max threads with >= 70% efficiency."""
    claims = []
    waivers = []
    width = {"A": 32, "B": 64, "C": 128}
    for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP", "ICC-TBB"):
        for mach in MACHS:
            cell = f"{backend}/for_each_k1000/{mach}"
            cid = f"t6-{backend.lower()}-k1000-{mach.lower()}"
            if backend == "ICC-TBB" and mach == "B":
                claims.append(Claim(id=cid, kind="na", cell=cell))
                continue
            claims.append(Claim(
                id=cid, kind="ratio", cell=cell, paper=float(width[mach]),
                band=(0.999, 1.001),
                note="compute-bound for_each reaches full machine width"))
    for mach in MACHS:
        claims.append(Claim(
            id=f"t6-hpx-k1000-{mach.lower()}", kind="bound",
            cell=f"GCC-HPX/for_each_k1000/{mach}", min=32.0,
            note="HPX also scales compute-bound work, at slightly lower "
            "efficiency (the paper's 66% vs 79-83% split on Mach C)"))
        claims.append(Claim(
            id=f"t6-nvc-scan-{mach.lower()}", kind="ratio",
            cell=f"NVC-OMP/inclusive_scan/{mach}", paper=1.0,
            band=(0.999, 1.001), note="paper: NVC scan is 1 everywhere"))
        claims.append(Claim(
            id=f"t6-gnu-scan-na-{mach.lower()}", kind="na",
            cell=f"GCC-GNU/inclusive_scan/{mach}"))
    for mach, paper in zip(MACHS, (32, 16, 32)):
        claims.append(Claim(
            id=f"t6-gnu-sort-{mach.lower()}", kind="ratio",
            cell=f"GCC-GNU/sort/{mach}", paper=float(paper), band=(0.999, 1.001),
            note="GNU sort sustains the most threads"))
    waivers.append(Waiver(
        claim="t6-gnu-sort-b",
        reason="ours sustains 64 threads on Mach B where the paper measured "
        "16; the qualitative ranking (GNU sort widest) is unchanged",
        experiments_md="32|64|32 vs paper 32|16|32"))
    for mach in MACHS:
        claims.append(Claim(
            id=f"t6-tbb-find-capped-{mach.lower()}", kind="bound",
            cell=f"GCC-TBB/find/{mach}", max=16.0,
            note="paper: backends typically fail to handle more than 16 "
            "threads efficiently on memory-bound work"))
        claims.append(Claim(
            id=f"t6-tbb-reduce-capped-{mach.lower()}", kind="bound",
            cell=f"GCC-TBB/reduce/{mach}", max=16.0))
    claims.append(Claim(
        id="t6-tbb-foreach-k1-b", kind="bound",
        cell="GCC-TBB/for_each_k1/B", min=2.0,
        note="the paper keeps a few efficient threads here; our efficiency "
        "cliff arrives one to two power-of-two steps earlier (waived)"))
    waivers.append(Waiver(
        claim="t6-tbb-foreach-k1-b",
        reason="our parallel overheads bite slightly earlier, pushing "
        "several memory-bound cells to 1 where the paper keeps 2-16",
        experiments_md="many cells are 1 where the paper has 2–16"))
    claims.append(Claim(
        id="t6-k1000-widest", kind="ordering",
        cell="GCC-TBB/for_each_k1000/C", expect="max",
        group=("GCC-TBB/find/C", "GCC-TBB/for_each_k1000/C",
               "GCC-TBB/reduce/C", "GCC-TBB/sort/C"),
        note="only compute-bound work stays efficient at full width"))
    return _artifact_ref(
        artifact="table6", title="Max threads with >= 70% efficiency",
        source="Table 6", claims=tuple(claims), waivers=tuple(waivers),
    )


def table7_ref() -> ArtifactRef:
    """Table 7: binary sizes."""
    claims = [
        Claim(id=f"t7-{b.lower().replace('-', '_')}", kind="ratio",
              cell=f"{b}/mib", paper=v, band=(0.95, 1.05),
              note="static-link model lands within 1.2% of the paper")
        for b, v in TABLE7_PAPER.items()
    ]
    group = tuple(f"{b}/mib" for b in TABLE7_PAPER)
    claims.append(Claim(
        id="t7-hpx-largest", kind="ordering", cell="GCC-HPX/mib",
        expect="max", group=group,
        note="the HPX runtime archive dominates binary size"))
    claims.append(Claim(
        id="t7-nvc-omp-smallest", kind="ordering", cell="NVC-OMP/mib",
        expect="min", group=group,
        note="nvc++ links the leanest host binary"))
    return _artifact_ref(
        artifact="table7", title="Binary sizes", source="Table 7",
        claims=tuple(claims),
    )


def all_refs() -> list[ArtifactRef]:
    """Every artifact's refdata, in report order."""
    return [
        fig1_ref(), fig2_ref(), fig3_ref(), fig4_ref(), fig5_ref(),
        fig6_ref(), fig7_ref(), fig8_ref(), fig9_ref(),
        table3_ref(), table4_ref(), table5_ref(), table6_ref(), table7_ref(),
    ]


def main() -> int:
    """Regenerate every refdata file (preserving the stored goldens)."""
    for ref in all_refs():
        path = save_refdata(ref)
        print(f"wrote {path} ({len(ref.claims)} claims, "
              f"{len(ref.waivers)} waivers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
