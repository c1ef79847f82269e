"""The seven backends of the paper's study, with calibrated models.

Calibration sources, per knob:

* per-element instruction overheads -- Tables 3 and 4 (instructions per
  element = column value / (100 calls x 2^30 elements));
* bandwidth efficiencies -- Table 3's measured bandwidths / the 135 GB/s
  STREAM peak of Mach A;
* sequential fallback thresholds -- Sections 5.2 (GNU for_each < 2^10),
  5.3 (GNU find < 2^9), 5.6 (TBB sort <= 2^9, HPX sort <= 2^15);
* capability gaps -- Section 5.4 (GNU: no parallel inclusive_scan;
  NVC-OMP: scan falls back to sequential);
* vector widths -- Table 4 (ICC and HPX execute reduce as 256-bit packed);
* fork/scheduling costs -- chosen to put the sequential/parallel crossover
  near the paper's 2^10..2^16 window (Figs 2, 4, 6);
* HPX contention/decay -- Fig. 3 (flat speedup past 16 threads) and
  Table 3 (2.2x instructions, 75.6 GiB/s bandwidth).
"""

from __future__ import annotations

from repro.backends.base import Backend, SortStrategy, Support

__all__ = [
    "gcc_seq",
    "gcc_tbb",
    "icc_tbb",
    "gcc_gnu",
    "gcc_hpx",
    "nvc_omp",
    "nvc_cuda",
]

#: Algorithm families that scan-like capability gaps apply to.
_SCAN_ALGS = (
    "inclusive_scan",
    "exclusive_scan",
    "transform_inclusive_scan",
    "transform_exclusive_scan",
)


def gcc_seq() -> Backend:
    """GCC -O3 sequential build: the paper's Table 5 baseline."""
    return Backend(
        name="GCC-SEQ",
        compiler="g++",
        runtime="seq",
        is_sequential=True,
        default_instr_overhead=0.0,
        default_traffic_factor=1.0,
        default_bw_efficiency=1.0,
        default_numa_quality=1.0,
        sort_strategy=SortStrategy.SEQUENTIAL,
    )


def gcc_tbb() -> Backend:
    """GCC's parallel STL on Intel TBB (libstdc++ PSTL)."""
    return Backend(
        name="GCC-TBB",
        compiler="g++",
        runtime="TBB",
        fork_base=10e-6,
        fork_per_thread=0.3e-6,
        sched_per_chunk=0.05e-6,
        chunks_per_thread=8,  # auto_partitioner steady state
        default_instr_overhead=2.0,
        instr_overhead={
            "for_each": 4.0,  # Table 3: 1.72T/(100*2^30) = 16 = 12 base + 4
            "reduce": 0.0,  # Table 4: 1.76/elem = 0.75 loop + 1 FP scalar
            "find": 0.5,
        },
        default_bw_efficiency=0.80,  # Table 3: 107.6 / 135
        bw_efficiencies={"find": 0.95, "reduce": 0.85, "inclusive_scan": 0.72, "sort": 0.50},
        default_traffic_factor=1.15,
        traffic_factors={
            "for_each": 1.33,  # Table 3: 2128 GiB / 1600 GiB nominal
            "reduce": 1.05,
            "find": 1.05,
            "inclusive_scan": 0.95,  # streaming stores skip write-allocate
            "sort": 1.10,
        },
        default_numa_quality=0.90,
        numa_qualities={
            "for_each": 0.93,
            "find": 0.98,  # read-only scans keep locality on 8-node parts
            "reduce": 0.98,
            "inclusive_scan": 0.99,
            "sort": 0.97,
        },
        seq_fallback_thresholds={"sort": 512},  # Section 5.6
        sort_strategy=SortStrategy.PARALLEL_QUICKSORT,
    )


def icc_tbb() -> Backend:
    """Intel oneAPI icpx with TBB: leanest codegen, vectorised reductions."""
    return Backend(
        name="ICC-TBB",
        compiler="icpx",
        runtime="TBB",
        fork_base=10e-6,
        fork_per_thread=0.3e-6,
        sched_per_chunk=0.05e-6,
        chunks_per_thread=8,
        default_instr_overhead=1.5,
        instr_overhead={
            "for_each": 2.5,  # Table 3: 1.55T -> 14.5/elem, the leanest
            "reduce": 0.0,  # Table 4: 107G/2^30/100 ~ 1/elem, pure kernel
            "find": 0.4,
            "inclusive_scan": 1.8,
            "sort": 2.0,
        },
        default_bw_efficiency=0.77,  # Table 3: 104.5 / 135
        bw_efficiencies={"find": 0.95, "reduce": 0.85, "inclusive_scan": 0.72, "sort": 0.48},
        default_traffic_factor=1.15,
        traffic_factors={
            "for_each": 1.34,  # Table 3: 2151 GiB
            "reduce": 1.05,
            "find": 1.05,
            "inclusive_scan": 0.95,
            "sort": 1.10,
        },
        default_numa_quality=0.90,
        numa_qualities={
            "for_each": 0.93,
            "find": 0.98,
            "reduce": 0.98,
            "inclusive_scan": 0.99,
            "sort": 0.97,
        },
        vector_widths={"reduce": 256, "transform_reduce": 256},  # Table 4
        seq_fallback_thresholds={"sort": 512},
        sort_strategy=SortStrategy.PARALLEL_QUICKSORT,
    )


def gcc_gnu() -> Backend:
    """GNU libstdc++ parallel mode (MCSTL lineage) on OpenMP."""
    return Backend(
        name="GCC-GNU",
        compiler="g++",
        runtime="GOMP",
        fork_base=6e-6,
        fork_per_thread=0.2e-6,
        sched_per_chunk=0.3e-6,
        chunks_per_thread=1,  # schedule(static)
        default_instr_overhead=2.0,
        instr_overhead={
            "for_each": 10.5,  # Table 3: 2.41T -> 22.5/elem
            "reduce": 0.35,  # Table 4: 2.12/elem (accumulate substitute)
            "find": 1.0,
            "sort": 4.0,  # multiway-merge bookkeeping
        },
        default_bw_efficiency=0.86,  # Table 3: 116.6 / 135
        bw_efficiencies={"find": 0.95, "sort": 0.80},
        default_traffic_factor=1.10,
        traffic_factors={
            "for_each": 1.20,  # Table 3: 1925 GiB
            "reduce": 1.00,
            "find": 1.02,
            "sort": 1.00,
        },
        default_numa_quality=0.90,
        numa_qualities={
            "for_each": 0.93,
            "find": 0.95,
            "reduce": 0.98,
            "sort": 0.995,  # Section 5.6: best thread/data placement for sort
        },
        seq_fallback_thresholds={
            "for_each": 1 << 10,  # Section 5.2
            "find": 1 << 9,  # Section 5.3
            "sort": 1 << 9,
        },
        support_overrides={alg: Support.UNSUPPORTED for alg in _SCAN_ALGS},
        sort_strategy=SortStrategy.MULTIWAY_MERGESORT,
    )


def gcc_hpx() -> Backend:
    """HPX's parallel algorithms on its futures-based task runtime."""
    return Backend(
        name="GCC-HPX",
        compiler="g++",
        runtime="HPX",
        affinity_strategy="compact",  # HPX binds its worker pool densely
        fork_base=30e-6,
        fork_per_thread=1.0e-6,
        sched_per_chunk=0.15e-6,
        fixed_chunk_elems=32768,  # fine task grains
        contention_exp=1.3,
        contention_threads=16,

        default_instr_overhead=8.0,
        instr_overhead={
            "for_each": 23.8,  # Table 3: 3.83T -> 35.8/elem
            "reduce": 10.0,  # Table 4 direction (largest by far)
            "find": 2.0,
        },
        instr_overhead_per_node=1.0,
        default_ipc_factor=0.9,  # pointer-heavy future/scheduler code
        default_bw_efficiency=0.70,
        bw_efficiencies={"for_each": 0.62, "reduce": 0.80, "find": 0.95},
        numa_bw_decay=0.5,  # Table 3: 75.6 GiB/s; Fig 3: flat past 1 node
        default_traffic_factor=1.10,
        traffic_factors={"for_each": 1.16, "reduce": 1.05},
        default_numa_quality=0.70,
        numa_qualities={
            "reduce": 0.80,
            "find": 0.85,
            "inclusive_scan": 0.97,
            "sort": 0.90,
        },
        vector_widths={"reduce": 256, "transform_reduce": 256},  # Table 4
        seq_fallback_thresholds={"sort": 1 << 15},  # Section 5.6
        sort_strategy=SortStrategy.TASK_QUICKSORT,
    )


def nvc_omp() -> Backend:
    """NVIDIA HPC SDK nvc++ with -stdpar=multicore (OpenMP/Thrust)."""
    return Backend(
        name="NVC-OMP",
        compiler="nvc++",
        runtime="NVOMP",
        fork_base=4e-6,
        fork_per_thread=0.1e-6,
        sched_per_chunk=0.2e-6,
        chunks_per_thread=1,
        default_instr_overhead=3.0,
        instr_overhead={
            "for_each": 8.9,  # Table 3: 2.24T -> 20.9/elem
            "reduce": 1.0,  # Table 4: 2.76/elem
            "find": 1.5,
            "sort": 5.0,
        },
        default_ipc_factor=1.1,  # simple streaming codegen sustains high IPC
        default_bw_efficiency=0.88,  # Table 3: 119.1 / 135 (the best)
        bw_efficiencies={"find": 0.95, "sort": 0.55},
        default_traffic_factor=1.08,
        traffic_factors={
            "for_each": 1.10,  # Table 3: 1762 GiB (the leanest)
            "reduce": 1.02,
            "find": 1.02,
        },
        default_numa_quality=0.92,
        numa_qualities={
            "for_each": 0.96,  # Thrust's static map keeps pages local...
            "find": 0.85,  # ...but its find cancellation thrashes nodes
            "reduce": 0.985,
        },
        seq_codegen={"reduce": 1.25},  # Section 5.5: weaker sequential code
        support_overrides={alg: Support.SEQUENTIAL_FALLBACK for alg in _SCAN_ALGS},
        sort_strategy=SortStrategy.SERIAL_PARTITION_QUICKSORT,
        seq_fallback_thresholds={"sort": 512},
    )


def nvc_cuda() -> Backend:
    """NVIDIA HPC SDK nvc++ with -stdpar=gpu (Thrust/CUDA).

    The CPU-side knobs are irrelevant; GPU invocations are costed by
    ``repro.sim.gpu``. The backend object still participates in dispatch
    (capability checks, names, binary sizes).
    """
    return Backend(
        name="NVC-CUDA",
        compiler="nvc++",
        runtime="CUDA",
        fork_base=20e-6,  # kernel-launch scale; actual cost in sim.gpu
        default_instr_overhead=0.0,
        default_traffic_factor=1.0,
        sort_strategy=SortStrategy.PARALLEL_QUICKSORT,
    )
