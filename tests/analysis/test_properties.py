"""Property-based invariants of the analysis layer (hypothesis).

The example-based tests pin specific numbers; these pin the *algebra*:
speedup/efficiency identities, roofline bound monotonicity and range,
and the breakdown's shares partitioning the invocation exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    Boundedness,
    ScalingCurve,
    analyze_profile,
    breakdown,
    efficiency,
    machine_balance,
    speedup,
    speedup_series,
)
from repro.backends import get_backend
from repro.execution.policy import PAR
from repro.machines import get_machine
from repro.sim.wave import ArrayPhase, ArrayProfile, simulate_cpu_arrays
from repro.sim.work import PhaseKind
from repro.types import FLOAT64

times = st.floats(min_value=1e-9, max_value=1e6,
                  allow_nan=False, allow_infinity=False)
machines = st.sampled_from(["A", "B", "C"])


@given(baseline=times, seconds=times, threads=st.integers(1, 512))
def test_efficiency_is_speedup_over_threads(baseline, seconds, threads):
    assert efficiency(baseline, seconds, threads) == (
        speedup(baseline, seconds) / threads
    )


@given(a=times, b=times)
def test_speedup_antisymmetry(a, b):
    assert speedup(a, b) * speedup(b, a) == 1.0 or abs(
        speedup(a, b) * speedup(b, a) - 1.0
    ) < 1e-12


@given(baseline=times, series=st.lists(times, min_size=1, max_size=16))
def test_speedup_series_matches_pointwise(baseline, series):
    assert speedup_series(baseline, series) == [
        speedup(baseline, s) for s in series
    ]


@given(
    baseline=times,
    pairs=st.lists(
        st.tuples(st.integers(1, 128), times), min_size=1, max_size=12,
        unique_by=lambda p: p[0],
    ),
)
def test_scaling_curve_identities(baseline, pairs):
    threads = tuple(t for t, _ in pairs)
    seconds = tuple(s for _, s in pairs)
    curve = ScalingCurve(label="p", threads=threads, seconds=seconds,
                         baseline_seconds=baseline)
    speeds = curve.speedups()
    assert curve.max_speedup() == max(speeds)
    for t, s, e in zip(threads, speeds, curve.efficiencies()):
        assert e == s / t


def _phase(name: str, thread, elems, instr_per_elem: float,
           read_per_elem: float) -> ArrayPhase:
    """A parallel phase streaming no placed data."""
    return ArrayPhase(
        name=name, kind=PhaseKind.PARALLEL,
        thread=np.asarray(thread, dtype=np.int64),
        elems=np.asarray(elems, dtype=np.float64),
        instr_per_elem=instr_per_elem, fp_per_elem=0.0,
        read_per_elem=read_per_elem, write_per_elem=0.0,
        placement=None, working_set=0.0,
    )


def _profile(instr: float, nbytes: float) -> ArrayProfile:
    # 1024 is a power of two, so 1024 * (x / 1024) == x exactly.
    phase = _phase("w", [0], [1024.0], instr / 1024, nbytes / 1024)
    return ArrayProfile(alg="for_each", n=1024, elem=FLOAT64, threads=1,
                        policy=PAR, phases=(phase,))


@given(name=machines, instr=st.floats(1e0, 1e12), nbytes=st.floats(1e0, 1e12))
def test_roofline_bound_range_and_classification(name, instr, nbytes):
    machine = get_machine(name)
    point = analyze_profile(machine, _profile(instr, nbytes))
    stream_ratio = machine.stream_bw_allcores / machine.stream_bw_1core
    assert 1.0 <= point.speedup_bound <= max(
        machine.total_cores, stream_ratio
    ) * (1 + 1e-12)
    assert point.balance == machine_balance(machine)
    # the verdict agrees with the point's own coordinates
    if point.boundedness is Boundedness.COMPUTE_BOUND:
        assert point.intensity > point.balance
    elif point.boundedness is Boundedness.MEMORY_BOUND:
        assert point.intensity < point.balance
    else:
        assert point.balance / 1.25 <= point.intensity <= point.balance * 1.25


@given(name=machines, nbytes=st.floats(1e3, 1e9))
def test_roofline_bound_monotone_in_intensity(name, nbytes):
    """More compute per byte never lowers the parallel speedup bound,
    sweeping from deep memory-bound to deep compute-bound."""
    machine = get_machine(name)
    bounds = [
        analyze_profile(machine, _profile(nbytes * scale, nbytes)).speedup_bound
        for scale in (1e-4, 1e-2, 1.0, 1e2, 1e4)
    ]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(bounds, bounds[1:]))
    # the extremes hit the STREAM ratio and the core count
    assert abs(bounds[0] - machine.stream_bw_allcores / machine.stream_bw_1core) < 1e-6 * bounds[0]
    assert abs(bounds[-1] - machine.total_cores) < 1e-6 * bounds[-1]


@given(
    name=machines,
    threads=st.sampled_from([1, 2, 4, 8]),
    instr_per_elem=st.floats(1.0, 1e4),
    bytes_per_elem=st.floats(0.0, 64.0),
)
def test_breakdown_shares_partition_the_invocation(
    name, threads, instr_per_elem, bytes_per_elem
):
    elems = 1 << 16
    per = elems // threads
    phase = _phase("work", range(threads), [per] * threads,
                   instr_per_elem, bytes_per_elem)
    profile = ArrayProfile(
        alg="for_each", n=elems, elem=FLOAT64, threads=threads, policy=PAR,
        phases=(phase,),
    )
    report = simulate_cpu_arrays(get_machine(name), get_backend("GCC-TBB"),
                                 profile)
    shares = breakdown(report)
    assert abs(sum(s.share for s in shares) - 1.0) < 1e-9
    assert all(s.share >= 0 for s in shares)
    assert {s.bound_by for s in shares} <= {"compute", "memory", "overhead"}
