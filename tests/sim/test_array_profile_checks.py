"""A malformed array profile is refused the way the reference IR refuses it.

``ArrayPhase`` and ``ArrayProfile`` apply the checks of the reference's
``ChunkWork``, ``Phase`` and ``WorkProfile`` when they are built. Each
case below describes one malformed profile once, builds it both ways,
and requires the same ``SimulationError`` message from each.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.execution.policy import PAR
from repro.sim.wave import ArrayPhase, ArrayProfile
from repro.sim.work import ChunkWork, Phase, PhaseKind, WorkProfile
from repro.types import FLOAT64

#: Per-element costs of every phase built here (instr, fp, read, write).
COSTS = (2.0, 1.0, 8.0, 8.0)


def _phase_spec(**over):
    spec = {"name": "main", "kind": PhaseKind.PARALLEL, "thread": [0, 1],
            "elems": [4.0, 4.0], "working_set": 64.0, "sched_chunks": 2,
            "sync_points": 0}
    spec.update(over)
    return spec


def _array_phase(spec):
    instr, fp, read, write = COSTS
    return ArrayPhase(
        name=spec["name"], kind=spec["kind"],
        thread=np.asarray(spec["thread"], dtype=np.int64),
        elems=np.asarray(spec["elems"], dtype=np.float64),
        instr_per_elem=instr, fp_per_elem=fp, read_per_elem=read,
        write_per_elem=write, placement=None,
        working_set=spec["working_set"], sched_chunks=spec["sched_chunks"],
        sync_points=spec["sync_points"],
    )


def _scalar_phase(spec):
    instr, fp, read, write = COSTS
    chunks = tuple(
        ChunkWork(thread=thread, elems=elems, instr=elems * instr,
                  fp_ops=elems * fp, bytes_read=elems * read,
                  bytes_written=elems * write)
        for thread, elems in zip(spec["thread"], spec["elems"])
    )
    return Phase(name=spec["name"], kind=spec["kind"], chunks=chunks,
                 working_set=spec["working_set"],
                 sched_chunks=spec["sched_chunks"],
                 sync_points=spec["sync_points"])


def _build(profile_cls, phase_fn, phases, n=8, threads=2, regions=1):
    return profile_cls(alg="for_each", n=n, elem=FLOAT64, threads=threads,
                       policy=PAR, phases=tuple(phase_fn(p) for p in phases),
                       regions=regions)


MALFORMED = {
    "negative-thread": (
        {"phases": [_phase_spec(thread=[0, -1])]},
        "thread id must be non-negative"),
    "negative-elems": (
        {"phases": [_phase_spec(elems=[4.0, -1.0])]},
        "elems must be non-negative"),
    "first-chunk-decides-elems": (
        {"phases": [_phase_spec(thread=[0, -1], elems=[-1.0, 4.0])]},
        "elems must be non-negative"),
    "first-chunk-decides-thread": (
        {"phases": [_phase_spec(thread=[-1, 0], elems=[4.0, -1.0])]},
        "thread id must be non-negative"),
    "thread-before-elems-in-one-chunk": (
        {"phases": [_phase_spec(thread=[0, -1], elems=[4.0, -1.0])]},
        "thread id must be non-negative"),
    "sequential-on-two-threads": (
        {"phases": [_phase_spec(kind=PhaseKind.SEQUENTIAL)]},
        "sequential phase 'main' must use exactly one thread"),
    "negative-working-set": (
        {"phases": [_phase_spec(working_set=-1.0)]},
        "working_set must be non-negative"),
    "negative-sched-chunks": (
        {"phases": [_phase_spec(sched_chunks=-1)]},
        "sched_chunks/sync_points must be non-negative"),
    "negative-sync-points": (
        {"phases": [_phase_spec(sync_points=-1)]},
        "sched_chunks/sync_points must be non-negative"),
    "negative-n": (
        {"phases": [_phase_spec()], "n": -1},
        "n must be non-negative"),
    "zero-threads": (
        {"phases": [_phase_spec(thread=[0, 0])], "threads": 0},
        "threads must be positive"),
    "no-phases": (
        {"phases": []},
        "profile needs at least one phase"),
    "negative-regions": (
        {"phases": [_phase_spec()], "regions": -1},
        "regions must be non-negative"),
    "thread-not-below-threads": (
        {"phases": [_phase_spec(), _phase_spec(name="tail", thread=[1, 2])]},
        "phase 'tail' uses thread 2 but profile has 2 threads"),
    "phase-checks-before-profile-checks": (
        {"phases": [_phase_spec(working_set=-1.0)], "n": -1},
        "working_set must be non-negative"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_array_profile_raises_the_reference_message(case):
    kwargs, message = MALFORMED[case]
    with pytest.raises(SimulationError) as reference:
        _build(WorkProfile, _scalar_phase, **kwargs)
    with pytest.raises(SimulationError) as arrays:
        _build(ArrayProfile, _array_phase, **kwargs)
    assert str(reference.value) == message
    assert str(arrays.value) == message

