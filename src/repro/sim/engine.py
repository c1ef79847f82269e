"""The scalar reference engine: WorkProfile -> (seconds, counters).

No product path calls this module. It is the second implementation of
the cost model that the wave engine (``repro.sim.wave``) is checked
against, bit for bit: ``tools/diffcheck.py``, the differential tests
and ``tools/builder_golden.py capture`` cost a case's array profile
here through :func:`arrays_to_profile`, one validated ``ChunkWork``
object per chunk.

Roofline-style: each thread's phase time is the max of its instruction
time and its memory time; the phase is the slowest thread, further bounded
by the NUMA constraints of ``repro.sim.bandwidth``; fork/join, scheduling
and synchronisation overheads are added per the backend model.

When the process-global tracer is enabled (``repro.trace``), the engine
additionally emits one span per phase on the "phases" track (attributes:
compute vs memory vs overhead seconds and the binding bound) and one lane
span per simulated thread (that thread's instruction time vs memory
time), then advances the simulated clock by the phase cost; fork/join is
a trailing overhead span. The wave engine narrates the same spans.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.execution.affinity import ThreadPlacement
from repro.machines.cpu import CpuMachine
from repro.sim.bandwidth import MATCHED_POLICIES, dram_memory_time
from repro.sim.interfaces import BackendModel
from repro.sim.report import Counters, PhaseReport, SimReport
from repro.sim.wave import ArrayProfile, _lanes
from repro.sim.work import ChunkWork, Phase, PhaseKind, WorkProfile
from repro.trace.core import PHASE_TRACK, get_tracer, thread_track

__all__ = ["simulate_cpu", "arrays_to_profile"]

_SPREAD_EPS = 1e-3


def arrays_to_profile(profile: ArrayProfile) -> WorkProfile:
    """Materialise an :class:`ArrayProfile` as a scalar ``WorkProfile``.

    How the reference engine reads the builder's profiles: one
    validated :class:`~repro.sim.work.ChunkWork` per chunk, each field
    the same ``elems x cost`` product the wave engine forms.
    """
    phases = []
    for phase in profile.phases:
        costs = (phase.instr_per_elem, phase.fp_per_elem,
                 phase.read_per_elem, phase.write_per_elem)
        instr, fp, read, write = (float(c) for c in costs)
        chunks = tuple(
            ChunkWork(thread=thread, elems=elems, instr=elems * instr,
                      fp_ops=elems * fp, bytes_read=elems * read,
                      bytes_written=elems * write)
            for thread, elems in zip(phase.thread.tolist(),
                                     phase.elems.tolist())
        )
        phases.append(
            Phase(
                name=phase.name,
                kind=phase.kind,
                chunks=chunks,
                placement=phase.placement,
                working_set=phase.working_set,
                sched_chunks=phase.sched_chunks,
                sync_points=phase.sync_points,
                spread_penalty=phase.spread_penalty,
                apply_instr_overhead=phase.apply_instr_overhead,
                vectorizable=phase.vectorizable,
            )
        )
    return WorkProfile(
        alg=profile.alg,
        n=profile.n,
        elem=profile.elem,
        threads=profile.threads,
        policy=profile.policy,
        phases=tuple(phases),
        regions=profile.regions,
        notes=tuple(profile.notes),
    )


def _record_fp(counters: dict, fp_ops: float, lanes: int) -> float:
    """Record FP events at the executed width; returns executed FP instrs."""
    if fp_ops <= 0:
        return 0.0
    executed = fp_ops / lanes
    if lanes <= 1:
        counters["fp_scalar"] += fp_ops
    elif lanes == 2:
        counters["fp_packed_128"] += executed
    else:
        counters["fp_packed_256"] += executed
    return executed


def simulate_cpu(
    machine: CpuMachine, backend: BackendModel, profile: WorkProfile
) -> SimReport:
    """Cost ``profile`` on ``machine`` under ``backend``'s runtime model."""
    if profile.threads > machine.total_cores:
        raise SimulationError(
            f"profile uses {profile.threads} threads but {machine.name} "
            f"has {machine.total_cores} cores"
        )

    placement = ThreadPlacement(
        machine, profile.threads, strategy=backend.affinity_strategy
    )
    # Single-thread invocations (including the sequential baseline) enjoy
    # turbo headroom; see CpuMachine.seq_turbo_factor.
    turbo = machine.seq_turbo_factor if profile.threads == 1 else 1.0
    base_rate = machine.frequency_hz * machine.ipc * turbo

    alg = profile.alg
    phase_reports: list[PhaseReport] = []
    total_counters = Counters()
    total_time = 0.0
    tracer = get_tracer()

    for phase in profile.phases:
        ctr = {
            "instructions": 0.0,
            "fp_scalar": 0.0,
            "fp_packed_128": 0.0,
            "fp_packed_256": 0.0,
            "bytes_read": 0.0,
            "bytes_written": 0.0,
        }
        lanes = _lanes(machine, backend, phase, profile)
        rate = base_rate * backend.ipc_factor(alg)
        if phase.kind is PhaseKind.SEQUENTIAL:
            rate /= backend.seq_codegen_factor(alg)

        # Per-thread aggregation.
        instr_time: dict[int, float] = {}
        mem_bytes: dict[int, float] = {}
        traffic = backend.traffic_factor(alg)
        overhead_per_elem = backend.instr_overhead_for(
            alg, machine.topology.num_nodes
        )
        for chunk in phase.chunks:
            overhead = (
                chunk.elems * overhead_per_elem
                if phase.apply_instr_overhead
                else 0.0
            )
            fp_exec = _record_fp(ctr, chunk.fp_ops, lanes)
            instrs = chunk.instr + overhead + fp_exec
            ctr["instructions"] += instrs
            ctr["bytes_read"] += chunk.bytes_read * traffic
            ctr["bytes_written"] += chunk.bytes_written * traffic
            instr_time[chunk.thread] = instr_time.get(chunk.thread, 0.0) + instrs / rate
            mem_bytes[chunk.thread] = (
                mem_bytes.get(chunk.thread, 0.0)
                + (chunk.bytes_read + chunk.bytes_written) * traffic
            )

        compute_time = max(instr_time.values(), default=0.0)
        # Scalability cap: threads beyond the backend's effective-worker
        # model contend rather than contribute (HPX past ~16 threads).
        if phase.kind is PhaseKind.PARALLEL and profile.threads > 1:
            scaling = profile.threads / backend.effective_threads(profile.threads)
            if scaling > 1.0:
                compute_time *= scaling
                instr_time = {t: v * scaling for t, v in instr_time.items()}

        # Memory time: cache-resident phases stream from the fitting cache
        # level; DRAM phases go through the NUMA bandwidth model.
        memory_time = 0.0
        lane_mem: dict[int, float] = {}
        total_phase_bytes = sum(mem_bytes.values())
        if total_phase_bytes > 0.0 and phase.placement is not None:
            active = max(1, len({c.thread for c in phase.chunks}))
            level = machine.caches.fitting_level(int(phase.working_set), active)
            if level is not None:
                bw = level.bandwidth_per_core
                memory_time = max(b / bw for b in mem_bytes.values())
                lane_mem = {t: mem_bytes.get(t, 0.0) / bw for t in instr_time}
                per_thread_roofline = max(
                    max(instr_time[t], lane_mem[t]) for t in instr_time
                )
            else:
                thread_nodes = {
                    t: placement.node_of_thread(t % profile.threads)
                    for t in mem_bytes
                }
                active_nodes = len(set(thread_nodes.values()))
                matched = None
                if phase.placement.policy in MATCHED_POLICIES:
                    # Locality decays geometrically with the number of node
                    # boundaries in play: every extra node is another chance
                    # for a page and its consumer to end up apart. This is
                    # what separates the 2-node Mach A (mild NUMA effects)
                    # from the 8-node Zen machines, whose measured for_each
                    # speedups (Table 5) are far below their STREAM ratios.
                    matched = backend.numa_quality(alg) ** max(0, active_nodes - 1)
                times = dram_memory_time(
                    machine,
                    phase.placement,
                    mem_bytes,
                    thread_nodes,
                    matched_quality=matched,
                    bw_efficiency=backend.bw_efficiency_at(alg, active_nodes),
                )
                memory_time = times.total
                per_thread_bw_time = times.per_thread
                # Roofline per thread against the per-thread stream cap;
                # node/global/interconnect bounds apply to the whole phase.
                scale = (
                    per_thread_bw_time / max(1e-30, max(mem_bytes.values()))
                )
                lane_mem = {t: mem_bytes.get(t, 0.0) * scale for t in instr_time}
                per_thread_roofline = max(
                    max(instr_time[t], lane_mem[t]) for t in instr_time
                )
                per_thread_roofline = max(
                    per_thread_roofline,
                    times.per_node,
                    times.global_dram,
                    times.interconnect,
                )
        else:
            per_thread_roofline = compute_time

        phase_time = max(compute_time, per_thread_roofline)

        # Allocator spread penalty (find / inclusive_scan, see Phase docs).
        # The penalty is calibrated on the 2-node Mach A (Fig. 1); on
        # machines with more NUMA nodes the *differential* effect of
        # spreading shrinks -- default placement is already mostly remote
        # for most threads -- so it is scaled by 2/num_nodes.
        if (
            phase.spread_penalty > 1.0
            and phase.placement is not None
            and max(phase.placement.node_fractions) < 1.0 - _SPREAD_EPS
        ):
            weight = min(1.0, 2.0 / machine.topology.num_nodes)
            phase_time *= 1.0 + (phase.spread_penalty - 1.0) * weight

        overhead_time = 0.0
        if phase.sched_chunks:
            overhead_time += backend.sched_overhead(phase.sched_chunks, profile.threads)
        if phase.sync_points:
            overhead_time += phase.sync_points * backend.sync_cost(profile.threads)
        phase_time += overhead_time

        phase_counters = Counters(**ctr)
        total_counters = total_counters + phase_counters
        total_time += phase_time
        phase_reports.append(
            PhaseReport(
                name=phase.name,
                seconds=phase_time,
                compute_seconds=compute_time,
                memory_seconds=memory_time,
                overhead_seconds=overhead_time,
                counters=phase_counters,
            )
        )

        if tracer.enabled:
            if overhead_time >= max(compute_time, memory_time):
                bound = "overhead"
            elif compute_time >= memory_time:
                bound = "compute"
            else:
                bound = "memory"
            start = tracer.clock
            tracer.record(
                phase.name,
                phase_time,
                category="phase",
                track=PHASE_TRACK,
                start=start,
                kind=phase.kind.value,
                bound=bound,
                compute_seconds=compute_time,
                memory_seconds=memory_time,
                overhead_seconds=overhead_time,
                instructions=ctr["instructions"],
                bytes_read=ctr["bytes_read"],
                bytes_written=ctr["bytes_written"],
            )
            for t in sorted(instr_time):
                mem_t = lane_mem.get(t, 0.0)
                tracer.record(
                    phase.name,
                    max(instr_time[t], mem_t),
                    category="lane",
                    track=thread_track(t),
                    start=start,
                    instruction_seconds=instr_time[t],
                    memory_seconds=mem_t,
                )
            tracer.advance(phase_time)

    fork_join = 0.0
    if profile.is_parallel:
        fork_join = profile.regions * (
            backend.fork_overhead(profile.threads)
            + backend.join_overhead(profile.threads)
        )
    total_time += fork_join
    if tracer.enabled and fork_join > 0.0:
        tracer.record(
            "fork/join",
            fork_join,
            category="overhead",
            track=PHASE_TRACK,
            regions=profile.regions,
            threads=profile.threads,
        )
        tracer.advance(fork_join)

    return SimReport(
        seconds=total_time,
        counters=total_counters,
        phases=tuple(phase_reports),
        fork_join_seconds=fork_join,
    )
