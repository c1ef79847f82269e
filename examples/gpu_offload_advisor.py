"""GPU offload advisor: when is -stdpar=gpu worth it? (paper Section 5.8)

    python examples/gpu_offload_advisor.py

For a grid of problem sizes and arithmetic intensities, compares the host
CPU (sequential and parallel) against the Tesla T4 and Ampere A2 under
two usage patterns: data bouncing back to the host after every call, and
chained device-resident calls. Prints the winning configuration per cell
-- the decision table the paper's conclusions describe in prose.
"""

from repro.scenarios.resolve import make_context
from repro.sim.gpu import GpuExecution
from repro.suite.cases import _case_for_each
from repro.suite.wrappers import measure_case, run_case
from repro.types import FLOAT32
from repro.util.tables import TextTable


def gpu_ctx(machine: str, transfer_back: bool = True):
    """A CUDA context on Mach D (T4) or Mach E (A2)."""
    return make_context(machine, "nvc-cuda", threads=1,
                        gpu_options=GpuExecution(transfer_back=transfer_back))


def _chained_gpu_seconds(machine: str, case, n: int) -> float:
    """Steady-state per-call time with device-resident data."""
    ctx = gpu_ctx(machine, transfer_back=False)
    return run_case(case, ctx, n, FLOAT32, min_time=2.0).mean_time


def main() -> None:
    sizes = [1 << e for e in (12, 16, 20, 24, 28)]
    intensities = [1, 100, 10_000]

    for pattern in ("bounce", "chained"):
        table = TextTable(
            headers=["n \\ k_it", *(str(k) for k in intensities)],
            title=(
                f"Winner per cell, float for_each, pattern={pattern} "
                "(seq / par = host CPU, T4 / A2 = GPUs)"
            ),
        )
        for n in sizes:
            row = []
            for k in intensities:
                case = _case_for_each(k)
                candidates = {
                    "seq": measure_case(case, make_context("gpu-host", "gcc-seq"), n, FLOAT32),
                    "par": measure_case(case, make_context("gpu-host", "nvc-omp"), n, FLOAT32),
                }
                for gpu in ("D", "E"):
                    label = "T4" if gpu == "D" else "A2"
                    if pattern == "bounce":
                        candidates[label] = measure_case(case, gpu_ctx(gpu), n, FLOAT32)
                    else:
                        candidates[label] = _chained_gpu_seconds(gpu, case, n)
                winner = min(candidates, key=candidates.get)
                row.append(winner)
            table.add_row([f"2^{n.bit_length() - 1}", *row])
        print(table.render())
        print()

    print(
        "Takeaways (matching the paper): chain operations on the device or "
        "bring enough arithmetic intensity -- otherwise the PCIe transfers "
        "and kernel-launch latency hand the win back to the CPU."
    )


if __name__ == "__main__":
    main()
