"""Execution layer: policies, thread placement, partitioning."""

from repro.execution.affinity import ThreadPlacement
from repro.execution.partition import (
    BlockCyclicPartitioner,
    Chunk,
    FixedGrainPartitioner,
    Partition,
    Partitioner,
    StaticPartitioner,
    WorkStealingPartitioner,
)
from repro.execution.policy import PAR, PAR_UNSEQ, SEQ, ExecutionPolicy

__all__ = [
    "ThreadPlacement",
    "BlockCyclicPartitioner",
    "Chunk",
    "FixedGrainPartitioner",
    "Partition",
    "Partitioner",
    "StaticPartitioner",
    "WorkStealingPartitioner",
    "PAR",
    "PAR_UNSEQ",
    "SEQ",
    "ExecutionPolicy",
]
