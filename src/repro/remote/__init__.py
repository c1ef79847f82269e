"""Multi-host result shipping: sealed segments, remote executors, ingest.

The campaign store (:mod:`repro.campaign.store`) is safe for many
writers *on one host* -- ``flock`` plus single-``write()`` appends. This
package extends that contract across hosts without assuming a shared
filesystem lock, using log shipping fenced by one epoch per wave:

1. **Dispatch** (:mod:`repro.remote.registry`,
   :mod:`repro.remote.coordinator`, :mod:`repro.remote.executor`): the
   service daemon registers executors (``POST /executors``) and leases
   campaign waves to them. Every claim bumps the wave's epoch, and a
   lease that outlives its deadline goes back to pending
   (``expire_stale``), so a late ship from the expired holder presents
   an old epoch and is filed ``stale``: the registry epoch is the
   protocol's one fence. With no executor live, waves degrade
   gracefully to local execution.
2. **Segments** (:mod:`repro.remote.segment`): each executor seals a
   wave's result rows in memory with a manifest carrying the row count
   and content checksum; it writes no file.
3. **Shipping** (:mod:`repro.remote.ship`): sealed segments travel to
   the coordinator, which verifies them against their manifest and
   ingests rows into the sharded v2 store, skipping every row whose key
   the persistent index already holds -- re-shipped, stale or
   duplicated segments ingest exactly once.

The headline invariant, pinned by the distributed harness in
``tests/integration/test_distributed_identity.py``: a campaign executed
across 4 remote executors with injected lease expiries, duplicated
ships, and a SIGKILLed executor is *bit-identical* to a single-process
fault-free run.
"""

from __future__ import annotations

from repro.errors import RemoteError, SegmentError
from repro.remote.coordinator import RemoteCoordinator
from repro.remote.executor import RemoteExecutor
from repro.remote.registry import ExecutorInfo, ExecutorRegistry, WaveOffer
from repro.remote.segment import SegmentManifest, seal
from repro.remote.ship import IngestReport, SegmentIngestor

__all__ = [
    "ExecutorInfo",
    "ExecutorRegistry",
    "IngestReport",
    "RemoteCoordinator",
    "RemoteError",
    "RemoteExecutor",
    "SegmentError",
    "SegmentIngestor",
    "SegmentManifest",
    "WaveOffer",
    "seal",
]
