"""Campaign orchestration: plan, execute, cache, and query benchmark sweeps.

pSTL-Bench's evaluation is a large grid -- machines x backends x cases x
sizes x threads -- and the C++ suite ships a campaign runner that
executes the whole matrix per (compiler, backend) pair and persists the
results. This package is that runner for the reproduction, built as four
layers:

* :mod:`repro.campaign.spec` -- declarative sweep specifications;
* :mod:`repro.campaign.plan` -- expansion into a deterministic task DAG
  with capability pruning and shared-baseline deduplication;
* :mod:`repro.campaign.store` + :mod:`repro.campaign.shard` +
  :mod:`repro.campaign.fingerprint` -- content-addressed result cache
  keyed by (point, model fingerprint), one SQLite table per store (one
  transaction per wave; compaction via ``pstl-campaign compact``), plus
  the append-only journal that makes runs resumable;
* :mod:`repro.campaign.executor` / :mod:`repro.campaign.query` --
  process-pool execution with timeout/retry/graceful failure, and
  derivations back into the experiment grid shapes.

The ``pstl-campaign`` CLI (:mod:`repro.campaign.cli`) fronts all of it:
``run``, ``status``, ``resume``, ``query`` and ``verify`` subcommands.
See docs/CAMPAIGNS.md for the full story, including a worked Table 5
example, and docs/ROBUSTNESS.md for the failure model the pipeline is
hardened against (deterministic fault injection via
:mod:`repro.faults`, checksum quarantine, retry backoff, pool rebuild).
"""

from repro.campaign.executor import (
    BackoffPolicy,
    CampaignOutcome,
    CampaignStats,
    execute_point,
    load_campaign,
    point_context,
    run_campaign,
)
from repro.campaign.fingerprint import model_fingerprint
from repro.campaign.plan import CampaignPlan, PointTask, plan_campaign, task_id_for
from repro.campaign.query import (
    bench_rows,
    efficiency_grid,
    filter_results,
    grid_key,
    speedup_grid,
    store_query,
)
from repro.campaign.shard import CompactionReport, ShardIndex
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.campaign.store import (
    Journal,
    JournalReader,
    PointResult,
    ResultStore,
    StoreScan,
    cache_key,
    record_checksum,
)

__all__ = [
    "BackoffPolicy",
    "CampaignSpec",
    "PointSpec",
    "CampaignPlan",
    "PointTask",
    "plan_campaign",
    "task_id_for",
    "CampaignOutcome",
    "CampaignStats",
    "run_campaign",
    "load_campaign",
    "execute_point",
    "point_context",
    "ResultStore",
    "StoreScan",
    "Journal",
    "JournalReader",
    "PointResult",
    "cache_key",
    "record_checksum",
    "model_fingerprint",
    "speedup_grid",
    "efficiency_grid",
    "filter_results",
    "bench_rows",
    "grid_key",
    "store_query",
    "CompactionReport",
    "ShardIndex",
]
