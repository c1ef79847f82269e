"""Campaigns as a service: submit, stream, dedup, warm-cache speedup.

    python examples/service_quickstart.py

Boots the campaign daemon in-process (`start_background`), then walks
the whole client loop against it on the paper's Table 5 grid:

1. a **cold submission** (202) executes the grid through the wave-fused
   campaign pipeline and is polled to completion, streaming journal
   events incrementally via the byte-offset cursor;
2. a **duplicate submission** of the same spec (200) collapses onto the
   existing campaign -- content-derived ids are the dedup;
3. a **warm submission** (same grid, new name) is a new campaign that
   finishes entirely on the shared content-addressed store -- zero
   points executed -- and its wall time shows the service-side warm
   speedup;
4. `/metrics` counters and the client's request-overhead split
   (`X-Handle-Ms`) summarise what the daemon did.

Uses a small problem size to finish in seconds; `pstl-service serve`
runs the same daemon in the foreground for real deployments.
"""

import dataclasses
import shutil
import tempfile
import time
from pathlib import Path

from repro.scenarios import campaign_spec
from repro.service import ServiceClient, start_background

SIZE_EXP = 16  # 2^16 elements; the paper's grid uses 2^30


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="service_quickstart_"))
    try:
        with start_background(root / "svc", concurrent=2) as svc:
            client = ServiceClient(svc.base_url, api_key="quickstart")
            print(f"daemon listening at {svc.base_url}")

            # --- 1. cold submission, streamed to completion --------------
            spec = campaign_spec("table5", {"size_exps": [SIZE_EXP]})
            t0 = time.perf_counter()
            doc = client.submit(spec.to_dict())
            cid = doc["id"]
            print(f"submitted {cid} ({doc['points']} points, "
                  f"HTTP {doc['_status']})")

            offset, events = 0, 0
            while True:
                feed = client.events(cid, offset=offset)
                events += len(feed["events"])
                offset = feed["next_offset"]
                if feed["state"] in ("complete", "broken", "interrupted"):
                    break
                time.sleep(0.05)
            cold_wall = time.perf_counter() - t0
            done = client.status(cid)
            print(f"cold: {done['stats']}  ({events} journal events "
                  f"streamed, {cold_wall:.2f}s wall)")
            assert done["state"] == "complete"

            rows = client.results(cid)["rows"]
            assert len(rows) == done["points"]

            # --- 2. duplicate submission: dedup ---------------------------
            dup = client.submit(spec.to_dict())
            assert dup["deduped"] and dup["id"] == cid
            print(f"duplicate: HTTP {dup['_status']}, same campaign {cid}")

            # --- 3. warm grid under a new name: pure cache hits -----------
            warm_spec = dataclasses.replace(spec, name="table5-warm")
            t0 = time.perf_counter()
            warm = client.wait(client.submit(warm_spec.to_dict())["id"])
            warm_wall = time.perf_counter() - t0
            print(f"warm: {warm['stats']}  ({warm_wall:.2f}s wall, "
                  f"{cold_wall / max(warm_wall, 1e-9):.1f}x over cold)")
            assert "0 executed" in warm["stats"]

            # --- 4. what the daemon saw -----------------------------------
            metrics = client.metrics()
            print(f"metrics: {metrics['service_submitted']:.0f} submitted, "
                  f"{metrics['service_deduped']:.0f} deduped, "
                  f"{metrics['service_completed']:.0f} completed, "
                  f"{metrics['service_store_objects']:.0f} store objects")
            print(f"client: {client.requests} requests, "
                  f"{client.overhead_ms():.2f}ms mean request overhead")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
