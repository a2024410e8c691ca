"""Finding places that different users share.

Eleven simulated users walk a three-zone mall for a day. Each user's
clusters become POI in a shared store; every POI pair across users is
scored, pairs above a similarity threshold become weighted edges, and
community detection groups POI that are really the same physical
place. Sweeping the threshold shows the trade-off: too low glues
neighbouring places into zones, too high leaves only singletons.
"""
import collections

import numpy as np

from wifipoi.community import threshold_sweep
from wifipoi.ingest import upload_of
from wifipoi.model import ClusterParams
from wifipoi.registry import SummaryStore, day_window, extract_day
from wifipoi.simgen import generate_trace, load_scenario

scenario = load_scenario("mall-11-users")
params = ClusterParams()
store = SummaryStore()

for index, user in enumerate(sorted(scenario.itineraries)):
    log, _ = generate_trace(
        scenario.env,
        scenario.itineraries[user],
        scenario.scan_interval,
        rng_seed=np.random.default_rng([0, index]),
        noise_sigma=scenario.sigma,
        user=user,
        device=scenario.devices[user],
    )
    # the day's scans as `ingest` decodes them
    extract_day(store, upload_of(log), day_window("2026-03-07"), params)

# one fingerprint per (user, poi_id): the nodes of the cross-user graph
fps = store.fingerprints()
print(f"{len(fps)} POI across {len({user for user, _ in fps})} users")

# every pair is scored once; each threshold keeps the pairs at or above it
print("\nthreshold sweep:")
sweep = threshold_sweep([fp.rssi for fp in fps.values()], [0.2, 0.3, 0.4, 0.5], list(fps))
for threshold, graph, partition in sweep:
    print(f"  threshold {threshold:.1f}: {len(graph.edges):>3} edges, Q = {partition.q:.4f}")

# at 0.2 the weak backbone-AP overlap between same-zone places still
# counts, so the communities are the mall's three zones
_, _, partition = sweep[0]
sizes = collections.Counter(partition.communities.values())
print(f"\ncommunities at threshold 0.2: {len(sizes)} (sizes {sorted(sizes.values())})")

by_community = collections.defaultdict(list)
for (user, poi_id), community in sorted(partition.communities.items()):
    by_community[community].append(f"{user}:{poi_id}")
for community, members in sorted(by_community.items()):
    print(f"  community {community}: {' '.join(members)}")
store.close()
