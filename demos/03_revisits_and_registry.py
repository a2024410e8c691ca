"""Recognizing the same place across days.

Runs three simulated days through the extraction pipeline into one
summary store. Each day's clusters are matched against the user's
existing POI by fingerprint similarity (threshold 0.5); a hit reuses
the stable poi_id and appends the visits, a miss allocates the next
id. Each day's summary, the visits that day registered, shows home
and office keeping their ids all week.
"""
import collections
import time

from wifipoi.clustering import ClusterParams
from wifipoi.registry import SummaryStore, extract_day, summary_rows
from wifipoi.simgen import generate_trace, load_scenario

scenario = load_scenario("office-3day")
(user,) = scenario.itineraries
params = ClusterParams(scan_interval=scenario.scan_interval)

by_day = collections.defaultdict(list)
for entry in scenario.itineraries[user]:
    by_day[time.strftime("%Y-%m-%d", time.gmtime(entry.arrival))].append(entry)

store = SummaryStore()  # in-memory; pass a path to persist
for day_index, day in enumerate(sorted(by_day)):
    log, _ = generate_trace(
        scenario.env,
        tuple(by_day[day]),
        scenario.scan_interval,
        rng_seed=day_index,
        noise_sigma=scenario.sigma,
        user=user,
    )
    # cluster the day, match each cluster against the registry, and
    # render the (poi_id, visits) pairs it registered
    print(f"{day}:")
    for poi_id, start, end in summary_rows(extract_day(store, log, params)):
        print(f"  POI {poi_id}  {start} - {end}")

print("\nregistered POI:")
for record in store.records(user):
    aps = len(record.fingerprint.rssi)
    print(f"  POI {record.poi_id}: {len(record.visits)} visits, {aps} APs in fingerprint")
store.close()
