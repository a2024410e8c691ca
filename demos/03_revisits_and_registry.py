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

from wifipoi.ingest import upload_of
from wifipoi.model import ClusterParams
from wifipoi.registry import SummaryStore, day_window, extract_day, summary_rows
from wifipoi.simgen import generate_trace, load_scenario

scenario = load_scenario("office-3day")
(user,) = scenario.itineraries
params = ClusterParams(scan_interval=scenario.scan_interval)

by_day = collections.defaultdict(list)
for entry in scenario.itineraries[user]:
    by_day[time.strftime("%Y-%m-%d", time.gmtime(entry.arrival))].append(entry)

store = SummaryStore()  # in-memory; pass a path to persist
visits = collections.Counter()  # poi_id -> visits registered, from extract_day's returns
for day_index, day in enumerate(sorted(by_day)):
    log, _ = generate_trace(
        scenario.env,
        tuple(by_day[day]),
        scenario.scan_interval,
        rng_seed=day_index,
        noise_sigma=scenario.sigma,
        user=user,
    )
    # take the day's scans as `ingest` decodes them, cluster them, match
    # each cluster against the registry, and render the (poi_id, visits)
    # pairs it registered
    print(f"{day}:")
    registered = extract_day(store, upload_of(log), day_window(day), params)
    for poi_id, start, end in summary_rows(registered):
        print(f"  POI {poi_id}  {start} - {end}")
    for poi_id, day_visits in registered:
        visits[poi_id] += len(day_visits)

print("\nregistered POI:")
for (_, poi_id), fingerprint in store.fingerprints().items():
    aps = len(fingerprint.rssi)
    print(f"  POI {poi_id}: {visits[poi_id]} visits, {aps} APs in fingerprint")
store.close()
