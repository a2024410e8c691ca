"""From one day of scans to visit intervals.

Simulates a single user's office day, clusters the scans with the
density-based pass (a scan is a core point when at least min_pts scans
look alike), and segments the labeled timeline into visits. Noise
scans taken while walking between places never form a cluster because
they resemble too few neighbours.
"""
import time

from wifipoi.clustering import dbscan, segment_visits
from wifipoi.ingest import upload_of
from wifipoi.model import ClusterParams
from wifipoi.simgen import generate_trace, load_scenario


def hhmm(ts: int) -> str:
    return time.strftime("%H:%M", time.gmtime(ts))


scenario = load_scenario("office-day")
(user,) = scenario.itineraries
log, truth = generate_trace(
    scenario.env,
    scenario.itineraries[user],
    scenario.scan_interval,
    rng_seed=7,
    noise_sigma=scenario.sigma,
    user=user,
)
print(f"simulated {len(log)} scans for {user!r}")

params = ClusterParams(epsilon=0.5, min_pts=4, scan_interval=scenario.scan_interval)
day = upload_of(log)  # the scans in columns, as `ingest` decodes them: times, AP ids, dBm
labels = dbscan(day, params)
clusters = sorted(set(labels) - {0})
noise = sum(1 for l in labels if l == 0)
print(f"clusters {clusters}, {noise} noise scans at epsilon={params.epsilon}")

print("\nextracted visits:")
for visit in segment_visits(day, labels, params):
    flag = "  (short)" if visit.sub_minimal else ""
    print(f"  cluster {visit.label}  {hhmm(visit.start)} - {hhmm(visit.end)}  {visit.scans} scans{flag}")

print("\nground truth for comparison:")
for entry in truth:
    print(f"  {entry.place:<8}  {hhmm(entry.start)} - {hhmm(entry.end)}")
