"""Pipeline benchmark: the `wifipoi` CLI end to end on three workload shapes.

    python3 perfbench/run.py --workload dense-day --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. The inputs are generated from
the seed into `.bench_work/`; then, until `--seconds` have passed, each
pass starts a fresh Python process (perfbench/workload.py) that runs
ingest -> extract per user-day -> communities on an empty store through
`wifipoi.cli.main`. Every pass is checked: each CLI call exits 0, the
ingest row counts are exact (retried batches are skipped, nothing else),
the communities cover every POI, and the digest of all output CSVs is
the same in every pass.

With `--trace 0` every timing is scaled to a fixed core speed, measured
by a reference timed next to each call (see reference_calls), and is a
median over the run's passes.
With `--trace 1` untraced and traced passes alternate; the traced ones
wrap the program's functions by name (see workload.install) and give
the per-layer metrics, and the spans of the last traced pass are kept
in `.bench_work/spans-<workload>-<seed>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import cycle, repeat
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Timings are reported at the speed of a core on which workload.Reference
# takes this long: a 2.0 GHz Xeon vCPU of the baseline machine, unloaded.
REFERENCE_S = 0.001

# glibc raises its mmap threshold when a large block is freed, so later
# large arrays (the n^2 similarity matrices) come from the heap, and
# whether a freed one is reused flips from pass to pass: peak RSS then
# reads 106 or 124 MB on the same dense-day input. A fixed threshold (its
# default) returns every large array to the OS on free, so peak RSS is
# the peak of live memory.
PASS_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

PASS_TIMEOUT = 100.0  # seconds; a slower pass is killed and counts as failed
RUN_BUDGET = 150.0  # seconds; no pass starts that would likely end later than this

END_TO_END = {
    "scans_per_s": "1/s",
    "ingest_s": "s",
    "extract_s": "s",
    "communities_s": "s",
    "extract_p50_ms": "ms",
    "extract_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "visit_recall": "ratio",
    "identity_accuracy": "ratio",
    "community_ari": "ratio",
}

MODULES = ("ingest", "similarity", "clustering", "registry", "community", "cli")

# Span name -> whether its call count is reported as well as its seconds.
SPANS = {
    "ingest.decompress_batch": False,
    "ingest.decode_log": False,
    "ingest.store_raw": False,
    "ingest.RawStore.users": True,
    "ingest.RawStore.load_log": False,
    "similarity.similarity_matrix": False,
    "clustering.dbscan": False,
    "clustering.segment_visits": False,
    "registry.upsert_poi": True,
    "registry.SummaryStore.records": True,
    "registry.match_poi": False,
    "registry.build_fingerprint": False,
    "registry.daily_summary": False,
    "community.build_graph": True,
    "community.louvain": False,
    "cli.build_parser": False,
}

COUNTS = (
    "ingest.rows_added",
    "ingest.rows_skipped",
    "ingest.RawStore.load_log.rows",
    "similarity.similarity_matrix.cells",
    "similarity.cosine.calls.registry",
    "similarity.cosine.calls.community",
    "clustering.dbscan.scans",
    "clustering.sub_minimal_visits",
    "registry.poi_new",
    "registry.poi_matched",
    "community.edges",
    "community.nodes",
    "sqlite.raw.statements",
    "sqlite.raw.commits",
    "sqlite.summary.statements",
    "sqlite.summary.commits",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, with_calls in SPANS.items():
        units[f"{name}.s"] = "s"
        if with_calls:
            units[f"{name}.calls"] = "count"
    units.update({name: "count" for name in COUNTS})
    units["clustering.noise_frac"] = "ratio"
    units["community.modularity.calls"] = "count"
    units["community.best_q"] = "Q"
    units["cli.main.self_s"] = "s"
    units.update({f"self_share.{m}": "ratio" for m in MODULES})
    units["trace.overhead_frac"] = "ratio"
    return units


def run_pass(work: Path, plan, traced: bool, spans: Path) -> dict | None:
    """One pass in a fresh process; None when it crashed or timed out."""
    pass_dir = work / "pass"
    shutil.rmtree(pass_dir, ignore_errors=True)
    (pass_dir / "out").mkdir(parents=True)
    job_path = work / "job.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    job = {
        "src": str(SRC),
        "store": str(pass_dir / "store.db"),
        "steps": plan.steps,
        "score": ["score", "--truth", plan.truth, *plan.summaries],
        "trace": traced,
        "spans": str(spans),
        "result": str(result_path),
    }
    job["t0"] = time.monotonic()
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), str(job_path)],
            cwd=pass_dir, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT,
            env={**os.environ, **PASS_ENV},
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None
    if proc.returncode != 0 or not result_path.exists():
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def digest(out: Path) -> str:
    """SHA-256 over every output CSV, by name then content."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _minutes(hhmm: str) -> int:
    hh, _, mm = hhmm.partition(":")
    return int(hh) * 60 + int(mm)


def _csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:] if line]


def poi_places(truth: Path, out: Path, summaries: list[str]) -> dict[tuple[str, str], str]:
    """(user, poi_id) -> the true place most of its matched visits were at.

    A true visit matches the summary row with the largest overlap in
    whole minutes, the rule `wifipoi score` uses. A POI that no true
    visit matches was made from the scans taken while walking around a
    place just before or after a stay there; it gets the place of the
    true visit nearest to its rows in time.
    """
    visits: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
    for user, day, place, start, end in _csv(truth):
        visits.setdefault((user, day), []).append((place, _minutes(start), _minutes(end)))
    votes: dict[tuple[str, str], Counter] = {}
    nearest: dict[tuple[str, str], Counter] = {}
    for name in summaries:
        user, _, day = Path(name).stem.rpartition("_")
        rows = [(poi, _minutes(s), _minutes(e)) for poi, _, s, e in _csv(out.parent / name)]
        day_visits = visits.get((user, day), [])
        for place, t_start, t_end in day_visits:
            best, best_overlap = None, 0
            for poi, s_start, s_end in rows:
                overlap = min(t_end, s_end) - max(t_start, s_start) + 1
                if overlap > best_overlap:
                    best, best_overlap = poi, overlap
            if best is not None:
                votes.setdefault((user, best), Counter())[place] += 1
        for poi, s_start, s_end in rows:
            if day_visits:
                gap = lambda v: max(v[1] - s_end, s_start - v[2], 0)  # noqa: E731
                nearest.setdefault((user, poi), Counter())[min(day_visits, key=gap)[0]] += 1
    labels = {key: c.most_common(1)[0][0] for key, c in nearest.items()}
    labels.update({key: c.most_common(1)[0][0] for key, c in votes.items()})
    return labels


def adjusted_rand(a: list, b: list) -> float:
    """Adjusted Rand index of two labelings of the same items."""
    pairs = lambda counts: sum(k * (k - 1) / 2 for k in counts.values())  # noqa: E731
    index = pairs(Counter(zip(a, b)))
    sa, sb, total = pairs(Counter(a)), pairs(Counter(b)), len(a) * (len(a) - 1) / 2
    expected = sa * sb / total
    top = (sa + sb) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def check_outputs(out: Path, plan) -> tuple[list[str], float | None]:
    """Problems with one pass's CSVs, and the community ARI against true places."""
    problems = []
    summaries = [out.parent / name for name in plan.summaries]
    missing = [p.name for p in summaries if not p.exists()]
    communities, sweep = out / "communities.csv", out / "sweep.csv"
    if missing or not communities.exists() or not sweep.exists():
        return [f"missing outputs: {missing or 'communities/sweep'}"], None
    poi = {(p.stem.rpartition("_")[0], row[0]) for p in summaries for row in _csv(p)}
    nodes = {(user, poi_id): cid for cid, poi_id, user in _csv(communities)}
    if set(nodes) != poi:
        problems.append(f"communities.csv has {len(nodes)} POI, summaries name {len(poi)}")
    try:
        if not [float(q) for _, q in _csv(sweep)]:
            problems.append("sweep.csv is empty")
    except ValueError:
        problems.append("sweep.csv has a non-numeric modularity")
    places = poi_places(Path(plan.truth), out, plan.summaries)
    keys = sorted(nodes)
    ari = adjusted_rand([nodes[k] for k in keys], [places.get(k, f"none:{k}") for k in keys])
    return problems, ari


def failed_calls(result: dict) -> int:
    return sum(1 for _, _, rc, *_ in result["steps"] if rc != 0) + (result["score_rc"] != 0)


def check_pass(result: dict, out: Path, plan) -> tuple[list[str], str, float | None]:
    """Problems with one finished pass, its output digest and its community ARI."""
    problems, ari = check_outputs(out, plan)
    if failed := failed_calls(result):
        problems.append(f"{failed} CLI calls exited non-zero")
    if (result["rows_added"], result["rows_skipped"]) != (plan.rows, plan.rows_resent):
        problems.append(
            f"ingest added {result['rows_added']} and skipped {result['rows_skipped']} rows,"
            f" expected {plan.rows} and {plan.rows_resent}")
    return problems, digest(out), ari


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_reference(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` on a core on which the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S / ((ref_before + ref_after) / 2.0)


def reference_calls(results: list[dict]) -> list[tuple[str, float]]:
    """(phase, seconds) of each CLI call at the reference speed, median over the passes.

    Every pass makes the same calls on the same data in the same order,
    so call i does the same work in each pass. On a shared host the
    speed of a core drifts by tens of percent, over seconds and over
    minutes, as other tenants come and go; the reference timed next to
    the call drifts with it, and the ratio of the two does not.
    """
    calls = []
    for i, (phase, *_) in enumerate(results[0]["steps"]):
        times = []
        for r in results:
            _, seconds, _, ref_before, ref_after = r["steps"][i]
            times.append(at_reference(seconds, ref_before, ref_after))
        calls.append((phase, statistics.median(times)))
    return calls


def end_to_end(results: list[dict], plan, ari: float) -> tuple[dict, list[str]]:
    calls = reference_calls(results)
    phases = Counter()
    for phase, seconds in calls:
        phases[phase] += seconds
    latencies = [seconds * 1000.0 for phase, seconds in calls if phase == "extract"]
    values = {
        "scans_per_s": plan.scans / sum(seconds for _, seconds in calls),
        "ingest_s": phases["ingest"],
        "extract_s": phases["extract"],
        "communities_s": phases["communities"],
        "extract_p50_ms": quantile(latencies, 50),
        "extract_p95_ms": quantile(latencies, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(at_reference(r["setup_s"], *r["steps"][0][3:5])
                                     for r in results),
        "visit_recall": results[0]["visit_recall"],
        "identity_accuracy": results[0]["identity_accuracy"],
        "community_ari": ari,
    }
    n = len(latencies)
    refs = [(before + after) / 2.0 for r in results for *_, before, after in r["steps"]]
    notes = [f"passes: {len(results)}; scans per pass: {plan.scans}; CLI calls per pass: {len(calls)}",
             f"reference: median {statistics.median(refs) * 1000:.3f} ms, scaled to"
             f" {REFERENCE_S * 1000:.3f} ms",
             f"extract latency sample: {n} calls, each the median of {len(results)} passes"
             f" ({n // 2} beyond p50, {n - math.ceil(0.95 * n)} beyond p95)"]
    return values, notes


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    samples: dict[str, list[float]] = {}
    absent: set[str] = set()
    for r in traced:
        trace = r["trace"]
        totals, counts = trace["totals"], Counter(trace["counts"])
        absent.update(trace["absent"] + trace["broken"])
        values = {}
        for name, with_calls in SPANS.items():
            entry = totals.get(name, {"calls": 0, "s": 0.0})
            values[f"{name}.s"] = entry["s"]
            if with_calls:
                values[f"{name}.calls"] = entry["calls"]
        values.update({name: counts[name] for name in COUNTS})
        scans = max(1, counts["clustering.dbscan.scans"])
        values["clustering.noise_frac"] = counts["clustering.noise"] / scans
        modularity = totals.get("community.modularity", {"calls": 0})
        values["community.modularity.calls"] = modularity["calls"]
        values["community.best_q"] = counts.get("community.best_q", 0.0)
        values["cli.main.self_s"] = totals.get("cli.main", {"self_s": 0.0})["self_s"]
        own = Counter()
        for name, entry in totals.items():
            own[name.split(".")[0]] += entry["self_s"]
        whole = sum(own.values()) or 1.0
        values.update({f"self_share.{m}": own[m] / whole for m in MODULES})
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    out = {name: statistics.median(v) for name, v in samples.items()}
    scaled = lambda r: sum(at_reference(s, before, after) for _, s, _, before, after in r["steps"])  # noqa: E731
    base = statistics.median(scaled(r) for r in untraced)
    out["trace.overhead_frac"] = statistics.median(scaled(r) for r in traced) / base - 1.0
    notes = [f"traced passes: {len(traced)}; untraced passes: {len(untraced)}"]
    if absent:
        notes.append("absent (reported as 0): " + ", ".join(sorted(absent)))
    return out, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wifipoi" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/wifipoi; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = WORK / f"spans-{args.workload}-{args.seed}.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, work / "inputs")
        # Compile the program's bytecode once, so no pass pays for it.
        subprocess.run([sys.executable, "-c", "import wifipoi.cli"], check=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
        kinds = cycle((False, True)) if args.trace else repeat(False)
        runs: list[tuple[bool, dict | None]] = []
        problems: list[str] = []
        durations: list[float] = []
        first_digest = ari = None
        measuring = time.monotonic()
        while True:
            traced = next(kinds)
            t = time.monotonic()
            result = run_pass(work, plan, traced, spans)
            durations.append(time.monotonic() - t)
            runs.append((traced, result))
            label = f"pass {len(runs)}"
            if result is None:
                problems.append(f"{label} crashed or timed out")
            else:
                found, d, pass_ari = check_pass(result, work / "pass" / "out", plan)
                problems += [f"{label}: {p}" for p in found]
                if first_digest is None:
                    first_digest, ari = d, pass_ari
                elif d != first_digest:
                    problems.append(f"{label}: output digest {d[:12]} differs")
            # Start no pass that would likely end after --seconds.
            have_both = not args.trace or len({kind for kind, _ in runs}) == 2
            next_end = time.monotonic() - measuring + statistics.median(durations)
            if have_both and next_end > args.seconds:
                break
            if time.monotonic() - started + max(durations) > RUN_BUDGET:
                if not have_both:
                    problems.append("no time left for a traced pass")
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls_per_pass = len(plan.steps) + 1  # the score call too
    attempted = calls_per_pass * len(runs)
    failed = sum(calls_per_pass if r is None else failed_calls(r) for _, r in runs)
    done_untraced = [r for t, r in runs if r is not None and not t]
    done_traced = [r for t, r in runs if r is not None and t]
    correct = not problems and bool(done_untraced) and (not args.trace or bool(done_traced))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"output digest: {first_digest}")
    print(f"error_rate: {failed / attempted:.6f} ({failed} of {attempted} CLI calls)")
    for p in problems:
        print(f"check failed: {p}")
    metrics: dict[str, dict] = {}
    notes: list[str] = []
    if done_untraced and not args.trace:
        values, notes = end_to_end(done_untraced, plan, ari)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    elif done_untraced and done_traced:
        values, notes = per_layer(done_traced, done_untraced)
        metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
