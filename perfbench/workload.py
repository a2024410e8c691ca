"""One pass of a benchmark workload, in a fresh process.

    python3 perfbench/workload.py JOB.json

The job names the source tree, the store, the CLI calls and where to
write the result. The pass imports the program, creates an empty store
(set-up), then runs every call in-process through `wifipoi.cli.main`
(the timed phase), timing a fixed reference right before and right
after each call (see Reference), then scores the summaries against
the ground truth (untimed). With `trace` set, the program's public
functions are wrapped by name before set-up, and the spans are written
out at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer


def _rows_hook(counts, args, kwargs, report):
    counts["ingest.rows_added"] += report.added
    counts["ingest.rows_skipped"] += report.skipped


def _loaded_hook(counts, args, kwargs, log):
    counts["ingest.RawStore.load_log.rows"] += sum(len(s.observations) for s in log.entries)


def _cells_hook(counts, args, kwargs, sim):
    counts["similarity.similarity_matrix.cells"] += int(sim.size)


def _labels_hook(counts, args, kwargs, labels):
    counts["clustering.dbscan.scans"] += len(labels)
    counts["clustering.noise"] += sum(1 for label in labels if label == 0)


def _visits_hook(counts, args, kwargs, visits):
    counts["clustering.sub_minimal_visits"] += sum(1 for v in visits if v.sub_minimal)


def _match_hook(counts, args, kwargs, poi_id):
    counts["registry.poi_new" if poi_id is None else "registry.poi_matched"] += 1


def _graph_hook(counts, args, kwargs, graph):
    counts["community.edges"] += len(graph.edges)
    counts["community.nodes"] = max(counts["community.nodes"], len(graph.nodes))


def _louvain_hook(counts, args, kwargs, partition):
    counts["community.best_q"] = max(counts.get("community.best_q", float("-inf")), partition.q)


def _sqlite_hook(kind):
    def hook(counts, args, kwargs, result):
        def on_statement(sql):
            counts[f"sqlite.{kind}.statements"] += 1
            if sql.lstrip().upper().startswith("COMMIT"):
                counts[f"sqlite.{kind}.commits"] += 1
        args[0].conn.set_trace_callback(on_statement)
    return hook


def install(tr: Tracer) -> None:
    """Wrap the program's layer boundaries, by the names its callers use."""
    from wifipoi import cli, clustering, community, ingest, registry

    tr.wrap(cli, "main", "cli.main")
    tr.wrap(cli, "build_parser", "cli.build_parser")
    tr.wrap(cli, "decompress_batch", "ingest.decompress_batch")
    tr.wrap(cli, "decode_log", "ingest.decode_log")
    tr.wrap(cli, "store_raw", "ingest.store_raw", _rows_hook)
    tr.wrap(ingest.RawStore, "users", "ingest.RawStore.users")
    tr.wrap(ingest.RawStore, "load_log", "ingest.RawStore.load_log", _loaded_hook)
    tr.wrap(clustering, "similarity_matrix", "similarity.similarity_matrix", _cells_hook)
    tr.count_calls(registry, "cosine_similarity", "similarity.cosine.calls.registry")
    tr.count_calls(community, "cosine_similarity", "similarity.cosine.calls.community")
    tr.wrap(cli, "dbscan", "clustering.dbscan", _labels_hook)
    tr.wrap(cli, "segment_visits", "clustering.segment_visits", _visits_hook)
    tr.wrap(cli, "build_fingerprint", "registry.build_fingerprint")
    tr.wrap(cli, "upsert_poi", "registry.upsert_poi")
    tr.wrap(registry, "match_poi", "registry.match_poi", _match_hook)
    tr.wrap(registry.SummaryStore, "records", "registry.SummaryStore.records")
    tr.wrap(cli, "daily_summary", "registry.daily_summary")
    tr.wrap(cli, "build_graph", "community.build_graph", _graph_hook)
    tr.wrap(cli, "louvain", "community.louvain", _louvain_hook)
    tr.wrap(community, "modularity", "community.modularity")
    tr.after(ingest.RawStore, "__init__", "sqlite.raw", _sqlite_hook("raw"))
    tr.after(registry.SummaryStore, "__init__", "sqlite.summary", _sqlite_hook("summary"))


class Reference:
    """A fixed mix of the kinds of work the program does: interpreted
    Python, SQLite and numpy. Timed right before and right after every
    CLI call, it gives the speed of the core at the moment of the call.
    """

    def __init__(self) -> None:
        import sqlite3

        import numpy as np

        self.conn = sqlite3.connect(":memory:")
        self.conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        self.values = np.arange(4000.0)

    def time(self) -> float:
        t = time.perf_counter()
        seen: dict[int, int] = {}
        for i in range(3000):
            seen[i & 255] = seen.get(i & 255, 0) + i
        self.conn.executemany("INSERT INTO t VALUES (?, ?)", ((i, "x") for i in range(300)))
        self.conn.execute("DELETE FROM t")
        float((self.values * self.values).sum())
        return time.perf_counter() - t


def call(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in-process; any exit other than 0 is a failure."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a call by exiting
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crash is a failed call, reported below
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue()


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    tr = Tracer() if job["trace"] else None
    from wifipoi import cli
    from wifipoi.ingest import RawStore
    from wifipoi.registry import SummaryStore

    if tr is not None:
        install(tr)
    store = job["store"]
    RawStore(store).close()
    SummaryStore(store).close()
    begin = time.monotonic()
    reference = Reference()

    steps = []
    ingest_out = []
    for phase, argv in job["steps"]:
        ref_before = reference.time()
        t = time.perf_counter()
        rc, text = call(cli, [*argv, "--store", store])
        seconds = time.perf_counter() - t
        steps.append((phase, seconds, rc, ref_before, reference.time()))
        if phase == "ingest":
            ingest_out.append(text)
    timed = time.monotonic() - begin

    totals = re.findall(r"^total: (\d+) added, (\d+) skipped$", "".join(ingest_out), re.M)

    if tr is not None:
        tr.restore()
    rc, text = call(cli, [*job["score"], "--store", store])
    matched = re.search(r"^matched (\d+)/(\d+) ", text, re.M)
    accuracy = re.search(r"^identity accuracy: ([0-9.]+)$", text, re.M)
    result = {
        "setup_s": begin - job["t0"],
        "timed_s": timed,
        "steps": steps,
        "score_rc": rc,
        "rows_added": sum(int(added) for added, _ in totals),
        "rows_skipped": sum(int(skipped) for _, skipped in totals),
        "visit_recall": int(matched.group(1)) / int(matched.group(2)) if matched else None,
        "identity_accuracy": float(accuracy.group(1)) if accuracy else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tr is not None:
        dump = tr.dump()
        Path(job["spans"]).write_text(json.dumps(dump), encoding="utf-8")
        result["trace"] = {"totals": tr.totals(), "counts": dump["counts"],
                           "absent": dump["absent"], "broken": dump["broken"]}
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
