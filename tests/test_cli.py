"""End-to-end runs of the command-line pipeline in temp directories."""
import csv
import gzip
import hashlib
import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import (
    VERSION_1_SCHEMA, day_rows, registry_tables, store_invariant_faults, version_1_copy,
)
from wifipoi import cli, ingest
from wifipoi.cli import main
from wifipoi.ingest import RawStore, compress_batch, decode_log, encode_log, plan_uploads
from wifipoi.model import T_MAX, T_MIN, ClusterParams, ScanLog
from wifipoi.registry import SummaryStore

DAY = "2026-03-02"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WIFIPOI_STORE", raising=False)
    return tmp_path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def simulate_office(workdir, seed=7):
    assert run("simulate", "--scenario", "office-day", "--seed", seed, "--out", "sim") == 0
    return workdir / "sim"


class TestSimulate:
    def test_office_day_writes_one_user(self, workdir):
        sim = simulate_office(workdir)
        assert (sim / "alice.scan.gz").exists()
        assert (sim / "ground_truth.csv").exists()

    def test_mall_writes_eleven_users(self, workdir):
        assert run("simulate", "--scenario", "mall-11-users", "--seed", 1, "--out", "mall") == 0
        files = sorted(p.name for p in (workdir / "mall").glob("*.scan.gz"))
        assert len(files) == 11
        assert files[0] == "u01.scan.gz" and files[-1] == "u11.scan.gz"

    def test_fixed_seed_is_byte_identical(self, workdir):
        simulate_office(workdir)
        assert run("simulate", "--scenario", "office-day", "--seed", 7, "--out", "again") == 0
        first = (workdir / "sim" / "alice.scan.gz").read_bytes()
        second = (workdir / "again" / "alice.scan.gz").read_bytes()
        assert first == second
        truth_a = (workdir / "sim" / "ground_truth.csv").read_bytes()
        truth_b = (workdir / "again" / "ground_truth.csv").read_bytes()
        assert truth_a == truth_b

    def test_unknown_scenario_exits_two(self, workdir, capsys):
        assert run("simulate", "--scenario", "nowhere") == 2
        assert "nowhere" in capsys.readouterr().err


class TestIngest:
    def test_ingest_and_reingest(self, workdir, capsys):
        sim = simulate_office(workdir)
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz") == 0
        first = capsys.readouterr().out
        assert "added" in first
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz") == 0
        again = capsys.readouterr().out
        assert "0 added" in again or "added 0" in again

    def test_corrupt_gzip_exits_two(self, workdir, capsys):
        bad = workdir / "bad.scan.gz"
        bad.write_bytes(b"definitely not gzip")
        assert run("ingest", "--store", "poi.db", bad) == 2
        assert "gzip" in capsys.readouterr().err

    def test_missing_file_exits_two(self, workdir):
        assert run("ingest", "--store", "poi.db", "ghost.scan.gz") == 2

    @pytest.mark.parametrize("name", [".scan.gz", ".scan", ".gz"])
    def test_empty_file_stem_rejects_the_call(self, workdir, capsys, name):
        sim = simulate_office(workdir, seed=1)
        data = (sim / "alice.scan.gz").read_bytes()
        (workdir / name).write_bytes(data if name.endswith(".gz") else gzip.decompress(data))
        capsys.readouterr()
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz", name) == 2
        assert capsys.readouterr().err == (
            f"error: {name}: file name has an empty stem, so it names no user\n"
        )
        assert not (workdir / "poi.db").exists()

    @pytest.mark.parametrize("name", ["x,u01.scan.gz", "u 01.scan.gz", "u01\t.scan"])
    def test_stem_with_a_comma_or_whitespace_rejects_the_call(self, workdir, capsys, name):
        sim = simulate_office(workdir, seed=1)
        data = (sim / "alice.scan.gz").read_bytes()
        (workdir / name).write_bytes(data if name.endswith(".gz") else gzip.decompress(data))
        capsys.readouterr()
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz", name) == 2
        stem = name.removesuffix(".gz").removesuffix(".scan")
        assert capsys.readouterr().err == (
            f"error: {name}: file name stem {stem!r} holds a comma or whitespace,"
            " which the CSV and edge-list outputs cannot carry\n"
        )
        assert not (workdir / "poi.db").exists()

    def test_bad_second_file_rejects_the_call(self, workdir, capsys):
        sim = simulate_office(workdir)
        bad = workdir / "bob.scan"
        bad.write_bytes(
            b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n'
            b'{"t":400,"dev":"d","aps":[["zz:00:00:00:00:01",-50]]}\n'
        )
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz", bad) == 2
        captured = capsys.readouterr()
        assert f"{bad}: line 2: not a 48-bit MAC address" in captured.err
        assert "rows added" not in captured.out
        with RawStore(workdir / "poi.db") as store:
            assert rows_in(store) == 0

    def test_refused_content_creates_no_store(self, workdir, capsys):
        bad = workdir / "bob.scan"
        bad.write_bytes(
            b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n'
            b'{"t":400,"dev":"d","aps":[["aa:00:00:00:00:01",-50]\n'
        )
        assert run("ingest", "--store", "poi.db", bad) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 2: ")
        assert not (workdir / "poi.db").exists()

    @pytest.mark.parametrize("line", [
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep-nesting"),
        pytest.param(b'{"t":' + b"1" * 5_000 + b',"dev":"d","aps":[]}', id="5000-digit-t"),
    ])
    def test_unparseable_line_names_file_and_line(self, workdir, capsys, line):
        sim = simulate_office(workdir)
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz") == 0
        before = (workdir / "poi.db").read_bytes()
        bad = workdir / "bob.scan"
        bad.write_bytes(b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n' + line + b"\n")
        capsys.readouterr()
        assert run("ingest", "--store", "poi.db", bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 2: ") and "Traceback" not in err
        assert (workdir / "poi.db").read_bytes() == before

    def test_differing_resend_rejects_the_call(self, workdir, capsys):
        first = b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n'
        (workdir / "a").mkdir()
        (workdir / "b").mkdir()
        (workdir / "a" / "bob.scan").write_bytes(first)
        (workdir / "b" / "bob.scan").write_bytes(first.replace(b"-50", b"-51"))
        (workdir / "carol.scan").write_bytes(first)
        assert run("ingest", "--store", "poi.db", "a/bob.scan") == 0
        with RawStore(workdir / "poi.db") as store:
            before = day_rows(store.load_day("bob", 0, 1000))
        capsys.readouterr()
        assert run("ingest", "--store", "poi.db", "carol.scan", "a/bob.scan", "b/bob.scan") == 2
        assert capsys.readouterr().err == (
            f"error: {Path('b/bob.scan')}: user 'bob': the scan at t=100 differs"
            " from the stored one\n"
        )
        with RawStore(workdir / "poi.db") as store:
            assert store.users() == ["bob"]
            assert day_rows(store.load_day("bob", 0, 1000)) == before

    def test_files_that_disagree_create_no_store(self, workdir, capsys):
        first = b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n'
        (workdir / "a").mkdir()
        (workdir / "b").mkdir()
        (workdir / "a" / "bob.scan").write_bytes(first)
        (workdir / "b" / "bob.scan").write_bytes(first.replace(b"-50", b"-51"))
        assert run("ingest", "--store", "p.db", "a/bob.scan", "b/bob.scan") == 2
        assert capsys.readouterr().err == (
            f"error: {Path('b/bob.scan')}: user 'bob': the scan at t=100 differs"
            " from the stored one\n"
        )
        assert sorted(p.name for p in workdir.iterdir()) == ["a", "b"]

    def test_one_call_is_one_commit(self, workdir, capsys, monkeypatch, commit_counter):
        class CountingRawStore(RawStore):
            def __init__(self, path):
                super().__init__(path)
                commit_counter.attach(self.conn)

        sim = simulate_office(workdir)
        (workdir / "copy.scan.gz").write_bytes((sim / "alice.scan.gz").read_bytes())
        monkeypatch.setattr(cli, "RawStore", CountingRawStore)
        capsys.readouterr()
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz", "copy.scan.gz") == 0
        assert commit_counter.commits == 1
        out = capsys.readouterr().out.splitlines()
        with RawStore(workdir / "poi.db") as store:
            rows = rows_in(store)
        assert out == [
            f"{sim / 'alice.scan.gz'}: {rows // 2} rows added, 0 skipped",
            f"copy.scan.gz: {rows // 2} rows added, 0 skipped",
            f"total: {rows} added, 0 skipped",
        ]

    @pytest.mark.parametrize("t", [10**23, T_MAX + 1, T_MIN - 1])
    def test_timestamp_no_day_can_name_rejects_the_call(self, workdir, capsys, t):
        line = b'{"t":%d,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n'
        (workdir / "carol.scan").write_bytes(line % 100)
        (workdir / "bob.scan").write_bytes(line % 100 + line % t)
        assert run("ingest", "--store", "poi.db", "carol.scan", "bob.scan") == 2
        assert capsys.readouterr().err == (
            f"error: bob.scan: line 2: timestamp {t} outside"
            " [-62135596800, 253402300799] (0001-01-01 to 9999-12-31)\n"
        )
        with RawStore(workdir / "poi.db") as store:
            assert store.users() == []

    def test_first_and_last_day_yyyy_mm_dd_names_reach_extract(self, workdir, capsys):
        line = b'{"t":%d,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n'
        (workdir / "bob.scan").write_bytes(line % T_MIN + line % T_MAX)
        assert run("ingest", "--store", "poi.db", "bob.scan") == 0
        for day in ("0001-01-01", "9999-12-31"):
            capsys.readouterr()
            assert run("extract", "--store", "poi.db", "--user", "bob", "--day", day) == 0
            assert capsys.readouterr().out.startswith(f"only noise for bob on {day}")

    def test_valid_uploads_never_take_the_line_loop(self, workdir, monkeypatch):
        # the line-by-line decoder only explains faults; a valid upload
        # is decoded in columns
        def refuse(*args):
            raise AssertionError("the line loop ran on a valid upload")

        sim = simulate_office(workdir)
        monkeypatch.setattr(ingest, "_decode_line", refuse)
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz") == 0
        with RawStore(workdir / "poi.db") as store:
            assert rows_in(store) > 0

    def test_stored_bytes_are_pinned(self, workdir, capsys):
        # Two users over two calls: u01's day in hourly uploads, two of
        # them in one call and one resent, and u02's day in one upload
        # with its lines, readings and MAC spellings scrambled, which
        # must land as the canonical scans. The digest covers every
        # stored byte, the MAC ids and the printed counts.
        assert run("simulate", "--scenario", "mall-11-users", "--seed", 5, "--out", "sim") == 0
        u01 = decode_log(gzip.decompress((workdir / "sim" / "u01.scan.gz").read_bytes()))
        files = []
        for k, batch in enumerate(plan_uploads(u01, period=3600)):
            path = workdir / f"up{k}" / "u01.scan.gz"
            path.parent.mkdir()
            path.write_bytes(compress_batch(encode_log(ScanLog("u01", batch.device, batch.scans))))
            files.append(path.relative_to(workdir))
        lines = []
        for line in gzip.decompress((workdir / "sim" / "u02.scan.gz").read_bytes()).splitlines():
            record = json.loads(line)
            record["aps"] = [[mac.upper().replace(":", "-"), rssi] for mac, rssi in record["aps"]]
            lines.append(json.dumps({**record, "aps": record["aps"][::-1]}))
        (workdir / "u02.scan").write_text("\n".join(lines[::-1]) + "\n")
        assert len(files) >= 4
        capsys.readouterr()
        assert run("ingest", "--store", "poi.db", files[0], files[1], "u02.scan") == 0
        assert run("ingest", "--store", "poi.db", files[1], *files[2:]) == 0
        out = capsys.readouterr().out
        assert not out.endswith(", 0 skipped\n")  # the resend was skipped
        h = hashlib.sha256(out.encode())
        with sqlite3.connect(workdir / "poi.db") as conn:
            for sql in ("SELECT user, t, macs, rssi FROM raw_scans ORDER BY user, t",
                        "SELECT id, mac FROM mac ORDER BY id"):
                for row in conn.execute(sql):
                    h.update(repr(row).encode())
        conn.close()
        assert h.hexdigest()[:16] == "23eb52b5c50d69df"


def rows_in(store):
    """The readings stored for every user, counted through load_day."""
    return sum(
        len(row)
        for user in store.users()
        for _, row in day_rows(store.load_day(user, -(2**63), 2**63 - 1))
    )


# YYYY-MM-DD in form, but no date, with the reason strptime gives
BAD_DATES = {
    "2026-03-02x": "unconverted data remains: x",
    "2026-02-30": "day is out of range for month",
}


class TestExtract:
    def test_office_day_summary(self, workdir):
        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        assert run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY) == 0
        rows = read_csv(workdir / f"alice_{DAY}.csv")
        assert rows[0] == ["poi_id", "label", "start", "end"]
        assert len(rows) == 1 + 6
        assert len({r[0] for r in rows[1:]}) == 4

    def test_rerun_is_idempotent(self, workdir):
        def snapshot():
            with SummaryStore(workdir / "poi.db") as store:
                counts = [
                    store.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                    for table in ("poi_properties", "poi_visits")
                ]
                return store.records("alice"), counts

        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY)
        first = (workdir / f"alice_{DAY}.csv").read_text()
        stored = snapshot()
        assert stored[1][0] > 1
        run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY)
        assert (workdir / f"alice_{DAY}.csv").read_text() == first
        assert snapshot() == stored

    def test_opens_the_store_file_once(self, workdir, monkeypatch):
        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        opened = []
        real_connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect",
                            lambda *args, **kwargs: opened.append(args) or real_connect(*args, **kwargs))
        assert run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY) == 0
        assert opened == [("poi.db",)]

    def test_empty_day_writes_empty_summary(self, workdir):
        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        assert run("extract", "--store", "poi.db", "--user", "alice", "--day", "2026-07-01") == 0
        rows = read_csv(workdir / "alice_2026-07-01.csv")
        assert rows == [["poi_id", "label", "start", "end"]]

    def test_unknown_user_exits_three(self, workdir, capsys):
        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        assert run("extract", "--store", "poi.db", "--user", "bob", "--day", DAY) == 3
        assert "bob" in capsys.readouterr().err

    def test_only_noise_writes_empty_summary(self, workdir, capsys):
        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        capsys.readouterr()
        assert run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY,
                   "--epsilon", "1.0") == 0
        assert "only noise" in capsys.readouterr().out
        assert read_csv(workdir / f"alice_{DAY}.csv") == [["poi_id", "label", "start", "end"]]
        with SummaryStore(workdir / "poi.db") as store:
            assert store.users() == []

    @pytest.mark.parametrize("day", ["2026-3-2", "2026-03-2", "02/03/2026", *BAD_DATES])
    def test_day_must_be_yyyy_mm_dd(self, workdir, capsys, day):
        # 2026-3-2 would write alice_2026-3-2.csv, which score cannot
        # pair with the ground truth's 2026-03-02
        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        capsys.readouterr()
        assert run("extract", "--store", "poi.db", "--user", "alice", "--day", day) == 2
        err = capsys.readouterr().err
        reason = BAD_DATES.get(day, f"time data {day!r} does not match format '%Y-%m-%d'")
        assert err == f"error: --day {day!r}: expected a real YYYY-MM-DD date ({reason})\n"
        assert list(workdir.glob("alice_*")) == []
        with SummaryStore(workdir / "poi.db") as store:
            assert store.users() == []

    def test_missing_out_directory_writes_nothing(self, workdir, capsys):
        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        assert run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY,
                   "--out", "missing/alice.csv") == 2
        assert "missing" in capsys.readouterr().err
        with SummaryStore(workdir / "poi.db") as store:
            assert store.users() == []

    def test_poi_count_is_the_distinct_ids_written(self, workdir, capsys):
        sim = simulate_office(workdir, seed=0)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        capsys.readouterr()
        assert run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY,
                   "--epsilon", "0.95") == 0
        last = capsys.readouterr().out.splitlines()[-1]
        visits, _, rest = last.partition(" visits over ")
        rows = read_csv(workdir / f"alice_{DAY}.csv")[1:]
        assert int(visits) == len(rows)
        assert int(rest.partition(" POI")[0]) == len({r[0] for r in rows}) < len(rows)

    def test_rerun_at_another_epsilon_writes_only_its_visits(self, workdir):
        sim = simulate_office(workdir, seed=0)
        for store in ("poi.db", "fresh.db"):
            run("ingest", "--store", store, sim / "alice.scan.gz")
        args = ["--user", "alice", "--day", DAY, "--epsilon"]
        assert run("extract", "--store", "poi.db", *args, "0.5", "--out", "first.csv") == 0
        assert run("extract", "--store", "poi.db", *args, "0.95", "--out", "rerun.csv") == 0
        assert run("extract", "--store", "fresh.db", *args, "0.95", "--out", "fresh.csv") == 0
        assert len(read_csv(workdir / "first.csv")) == 1 + 6
        assert len(read_csv(workdir / "rerun.csv")) == 1 + 157
        assert (workdir / "rerun.csv").read_text() == (workdir / "fresh.csv").read_text()

    def test_reads_no_visit_rows(self, workdir, monkeypatch):
        issued = []

        def traced(store_class):
            class Traced(store_class):
                def __init__(self, path):
                    super().__init__(path)
                    self.conn.set_trace_callback(issued.append)
            return Traced

        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        monkeypatch.setattr(cli, "RawStore", traced(RawStore))
        monkeypatch.setattr(cli, "SummaryStore", traced(SummaryStore))
        assert run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY) == 0
        reads = [sql for sql in issued if sql.lstrip().upper().startswith("SELECT")]
        assert any("poi_readings" in sql for sql in reads)  # the registry's fingerprints
        assert not any("poi_visits" in sql for sql in reads)

    def test_epsilon_override_accepted(self, workdir):
        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        out = workdir / "alt.csv"
        assert run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY,
                   "--epsilon", "0.6", "--out", out) == 0
        assert out.exists()


def build_mall_store(workdir):
    run("simulate", "--scenario", "mall-11-users", "--seed", 3, "--out", "mall")
    scans = sorted((workdir / "mall").glob("*.scan.gz"))
    run("ingest", "--store", "poi.db", *scans)
    for k in range(1, 12):
        assert run("extract", "--store", "poi.db", "--user", "u%02d" % k,
                   "--day", "2026-03-07", "--out", workdir / ("u%02d.csv" % k)) == 0


class TestCommunities:
    def test_mall_sweep_and_pair_count(self, workdir, capsys):
        build_mall_store(workdir)
        assert run("communities", "--store", "poi.db") == 0
        out = capsys.readouterr().out
        assert "41 POI" in out and "820 pairs" in out
        sweep = read_csv(workdir / "sweep.csv")
        assert sweep[0] == ["threshold", "modularity"]
        assert [r[0] for r in sweep[1:]] == ["0.2", "0.3", "0.4", "0.5"]

    def test_zone_threshold_recovers_three_zones(self, workdir):
        build_mall_store(workdir)
        assert run("communities", "--store", "poi.db", "--thresholds", "0.2",
                   "--edges-out", "edges.txt") == 0
        rows = read_csv(workdir / "communities.csv")
        assert rows[0] == ["community_id", "poi_id", "user"]
        sizes = {}
        for cid, _, _ in rows[1:]:
            sizes[cid] = sizes.get(cid, 0) + 1
        assert sorted(sizes.values()) == [13, 14, 14]
        assert (workdir / "edges.txt").read_text().strip()

    def test_threshold_without_edges_is_skipped(self, workdir, capsys):
        build_mall_store(workdir)
        capsys.readouterr()
        assert run("communities", "--store", "poi.db", "--thresholds", "0.2,1.0") == 0
        assert "threshold 1.00: 0 edges, skipped" in capsys.readouterr().out
        assert [row[0] for row in read_csv(workdir / "sweep.csv")[1:]] == ["0.2"]
        assert len(read_csv(workdir / "communities.csv")) == 1 + 41

    def test_no_threshold_with_edges_exits_three(self, workdir, capsys):
        build_mall_store(workdir)
        assert run("communities", "--store", "poi.db", "--thresholds", "1.0") == 3
        assert "1.0" in capsys.readouterr().err
        assert not (workdir / "sweep.csv").exists()

    def test_single_poi_exits_three(self, workdir, capsys):
        from wifipoi.clustering import VisitInterval
        from wifipoi.model import Fingerprint
        from wifipoi.registry import upsert_day

        with SummaryStore(workdir / "one.db") as store:
            fp = Fingerprint(sums={"aa:00:00:00:00:01": -200}, counts={"aa:00:00:00:00:01": 4})
            upsert_day(store, "u", [(fp, [VisitInterval(1, 0, 1200, 4)])])
        assert run("communities", "--store", workdir / "one.db") == 3
        assert "2" in capsys.readouterr().err


class TestScore:
    def test_perfect_pipeline_scores_one(self, workdir, capsys):
        sim = simulate_office(workdir)
        run("ingest", "--store", "poi.db", sim / "alice.scan.gz")
        run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY)
        assert run("score", "--truth", sim / "ground_truth.csv",
                   workdir / f"alice_{DAY}.csv") == 0
        out = capsys.readouterr().out
        assert "identity accuracy: 1.000" in out
        assert "splits: 0" in out and "merges: 0" in out
        assert "matched 6/6" in out

    @pytest.mark.parametrize("short", ["truth", "summary"])
    def test_short_row_exits_two(self, workdir, capsys, short):
        truth = workdir / "truth.csv"
        truth.write_text("user,day,place,start,end\nalice,2026-03-02,desk,09:00,10:00\n")
        summary = workdir / "alice_2026-03-02.csv"
        summary.write_text("poi_id,label,start,end\n1,,09:00,10:00\n")
        bad = truth if short == "truth" else summary
        bad.write_text(bad.read_text().replace(",10:00", ""))
        assert run("score", "--truth", truth, summary) == 2
        assert f"{bad}: bad row" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["truth", "summary"])
    def test_bad_time_names_the_file(self, workdir, capsys, bad):
        truth = workdir / "truth.csv"
        truth.write_text("user,day,place,start,end\nalice,2026-03-02,desk,09:00,10:00\n")
        summary = workdir / "alice_2026-03-02.csv"
        summary.write_text("poi_id,label,start,end\n1,,09:00,10:00\n")
        path = truth if bad == "truth" else summary
        path.write_text(path.read_text().replace("09:00", ""))
        assert run("score", "--truth", truth, summary) == 2
        assert f"{path}: bad time ''" in capsys.readouterr().err

    def test_bad_poi_id_names_the_file(self, workdir, capsys):
        truth = workdir / "truth.csv"
        truth.write_text("user,day,place,start,end\nalice,2026-03-02,desk,09:00,10:00\n")
        summary = workdir / "alice_2026-03-02.csv"
        summary.write_text("poi_id,label,start,end\nx,,09:00,10:00\n")
        assert run("score", "--truth", truth, summary) == 2
        assert f"{summary}: bad poi_id 'x'" in capsys.readouterr().err

    def test_summary_name_without_user_and_day_exits_two(self, workdir, capsys):
        truth = workdir / "truth.csv"
        truth.write_text("user,day,place,start,end\nalice,2026-03-02,desk,09:00,10:00\n")
        summary = workdir / "summary.csv"
        summary.write_text("poi_id,label,start,end\n1,,09:00,10:00\n")
        assert run("score", "--truth", truth, summary) == 2
        assert f"{summary}: cannot infer user/day" in capsys.readouterr().err

    def test_truth_without_visits_for_the_summaries_exits_two(self, workdir, capsys):
        truth = workdir / "truth.csv"
        truth.write_text("user,day,place,start,end\nbob,2026-03-02,desk,09:00,10:00\n")
        summary = workdir / "alice_2026-03-02.csv"
        summary.write_text("poi_id,label,start,end\n1,,09:00,10:00\n")
        assert run("score", "--truth", truth, summary) == 2
        assert "ground truth contains no visits" in capsys.readouterr().err

    def test_header_mismatch_exits_two(self, workdir):
        truth = workdir / "truth.csv"
        truth.write_text("user,day,place,start,end\n")
        bad = workdir / "alice_2026-03-02.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert run("score", "--truth", truth, bad) == 2


# file kind -> (SQL that makes it, or None for a 0-byte file; the refusal after "cannot open store")
NOT_A_STORE = {
    "old layout": (
        "CREATE TABLE raw_observations (user TEXT NOT NULL, t INTEGER NOT NULL,"
        " mac TEXT NOT NULL, rssi INTEGER NOT NULL, PRIMARY KEY (user, t, mac));"
        "INSERT INTO raw_observations VALUES ('u', 100, 'aa:00:00:00:00:01', -50);",
        " f.db: it holds the old one-row-per-reading raw_observations layout;"
        " re-ingest its uploads into a new store",
    ),
    "0-byte": (None, ": no store at f.db"),
    "notes-only": (
        "CREATE TABLE notes (body TEXT); INSERT INTO notes VALUES ('keep me');",
        " f.db: it is not a store: it holds tables, but not mac and raw_scans",
    ),
    "foreign poi_properties": (
        "CREATE TABLE poi_properties (user TEXT);",
        " f.db: it is not a store: it holds tables, but not mac and raw_scans",
    ),
    # version-1 stores whose fingerprint text has no exact integer sums
    "version-1 mean not of whole dBm": (
        VERSION_1_SCHEMA + "INSERT INTO poi_properties VALUES"
        " ('u', 1, 'aa:00:00:00:00:01:-50.0:4;bb:00:00:00:00:02:-41.3:1', 0);",
        " f.db: its version-1 fingerprint of user 'u', POI 1, holds 'bb:00:00:00:00:02:-41.3:1',"
        " not mac:mean:count of whole-dBm readings",
    ),
    "version-1 unparsable triple": (
        VERSION_1_SCHEMA
        + "INSERT INTO poi_properties VALUES ('u', 1, 'aa:00:00:00:00:01:-50.0:4', 0);"
        "INSERT INTO poi_properties VALUES ('u', 2, 'aa:00:00:00:00:01,-50.0,4', 0);",
        " f.db: its version-1 fingerprint of user 'u', POI 2, holds 'aa:00:00:00:00:01,-50.0,4'",
    ),
}


class TestStoreOpen:
    @pytest.mark.parametrize("command", ["ingest", "communities"])
    @pytest.mark.parametrize("cause", ["missing directory", "not a database"])
    def test_unopenable_store_exits_three(self, workdir, capsys, command, cause):
        scan = workdir / "u.scan"
        scan.write_bytes(b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n')
        store = workdir / "missing" / "x.db"
        if cause == "not a database":
            store = workdir / "notadb.db"
            store.write_bytes(b"plain text, not SQLite" * 100)
        args = [scan] if command == "ingest" else []
        assert run(command, "--store", store, *args) == 3
        assert "cannot open" in capsys.readouterr().err
        assert not (workdir / "missing").exists()

    @pytest.mark.parametrize("argv", [
        ["extract", "--user", "nobody", "--day", "2026-03-07"],
        ["communities"],
    ])
    def test_read_of_a_missing_store_creates_none(self, workdir, capsys, argv):
        assert run(*argv, "--store", "typo.db") == 3
        assert "no store at typo.db" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_store_with_another_table_layout_exits_three(self, workdir, capsys):
        with sqlite3.connect(workdir / "other.db") as conn:
            conn.execute("CREATE TABLE poi_properties (user TEXT)")
        conn.close()
        before = (workdir / "other.db").read_bytes()
        assert run("communities", "--store", "other.db") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open store other.db: it is not a store")
        assert (workdir / "other.db").read_bytes() == before

    @pytest.mark.parametrize("kind, argv", [
        pytest.param(kind, argv, id=command if kind == "old layout" else f"{kind}-{command}")
        for kind in NOT_A_STORE
        for command, argv in [
            ("ingest", ["ingest", "u.scan"]),
            ("extract", ["extract", "--user", "u", "--day", DAY]),
            ("communities", ["communities"]),
        ]
        if (kind, command) != ("0-byte", "ingest")  # ingest makes its store there
    ])
    def test_store_with_the_old_raw_layout_exits_three(self, workdir, capsys, kind, argv):
        """Every command refuses a file that is not a store, or a version-1 store whose
        fingerprints have no exact integer sums, and leaves it byte-identical."""
        (workdir / "u.scan").write_bytes(b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n')
        script, message = NOT_A_STORE[kind]
        (workdir / "f.db").write_bytes(b"")
        if script:
            with sqlite3.connect(workdir / "f.db") as conn:
                conn.executescript(script)
            conn.close()
        before = (workdir / "f.db").read_bytes()
        assert run(*argv, "--store", "f.db") == 3
        assert capsys.readouterr().err.startswith(f"error: cannot open store{message}")
        assert (workdir / "f.db").read_bytes() == before
        assert sorted(p.name for p in workdir.iterdir()) == ["f.db", "u.scan"]

    def test_ingest_makes_a_store_in_a_zero_byte_file(self, workdir):
        (workdir / "u.scan").write_bytes(b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n')
        (workdir / "f.db").write_bytes(b"")
        assert run("ingest", "--store", "f.db", "u.scan") == 0
        with RawStore(workdir / "f.db") as store:
            assert store.users() == ["u"]

    def test_communities_leaves_a_store_that_ingest_made_byte_identical(self, workdir, capsys):
        sim = simulate_office(workdir, seed=1)
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz") == 0
        before = (workdir / "poi.db").read_bytes()
        assert run("communities", "--store", "poi.db") == 3  # no POI registered yet
        assert "need at least 2 fingerprints" in capsys.readouterr().err
        assert (workdir / "poi.db").read_bytes() == before


def test_every_command_runs_in_truncate_journal_mode(workdir, monkeypatch):
    """Each command's store connection journals in TRUNCATE mode, so a commit
    leaves a 0-byte journal, and no command leaves a journal with content."""
    modes = []
    close = RawStore.close

    def close_reading_the_mode(store):
        modes.append(store.conn.execute("PRAGMA journal_mode").fetchone())
        close(store)

    monkeypatch.setattr(RawStore, "close", close_reading_the_mode)
    alice, bob = office_users(workdir, ["alice", "bob"])
    journal = workdir / "poi.db-journal"
    for argv in (["ingest", alice, bob],
                 ["extract", "--user", "alice", "--day", DAY],
                 ["extract", "--user", "bob", "--day", DAY],
                 ["communities"]):
        assert run(*argv, "--store", "poi.db") == 0
        assert modes.pop() == ("truncate",) and modes == []
        assert not journal.exists() or journal.stat().st_size == 0
    assert journal.stat().st_size == 0


def office_users(workdir, users):
    """office-day's alice simulated once per user, seeds 1, 2, ..., as <user>.scan.gz."""
    paths = []
    for seed, user in enumerate(users, 1):
        assert run("simulate", "--scenario", "office-day", "--seed", seed,
                   "--out", f"sim{seed}") == 0
        paths.append((workdir / f"sim{seed}" / "alice.scan.gz").rename(workdir / f"{user}.scan.gz"))
    return paths


def test_a_version_1_store_continues_as_the_store_it_was_copied_from(workdir):
    """A version-1 copy, written by the reference writer, upgrades on open to the same registry."""
    alice, bob = office_users(workdir, ["alice", "bob"])
    assert run("ingest", "--store", "poi.db", alice, bob) == 0
    assert run("extract", "--store", "poi.db", "--user", "alice", "--day", DAY) == 0
    version_1_copy(workdir / "poi.db", workdir / "v1.db")
    outputs = {}
    for store in ("poi.db", "v1.db"):
        assert run("extract", "--store", store, "--user", "bob", "--day", DAY,
                   "--out", f"bob-{store}.csv") == 0
        assert run("communities", "--store", store, "--communities-out", f"c-{store}.csv",
                   "--sweep-out", f"s-{store}.csv", "--edges-out", f"e-{store}.txt") == 0
        with SummaryStore(workdir / store) as opened:
            assert store_invariant_faults(opened) == []
            outputs[store] = registry_tables(opened.conn), [
                (workdir / f"{name}-{store}.{ext}").read_bytes()
                for name, ext in (("bob", "csv"), ("c", "csv"), ("s", "csv"), ("e", "txt"))
            ]
    assert outputs["v1.db"] == outputs["poi.db"]
    assert len(outputs["poi.db"][0]["poi_properties"]) == 8


_MAIN = "import sys; from wifipoi.cli import main; sys.exit(main(sys.argv[1:]))"


def test_racing_commands_leave_the_registry_of_a_serial_run(workdir):
    """Two ingests and two extracts, one process each, race on one store file.

    Every write transaction opens with BEGIN IMMEDIATE, and a process
    that finds the file locked waits on SQLite's busy timeout, 5 s in
    Python's sqlite3.connect, so the calls take turns.
    """
    paths = office_users(workdir, ["a", "b", "c", "d"])
    calls = [["ingest", paths[0]], ["ingest", paths[1]],
             ["extract", "--user", "c", "--day", DAY, "--out", "c.csv"],
             ["extract", "--user", "d", "--day", DAY, "--out", "d.csv"]]
    for store in ("serial.db", "raced.db"):
        assert run("ingest", "--store", store, *paths[2:]) == 0
    for argv in calls:
        assert run(*argv, "--store", "serial.db") == 0
    src = Path(__file__).resolve().parent.parent / "src"
    procs = [  # four processes, never more
        subprocess.Popen(
            [sys.executable, "-c", _MAIN, *map(str, argv), "--store", "raced.db"],
            cwd=workdir, env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for argv in calls
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    with SummaryStore(workdir / "serial.db") as serial, SummaryStore(workdir / "raced.db") as raced:
        assert registry_tables(raced.conn) == registry_tables(serial.conn)
        assert store_invariant_faults(raced) == []
        assert RawStore.users(raced) == ["a", "b", "c", "d"]
        assert raced.users() == ["c", "d"]


class TestBadPath:
    """A path that cannot be read or written exits 2, not with a traceback."""

    @pytest.mark.parametrize("argv", [
        ["ingest", "sim"],
        ["score", "--truth", "sim", f"alice_{DAY}.csv"],
        ["simulate", "--scenario", "office-day", "--out", "sim/alice.scan.gz"],
        ["communities", "--communities-out", "sim"],
        ["communities", "--sweep-out", "sim"],
        ["communities", "--edges-out", "sim"],
        ["communities", "--communities-out", "sim/no/communities.csv"],
        ["extract", "--user", "alice", "--day", DAY, "--out", "sim"],
    ], ids=["ingest", "score", "simulate", "communities", "communities-sweep",
            "communities-edges", "communities-no-parent", "extract"])
    def test_directory_or_file_in_the_wrong_place_exits_two(self, workdir, capsys, argv):
        from wifipoi.clustering import VisitInterval
        from wifipoi.model import Fingerprint
        from wifipoi.registry import upsert_day

        sim = simulate_office(workdir, seed=1)
        assert run("ingest", "--store", "poi.db", sim / "alice.scan.gz") == 0
        if argv[0] == "communities":  # two alike POI of two users: one edge
            fp = Fingerprint(sums={"aa:00:00:00:00:01": -200}, counts={"aa:00:00:00:00:01": 4})
            with SummaryStore(workdir / "poi.db") as store:
                for user in ("u", "v"):
                    upsert_day(store, user, [(fp, [VisitInterval(1, 0, 1200, 4)])])
        files = sorted(workdir.rglob("*"))
        capsys.readouterr()
        assert run(*argv, "--store", "poi.db") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sim" in err
        assert sorted(workdir.rglob("*")) == files  # a refused call writes no file
        if argv[0] == "extract":  # refused before the day is registered
            with SummaryStore(workdir / "poi.db") as store:
                assert store.conn.execute("SELECT COUNT(*) FROM poi_properties").fetchone() == (0,)


def test_main_calls_share_no_parsed_state(workdir, monkeypatch):
    loaded = []
    real = cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda args: loaded.append(real(args)) or loaded[-1])
    assert run("extract", "--store", "typo.db", "--user", "u", "--day", DAY, "--epsilon", "0.9") == 3
    assert run("extract", "--store", "typo.db", "--user", "u", "--day", DAY) == 3
    assert [cfg.cluster.epsilon for cfg in loaded] == [0.9, ClusterParams().epsilon]
    assert cli.build_parser() is cli.build_parser()


def test_module_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["score", "--truth", "missing.csv", "u_2026-03-02.csv"]
    proc = subprocess.run(
        [sys.executable, "-m", "wifipoi.cli", *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "missing.csv" in proc.stderr


class TestConfigPrecedence:
    def test_config_file_sets_epsilon_and_store(self, workdir):
        sim = simulate_office(workdir)
        cfg = workdir / "pipeline.ini"
        cfg.write_text("[pipeline]\nstore = from_config.db\nepsilon = 0.5\n")
        run("ingest", "--config", cfg, sim / "alice.scan.gz")
        assert (workdir / "from_config.db").exists()

    def test_env_var_supplies_store(self, workdir, monkeypatch):
        sim = simulate_office(workdir)
        monkeypatch.setenv("WIFIPOI_STORE", "from_env.db")
        run("ingest", sim / "alice.scan.gz")
        assert (workdir / "from_env.db").exists()

    def test_flag_beats_env(self, workdir, monkeypatch):
        sim = simulate_office(workdir)
        monkeypatch.setenv("WIFIPOI_STORE", "from_env.db")
        run("ingest", "--store", "from_flag.db", sim / "alice.scan.gz")
        assert (workdir / "from_flag.db").exists()
        assert not (workdir / "from_env.db").exists()

    def test_unreadable_config_exits_two(self, workdir, capsys):
        assert run("communities", "--config", "missing.ini") == 2
        assert "cannot read config missing.ini" in capsys.readouterr().err

    def test_config_file_sets_community_thresholds(self, workdir):
        from wifipoi.clustering import VisitInterval
        from wifipoi.model import Fingerprint
        from wifipoi.registry import upsert_day

        with SummaryStore(workdir / "poi.db") as store:
            for user, rssi in (("u", -50), ("v", -52), ("w", -60)):
                fp = Fingerprint(sums={"aa:00:00:00:00:01": 4 * rssi, "bb:00:00:00:00:02": -280},
                                 counts={"aa:00:00:00:00:01": 4, "bb:00:00:00:00:02": 4})
                upsert_day(store, user, [(fp, [VisitInterval(1, 0, 1200, 4)])])
        cfg = workdir / "pipeline.ini"
        cfg.write_text("[pipeline]\ncommunity_thresholds = 0.25 0.75\n")
        assert run("communities", "--store", "poi.db", "--config", cfg) == 0
        assert [row[0] for row in read_csv(workdir / "sweep.csv")[1:]] == ["0.25", "0.75"]

    @pytest.mark.parametrize("body, error", [
        ("min_pts = four", "bad [pipeline] min_pts: invalid literal for int()"),
        ("epsilon = high", "bad [pipeline] epsilon: could not convert string to float"),
        ("community_thresholds = 0.2 x", "bad [pipeline] community_thresholds: bad threshold"),
        ("epsilom = 0.9", "unknown key 'epsilom' in [pipeline]"),
    ])
    def test_bad_config_key_names_the_file_and_key(self, workdir, capsys, body, error):
        (workdir / "pipeline.ini").write_text(f"[pipeline]\n{body}\n")
        assert run("communities", "--config", "pipeline.ini") == 2
        assert capsys.readouterr().err.startswith(f"error: pipeline.ini: {error}")

    @pytest.mark.parametrize("body, error", [
        ("epsilon = 1.5", "pipeline.ini: [pipeline] epsilon: epsilon must be in (0, 1], got 1.5"),
        ("min_pts = 1", "pipeline.ini: [pipeline] min_pts: min_pts must be >= 2, got 1"),
        ("match_threshold = 0", "pipeline.ini: [pipeline] match_threshold: threshold 0.0 outside"),
        ("community_thresholds = 0.3 2", "pipeline.ini: [pipeline] community_thresholds:"
                                         " threshold 2.0 outside"),
    ])
    def test_out_of_range_config_value_names_the_file_and_key(self, workdir, capsys, body, error):
        (workdir / "pipeline.ini").write_text(f"[pipeline]\n{body}\n")
        assert run("communities", "--config", "pipeline.ini") == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")

    def test_out_of_range_flag_is_named_over_the_file(self, workdir, capsys):
        (workdir / "pipeline.ini").write_text("[pipeline]\nepsilon = 0.5\nmin_pts = 3\n")
        argv = ["extract", "--config", "pipeline.ini", "--user", "u", "--day", DAY]
        assert run(*argv, "--epsilon", "0") == 2
        assert capsys.readouterr().err == "error: --epsilon: epsilon must be in (0, 1], got 0.0\n"
        assert run("communities", "--thresholds", "0.3,1.5") == 2
        assert capsys.readouterr().err == "error: --thresholds: threshold 1.5 outside (0, 1]\n"

    @pytest.mark.parametrize("flag", ["a,b", ",", "1.5", "0", "-0.3"])
    def test_bad_threshold_flag_exits_two(self, workdir, capsys, flag):
        assert run("communities", "--store", "poi.db", "--thresholds", flag) == 2
        assert capsys.readouterr().err == "error: --thresholds: " + {
            "a,b": "bad threshold list 'a,b': could not convert string to float: 'a'",
            ",": "threshold list ',' names no threshold",
            "1.5": "threshold 1.5 outside (0, 1]",
            "0": "threshold 0.0 outside (0, 1]",
            "-0.3": "threshold -0.3 outside (0, 1]",
        }[flag] + "\n"
