"""Self-tests of the benchmark at tiny sizes: generator, tracer, scoring."""

from __future__ import annotations

import itertools
import json
import types
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


TINY = {
    "dense-day": dict(users=2, n_places=4, aps=5, stays=2),
    "long-history": dict(users=2, days=3, n_places=8, personal=4, stays=2, resend_every=2),
    "crowd": dict(users=4, n_zones=2, stays=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_same_bytes(tmp_path, name):
    build = workloads.WORKLOADS[name]
    a = build(7, tmp_path / "a", **TINY[name])
    b = build(7, tmp_path / "b", **TINY[name])
    c = build(8, tmp_path / "c", **TINY[name])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert (a.scans, a.rows, a.rows_resent) == (b.scans, b.rows, b.rows_resent)
    assert a.scans == c.scans  # counts are fixed by the workload, not the seed


def test_resent_rows_are_the_rows_of_the_retry_files(tmp_path):
    plan = workloads.long_history(3, tmp_path, **TINY["long-history"])
    from wifipoi.ingest import decode_log, decompress_batch

    retried = [Path(f) for _, argv in plan.steps for f in argv[1:] if "-retry" in f]
    assert retried
    rows = sum(
        len(s.observations)
        for f in retried
        for s in decode_log(decompress_batch(f.read_bytes())).entries
    )
    assert rows == plan.rows_resent


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tr = Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    outer = tr.begin("outer")
    a = tr.begin("a")
    b = tr.begin("b")
    tr.end(b)
    tr.end(a)
    c = tr.begin("c")
    tr.end(c)
    tr.end(outer)
    assert tr.parents == [-1, 0, 1, 0]
    assert tr.self_times() == [3, 2, 1, 4]
    assert sum(tr.self_times()) == tr.durations()[0]
    totals = tr.totals()
    assert totals["outer"] == {"calls": 1, "s": 10, "self_s": 3}


def test_wrap_counts_hooks_and_restores():
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    tr = Tracer(clock=_fake_clock(itertools.count()))
    tr.wrap(mod, "outer", "m.outer")
    tr.wrap(mod, "inner", "m.inner", lambda counts, args, kw, result: counts.update(seen=result))
    tr.count_calls(mod, "outer", "m.outer.calls")
    assert mod.outer(1) == 4
    assert tr.counts == {"seen": 2, "m.outer.calls": 1}
    assert [tr.names[i] for i in range(2)] == ["m.outer", "m.inner"] and tr.parents == [-1, 0]
    tr.restore()
    assert mod.outer(1) == 4 and len(tr.names) == 2


def test_missing_names_and_broken_hooks_do_not_fail():
    mod = types.SimpleNamespace(f=lambda: None)
    tr = Tracer()
    assert not tr.wrap(mod, "gone", "m.gone")
    tr.wrap(mod, "f", "m.f", lambda counts, args, kwargs, result: result.size)
    assert mod.f() is None
    assert tr.absent == ["m.gone"] and tr.broken == {"m.f"}


def test_adjusted_rand():
    assert run.adjusted_rand([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0
    assert run.adjusted_rand([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)
    assert run.adjusted_rand([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2]) == pytest.approx(0.24242424)


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_reference_calls_scale_each_call_by_its_reference():
    ref = run.REFERENCE_S
    # call 0 takes 2 references' time in every pass; call 1 takes 1, 3 and 2.
    passes = [
        {"steps": [("ingest", 2 * ref, 0, ref, ref), ("extract", 2 * ref, 0, 2 * ref, 2 * ref)]},
        {"steps": [("ingest", 4 * ref, 0, 2 * ref, 2 * ref), ("extract", 3 * ref, 0, ref, ref)]},
        {"steps": [("ingest", 3 * ref, 0, ref, 2 * ref), ("extract", 4 * ref, 0, 3 * ref, ref)]},
    ]
    calls = run.reference_calls(passes)
    assert [phase for phase, _ in calls] == ["ingest", "extract"]
    assert calls[0][1] == pytest.approx(2 * ref)
    assert calls[1][1] == pytest.approx(2 * ref)


def test_poi_without_a_true_visit_takes_the_nearest_place(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text("user,day,place,start,end\n"
                     "u0,2026-03-02,pA,01:00,02:00\nu0,2026-03-02,pB,03:00,04:00\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "u0_2026-03-02.csv").write_text(
        "poi_id,label,start,end\n1,,01:00,02:00\n2,,02:58,02:59\n3,,03:00,04:00\n")
    places = run.poi_places(truth, out, ["out/u0_2026-03-02.csv"])
    assert places == {("u0", "1"): "pA", ("u0", "2"): "pB", ("u0", "3"): "pB"}
