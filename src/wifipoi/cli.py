"""Operator command line for the whole pipeline.

Subcommands:

    ingest FILE...                  land .scan/.scan.gz files in the raw store, all or none
    extract --user U --day D        cluster one user-day and update the POI registry
    communities [--thresholds ...]  cross-user common-POI report + threshold sweep
    simulate --scenario S --seed N  generate synthetic scan files + ground truth
    score --truth CSV SUMMARY...    compare extraction output against ground truth

Exit codes: 0 on success, 2 on malformed input or a file path that
cannot be read or written, 3 on a domain error (unknown user, too few
POI, storage failure). The store path comes from --store, the
WIFIPOI_STORE environment variable, the config file, or the default
wifipoi.db, in that order of precedence.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sqlite3
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .community import (
    threshold_sweep,
    write_communities_csv,
    write_edge_list,
    write_sweep_csv,
)
from .errors import InputError, PoiError, StorageFailure, UnknownUser
from .ingest import (
    RawStore, check_agree, compress_batch, decode_uploads, decompress_batch, encode_log, store_raw,
)
from .model import ClusterParams, Scans
from .registry import (
    MATCH_THRESHOLD, SummaryStore, day_window, extract_day, summary_rows, write_summary_csv,
)
from .simgen import generate_trace, load_scenario, write_ground_truth_csv

DEFAULT_STORE = "wifipoi.db"
STORE_ENV_VAR = "WIFIPOI_STORE"


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable knobs shared by the subcommands; ClusterParams checks its own."""

    cluster: ClusterParams = ClusterParams()
    match_threshold: float = MATCH_THRESHOLD
    community_thresholds: tuple[float, ...] = (0.2, 0.3, 0.4, 0.5)
    store: str = DEFAULT_STORE

    def __post_init__(self) -> None:
        for value in (self.match_threshold, *self.community_thresholds):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"threshold {value} outside (0, 1]")


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        thresholds = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"bad threshold list {text!r}: {exc}") from exc
    if not thresholds:
        raise InputError(f"threshold list {text!r} names no threshold")
    return thresholds


_CLUSTER_KEYS = ("epsilon", "min_pts", "scan_interval")


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge defaults, config file, environment, and flags; flags win.

    An out-of-range value raises InputError naming where it came from:
    its flag, or the config file and key.
    """
    values: dict[str, object] = {}
    sources: dict[str, str] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(config_path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise InputError(f"cannot read config {config_path}: {exc}") from exc
        section = parser["pipeline"] if parser.has_section("pipeline") else {}
        kinds = {"epsilon": float, "min_pts": int, "scan_interval": int, "store": str,
                 "match_threshold": float,
                 "community_thresholds": lambda text: _parse_thresholds(text.replace(" ", ","))}
        for name, text in section.items():
            if name not in kinds:
                raise InputError(f"{config_path}: unknown key {name!r} in [pipeline]")
            try:
                values[name] = kinds[name](text)
            except (ValueError, InputError) as exc:
                raise InputError(f"{config_path}: bad [pipeline] {name}: {exc}") from exc
            sources[name] = f"{config_path}: [pipeline] {name}"
    if getattr(args, "epsilon", None) is not None:
        values["epsilon"], sources["epsilon"] = args.epsilon, "--epsilon"
    if getattr(args, "thresholds", None) is not None:
        try:
            values["community_thresholds"] = _parse_thresholds(args.thresholds)
        except InputError as exc:
            raise InputError(f"--thresholds: {exc}") from exc
        sources["community_thresholds"] = "--thresholds"
    for name, source in sources.items():
        try:  # each field checks its own range, so one at a time finds the culprit
            if name in _CLUSTER_KEYS:
                ClusterParams(**{name: values[name]})  # type: ignore[arg-type]
            else:
                PipelineConfig(**{name: values[name]})  # type: ignore[arg-type]
        except ValueError as exc:
            raise InputError(f"{source}: {exc}") from exc
    store = (
        getattr(args, "store", None)
        or os.environ.get(STORE_ENV_VAR)
        or values.get("store")
        or DEFAULT_STORE
    )
    values["store"] = str(store)
    cluster = {k: values.pop(k) for k in _CLUSTER_KEYS if k in values}
    return PipelineConfig(ClusterParams(**cluster), **values)  # type: ignore[arg-type]


def _existing_store(path: str) -> str:
    # a read must not leave a new, empty store behind; a 0-byte file is no store yet
    if not Path(path).exists() or Path(path).stat().st_size == 0:
        raise StorageFailure(f"cannot open store: no store at {path}")
    return path


def _output_path(name: str) -> Path:
    """Check an output path before any work: not a directory, parent exists."""
    out = Path(name)
    if out.is_dir() or not out.parent.is_dir():
        raise InputError(f"output {out}: not a file in an existing directory")
    return out


def _user_from_filename(path: Path) -> str:
    """`alice.scan.gz` and `alice.scan` both name user `alice`."""
    name = path.name
    for suffix in (".gz", ".scan"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    if not name:
        raise InputError(f"{path}: file name has an empty stem, so it names no user")
    if "," in name or any(map(str.isspace, name)):
        raise InputError(f"{path}: file name stem {name!r} holds a comma or whitespace,"
                         " which the CSV and edge-list outputs cannot carry")
    return name


def cmd_ingest(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    """Land every file in one raw-store transaction; a bad file rejects them all.

    Every file decodes, and the files are checked against each other,
    before the store opens, so a call refused for a file's content, or
    for two files that hold one scan with other readings, leaves no new
    store behind. A file that cannot be read is reported once the files
    before it decode, so a refusal names the first bad file.
    """
    paths = [Path(name) for name in args.files]
    users = [_user_from_filename(path) for path in paths]
    unread: list[Exception] = []  # what ended the reads early

    def read() -> Iterator[bytes]:
        for path in paths:
            try:
                data = path.read_bytes()
                yield decompress_batch(data) if path.name.endswith(".gz") else data
            except (InputError, OSError) as exc:
                unread.append(exc)
                return

    uploads: list[Scans] = []
    try:
        for upload in decode_uploads(read(), users):
            uploads.append(upload)
        if unread:
            raise unread[0]
    except InputError as exc:  # the file after the last one decoded
        raise InputError(f"{paths[len(uploads)]}: {exc}") from exc

    def in_turn() -> Iterator[tuple[str, Scans]]:
        nonlocal path
        for path, upload in zip(paths, uploads):
            yield str(path), upload

    try:
        check_agree(in_turn())
        with RawStore(cfg.store) as store:
            reports = store_raw(store, (upload for _, upload in in_turn()))
    except InputError as exc:  # the file being checked or stored when it failed
        raise InputError(f"{path}: {exc}") from exc
    for path, report in zip(paths, reports):
        print(f"{path}: {report.added} rows added, {report.skipped} skipped")
    total_added = sum(report.added for report in reports)
    total_skipped = sum(report.skipped for report in reports)
    print(f"total: {total_added} added, {total_skipped} skipped")
    return 0


def cmd_extract(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    try:
        lo, hi = day_window(args.day)
    except ValueError as exc:
        raise InputError(f"--day {args.day!r}: expected a real YYYY-MM-DD date ({exc})") from exc
    out = _output_path(args.out or f"{args.user}_{args.day}.csv")
    with SummaryStore(_existing_store(cfg.store)) as store:
        if not store.has_user(args.user):
            raise UnknownUser(f"no raw data for user {args.user!r} in {cfg.store}")
        day = store.load_day(args.user, lo, hi)
        if len(day.times) == 0:
            write_summary_csv([], out)
            print(f"no scans for {args.user} on {args.day}; wrote empty {out}")
            return 0
        registered = extract_day(store, day, (lo, hi), cfg.cluster, cfg.match_threshold)
    rows = summary_rows(registered)
    write_summary_csv(rows, out)
    if not rows:
        print(f"only noise for {args.user} on {args.day}; wrote empty {out}")
        return 0
    for poi_id, start, end in rows:
        print(f"POI {poi_id:>3}  {start} - {end}")
    print(f"{len(rows)} visits over {len({poi_id for poi_id, _ in registered})} POI -> {out}")
    return 0


def cmd_communities(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    for name in (args.communities_out, args.sweep_out, args.edges_out):
        if name:
            _output_path(name)
    with SummaryStore(_existing_store(cfg.store)) as store:
        fps = store.fingerprints()
    vectors = [fp.rssi for fp in fps.values()]
    sweep = threshold_sweep(vectors, cfg.community_thresholds, names=list(fps))
    h = len(fps)
    print(f"{h} POI across users; {h * (h - 1) // 2} pairs scored once for all thresholds")
    kept = {t: (graph, part) for t, graph, part in sweep}
    for t in cfg.community_thresholds:
        if t in kept:
            graph, part = kept[t]
            print(f"threshold {t:.2f}: {len(graph.edges)} edges, Q = {part.q:.4f}")
        else:
            print(f"threshold {t:.2f}: 0 edges, skipped")
    write_sweep_csv([(t, part.q) for t, _, part in sweep], args.sweep_out)
    best_t, best_graph, best = max(sweep, key=lambda row: row[2].q)
    write_communities_csv(best, args.communities_out)
    if args.edges_out:
        write_edge_list(best_graph, args.edges_out)
    n_comm = len(set(best.communities.values()))
    print(
        f"best threshold {best_t:.2f} ({n_comm} communities)"
        f" -> {args.communities_out}; sweep -> {args.sweep_out}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    scenario = load_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth_rows = []
    for idx, user in enumerate(sorted(scenario.itineraries)):
        rng = np.random.default_rng([args.seed, idx])
        log, truth = generate_trace(
            scenario.env,
            scenario.itineraries[user],
            scenario.scan_interval,
            rng,
            scenario.sigma,
            user=user,
            device=scenario.devices[user],
        )
        path = out_dir / f"{user}.scan.gz"
        path.write_bytes(compress_batch(encode_log(log)))
        truth_rows += [(user, v) for v in truth]
        print(f"wrote {path} ({len(log.entries)} scans)")
    truth_path = out_dir / "ground_truth.csv"
    write_ground_truth_csv(truth_rows, truth_path)
    print(f"wrote {truth_path} ({len(truth_rows)} visits)")
    return 0


def _parse_hhmm(path: Path, text: str) -> int:
    hh, _, mm = text.partition(":")
    try:
        return int(hh) * 60 + int(mm)
    except ValueError:
        raise InputError(f"{path}: bad time {text!r}, expected HH:MM") from None


def _parse_poi_id(path: Path, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{path}: bad poi_id {text!r}, expected an integer") from None


def _read_csv_rows(path: Path, header: str) -> list[list[str]]:
    """The rows after `header`; each must have as many fields as it."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise InputError(f"{path}: expected header {header!r}")
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    for row in rows:
        if len(row) != header.count(",") + 1:
            raise InputError(f"{path}: bad row {row}")
    return rows


def cmd_score(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    truth_by_key: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
    truth_path = Path(args.truth)
    for user, day, place, start, end in _read_csv_rows(truth_path, "user,day,place,start,end"):
        truth_by_key.setdefault((user, day), []).append(
            (place, _parse_hhmm(truth_path, start), _parse_hhmm(truth_path, end))
        )

    matched: list[tuple[str, str, int, float]] = []  # (user, place, poi_id, boundary err)
    total_truth = 0
    for summary_path in args.summaries:
        path = Path(summary_path)
        stem = path.name.removesuffix(".csv")
        user, sep, day = stem.rpartition("_")
        if not sep:
            raise InputError(f"{path}: cannot infer user/day from file name")
        rows = [
            (_parse_poi_id(path, r[0]), _parse_hhmm(path, r[2]), _parse_hhmm(path, r[3]))
            for r in _read_csv_rows(path, "poi_id,label,start,end")
        ]
        for place, t_start, t_end in truth_by_key.get((user, day), []):
            total_truth += 1
            best_overlap = 0
            best_row = None
            for poi_id, s_start, s_end in rows:
                overlap = min(t_end, s_end) - max(t_start, s_start) + 1
                if overlap > best_overlap:
                    best_overlap = overlap
                    best_row = (poi_id, s_start, s_end)
            if best_row is not None:
                poi_id, s_start, s_end = best_row
                err = (abs(s_start - t_start) + abs(s_end - t_end)) / 2.0
                matched.append((user, place, poi_id, err))

    if total_truth == 0:
        raise InputError("ground truth contains no visits for the given summaries")

    # A place's expected id is the one most of its visits mapped to.
    ids_by_place: dict[tuple[str, str], list[int]] = {}
    places_by_id: dict[tuple[str, int], set[str]] = {}
    for user, place, poi_id, _ in matched:
        ids_by_place.setdefault((user, place), []).append(poi_id)
        places_by_id.setdefault((user, poi_id), set()).add(place)
    correct = 0
    for (user, place), ids in ids_by_place.items():
        modal = max(set(ids), key=ids.count)
        correct += sum(1 for i in ids if i == modal)
    accuracy = correct / total_truth
    splits = sum(len(set(ids)) - 1 for ids in ids_by_place.values())
    merges = sum(len(places) - 1 for places in places_by_id.values())
    mean_err = sum(err for *_, err in matched) / len(matched) if matched else float("nan")

    print(f"matched {len(matched)}/{total_truth} ground-truth visits")
    print(f"mean boundary error: {mean_err:.1f} min")
    print(f"identity accuracy: {accuracy:.3f}")
    print(f"splits: {splits}  merges: {merges}")
    return 0


@functools.cache  # a build costs about 17 parses; parse_args keeps no state in the parser
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", help=f"store path (or ${STORE_ENV_VAR})")
    common.add_argument("--config", help="INI config file with a [pipeline] section")

    parser = argparse.ArgumentParser(
        prog="wifipoi",
        description="Extract and compare indoor points of interest from Wi-Fi scan logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="load scan files into the raw store")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("extract", parents=[common], help="cluster one user-day into POI visits")
    p.add_argument("--user", required=True)
    p.add_argument("--day", required=True, metavar="YYYY-MM-DD")
    p.add_argument("--epsilon", type=float, help="override the clustering threshold")
    p.add_argument("--out", help="summary CSV path (default <user>_<day>.csv)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("communities", parents=[common], help="cross-user common POI report")
    p.add_argument("--thresholds", help="comma-separated edge thresholds")
    p.add_argument("--communities-out", default="communities.csv")
    p.add_argument("--sweep-out", default="sweep.csv")
    p.add_argument("--edges-out", help="also dump the graph as `i j weight` lines")
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("simulate", parents=[common], help="generate synthetic scan files")
    p.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("score", parents=[common], help="compare summaries to ground truth")
    p.add_argument("--truth", required=True, metavar="CSV")
    p.add_argument("summaries", nargs="+", metavar="SUMMARY_CSV")
    p.set_defaults(func=cmd_score)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except sqlite3.Error as exc:  # only a command reaches SQLite, so cfg is set
        print(f"error: cannot read store {cfg.store}: {exc}", file=sys.stderr)
        return 3
    except PoiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
