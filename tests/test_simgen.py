"""Synthetic world: propagation model, trace generation, scenarios."""
import random

import numpy as np
import pytest

from oracles import naive_trace, scan_columns
from wifipoi.errors import ScenarioError, UnknownPlace, ZeroDistance
from wifipoi.ingest import encode_log, upload_of
from wifipoi.model import RSSI_MAX
from wifipoi.registry import build_fingerprint
from wifipoi.similarity import cosine_similarity
from wifipoi.simgen import (
    AccessPoint,
    Environment,
    ItineraryEntry,
    Place,
    generate_trace,
    load_scenario,
    parse_scenario,
    validate_itinerary,
    write_ground_truth_csv,
)

T0 = 1_700_000_000


def ap(mac="02:00:00:00:00:01", x=0.0, y=0.0, tx=-30.0, gamma=2.0):
    return AccessPoint(mac=mac, x=x, y=y, tx=tx, gamma=gamma)


def one_place_env(n_aps=4, at=(0.0, 0.0), label="desk"):
    aps = tuple(
        ap("02:00:00:00:00:%02x" % k, at[0] + 1.0 + 0.5 * k, at[1] + 1.0)
        for k in range(n_aps)
    )
    return Environment(aps=aps, places=(Place(label, at[0], at[1]),))


def one_ap_trace(at, sigma=0.0, seed=None, hours=1, **radio):
    """The readings of one stay at `at` near a single AP at the origin."""
    env = Environment(aps=(ap(**radio),), places=(Place("spot", *at),))
    log, _ = generate_trace(env, [ItineraryEntry("spot", T0, T0 + 3600 * hours)], 300,
                            rng_seed=seed, noise_sigma=sigma)
    return [s.observations for s in log.entries]


class TestPathLoss:
    def test_reference_distance(self):
        assert one_ap_trace((1.0, 0.0)) == [(("02:00:00:00:00:01", -30),)] * 12

    def test_ten_meters_at_gamma_two(self):
        assert one_ap_trace((10.0, 0.0)) == [(("02:00:00:00:00:01", -50),)] * 12

    def test_mean_under_floor_is_absent(self):
        # gamma 2.5: -30 - 25*log10(1000) = -105, under the -95 floor
        assert one_ap_trace((1000.0, 0.0), gamma=2.5) == []

    def test_strong_signal_clamps_to_ceiling(self):
        assert one_ap_trace((1.0, 0.0), tx=10.0) == [(("02:00:00:00:00:01", RSSI_MAX),)] * 12

    def test_zero_distance_rejected(self):
        with pytest.raises(ZeroDistance):
            one_ap_trace((0.0, 0.0))

    def test_deterministic_per_seed(self):
        assert one_ap_trace((5.0, 5.0), 2.0, seed=9) == one_ap_trace((5.0, 5.0), 2.0, seed=9)

    def test_scans_of_a_stay_differ(self):
        readings = one_ap_trace((5.0, 5.0), 4.0, seed=9, hours=2)
        assert len(readings) == 24 and len(set(readings)) > 1


def random_world(rnd: random.Random) -> tuple[Environment, list[ItineraryEntry], int]:
    """1-12 APs and 1-4 places over 60 m, and 1-5 stays among them.

    Half the worlds put APs on even grid points with half-dBm tx and
    each place 1 m east of an AP, so at sigma 0 some readings are exact
    halves and the rounding rule shows.
    """
    grid = rnd.random() < 0.5

    def coordinate() -> float:
        return 2.0 * rnd.randint(0, 30) if grid else rnd.uniform(0, 60)

    aps = tuple(
        AccessPoint("02:00:00:00:00:%02x" % k, coordinate(), coordinate(),
                    rnd.randint(-100, -40) / 2 if grid else rnd.uniform(-50, -20),
                    rnd.uniform(1.5, 4.5))
        for k in range(rnd.randint(1, 12))
    )
    places = []
    for k in range(rnd.randint(1, 4)):
        near = rnd.choice(aps)
        x, y = (near.x + 1.0, near.y) if grid else (coordinate(), coordinate())
        places.append(Place(f"p{k}", x, y))
    itinerary, t = [], T0
    for _ in range(rnd.randint(1, 5)):
        t += rnd.randint(0, 3600)
        length = rnd.randint(1, 7200)
        itinerary.append(ItineraryEntry(rnd.choice(places).label, t, t + length))
        t += length
    return Environment(aps=aps, places=tuple(places)), itinerary, rnd.choice([30, 60, 300, 301])


class TestAgainstScalarModel:
    """One noise draw per stay gives the scalar model's wire bytes exactly."""

    @pytest.mark.parametrize("name", ["office-day", "office-3day", "mall-11-users", "split-day"])
    def test_bundled_scenarios(self, name):
        sc = load_scenario(name)
        for seed in range(20):
            for idx, user in enumerate(sorted(sc.itineraries)):
                args = (sc.env, sc.itineraries[user], sc.scan_interval)
                log, _ = generate_trace(*args, np.random.default_rng([seed, idx]), sc.sigma,
                                        user=user, device=sc.devices[user])
                expected = naive_trace(*args, np.random.default_rng([seed, idx]), sc.sigma,
                                       sc.devices[user])
                assert encode_log(log) == expected, (seed, user)

    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    def test_random_environments(self, sigma):
        for seed in range(300):
            env, itinerary, interval = random_world(random.Random(seed))
            log, _ = generate_trace(env, itinerary, interval, seed, sigma, device="d")
            assert encode_log(log) == naive_trace(env, itinerary, interval, seed, sigma, "d"), seed


class TestGenerateTrace:
    def test_one_hour_is_twelve_scans(self):
        env = one_place_env()
        log, truth = generate_trace(env, [ItineraryEntry("desk", T0, T0 + 3600)], 300, rng_seed=1)
        assert len(log) == 12
        assert [v.place for v in truth] == ["desk"]
        assert (truth[0].start, truth[0].end) == (T0, T0 + 3600)
        assert [s.timestamp for s in log.entries] == [T0 + 300 * i for i in range(12)]

    def test_office_day_shape(self):
        scenario = load_scenario("office-day")
        itinerary = next(iter(scenario.itineraries.values()))
        log, truth = generate_trace(scenario.env, itinerary, 300, rng_seed=2)
        assert len(truth) == 6
        assert len({v.place for v in truth}) == 4

    def test_same_seed_identical(self):
        env = one_place_env()
        itinerary = [ItineraryEntry("desk", T0, T0 + 3600)]
        first, _ = generate_trace(env, itinerary, 300, rng_seed=42)
        second, _ = generate_trace(env, itinerary, 300, rng_seed=42)
        assert first == second

    def test_unknown_place(self):
        with pytest.raises(UnknownPlace):
            generate_trace(one_place_env(), [ItineraryEntry("moon", T0, T0 + 600)], 300, 1)

    def test_within_place_similarity_beats_cross_place(self):
        aps = tuple(
            ap("02:00:00:00:0%d:%02x" % (side, k), 25.0 * side + 1.0 + 0.5 * k, 1.0,
               tx=-50.0, gamma=3.5)
            for side in (0, 1)
            for k in range(4)
        )
        env = Environment(
            aps=aps,
            places=(Place("left", 0.0, 0.0), Place("right", 25.0, 0.0)),
        )
        itinerary = [
            ItineraryEntry("left", T0, T0 + 3600),
            ItineraryEntry("right", T0 + 3600, T0 + 7200),
        ]
        log, truth = generate_trace(env, itinerary, 300, rng_seed=3)
        day = upload_of(log)
        fps = [build_fingerprint(day.macs, ids, rssi).rssi for ids, rssi in scan_columns(day)]
        left = [f for s, f in zip(log.entries, fps) if s.timestamp < T0 + 3600]
        right = [f for s, f in zip(log.entries, fps) if s.timestamp >= T0 + 3600]
        within = sorted(
            cosine_similarity(a, b)
            for group in (left, right)
            for i, a in enumerate(group)
            for b in group[i + 1:]
        )
        cross = sorted(cosine_similarity(a, b) for a in left for b in right)
        median = lambda xs: xs[len(xs) // 2]
        assert median(within) > median(cross)


class TestItineraryAndEnv:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            validate_itinerary([
                ItineraryEntry("a", T0, T0 + 600),
                ItineraryEntry("b", T0 + 300, T0 + 900),
            ])

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError):
            validate_itinerary([ItineraryEntry("a", T0 + 600, T0)])

    def test_duplicate_ap_macs_rejected(self):
        with pytest.raises(ValueError):
            Environment(aps=(ap(), ap()), places=(Place("p", 0.0, 0.0),))

    def test_place_lookup(self):
        env = one_place_env()
        assert env.place("desk").label == "desk"
        with pytest.raises(UnknownPlace):
            env.place("nowhere")


MINIMAL = """
[world]
tx = -45
gamma = 3.0
sigma = 1.5
scan_interval = 600

[place desk]
position = 0 0
aps =
    1.0 0
    0 1.5 -60
    -1.0 0 -50 4.0

[user sam]
device = sam-phone
itinerary =
    2026-03-02 desk 09:00 10:00
"""


class TestParseScenario:
    def test_minimal_scenario(self):
        sc = parse_scenario(MINIMAL)
        assert sc.sigma == 1.5 and sc.scan_interval == 600
        assert [p.label for p in sc.env.places] == ["desk"]
        assert sc.devices["sam"] == "sam-phone"
        macs = [a.mac for a in sc.env.aps]
        assert len(set(macs)) == 3
        # world defaults apply unless the ap line overrides them
        assert (sc.env.aps[0].tx, sc.env.aps[0].gamma) == (-45.0, 3.0)
        assert (sc.env.aps[1].tx, sc.env.aps[1].gamma) == (-60.0, 3.0)
        assert (sc.env.aps[2].tx, sc.env.aps[2].gamma) == (-50.0, 4.0)
        (entry,) = sc.itineraries["sam"]
        assert entry.place == "desk"
        assert entry.departure - entry.arrival == 3600

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda t: t.replace("[world]", "[wurld]"),
            lambda t: t.replace("2026-03-02 desk 09:00 10:00", "2026-03-02 desk 10:00 09:00"),
            lambda t: t.replace("2026-03-02 desk", "2026-03-02 atlantis"),
            lambda t: t.replace("    1.0 0\n", "    one zero\n"),
            lambda t: t.replace("position = 0 0", "position = 0"),
        ],
    )
    def test_bad_scenarios_rejected(self, mangle):
        with pytest.raises(ScenarioError):
            parse_scenario(mangle(MINIMAL))

    @pytest.mark.parametrize(
        "mangle, message",
        [
            pytest.param(lambda t: "tx = -45\n" + t, "bad scenario syntax", id="syntax"),
            pytest.param(lambda t: t.replace("sigma = 1.5", "sigma = loud"),
                         r"bad \[world\] value", id="world-value"),
            pytest.param(lambda t: t.replace("[place desk]", "[place]"),
                         "place section needs a name", id="unnamed-place"),
            pytest.param(lambda t: t.replace("[user sam]", "[user]"),
                         "user section needs a name", id="unnamed-user"),
            pytest.param(lambda t: t.replace("desk 09:00 10:00", "desk 09:00"),
                         "itinerary line needs", id="itinerary-fields"),
            pytest.param(lambda t: t.replace("desk 09:00", "desk 9h"),
                         "bad itinerary time", id="itinerary-time"),
            pytest.param(lambda t: t.replace("    2026-03-02 desk 09:00 10:00\n", ""),
                         "empty itinerary", id="empty-itinerary"),
            pytest.param(lambda t: t[: t.index("[place desk]")] + t[t.index("[user sam]"):],
                         "defines no places", id="no-places"),
            pytest.param(lambda t: t[: t.index("[user sam]")], "defines no users", id="no-users"),
            pytest.param(lambda t: t.replace("    1.0 0\n", "    1.0 0 -45 3.0 9\n"),
                         "ap line needs", id="ap-fields"),
        ],
    )
    def test_each_defect_is_named(self, mangle, message):
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(mangle(MINIMAL))

    def test_place_without_aps_rejected(self):
        broken = MINIMAL.replace("aps =\n    1.0 0\n    0 1.5 -60\n    -1.0 0 -50 4.0\n", "aps =\n")
        with pytest.raises(ScenarioError):
            parse_scenario(broken)

    @pytest.mark.parametrize("name", ["office-day", "office-3day", "mall-11-users", "split-day"])
    def test_bundled_scenarios_load(self, name):
        sc = load_scenario(name)
        assert sc.itineraries

    def test_real_path_wins(self, tmp_path):
        path = tmp_path / "mine.cfg"
        path.write_text(MINIMAL)
        assert [p.label for p in load_scenario(str(path)).env.places] == ["desk"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario("no-such-scenario")


class TestGroundTruthCsv:
    def test_rendering(self, tmp_path):
        from wifipoi.simgen import GroundTruthVisit

        day_start = 1_772_409_600  # 2026-03-02 00:00 UTC
        rows = [("sam", GroundTruthVisit("desk", day_start + 9 * 3600, day_start + 10 * 3600))]
        out = tmp_path / "truth.csv"
        write_ground_truth_csv(rows, out)
        assert out.read_text().splitlines() == [
            "user,day,place,start,end",
            "sam,2026-03-02,desk,09:00,10:00",
        ]
