"""The registry under generated call sequences: late batches, resends and re-extracts."""
import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from oracles import registry_tables, store_invariant_faults, utc_day
from wifipoi.ingest import store_raw, upload_of
from wifipoi.model import ClusterParams, build_log
from wifipoi.registry import SummaryStore, extract_day
from wifipoi.simgen import generate_trace, load_scenario

SCENARIO = load_scenario("office-day")
PARAMS = ClusterParams(scan_interval=SCENARIO.scan_interval)
# office-day's one itinerary walked by two users, alice on seed [0, 0], bob on [1, 0]
SCANS = {
    user: generate_trace(SCENARIO.env, SCENARIO.itineraries["alice"], SCENARIO.scan_interval,
                         np.random.default_rng([seed, 0]), SCENARIO.sigma, user=user)[0].entries
    for seed, user in enumerate(["alice", "bob"])
}
WINDOW = utc_day(SCANS["alice"][0].timestamp)


def user_rows(tables, user):
    return {name: [row for row in rows if row[0] == user] for name, rows in tables.items()}


def extracted_once(user):
    """The user's registry rows after one extract of all of the day's scans into a new store."""
    with SummaryStore() as store:
        extract_day(store, upload_of(build_log(user, "d", SCANS[user])), WINDOW, PARAMS)
        return user_rows(registry_tables(store.conn), user)


ONCE = {user: extracted_once(user) for user in SCANS}


class LateBatches(RuleBasedStateMachine):
    """Each user's day arrives in batches that may resend or overlap what is stored,
    and is extracted whenever it holds a scan, again or not."""

    def __init__(self):
        super().__init__()
        self.store = SummaryStore()
        self.sent = dict.fromkeys(SCANS, 0)  # each user's scans stored so far, a prefix
        self.seen = dict.fromkeys(SCANS, -1)  # how many of them the user's last extract saw

    def teardown(self):
        self.store.close()

    def ingest(self, user, new, back):
        scans = SCANS[user][max(0, self.sent[user] - back):self.sent[user] + new]
        if scans:
            store_raw(self.store, [upload_of(build_log(user, "d", scans))])
        self.sent[user] = min(len(SCANS[user]), self.sent[user] + new)

    @rule(new=st.integers(0, 140), back=st.integers(0, 30))
    def ingest_alice(self, new, back):
        """The next `new` scans of alice, resending the `back` before them."""
        self.ingest("alice", new, back)

    @rule(new=st.integers(0, 260))
    def ingest_bob(self, new):
        self.ingest("bob", new, 0)

    @precondition(lambda self: self.sent["alice"] or self.sent["bob"])
    @rule(user=st.sampled_from(sorted(SCANS)))
    def extract(self, user):
        """Extract a user's day from what is stored; a day with no scan yet is not extracted."""
        if self.sent[user]:
            extract_day(self.store, self.store.load_day(user, *WINDOW), WINDOW, PARAMS)
            self.seen[user] = self.sent[user]

    @invariant()
    def readings_are_those_of_the_visits(self):
        assert store_invariant_faults(self.store) == []
        assert self.store.check_integrity()

    @invariant()
    def a_day_extracted_whole_is_one_extract(self):
        tables = registry_tables(self.store.conn)
        for user in SCANS:
            if self.seen[user] == len(SCANS[user]):
                assert user_rows(tables, user) == ONCE[user]


TestLateBatches = LateBatches.TestCase
TestLateBatches.settings = settings(max_examples=40, stateful_step_count=15, deadline=None)
