"""Helpers shared by the test modules."""
import pytest


class CommitCounter:
    """Counts the COMMIT statements of every connection it is attached to."""

    def __init__(self):
        self.commits = 0

    def attach(self, conn):
        conn.set_trace_callback(self._on_statement)

    def _on_statement(self, sql):
        if sql.lstrip().upper().startswith("COMMIT"):
            self.commits += 1


@pytest.fixture()
def commit_counter():
    return CommitCounter()
