"""Exception hierarchy shared across the pipeline.

Everything derives from PoiError so callers can catch the whole family;
the CLI additionally distinguishes input errors (bad files, bad config)
from domain errors (valid input, wrong state) via the two intermediate
bases below.
"""


class PoiError(Exception):
    """Base class for all wifipoi errors."""


class InputError(PoiError):
    """Malformed external input: files, wire bytes, scenario configs."""


class DomainError(PoiError):
    """Structurally valid input that the requested operation cannot use."""


# --- model ---------------------------------------------------------------

class MalformedMac(InputError):
    pass


class RssiOutOfRange(InputError):
    pass


class DuplicateMac(InputError):
    pass


class DuplicateTimestamp(InputError):
    pass


class EmptyScan(DomainError):
    pass


class EmptyLog(DomainError):
    pass


class EmptyFingerprint(DomainError):
    pass


# --- similarity / clustering ---------------------------------------------

class LabelLengthMismatch(DomainError):
    pass


# --- registry ------------------------------------------------------------

class EmptyCluster(DomainError):
    pass


class StorageFailure(PoiError):
    pass


class UnknownUser(DomainError):
    pass


# --- community -----------------------------------------------------------

class TooFewNodes(DomainError):
    pass


class EmptyGraph(DomainError):
    pass


class PartitionMismatch(DomainError):
    pass


# --- ingest --------------------------------------------------------------

class MalformedLine(InputError):
    """A scan-log line that does not follow the wire format."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class CorruptStream(InputError):
    pass


# --- simgen --------------------------------------------------------------

class UnknownPlace(DomainError):
    pass


class ZeroDistance(DomainError):
    pass


class ScenarioError(InputError):
    """A scenario file that cannot be parsed into a world."""
