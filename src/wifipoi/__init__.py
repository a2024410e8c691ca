"""Indoor point-of-interest extraction from crowdsensed Wi-Fi scan logs.

Pipeline: scan logs are clustered per user-day with a cosine-similarity
DBSCAN (a POI is a dense group of similar scans), revisits are matched
to stable per-user POI ids, and POI common to several users surface as
Louvain communities of the cross-user similarity graph.
"""

from __future__ import annotations

from .clustering import NOISE, VisitInterval, dbscan, segment_visits
from .community import (
    Partition,
    PoiGraph,
    build_graph,
    louvain,
    modularity,
    threshold_sweep,
)
from .errors import DomainError, InputError, PoiError
from .ingest import (
    RawBatch,
    RawStore,
    compress_batch,
    decode_log,
    decode_upload,
    decompress_batch,
    encode_log,
    plan_uploads,
    store_raw,
    upload_of,
)
from .model import (
    ClusterParams,
    Fingerprint,
    ScanLog,
    ScanResult,
    Scans,
    build_log,
    parse_mac,
    validate_scan,
)
from .registry import (
    PoiRecord,
    SummaryStore,
    build_fingerprint,
    extract_day,
    match_poi,
    summary_rows,
    upsert_day,
)
from .similarity import cosine_similarity, similarity_matrix
from .simgen import Environment, ItineraryEntry, generate_trace, load_scenario, rss_at

__version__ = "0.1.0"

__all__ = [
    "NOISE",
    "ClusterParams",
    "DomainError",
    "Environment",
    "Fingerprint",
    "InputError",
    "ItineraryEntry",
    "Partition",
    "PoiError",
    "PoiGraph",
    "PoiRecord",
    "RawBatch",
    "RawStore",
    "ScanLog",
    "ScanResult",
    "Scans",
    "SummaryStore",
    "VisitInterval",
    "build_fingerprint",
    "build_graph",
    "build_log",
    "compress_batch",
    "cosine_similarity",
    "dbscan",
    "decode_log",
    "decode_upload",
    "decompress_batch",
    "encode_log",
    "extract_day",
    "generate_trace",
    "louvain",
    "load_scenario",
    "match_poi",
    "modularity",
    "parse_mac",
    "plan_uploads",
    "rss_at",
    "segment_visits",
    "similarity_matrix",
    "store_raw",
    "summary_rows",
    "threshold_sweep",
    "upload_of",
    "upsert_day",
    "validate_scan",
]
