"""Adaptive bit-rate video streaming over named-data networking.

Library plus CLI: producers package and serve named, signed chunks;
forwarders run PIT/FIB/content-store forwarding with optional gateway
prefetching; consumers run an adaptive player over pipelined interests;
a deterministic event-driven emulator ties them together.
"""

from .consumer import (
    AbrController,
    BandwidthEstimator,
    ChunkTiming,
    FetchEngine,
    FileFetch,
    PlayerSession,
)
from .errors import NdnStreamError
from .forwarding import ContentStore, ForwarderNode, PitEntry
from .metrics import (
    CdfSeries,
    MetricsReport,
    SessionMetrics,
    cache_hit_ratio,
    compute_cdf,
    compute_file_rtt,
    compute_jitter,
    export_report,
)
from .names import Name, VersionedChunkName, name_format, name_is_prefix_of, name_parse
from .netsim import EventEngine, Link, NetworkSim, load_scenario, parse_scenario, run_scenario
from .packets import Data, Interest, KeyMaterial, Nack, NackReason, sign_data, verify_data
from .producer import (
    Representation,
    Repository,
    VideoCatalog,
    chunk_payload,
    generate_master_playlist,
    generate_media_playlist,
    package_video,
    publish,
)
from .wire import decode_packet, encode_packet, encoded_size

__version__ = "0.1.0"

__all__ = [
    "AbrController",
    "BandwidthEstimator",
    "CdfSeries",
    "ChunkTiming",
    "ContentStore",
    "Data",
    "EventEngine",
    "FetchEngine",
    "FileFetch",
    "ForwarderNode",
    "Interest",
    "KeyMaterial",
    "Link",
    "MetricsReport",
    "Nack",
    "NackReason",
    "Name",
    "NdnStreamError",
    "NetworkSim",
    "PitEntry",
    "PlayerSession",
    "Representation",
    "Repository",
    "SessionMetrics",
    "VersionedChunkName",
    "VideoCatalog",
    "cache_hit_ratio",
    "chunk_payload",
    "compute_cdf",
    "compute_file_rtt",
    "compute_jitter",
    "decode_packet",
    "encode_packet",
    "encoded_size",
    "export_report",
    "generate_master_playlist",
    "generate_media_playlist",
    "load_scenario",
    "name_format",
    "name_is_prefix_of",
    "name_parse",
    "package_video",
    "parse_scenario",
    "publish",
    "run_scenario",
    "sign_data",
    "verify_data",
]
