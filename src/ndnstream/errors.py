"""Exception types shared across the package."""


class NdnStreamError(Exception):
    """Base class for all errors raised by this package."""


class MalformedName(NdnStreamError):
    """A name string could not be parsed."""


class MalformedPacket(NdnStreamError):
    """A byte string is not a valid wire-format packet."""


class InvalidConfig(NdnStreamError):
    """A configuration value violates its constraints."""


class UnknownRepresentation(NdnStreamError):
    """A representation label is not part of the catalog."""


class VersionRegression(NdnStreamError):
    """Attempt to publish a version not newer than the stored one."""


class UnknownFace(NdnStreamError):
    """A packet was attributed to a face the node does not own."""


class SchedulingInPast(NdnStreamError):
    """An event was scheduled before the engine's current time."""


class InvalidTopology(InvalidConfig):
    """Topology construction failed validation."""


class CapacityExceeded(InvalidConfig):
    """A content store cannot hold a requested prewarm set."""


class AllProbesFailed(NdnStreamError):
    """Every gateway probe timed out."""


class FetchError(NdnStreamError):
    """Base class for consumer-side retrieval failures."""


class FetchTimeout(FetchError):
    """A chunk exceeded its retransmission budget."""


class ContentMissing(FetchError):
    """The producer answered with a no-content nack."""


class IntegrityFailure(FetchError):
    """A delivered data packet failed tag verification."""


class InvalidRequest(FetchError):
    """A resource request path is empty, escapes the prefix or names no video."""


class NoCompletedChunks(NdnStreamError):
    """A metric needs at least one completed chunk timing."""


class EmptyInput(NdnStreamError):
    """A metric needs a non-empty value list."""


class NoLookups(NdnStreamError):
    """Hit ratio is undefined without any cache lookups."""


class IoFailure(NdnStreamError):
    """Report export could not write its output files."""
