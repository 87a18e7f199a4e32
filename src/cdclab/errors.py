"""Exception types shared across the package."""


class CdcLabError(Exception):
    """Base class for every error raised by this package."""


class MapError(CdcLabError):
    """A combinatorial map is malformed or violates a precondition."""


class NonSymmetricAdjacency(MapError):
    """A rotation table mentions an arc whose reverse is missing."""


class NotSimple(MapError):
    """The input contains a loop or a repeated edge."""


class Disconnected(MapError):
    """The input graph is not connected."""


class NonPlanarEmbedding(MapError):
    """The rotation system closes up on a surface of positive genus."""


class OddEulerDefect(MapError):
    """V - E + F is odd, so the dart structure is internally corrupt."""


class NotSimpleDual(MapError):
    """Dualization would create a loop or a repeated edge."""


class FaceNotInMap(MapError):
    """A face handle does not belong to the map it was used with."""


class VertexNotInMap(MapError):
    """A vertex id does not belong to the map it was used with."""


class NotThreeConnected(MapError):
    """An operation that requires a 3-connected host was given less."""


class TooSmall(MapError):
    """The graph has fewer than four vertices."""


class BadSelector(CdcLabError):
    """A graph selector string or stacking sequence is invalid."""


class NotApollonian(CdcLabError):
    """The graph is not a stacked triangulation."""


class UnknownEdge(CdcLabError):
    """A circuit mentions an edge absent from the host graph."""


class EdgeLimitExceeded(CdcLabError):
    """The host graph is larger than the enumeration edge cap."""


class TimeBudgetExceeded(CdcLabError):
    """A search ran out of wall-clock budget before finishing."""


class InvalidCover(CdcLabError):
    """A purported circuit double cover fails validation."""


class OddCharacteristic(CdcLabError):
    """A cover's Euler characteristic is odd, so no genus exists."""


class CorrespondenceMismatch(CdcLabError):
    """A correspondence does not match the cover it should translate."""


class TranslationNotACover(CdcLabError):
    """Translated circuits fail to double-cover the target graph."""


class TooLarge(CdcLabError):
    """The instance exceeds a hard size cap for an exact algorithm."""
