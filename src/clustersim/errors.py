"""Exception types shared across the simulator."""


class ClusterSimError(Exception):
    """Base class for simulation contract violations."""


class OutOfRange(ClusterSimError):
    """A drift trace, its correction interval or its readout time out of range."""


class IncompatibleShift(ClusterSimError):
    """No bin layout satisfies the uniform-shift property for this level."""


class GridMismatch(ClusterSimError):
    """A level's splitter copy spacing does not bridge its bin shift."""


class MissingBasis(ClusterSimError):
    """A witness basis has no counts (detection.extract_projections)."""


class InsufficientScan(ClusterSimError):
    """A fringe scan has a non-positive mean rate (analysis.fit_interference)."""


class ConfigError(ClusterSimError):
    """Malformed run configuration."""
