"""Exception types shared across the simulator."""


class ClusterSimError(Exception):
    """Base class for simulation contract violations."""


class OutOfRange(ClusterSimError):
    """A drift trace, its correction interval or its readout time out of range."""


class IncompatibleShift(ClusterSimError):
    """No bin layout satisfies the uniform-shift property for this level."""


class GridMismatch(ClusterSimError):
    """A level's splitter copy spacing does not bridge its bin shift."""


class UnknownLevel(ClusterSimError):
    """Measurement references a level absent from the level spec."""


class MissingBasis(ClusterSimError):
    """A required joint measurement basis is absent."""


class InsufficientScan(ClusterSimError):
    """Fringe scan does not span enough phase values."""


class ConfigError(ClusterSimError):
    """Malformed run configuration."""
