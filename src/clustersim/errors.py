"""Exception types shared across the simulator.

A bad config value is refused with ValueError instead, which
``cli._from_config`` reports as a ConfigError.
"""


class ClusterSimError(Exception):
    """Base class for simulation contract violations (exit 1)."""


class GridMismatch(ClusterSimError):
    """A level's splitter copy spacing does not bridge its bin shift (cpm.measurement_map)."""


class MissingBasis(ClusterSimError):
    """A witness basis has no counts (analysis.extract_projections)."""


class InsufficientScan(ClusterSimError):
    """A fringe scan has a non-positive mean rate (analysis.fit_interference)."""


class ConfigError(ClusterSimError):
    """Malformed run configuration (exit 2): cli's config checks and _from_config."""
