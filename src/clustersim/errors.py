"""Exception types shared across the simulator.

A domain constructor or check refuses a bad config value with ValueError
instead, which ``cli._from_config`` reports as a ConfigError.  Every check
that needs only the config runs in ``cli.load_config``, GridMismatch's and
the drift amplitude's too; only MissingBasis and InsufficientScan read the
counts, so the command that computes them raises them.
"""


class ClusterSimError(Exception):
    """Base class for simulation contract violations (exit 1)."""


class GridMismatch(ClusterSimError):
    """A level's splitter copy spacing does not bridge its bin shift (cpm.check_copy_spacing)."""


class MissingBasis(ClusterSimError):
    """A witness basis has no counts (analysis.extract_projections)."""


class InsufficientScan(ClusterSimError):
    """A fringe scan has a non-positive mean rate (analysis.fit_interference)."""


class ConfigError(ClusterSimError):
    """Malformed run configuration (exit 2): cli's config checks and _from_config."""
