"""Exception types shared across the package."""


class ConfigError(ValueError):
    """An architecture, policy, or run configuration is invalid."""


class TopologyError(ValueError):
    """A process-group request is incompatible with the cluster layout."""
