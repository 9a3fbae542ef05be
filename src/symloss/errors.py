"""Exception types shared across the package."""


class NonDifferentiableLossError(ValueError):
    """Raised when a gradient is requested from a loss that has none."""


class ConfigurationError(ValueError):
    """Raised when a config file, corpus, or keyword set is unusable."""


class DegenerateSplitError(ConfigurationError):
    """Raised when pseudo-labeling leaves one side of the split empty."""


class TrainingDivergedError(ConfigurationError):
    """Raised when a training run's full-data objective stops being finite."""
