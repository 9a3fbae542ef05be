"""Exception types shared across the package."""


class NonDifferentiableLossError(ValueError):
    """Raised when a gradient is requested from a loss that has none."""


class ConfigurationError(ValueError):
    """Raised when a config file, corpus, or keyword set is unusable."""


class DegenerateSplitError(ConfigurationError):
    """Raised when pseudo-labeling leaves one side of the split empty."""


class TrainingDivergedError(ConfigurationError):
    """Raised when a training run's full-data objective stops being finite;
    ``run`` is that run's position among the runs trained together."""

    def __init__(self, message: str, run: int = 0):
        super().__init__(message)
        self.run = run
