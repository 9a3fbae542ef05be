"""Exception types shared across the package, and the errors for a file that
cannot be read or is not UTF-8."""


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


def cannot_read(path, exc: OSError) -> ConfigurationError:
    """The error for a file that cannot be opened or read: missing, a
    directory, or refused."""
    return ConfigurationError(f"{path}: cannot read ({exc.strerror or exc})")


def not_utf8(path) -> ConfigurationError:
    """The error for a text file whose bytes are not UTF-8, naming the first
    line (counted as a text-mode read counts lines) that does not decode;
    the path alone if every line decodes on this second read."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return ConfigurationError(f"{path}:{line_number}: invalid UTF-8 ({exc})")
    return ConfigurationError(f"{path}: invalid UTF-8")
