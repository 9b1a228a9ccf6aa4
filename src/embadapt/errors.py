"""Exception types shared across the package."""


class EmbAdaptError(Exception):
    """Base class for all embadapt errors."""


class DataError(EmbAdaptError):
    """Invalid dataset contents (duplicate ids, bad grades, bad splits)."""


class FormatError(EmbAdaptError):
    """Malformed or incompatible file contents."""


class TagMismatchError(EmbAdaptError):
    """Embedding tables or a model come from encoders with different tags."""


class FetchError(EmbAdaptError):
    """Remote embedding endpoint failed after exhausting retries."""


class TrainingDivergedError(EmbAdaptError):
    """A loss term or a parameter became NaN or infinite during training."""
