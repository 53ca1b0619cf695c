"""Exception hierarchy and process exit codes shared across the pipeline."""

EXIT_VALIDATION = 2
EXIT_DEPENDENCY = 3
EXIT_PROVIDER = 4


class HopbenchError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ValidationError(HopbenchError):
    """Bad input: violated precondition, malformed config, out-of-range value."""

    exit_code = EXIT_VALIDATION


class DependencyError(HopbenchError):
    """A required upstream artifact is missing, or its stage ran under other
    settings; the message names the command to run."""

    exit_code = EXIT_DEPENDENCY


class ProviderError(HopbenchError):
    """Base class for chat/embedding provider failures. No stage handles one:
    it ends the stage, which records nothing, and the CLI exits with
    ``EXIT_PROVIDER``."""

    exit_code = EXIT_PROVIDER


class TransportError(ProviderError):
    """Network failure or timeout that persisted through the retry budget."""


class ProtocolError(ProviderError):
    """Provider responded, but not with the JSON shape we asked for."""


class ProviderFaultError(ProviderError):
    """Provider returned internally inconsistent data (e.g. mixed dimensions)."""


class StageError(HopbenchError):
    """A pipeline stage failed partway."""


class ExtractionError(StageError):
    """Triplet extraction for one node failed after re-asks."""


class DegenerateFitError(HopbenchError):
    """Mixture fit collapsed despite covariance regularization."""

    exit_code = EXIT_VALIDATION


class NoHardNegativeError(HopbenchError):
    """Chain has no sibling branch to sample a hard negative from."""


class ItemDiscardedError(HopbenchError):
    """Synthesized item failed a hard constraint after retries; carries the reason."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class AdjudicationError(HopbenchError):
    """Every ensemble member failed to return parseable adjudication JSON."""


class SnapshotError(HopbenchError):
    """JSONL snapshot could not be read back (bad line or schema mismatch)."""

    exit_code = EXIT_VALIDATION


class MigrationError(SnapshotError):
    """Snapshot schema version differs from the one this build writes."""
