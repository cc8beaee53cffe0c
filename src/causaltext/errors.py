"""Exception hierarchy shared across the package."""

import contextlib


class CausaltextError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpec(CausaltextError):
    """A graph-generation control parameter lies outside its admissible domain."""


class ShapeMismatch(CausaltextError):
    """Two adjacency matrices (or a matrix and a node set) disagree in shape."""


class CyclicInput(CausaltextError):
    """An operation defined only for DAGs received a cyclic graph."""


class UnboundPlaceholder(CausaltextError):
    """A prompt template was rendered with a placeholder left unbound."""

    def __init__(self, name: str):
        super().__init__(f"unbound placeholder: [{name}]")
        self.name = name


class TransportError(CausaltextError):
    """A backend request failed after exhausting transport retries."""


class AuthError(CausaltextError):
    """No credential found for a real backend."""


class MalformedOutput(CausaltextError):
    """A model reply could not be parsed as the expected JSON, even after re-asks."""

    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text


class SchemaViolation(CausaltextError):
    """A concept assignment violates the schema (overlap) even after revision."""


class CoverageViolation(CausaltextError):
    """A generated paragraph omits one or more required concepts after a re-ask."""


class ExtractionFailed(CausaltextError):
    """Concept extraction could not produce a valid 3..10 concept list."""


class VerificationError(CausaltextError):
    """Too few verifier completions parsed successfully to form a vote."""


class CacheIoError(CausaltextError):
    """The on-disk response cache could not be read or written, or holds a value of the wrong shape."""


class EmptyRatings(CausaltextError):
    """A rating matrix contains no usable items."""


class InsufficientData(CausaltextError):
    """Not enough pairable ratings to compute agreement."""


class IncompleteGrid(CausaltextError):
    """A score table is missing (algorithm, n, corpus) cells required for agreement."""


class TooFewAlgorithms(CausaltextError):
    """Leave-one-out would drop below two algorithms."""


class DegenerateGroups(CausaltextError):
    """A permutation ANOVA factor has fewer than two usable levels."""


class EnumerationTooLarge(CausaltextError, ValueError):
    """An exhaustive permutation test would enumerate more arrangements than its cap allows."""


class PoolTooSmall(CausaltextError):
    """A stability analysis was asked for more samples than the pool contains."""


class MissingReference(CausaltextError):
    """Evaluation could not find a reference graph for a sample id."""


class InvalidConfig(CausaltextError):
    """A configuration file value is out of range or malformed."""


class CorruptLine(CausaltextError):
    """A complete line of an input file does not decode or parse; the message starts ``FILE:LINE:``."""


@contextlib.contextmanager
def open_utf8(path: str, newline: str | None = ""):
    """Open a UTF-8 text file, by default for ``csv``; a byte that is not UTF-8 raises CorruptLine naming its line."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        # the text layer decodes a chunk ahead of the line being read, so find the line from the bytes
        with open(path, "rb") as fh:
            for num, raw in enumerate(fh, 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CorruptLine(f"{path}:{num}: not UTF-8 text ({exc.reason})") from None
        raise
