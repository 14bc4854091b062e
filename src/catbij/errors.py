"""Exception types shared across the package."""


class CatbijError(Exception):
    """Base class for all errors raised by this package."""


class MalformedDocumentError(CatbijError):
    """A document could not be parsed (bad JSON, wrong schema shape)."""


class InvariantError(CatbijError, ValueError):
    """A value violates a structural invariant of its type."""


class NotAPermutationError(InvariantError):
    """Input sequence is not a permutation of 1..n."""


class AmbientMismatchError(InvariantError):
    """An interval or ball lies outside the ambient triangle."""


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of an immutable value."""
