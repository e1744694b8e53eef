"""Exception types shared across the package, and the bound on the input
their messages quote."""

QUOTE_LIMIT = 40


def brief(text: str) -> str:
    """text cut to QUOTE_LIMIT characters and "…" when longer, so that a
    one-line message stays short whatever input it quotes."""
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "…"


class EntwineError(Exception):
    pass


class InputError(EntwineError):
    """The input is at fault: a file that cannot be read, written or
    parsed, or an argument that names nothing."""


class DimensionMismatch(EntwineError):
    """Shapes of matrices or structure maps do not line up."""


class InvalidParameter(EntwineError):
    """A builder was called with a bad argument (e.g. n = 0)."""


class DoesNotFactor(EntwineError):
    """A map does not kill the relations of a quotient presentation.

    Semantically meaningful: it signals that input data violates a
    balancing axiom, not merely a programming error.
    """


class NotInvertible(EntwineError):
    """A coherence map expected to be an isomorphism is not."""


class NotComposable(EntwineError):
    """Cells do not share the required boundary."""


class NotParallel(EntwineError):
    """Two cells expected to be parallel are not."""


class NotABialgebra(EntwineError):
    """The algebra/coalgebra pair fails bialgebra compatibility."""


class NotAMorphism(EntwineError):
    """The given linear maps are not (co)algebra morphisms."""


class InvalidObject(EntwineError):
    """An input cell fails its own axioms."""


class InvalidTwoCell(EntwineError):
    """A 2-cell fails its defining squares."""
