"""Exception types shared across the package.

Every domain error derives from ChromaflowError so callers (and the CLI)
can distinguish "the input is outside the algorithm's domain" from
genuine bugs.  ParseError is kept separate: it reports malformed input
files, not domain violations.
"""


class ChromaflowError(Exception):
    """Base class for all domain errors raised by this package."""


class NonExactDivision(ChromaflowError):
    """Polynomial division left a remainder or a non-integer quotient."""


class InvalidSize(ChromaflowError):
    """A size parameter (n, string length, ...) is out of range."""


class InvalidVertex(ChromaflowError):
    """A vertex id is outside 0..n-1."""


class InvalidEdge(ChromaflowError):
    """An edge id is outside 0..m-1."""


class SelfContract(ChromaflowError):
    """Attempted to contract a vertex with itself."""


class InvalidTree(ChromaflowError):
    """Edge set does not form a tree on the declared vertices."""


class NotOuterplanar(ChromaflowError):
    """Input multigraph admits no outerplanar embedding."""


class NotBiconnected(ChromaflowError):
    """find_outer_cycle's input has a cut vertex (or is disconnected)."""


class NoSpokes(ChromaflowError):
    """Operation requires at least one apex edge."""


class TooLarge(ChromaflowError):
    """Instance exceeds the oracle's soft size guard."""


class ParseError(Exception):
    """Malformed input file; carries a human-readable location."""
