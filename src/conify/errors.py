"""Exception hierarchy shared by all conify modules.

Every error that reflects bad input or an exhausted search derives from
ConifyError so the CLI can map it to a single exit code.
"""

from __future__ import annotations


class ConifyError(Exception):
    """Base class for domain errors (CLI exit code 2)."""


class ArityError(ConifyError):
    """Vector/ring arity mismatch."""


class ParseError(ConifyError):
    """Syntax error in an input document, with position information."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class SearchExhaustedError(ConifyError):
    """A bounded exhaustive search ran out of budget before succeeding."""


class CertificateError(ConifyError):
    """An exact certificate of a computed result failed to verify."""


class OutsideConeError(ConifyError):
    """Every candidate approximant within the cap fell outside the reference cone."""


class ContainmentError(ConifyError):
    """No subset of the candidate generators yields a cone containing the target."""


class BudgetExceededError(ConifyError):
    """A Groebner computation exceeded its step budget."""


class InhomogeneousError(ConifyError):
    """An operation required a weighted-homogeneous input."""
