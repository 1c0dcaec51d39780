"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes; library callers catch them
directly.  ``InternalContradiction`` is reserved for states that the
underlying counting arguments rule out -- it firing on a legal input is a
bug (or a genuine counterexample) and is never swallowed.
"""


class OddRamseyError(Exception):
    """Base class for all library errors."""


class PreconditionFailed(OddRamseyError):
    """An operation's stated precondition does not hold for the input."""


class NotFoundError(OddRamseyError):
    """A search completed without finding the requested object."""


class BadWitness(OddRamseyError):
    """A supplied witness (e.g. an allegedly odd-chromatic cycle) is invalid."""


class CapExceeded(OddRamseyError):
    """A search would exceed its work budget."""


class InternalContradiction(OddRamseyError):
    """A state the supporting counting arguments prove impossible was reached."""


class RecursionExhausted(InternalContradiction):
    """The bounded case-analysis recursion ran out of depth (logic bug)."""
