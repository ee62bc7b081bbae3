"""Exception types raised by the kernel, the matching layer and the CLI."""


class KernelError(Exception):
    """Base class for all errors raised by this package."""


class EmptyDomain(KernelError):
    """A variable was created with an empty domain."""


class UnknownVariable(KernelError):
    """An operation referenced a variable id the store does not know."""


class DomainWipeout(KernelError):
    """A value removal emptied a domain; the branch has been marked failed."""


class NonLifoPop(KernelError):
    """A retraction out of LIFO order; the store is left as it was.

    `pop_checkpoint` raises it for a token that is not the newest open one,
    `retract_last_variable` when the newest frame is not a variable
    creation, and the undo of a variable creation, a posting or a watch
    when what it would pop is not on top (its frame stays on the trail).
    """


class InactiveConstraint(KernelError):
    """An operation that needs an active constraint got an inactive or unposted one."""


class InitFailure(KernelError):
    """A propagator's initialisation reported inconsistency at posting time."""

    def __init__(self, message, handle=None):
        super().__init__(message)
        self.handle = handle


class DuplicateVariable(KernelError):
    """A variable was added to a constraint that already contains it."""


class EmptyHistory(KernelError):
    """remove_variable on a dynamization wrapper with no recorded additions."""


class UncoveredVariable(KernelError):
    """remove_edges_from_g or filter_adopted_edges found an unmatched variable."""


class UnknownEdge(KernelError):
    """remove_edges was asked to delete an edge the graph lacks; it changed nothing."""


class TooLarge(KernelError):
    """A brute-force oracle was asked to process an instance above its cap."""


class ParseError(KernelError):
    """A scenario file failed validation; carries the 1-based line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LifoViolation(ParseError):
    """A scenario pops more variables than were added at some prefix."""


class UnknownSymbol(ParseError):
    """A scenario referenced a value symbol that was never declared."""
