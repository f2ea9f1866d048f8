"""Exception types shared across the package."""


class TopolabError(Exception):
    """Base class for every domain-level error raised by topolab."""


class EmptySpace(TopolabError):
    """An operation that needs at least one point got the empty space."""


class NotContinuous(TopolabError):
    pass


class NotSurjective(TopolabError):
    pass


class NotABase(TopolabError):
    """The given family does not generate the topology under unions."""


class NotAPiBase(TopolabError):
    """Some nonempty open contains no member of the given family."""


class NotClopen(TopolabError):
    pass


class NotDirected(TopolabError):
    pass


class NotAChain(TopolabError):
    pass


class InvalidSystem(TopolabError):
    """An inverse system failed validation; the message carries the witness."""


class NonSkeletalBond(TopolabError):
    pass


class IllegalMove(TopolabError):
    """A strategy emitted a move that is empty, not open, or not inside
    the set it had to refine.  Signals a buggy strategy, not a lost game."""


class StateOverflow(TopolabError):
    """A search over a strategy's states outgrew its cap: ``verify_winning``
    past ``VERIFY_NODE_LIMIT`` nodes, or ``closure_under_strategies`` once
    one strategy reaches more than ``CLOSURE_STATE_LIMIT`` states."""
