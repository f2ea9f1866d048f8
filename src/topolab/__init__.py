"""topolab: exact experiments on finite topological spaces.

Quotients by families of open sets, the open-open game with an exact
solver and adversarial strategy verification, skeletal maps and families,
and finite inverse systems with their limits.  Every construction is
small enough to check exhaustively, and the property suites do.
"""

from .errors import (
    EmptySpace,
    IllegalMove,
    InvalidSystem,
    NonSkeletalBond,
    NotABase,
    NotAChain,
    NotAPiBase,
    NotClopen,
    NotContinuous,
    NotDirected,
    NotSurjective,
    StateOverflow,
    TopolabError,
)
from .families import (
    OpenFamily,
    Quotient,
    build_quotient,
    classes_of,
    families_from_map,
    family_from_map,
    is_skeletal_family,
    ring_closure,
    seq_family,
    seq_family_bruteforce,
)
from .game import (
    GameSolution,
    Strategy,
    Transcript,
    build_tclub_member,
    check_condition_S,
    closure_under_strategies,
    minimal_open_strategy,
    play,
    solve_open_open,
    verify_winning,
)
from .spaces import (
    FiniteSpace,
    FrinkReport,
    SeparationReport,
    SpaceMap,
    frink_conditions,
    from_subbasis,
)
from .systems import (
    DirectedPoset,
    InverseSystem,
    LimitSpace,
    check_sigma_completeness,
    check_skeletal_system,
    embedding_map,
    limit_space,
    limit_strategy,
    system_from_families,
    validate_system,
)

__version__ = "0.1.0"
