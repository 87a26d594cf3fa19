"""Impartial-game lab: poset games, Node Kayles, the set game, and the
winner-preserving reductions between them."""

from .graphs import (
    ENUMERATION_CAP,
    MAX_ELEMENTS,
    FormatError,
    Graph,
    enumerate_labeled_graphs,
    format_graph,
    parse_graph,
)
from .posets import (
    Poset,
    Violation,
    antichain,
    chain,
    format_poset,
    parse_poset,
    random_poset,
    to_dot,
    validate_relation,
)
from .games import (
    KaylesGame,
    MaskGame,
    PosetGame,
    SetGame,
    SetGameRules,
    format_setgame,
    parse_setgame,
)
from .solver import (
    BudgetExceeded,
    GameValue,
    SearchStats,
    TranspositionTable,
    best_move,
    grundy,
    solve_winner,
)
from .reductions import (
    PhiImage,
    format_phi_mapping,
    phi,
    poset_to_setgame,
    psi,
    reduce_kayles_to_poset,
)
