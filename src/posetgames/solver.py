"""Memoized exhaustive solver: win/loss search and Grundy numbers.

Both are one depth-first search over the rules' ``(legal, kill)`` moves,
kept on an explicit stack, so no position is too deep to solve.  One move
loop tries the moves of a position in the order fixed by ``game.order``
(the moves that remove the most elements first), and the two modes differ
only where they must.  Win/loss search stops at the first lost child, so
the remaining moves are never generated, and skips twin moves (below).
Grundy search needs every child: it splits each child the table does not
hold into its connected components (``game.components``) and takes the mex
of the children's values.  By the Sprague-Grundy theorem the value of a sum
is the XOR of its parts' values, so only the parts are searched move by
move, each once; sums and parts are both stored under their own masks.
Kayles paths, the padding ``psi`` adds and disjoint chains fall apart this
way.  The order and the cutoff cannot change the (exact) result.  Memory
grows with the transposition table and the stack, which is bounded by the
universe.

Win/loss search splits only the position it is asked about (the root).  A
split root's win/loss is its Grundy value != 0, so the search switches to
Grundy mode, unless ``table.values`` already holds the root: it starts from
a sum frame over the parts the root check found, and stores the answer in
``table.wins`` too.  A root is not split when its first move in
``game.order`` clears it, since it is then connected and won.  Positions
below the root are searched whole: on the verification suites, finding
components at every position cost more than the cutoff left to save.

Win/loss search also skips twin moves.  In Kayles and the poset game two
elements of a position are twins when each kills the same other elements
of the position and is killed by the same other moves (``game.twins``):
swapping them is then an automorphism of the position, so their children
have the same value.  A move frame reaches its second legal move only when
the first child was won, and so on, so a move whose twin was tried earlier
in the same frame leads to a won child too and is skipped.  The frame keeps
the keys (both rows within the position) of the moves it has tried, from
its second legal move on, and only for moves that could have a twin in the
position.  The paper's reduction is full of twins (``psi`` pads with
complete graphs, and ``phi`` gives vertices with equal neighbourhoods equal
cones), so this cuts the states of ``verify --suite theorem --max-n 5``
from 1 071 380 to 318 025.  Grundy search does not look for twins.

Win/loss search answers an antichain without searching it.  In Kayles and
the poset game a position is an antichain when no move legal in it removes
another of its elements.  It is then a sum of single elements, each worth
*1, so it is won iff it has an odd number of elements
(``game.antichain_win``).  The test runs where a search first meets a
position's first legal move: in the root check, before it looks for
components, and at the first legal move of each move frame; and only when
that move removes nothing else of the position.  The answer is stored in
``table.wins`` and counts as one state.  A root that its first legal move
clears is won at once, and no frame tests it unless the root is that
move's element, so such a search does not fetch ``game.antichain_win``,
which costs a pass over the rules.  Like twin-ness, the rule is local: it
reads only the kill masks within the position, so a checker that sees only
the masks can test it too.  Set games keep their search.  In the paper's
three-level poset the vertex and edge levels are antichains, so late
positions often are too: the rule cuts ``theorem --max-n 5`` further to
260 864 states.

Grundy search answers a chain of the poset game without searching it.  A
part whose elements are pairwise comparable is a chain, and a move at its
i-th lowest element leaves the i - 1 below it, so a chain of k elements is
the Nim heap *k (``game.nim_heap``).  The test runs where a sum frame is
about to search a part the table does not hold, after that part is counted
against the budget, so the answer counts as one state.  Only rules built by
``PosetGame`` take the rule: it needs kills that are the upper cones of a
partial order, and a Kayles clique is worth *1, not *k.  Set games keep
their search, as with antichains.  Only Grundy search fetches the test, so
a win/loss search that does not split its root never builds it.  Two
disjoint reversed chains of 120 and 100 elements took 220 states and now
take 2.
"""

from __future__ import annotations

import enum
import sys


class GameValue(enum.Enum):
    WIN = "win"  # the player to move wins
    LOSS = "loss"


class BudgetExceeded(RuntimeError):
    """Raised when a solve visits more states than its budget allows."""

    def __init__(self, states: int):
        self.states = states
        super().__init__(f"search budget exhausted after {states} visited states")


class TranspositionTable:
    """Position-mask keyed memo for one set of rules: win/loss outcomes in
    ``wins``, Grundy values in ``values``.  The first solve binds the table
    to its game's rules (size, legal and kill masks); a solve of other rules
    on it raises ValueError, since its entries would be wrong there."""

    def __init__(self):
        self.wins: dict[int, bool] = {}
        self.values: dict[int, int] = {}
        self.hits = 0
        self.rules: tuple | None = None

    def __len__(self):
        return len(self.wins) + len(self.values)


class SearchStats:
    """Counters of a solve.  ``states`` counts the positions searched move by
    move.  A split position is not one of them: it is the XOR of its parts,
    which are counted when searched.  Grundy search splits every position,
    win/loss search only its root.  A solve that would count more than
    ``budget`` states raises ``BudgetExceeded``."""

    def __init__(self, states: int = 0, budget: int | None = None):
        self.states = states
        self.budget = budget


def _position(game, pos):
    """``pos``, or the initial position for None; ValueError unless a set of the game's elements."""
    if pos is None:
        return game.initial()
    game._check_position(pos)
    return pos


def _solve(game, pos, table, budget, stats, want_grundy: bool):
    """Win/loss (a bool) or Grundy value (an int) of ``pos``, with defaults
    filled in: the initial position, a fresh table, a fresh budgeted stats."""
    pos = _position(game, pos)
    if table is None:
        table = TranspositionTable()
    rules = game.size, game.legal, game.kill
    if table.rules != rules:
        if table.rules is not None:
            raise ValueError("the table holds positions of other rules")
        table.rules = rules
    if stats is None:
        stats = SearchStats(budget=budget)
    elif budget is not None:
        stats.budget = budget
    value = (table.values if want_grundy else table.wins).get(pos)
    if value is not None:
        table.hits += 1
        return value
    moves = game.order
    grundy = want_grundy
    if not grundy:
        # A move that clears the whole position shows it connected (and won)
        # without building game.links, which costs more than a small search.
        # An antichain is not split either: its move frame answers it at once.
        for legal, kill in moves:
            if legal & pos:
                break
        else:
            legal, kill = None, pos  # no legal move: lost, and nothing to split
        if (pos & ~kill and (kill & pos != legal or game.antichain_win(pos) is None)
                and len(parts := game.components(pos)) > 1):
            grundy = True  # a sum is won iff its parts' Grundy values XOR to nonzero
            value = table.values.get(pos)
            if value is not None:
                table.hits += 1
                value = table.wins[pos] = value != 0
                return value
    memo = table.values if grundy else table.wins
    n = len(moves)
    twins = None  # game.twins, fetched when a win/loss frame first needs it
    size = game.size
    hits = 0
    states = stats.states
    limit = sys.maxsize if stats.budget is None else stats.budget  # no budget: a bound never reached
    # Suspended frames.  A move frame (position, place in the order of the
    # move it tried last or -1, seen) tries the moves of a position.  In
    # Grundy mode ``seen`` is the bit mask of the child values so far, and a
    # sum frame (position, parts left or None before the split, XOR so far)
    # adds up the values of a position's parts.  In win/loss mode ``seen`` is
    # None before the first legal move, then that move's place, then from
    # the second legal move on a dict whose keys are the twin keys tried; an
    # antichain is answered at its first legal move.  The loop hands a value
    # to the top frame, then tries moves until it descends into a child or
    # the position is solved.  The move loop is kept short: on CPython 3.11
    # a jump across a loop body beyond 255 code units carries an
    # EXTENDED_ARG, which every move pays, a few percent of a Grundy search
    # (``test_move_loop_jumps_without_extended_arg`` checks it).
    try:
        if grundy:  # a split win/loss root's parts are known already
            stack = [(pos, None if want_grundy else iter(parts), 0)]
            value = 0  # nothing to XOR in yet
            nim_heap = game.nim_heap
        else:
            states += 1
            if states > limit:
                raise BudgetExceeded(states)
            stack = [(pos, -1, None)]
            value = True  # a won child sends its parent on to the next move
            antichain_win = game.antichain_win if pos & ~kill or pos == legal else None
        push = stack.append
        get = memo.get
        while True:
            while stack:
                p, i, seen = stack.pop()
                if not grundy:
                    if value:  # the child was won: back to this frame's next move
                        pp = p | p << size  # cuts a move's twin key out of its rows
                        break
                    value = memo[p] = True
                elif type(i) is int:
                    seen |= 1 << value
                    break
                else:  # a sum frame: XOR the value in, then find an unsolved part
                    if i is None:  # a new frame: split its position first
                        i = iter(game.components(p))
                    else:
                        seen ^= value
                    for part in i:
                        v = get(part)
                        if v is None:
                            break
                        hits += 1
                        seen ^= v
                    else:
                        value = memo[p] = seen
                        continue
                    states += 1
                    if states > limit:
                        raise BudgetExceeded(states)
                    if part != p:  # a connected position is its only part: nothing to add up
                        push((p, i, seen))
                    if v := nim_heap(part):  # a chain: the frame below adds its value
                        value = memo[part] = v
                        continue
                    p, i, seen = part, -1, 0
                    break
            else:
                if grundy != want_grundy:
                    value = table.wins[pos] = value != 0
                return value
            while (i := i + 1) < n:
                legal, kill = moves[i]
                if not legal & p:
                    continue
                if not grundy:
                    if seen is not None:  # every move tried here so far led to a won child
                        if seen.__class__ is int:  # the second legal move: key the first
                            if twins is None:
                                twins = game.twins
                            pp = p | p << size
                            seen = {twins[seen][0] & pp: None}
                        rows, loose = twins[i]
                        if loose & p:
                            key = rows & pp
                            if key in seen:
                                continue  # a twin of a move tried here: won too
                            seen[key] = None
                    elif kill & p == legal and (value := antichain_win(p)) is not None:
                        memo[p] = value  # an antichain: won iff its size is odd
                        break
                    else:
                        seen = i
                c = p & ~kill
                v = get(c)
                if v is None:
                    push((p, i, seen))
                    if grundy:  # the child enters through a sum frame
                        push((c, None, 0))
                        break
                    states += 1
                    if states > limit:
                        raise BudgetExceeded(states)
                    p, i, seen = c, -1, None
                    continue
                hits += 1
                if grundy:
                    seen |= 1 << v
                elif not v:
                    value = memo[p] = True
                    break
            else:  # every move tried: the mex of the child values, or lost
                value = memo[p] = (seen + 1 & ~seen).bit_length() - 1 if grundy else False
    finally:
        table.hits += hits
        stats.states = states


def _win(game, pos: int, table: TranspositionTable, stats: SearchStats) -> bool:
    return _solve(game, pos, table, None, stats, False)


def solve_winner(
    game,
    pos: int | None = None,
    table: TranspositionTable | None = None,
    budget: int | None = None,
    stats: SearchStats | None = None,
) -> GameValue:
    """Decide whether the player to move wins from ``pos`` (default: initial)."""
    return GameValue.WIN if _solve(game, pos, table, budget, stats, False) else GameValue.LOSS


def grundy(
    game,
    pos: int | None = None,
    table: TranspositionTable | None = None,
    budget: int | None = None,
    stats: SearchStats | None = None,
) -> int:
    """Grundy number of ``pos``: mex over all children, fully enumerated."""
    return _solve(game, pos, table, budget, stats, True)


def best_move(
    game,
    pos: int | None = None,
    table: TranspositionTable | None = None,
    budget: int | None = None,
) -> int | None:
    """Lowest-index move to a losing child, or None if the mover is lost."""
    pos = _position(game, pos)
    moves = game.moves(pos)
    if not moves:
        raise ValueError("position is terminal")
    if table is None:
        table = TranspositionTable()
    stats = SearchStats(budget=budget)
    for mv in moves:
        if not _win(game, game.child(pos, mv), table, stats):
            return mv
    return None
