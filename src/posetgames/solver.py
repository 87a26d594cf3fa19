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
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field


class GameValue(enum.Enum):
    WIN = "win"  # the player to move wins
    LOSS = "loss"


class BudgetExceeded(RuntimeError):
    """Raised when a solve visits more states than its budget allows."""

    def __init__(self, states: int):
        self.states = states
        super().__init__(f"search budget exhausted after {states} visited states")


def mex(values) -> int:
    """Smallest non-negative integer not in the collection."""
    present = set(values)
    g = 0
    while g in present:
        g += 1
    return g


@dataclass
class TranspositionTable:
    """Position-mask keyed memo for one rules object: win/loss outcomes in
    ``wins``, Grundy values in ``values``."""

    wins: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    hits: int = 0

    def __len__(self):
        return len(self.wins) + len(self.values)


@dataclass
class SearchStats:
    """Counters of a solve.  ``states`` counts the positions searched move by
    move.  A split position is not one of them: it is the XOR of its parts,
    which are counted when searched.  Grundy search splits every position,
    win/loss search only its root.  A solve that would count more than
    ``budget`` states raises ``BudgetExceeded``."""

    states: int = 0
    budget: int | None = None


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
        for legal, kill in moves:
            if legal & pos:
                break
        else:
            kill = pos  # no legal move: lost, and nothing to split
        if pos & ~kill and len(parts := game.components(pos)) > 1:
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
    # Suspended frames.  A move frame (position, next move, seen) tries the
    # moves of a position.  In Grundy mode ``seen`` is the bit mask of the
    # child values so far, and a sum frame (position, parts left or None
    # before the split, XOR so far) adds up the values of a position's parts.
    # In win/loss mode ``seen`` is None before the first legal move, then
    # that move's place in the order plus one, then from the second legal
    # move on a dict whose keys are the twin keys tried.  The loop hands a
    # value to the top frame, then tries moves until it descends into a
    # child or the position is solved.  The move loop is kept short: on
    # CPython 3.11 a loop body beyond 255 code units pays an EXTENDED_ARG on
    # every move, a few percent of a Grundy search.
    try:
        if grundy:  # a split win/loss root's parts are known already
            stack = [(pos, None if want_grundy else iter(parts), 0)]
            value = 0  # handing 0 to a fresh sum frame starts it
        else:
            states += 1
            if states > limit:
                raise BudgetExceeded(states)
            stack = [(pos, 0, None)]
            value = True  # a won child sends its parent on to the next move
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
                    if i is None:
                        i = iter(game.components(p))
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
                    p, i, seen = part, 0, 0
                    break
            else:
                if grundy != want_grundy:
                    value = table.wins[pos] = value != 0
                return value
            while i < n:
                legal, kill = moves[i]
                i += 1
                if not legal & p:
                    continue
                if not grundy:
                    if seen:  # every move tried here so far led to a won child
                        if type(seen) is int:  # the second legal move: key the first
                            if twins is None:
                                twins = game.twins
                            pp = p | p << size
                            seen = {twins[seen - 1][0] & pp: None}
                        rows, loose = twins[i - 1]
                        if loose & p:
                            key = rows & pp
                            if key in seen:
                                continue  # a twin of a move tried here: won too
                            seen[key] = None
                    else:
                        seen = i
                c = p & ~kill
                v = get(c)
                if v is None:
                    push((p, i, seen))
                    if grundy:  # the child enters through a sum frame
                        push((c, None, 0))
                        value = 0
                        break
                    states += 1
                    if states > limit:
                        raise BudgetExceeded(states)
                    p, i, seen = c, 0, None
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
