"""Memoized exhaustive solver: win/loss search and Grundy numbers.

Both are one depth-first search over the rules' ``(legal, kill)`` moves,
kept on an explicit stack, so no position is too deep to solve.  Children
are generated one at a time, in the order fixed by ``game.order`` (the moves
that remove the most elements first).  For win/loss a position is won as
soon as one child is lost, and the remaining moves are never generated;
for Grundy numbers every child is needed, and the value is their mex.  The
order and the cutoff cannot change the (exact) result.  Memory grows with
the transposition table and the stack, which is bounded by the universe.

Grundy search also splits each position the table does not hold into its
connected components (``game.components``).  By the Sprague-Grundy theorem
the value of a sum is the XOR of its parts' values, so only the parts are
searched move by move, each once; sums and parts are both stored under
their own masks.  Kayles paths, the padding ``psi`` adds and disjoint
chains fall apart this way.

Win/loss search splits only the position it is asked about (the root): a
sum is won iff the XOR of its parts' Grundy values is nonzero.  The Grundy
values of all parts but the largest are XORed into ``h``; if ``h`` is 0 the
answer is the largest part's own win/loss, searched with the cutoff,
otherwise it is whether that part's Grundy value differs from ``h``.  A
root is not split when its first move in ``game.order`` clears it, since
it is then connected and won.  Positions below the root are searched whole:
on the verification suites, finding components at every position cost more
than the cutoff left to save.

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
from 1 071 380 to 318 028.  Grundy search does not look for twins: it needs
every child's value anyway.
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


def _solve(game, pos, table, budget, stats, want_grundy: bool):
    """Win/loss (a bool) or Grundy value (an int) of ``pos``, with defaults
    filled in: the initial position, a fresh table, a fresh budgeted stats."""
    if pos is None:
        pos = game.initial()
    if table is None:
        table = TranspositionTable()
    if stats is None:
        stats = SearchStats(budget=budget)
    elif budget is not None:
        stats.budget = budget
    memo = table.values if want_grundy else table.wins
    value = memo.get(pos)
    if value is not None:
        table.hits += 1
        return value
    moves = game.order
    if not want_grundy:
        # A move that clears the whole position shows it connected (and won)
        # without building game.links, which costs more than a small search.
        for legal, kill in moves:
            if legal & pos:
                break
        else:
            kill = pos  # no legal move: lost, and nothing to split
        parts = game.components(pos) if pos & ~kill else ()
        if len(parts) > 1:
            # won iff the parts' values XOR to nonzero; with the others
            # XORing to 0 that is the largest part's own win/loss, cut off
            largest = max(parts, key=int.bit_count)
            h = 0
            for part in parts:
                if part != largest:
                    h ^= _solve(game, part, table, None, stats, True)
            if h:
                value = _solve(game, largest, table, None, stats, True) != h
            else:
                value = _solve(game, largest, table, None, stats, False)
            memo[pos] = value
            return value
    n = len(moves)
    twins = None  # game.twins, fetched when a win/loss frame first needs it
    size = game.size
    pp = 0  # p | p << size, the mask that cuts a move's twin key out of its rows
    hits = 0
    states = stats.states
    limit = sys.maxsize if stats.budget is None else stats.budget  # no budget: a bound never reached
    # Suspended frames.  A move frame (position, next move, seen) tries the
    # moves of a position.  In Grundy mode ``seen`` is the set of child values
    # so far, and a sum frame (position, parts left, XOR so far) adds up the
    # values of a split position's parts.  In win/loss mode ``seen`` is None
    # before the first legal move, then that move's place in the order plus
    # one, then from the second legal move on the set of twin keys tried.
    # The loop hands a value to the top frame, then tries moves until it
    # descends into a child or the position is solved.
    try:
        if want_grundy:
            split = game.components
            stack = [(pos, iter(split(pos)), 0)]
            value = 0  # handing 0 to a fresh sum frame starts it
        else:
            states += 1
            if states > limit:
                raise BudgetExceeded(states)
            stack = [(pos, 0, None)]
            value = True  # a won child sends its parent on to the next move
        while True:
            while stack:
                p, i, seen = stack.pop()
                if not want_grundy:
                    if value:  # the child was won: back to this frame's next move
                        pp = p | p << size
                        break
                    value = memo[p] = True
                elif type(seen) is set:
                    seen.add(value)
                    break
                else:  # a sum frame: XOR the value in, then find an unsolved part
                    seen ^= value
                    for part in i:
                        v = memo.get(part)
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
                    stack.append((p, i, seen))
                    p, i, seen = part, 0, set()
                    break
            else:
                return value
            if want_grundy:
                while i < n:
                    legal, kill = moves[i]
                    i += 1
                    if not legal & p:
                        continue
                    c = p & ~kill
                    v = memo.get(c)
                    if v is None:
                        stack.append((p, i, seen))
                        parts = split(c)
                        if len(parts) != 1:
                            stack.append((c, iter(parts), 0))
                            value = 0
                            break
                        seen = set()
                        states += 1
                        if states > limit:
                            raise BudgetExceeded(states)
                        p, i = c, 0
                        continue
                    hits += 1
                    seen.add(v)
                else:
                    value = memo[p] = mex(seen)
                continue
            while i < n:
                legal, kill = moves[i]
                i += 1
                if not legal & p:
                    continue
                if seen:  # every move tried here so far led to a won child
                    if type(seen) is int:  # the second legal move: key the first
                        if twins is None:
                            twins = game.twins
                        pp = p | p << size
                        seen = {twins[seen - 1][0] & pp}
                    rows, loose = twins[i - 1]
                    if loose & p:
                        key = rows & pp
                        if key in seen:
                            continue  # a twin of a move tried here: won too
                        seen.add(key)
                else:
                    seen = i
                c = p & ~kill
                v = memo.get(c)
                if v is None:
                    stack.append((p, i, seen))
                    states += 1
                    if states > limit:
                        raise BudgetExceeded(states)
                    p, i, seen = c, 0, None
                    continue
                hits += 1
                if not v:
                    value = memo[p] = True
                    break
            else:
                value = memo[p] = False
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
    if pos is None:
        pos = game.initial()
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
