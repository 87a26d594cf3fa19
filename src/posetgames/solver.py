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
chains fall apart this way.  Win/loss search does not split: on the
verification suites, finding components cost it more than the cutoff left
to save.
"""

from __future__ import annotations

import enum
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
    move; in Grundy mode these are connected positions only, since a split
    position is the XOR of its parts."""

    states: int = 0
    budget: int | None = None

    def spend(self):
        self.states += 1
        if self.budget is not None and self.states > self.budget:
            raise BudgetExceeded(self.states)


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
    n = len(moves)
    hits = 0
    # Suspended frames.  A move frame (position, next move, child values seen)
    # tries the moves of a position; in Grundy mode a sum frame (position,
    # parts left, XOR so far) adds up the values of a split position's parts.
    # The loop hands a value to the top frame, then tries moves until it
    # descends into a child or the position is solved.
    if want_grundy:
        split = game.components
        stack = [(pos, iter(split(pos)), 0)]
        value = 0  # handing 0 to a fresh sum frame starts it
    else:
        stats.spend()
        stack = [(pos, 0, None)]
        value = True  # a won child sends its parent on to the next move
    try:
        while True:
            while stack:
                p, i, seen = stack.pop()
                if not want_grundy:
                    if value:
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
                    stats.spend()
                    stack.append((p, i, seen))
                    p, i, seen = part, 0, set()
                    break
            else:
                return value
            while i < n:
                legal, kill = moves[i]
                i += 1
                if not legal & p:
                    continue
                c = p & ~kill
                v = memo.get(c)
                if v is None:
                    stack.append((p, i, seen))
                    if want_grundy:
                        parts = split(c)
                        if len(parts) != 1:
                            stack.append((c, iter(parts), 0))
                            value = 0
                            break
                        seen = set()
                    stats.spend()
                    p, i = c, 0
                    continue
                hits += 1
                if want_grundy:
                    seen.add(v)
                elif not v:
                    value = memo[p] = True
                    break
            else:
                value = memo[p] = mex(seen) if want_grundy else False
    finally:
        table.hits += hits


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
