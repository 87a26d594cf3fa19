"""Memoized exhaustive solver: win/loss search and Grundy numbers.

Both are one depth-first search over the rules' ``(legal, kill)`` moves,
kept on an explicit stack, so no position is too deep to solve.  One move
loop tries the moves of a position in the order fixed by ``game.order``
(the moves that remove the most elements first), and the two modes differ
only where they must.  Win/loss search stops at the first lost child, so
the remaining moves are never generated, and skips twin moves (below).
Grundy search needs every child, and takes the mex of their values.  By
the Sprague-Grundy theorem the value of a sum is the XOR of its parts'
values, so it splits each child the table does not hold into its connected
components and searches only the parts move by move, each once; sums and
parts are both stored under their own masks.  It splits lazily, one part
at a time: the part of the lowest element of what is left
(``game.component``).  Before it splits what is left, it looks that up
whole, since any stored mask holds its value, a sum's or a part's; a hit
ends the split.  A child of a Kayles path is mostly two intervals the
table holds already, so one short search and two look-ups answer it.  A part that is
all that was left has just missed in the table and is not looked up again.
Kayles paths, the padding ``psi`` adds and disjoint chains fall apart this
way.  The order and the cutoff cannot change the (exact) result.  Memory
grows with the transposition table and the stack, which is bounded by the
universe.

Win/loss search splits only the position it is asked about (the root).  A
split root's win/loss is its Grundy value != 0, so the root is handed to a
Grundy solve on the same table, and the answer is stored in ``table.wins``
too.  A root is not split when its first move in ``game.order`` clears it,
since it is then connected and won, or when it is an antichain (below).
Positions below the root are searched whole: on the verification suites,
finding components at every position cost more than the cutoff left to
save.

Win/loss search also skips twin moves.  In Kayles and the poset game two
elements of a position are twins when each kills the same other elements
of the position and is killed by the same other moves: swapping them is
then an automorphism of the position, so their children have the same
value.  One mask keys each move (``game.twins``): the elements comparable
to its element, its neighbours in Kayles.  Two elements are twins exactly
when their keys agree within the position, so a move costs one AND and one
dict lookup.  A move frame reaches its second legal move only when the
first child was won, and so on, so a move whose twin was tried earlier in
the same frame leads to a won child too and is skipped.  The frame keeps
the keys within its position of the moves it has tried, from its first
legal move on.  The paper's reduction is full of twins (``psi`` pads with
complete graphs, and ``phi`` gives vertices with equal neighbourhoods equal
cones).  A set game keys a move by its kill mask, so it skips a set that
meets the position in the same elements as one tried before: that leads to
the same child, so it saves a table lookup, not a state.  Grundy search
does not look for twins.

Win/loss search answers an antichain without searching it.  In Kayles and
the poset game a position is an antichain when no move legal in it removes
another of its elements.  It is then a sum of single elements, each worth
*1, so it is won iff it has an odd number of elements
(``game.antichain_win``).  The test runs where a search first meets a
position's first legal move: in the root check, before it looks for
components, and at the first legal move of each move frame; and only when
that move removes nothing else of the position.  The answer is stored in
``table.wins`` and counts as one state.  Like twin-ness, the rule is local: it
reads only the kill masks within the position, so a checker that sees only
the masks can test it too.  Set games keep their search.  In the paper's
three-level poset the vertex and edge levels are antichains, so late
positions often are too.  With both rules ``verify --suite theorem
--max-n 5`` searches 260 864 states.

Grundy search answers a chain of the poset game and a clique of Kayles
without searching them (``game.nim_heap``).  A part whose elements are
pairwise comparable is a chain, and a move at its i-th lowest element
leaves the i - 1 below it, so a chain of k elements is the Nim heap *k.  A
part whose vertices are pairwise adjacent is a clique, one vertex
included; every move clears it, so it is *1.  The test runs where a sum
frame is about to search a part the table does not hold, after that part
is counted against the budget, so the answer counts as one state.  Set
games keep their search, as with antichains.  Only Grundy search fetches
the test, so a win/loss search that does not split its root never builds
it.  Two disjoint reversed chains of 120 and 100 elements take 2 states,
and 10 000 isolated vertices take 10 000 states of no move each.
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


def _solve(game, pos, table, budget, stats, grundy: bool):
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
    memo = table.values if grundy else table.wins
    value = memo.get(pos)
    if value is not None:
        table.hits += 1
        return value
    moves = game.order
    if not grundy:
        # A root that its first move clears is connected, and one that the
        # move frame answers as an antichain needs no split
        for legal, keep in moves:
            if legal & pos:
                break
        else:
            legal, keep = None, 0  # no legal move: lost, and nothing to split
        searched = pos & keep and (pos & keep != pos ^ legal or game.antichain_win(pos) is None)
        if searched and game.component(pos) != pos:
            # a sum is won iff its parts' Grundy values XOR to nonzero
            value = table.wins[pos] = _solve(game, pos, table, None, stats, True) != 0
            return value
    n = len(moves)
    hits = 0
    states = stats.states
    limit = sys.maxsize if stats.budget is None else stats.budget  # no budget: a bound never reached
    # Suspended frames.  A move frame (position, place in the order of the
    # move it tried last or -1, seen) tries the moves of a position.  In
    # Grundy mode ``seen`` is the bit mask of the child values so far, and a
    # sum frame (position, ~rest or None before the split, XOR so far) adds
    # up the values of a position's parts, where rest is what is left of the
    # position past the part searched now.  A Grundy move frame waits at a
    # place >= 0, so a sum frame's ~rest < 0 tells the two apart.  In
    # win/loss mode ``seen`` is a dict whose keys are the twin keys tried,
    # within the position: empty until the frame's first legal move, which
    # is where an antichain is answered.  A child is ``p & keep``.  The loop
    # hands a value to the top frame, then tries moves until it descends
    # into a child or the position is solved.  The move loop is kept short:
    # on CPython 3.11 to 3.13 a jump across a loop body beyond 255 code units
    # carries an EXTENDED_ARG, which every move pays, a few percent of a
    # Grundy search (``test_move_loop_jumps_without_extended_arg`` checks
    # it).  So a solve leaves by one exit, after the ``finally``: a
    # ``return`` inside the ``try`` would get its own copy of the
    # ``finally`` block, in the loop.
    # For the same reason a Grundy pop tests for a sum frame first: a move
    # frame's ``break`` into the loop then crosses none of the sum-frame
    # code, which can grow without moving a jump of the loop.
    # A budget overrun in the loops takes the one exit too: it sets ``stack =
    # None``, which ends the pop loop, and the solve raises after the
    # ``finally``, so the loops hold no raise.  A sum frame's overrun must
    # ``continue``: a ``break`` there would enter the move loop.
    try:
        if grundy:
            component = game.component
            nim_heap = game.nim_heap
            stack = [(pos, None, 0)]
        else:
            states += 1
            if states > limit:
                raise BudgetExceeded(states)
            stack = [(pos, -1, {})]
            value = True  # a won child sends its parent on to the next move
            antichain_win = game.antichain_win
            twins = game.twins
        push = stack.append
        get = memo.get
        while True:
            while stack:
                p, i, seen = stack.pop()
                if grundy:
                    if i is None or i < 0:  # a sum frame: add up the values of its position's parts
                        if i is None:  # a new frame: its position has just missed in the table
                            rest = p
                        else:  # a part is solved: XOR its value in
                            seen ^= value
                            rest = ~i
                        # split off the part of the lowest element left until nothing
                        # is left or the table holds the rest whole (p just missed)
                        while rest and (rest == p or (v := get(rest)) is None):
                            part = component(rest)
                            rest ^= part
                            if not rest or (v := get(part)) is None:  # all of the rest, or a miss
                                break
                            hits += 1
                            seen ^= v
                        else:
                            if rest:  # the rest is stored
                                hits += 1
                                seen ^= v
                            value = memo[p] = seen
                            continue
                        states += 1
                        if states > limit:
                            stack = None
                            continue
                        if part != p:  # a connected position is its only part: nothing to add up
                            push((p, ~rest, seen))
                        if v := nim_heap(part):  # a chain or a clique: the frame below adds its value
                            value = memo[part] = v
                            continue
                        p, i, seen = part, -1, 0
                        break
                    seen |= 1 << value
                    break
                if value:  # the child was won: back to this frame's next move
                    break
                value = memo[p] = True
            else:
                break
            while (i := i + 1) < n:
                legal, keep = moves[i]
                if not legal & p:
                    continue
                if not grundy:  # every move tried here so far led to a won child
                    key = twins[i] & p
                    if key in seen:
                        continue  # a twin of a move tried here: won too
                    if not seen and p & keep == p ^ legal and (value := antichain_win(p)) is not None:
                        memo[p] = value  # an antichain: won iff its size is odd
                        break
                    seen[key] = None
                c = p & keep
                v = get(c)
                if v is None:
                    push((p, i, seen))
                    if grundy:  # the child enters through a sum frame
                        push((c, None, 0))
                        break
                    states += 1
                    if states > limit:
                        stack = None
                        break
                    p, i, seen = c, -1, {}
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
    if stack is None:
        raise BudgetExceeded(states)
    return value


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
        if not _solve(game, game.child(pos, mv), table, None, stats, False):
            return mv
    return None
