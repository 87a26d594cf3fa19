"""Impartial-game rules for Node Kayles, poset games, and the set game.

All three are one game over bitmask positions: move ``i`` is legal when its
``legal[i]`` mask meets the position, and it deletes ``kill[i]`` from it.

- Node Kayles: ``1 << v`` and the closed neighbourhood of v;
- poset game: ``1 << x`` and the upper cone ``up[x]``;
- set game: the set's mask for both, since a state is the mask of surviving
  ground elements and picking a set erases its elements everywhere.

A legal move always deletes part of the position, so playouts terminate.
Normal play: the player who cannot move loses.

Two elements are linked when one move's legal mask holds one of them and
its legal or kill mask holds the other.  A move legal in a position then
touches only the part of the position linked to its legal elements, so the
position is the sum of its connected components (Kayles: of the induced
subgraph; poset game: of the comparability graph; set game: of the
elements that share a set).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property, partial, reduce
from operator import or_

from .graphs import FormatError, Graph, _read, _Record, mask_to_sorted
from .posets import Poset, transpose


class MaskGame:
    """Rules with one ``(legal, kill)`` mask pair per move index."""

    _poset = False  # whether move x removes the upper cone of x in a poset

    def __init__(self, size: int, legal: Sequence[int], kill: Sequence[int], noun: str):
        if size < 0:
            raise ValueError("game size must be non-negative")
        self.size = size
        self.legal = tuple(legal)
        self.kill = tuple(kill)
        outside = any((a | b) >> size for a, b in zip(self.legal, self.kill))
        if outside or len(self.legal) != len(self.kill):
            raise ValueError(f"need one legal and one kill mask per move, inside {size} elements")
        self.noun = noun
        # the order the solver tries moves in: most-removing first, ties by index
        self.order = tuple(sorted(zip(self.legal, self.kill), key=lambda lk: -lk[1].bit_count()))

    def initial(self) -> int:
        return (1 << self.size) - 1

    def moves(self, pos: int) -> list[int]:
        return [i for i, legal in enumerate(self.legal) if legal & pos]

    def child(self, pos: int, i: int) -> int:
        return pos & ~self.kill[i]

    def _check_position(self, pos: int) -> None:
        if pos < 0 or pos >> self.size:
            raise ValueError(f"position {pos} is not a set of the game's {self.size} elements")

    def apply(self, pos: int, i: int) -> int:
        self._check_position(pos)
        if not 0 <= i < len(self.legal):
            raise ValueError(f"{self.describe_move(i)} does not exist")
        if not self.legal[i] & pos:
            raise ValueError(f"{self.describe_move(i)} is not available")
        return self.child(pos, i)

    def describe_move(self, i: int) -> str:
        return f"{self.noun} {i}"

    @cached_property
    def _cols(self) -> tuple[int, ...]:
        """The transpose of ``kill``: bit x of ``_cols[y]`` is set iff move x
        kills y.  Built on first use, unless the rules came with it."""
        return tuple(transpose(self.size, self.kill))

    @cached_property
    def links(self) -> tuple[int, ...]:
        """``links[e]``: the elements linked to e, built on first use.

        Only moves whose legal mask holds e count.  A move that merely kills
        e says nothing once e is gone; in Kayles it would link the two ends
        of a path through a deleted middle vertex.  In an element game e is
        linked to what its move kills and to the moves that kill it.  The
        tuple is built from a list, for the reason ``_element_game`` gives.
        """
        if self._element_game:
            return tuple([*map(or_, self.kill, self._cols)])
        links = [0] * self.size
        for legal, kill in zip(self.legal, self.kill):
            reach = legal | kill
            rest = legal
            while rest:
                low = rest & -rest
                links[low.bit_length() - 1] |= reach
                rest ^= low
        return tuple([*map(or_, links, transpose(self.size, links))])

    @cached_property
    def _element_game(self) -> bool:
        """Whether move x is legal iff x is in the position, and kills x.

        The single-element masks are a list: a tuple built from a generator
        is resized as it grows, and once freed it stays on CPython's tuple
        free list, about 0.2 MB over the ``lemma1`` suite."""
        singles = [1 << x for x in range(self.size)]
        return self.legal == tuple(singles) and all(map(int.__and__, self.kill, singles))

    @cached_property
    def antichain_win(self):
        """``antichain_win(p)``: whether p is won if p is an antichain, else
        None; built on first use.

        In an element game p is an antichain when no move legal in p kills
        another element of p.  It is then a sum of single elements, each *1,
        so it is won iff it has an odd number of elements.  Other rules, and
        set games even when their masks are an element game's, get a
        function that always returns None: a set game is searched move by
        move, so that the reduction checks search both of their sides.
        """
        if self.noun == "set" or not self._element_game:
            return _never
        out = tuple(kill ^ legal for legal, kill in zip(self.legal, self.kill))
        return partial(_antichain_win, out, reduce(or_, out, 0))

    @cached_property
    def nim_heap(self):
        """``nim_heap(q)``: the size of q if q is a chain of a poset game,
        else None; built on first use.

        q is a chain when each of its elements is comparable to all of q.
        ``links[x]`` is x's upper cone with its lower cone, so that reads
        ``links[x] & q == q`` for each x in q.  A move at the i-th lowest
        element of a chain leaves the i - 1 below it, so the chain is the Nim
        heap *|q|.  Only rules built by ``PosetGame`` get the test, since it
        needs kills that are the upper cones of a partial order; other rules
        get a function that always returns None.  A Kayles clique is worth
        *1, not *k, and a set game is searched move by move, for the reason
        ``antichain_win`` gives.
        """
        if not self._poset:
            return _never
        return partial(_nim_heap, self.links)

    @cached_property
    def twins(self) -> tuple[tuple[int, int], ...]:
        """``twins[k]``: ``(rows, loose)`` for the move ``order[k]``, built on
        first use.

        In an element game (move x is legal iff x is in the position, and it
        kills x: Kayles, the poset game) x has an out-row, the elements x
        kills, and an in-row, the moves that kill x, both without x itself.
        ``rows`` holds the out-row in its low ``size`` bits and the in-row
        above them, so ``rows & (p | p << size)`` is the pair of rows within
        a position p.  ``loose`` holds the elements that could be x's twin:
        the others that are in neither row.

        Two elements of p are twins when their rows within p are equal.
        Swapping them then maps the kill mask of every move legal in p,
        within p, onto that of its image, so it is an automorphism of p and
        their children have the same value.  Other rules get all-zero
        entries: nothing is ever a twin there.
        """
        if not self._element_game:
            return ((0, 0),) * len(self.order)
        n = self.size
        cols = self._cols
        full = (1 << n) - 1
        twins = []
        for legal, kill in self.order:
            out, inn = kill ^ legal, cols[legal.bit_length() - 1] ^ legal
            twins.append((out | inn << n, full ^ (out | inn | legal)))
        return tuple(twins)

    def components(self, pos: int) -> list[int]:
        """The connected components of ``pos``, lowest element first.

        Each search stops once nothing of ``pos`` is left outside it, so a
        connected position costs no more than it takes to reach all of it.
        """
        links = self.links
        parts = []
        while pos:
            todo = pos & -pos
            rest = pos ^ todo
            while todo:
                low = todo & -todo
                new = links[low.bit_length() - 1] & rest
                if new:
                    rest ^= new
                    if not rest:
                        break
                    todo |= new
                todo ^= low
            parts.append(pos ^ rest)
            pos = rest
        return parts


def _never(p: int) -> None:
    return None


def _antichain_win(out: tuple[int, ...], killed: int, p: int) -> bool | None:
    """``MaskGame.antichain_win`` of an element game whose move x kills the
    others in ``out[x]``, which add up to ``killed``.  A position that misses
    ``killed`` (in the poset game, a set of minimal elements) is an
    antichain without a look at the rows."""
    if p & killed:
        rest = p
        while rest:
            low = rest & -rest
            if out[low.bit_length() - 1] & p:
                return None
            rest ^= low
    return p.bit_count() & 1 == 1


def _nim_heap(links: tuple[int, ...], q: int) -> int | None:
    """``MaskGame.nim_heap`` of a poset game with these ``links``."""
    rest = q
    while rest:
        low = rest & -rest
        if links[low.bit_length() - 1] & q != q:
            return None
        rest ^= low
    return q.bit_count()


def KaylesGame(graph: Graph) -> MaskGame:
    """Node Kayles: a move removes a chosen vertex and its closed neighborhood."""
    single = [1 << v for v in range(graph.n)]
    nbhd = list(single)
    for u, v in graph.edges:
        nbhd[u] |= 1 << v
        nbhd[v] |= 1 << u
    game = MaskGame(graph.n, single, nbhd, "vertex")
    game._element_game = True
    game._cols = game.kill  # closed neighbourhoods are symmetric
    return game


def PosetGame(poset: Poset) -> MaskGame:
    """Poset game: a move removes a chosen element and everything above it.

    The game reads the poset's lower cones as its kill transpose when the
    poset holds them already, and never builds them."""
    game = MaskGame(poset.m, [1 << x for x in range(poset.m)], poset.up, "element")
    game._element_game = True
    game._poset = True
    if poset._down is not None:
        game._cols = poset._down
    return game


class SetGame(_Record):
    """A collection of subsets S_1..S_k over ground elements 0..universe-1,
    each held as the mask of its elements."""

    __slots__ = ("universe", "masks")
    universe: int
    masks: tuple[int, ...]

    def __init__(self, universe: int, sets: Iterable[Iterable[int]]):
        if universe < 0:
            raise ValueError("universe size must be non-negative")
        masks = []
        for i, s in enumerate(sets):
            mask = 0
            for e in s:
                if not 0 <= e < universe:
                    raise ValueError(f"set {i} has element {e} outside universe {universe}")
                mask |= 1 << e
            masks.append(mask)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def _unchecked(cls, universe: int, masks: Sequence[int]) -> "SetGame":
        """A set game from masks already known to lie inside the universe."""
        self = object.__new__(cls)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "masks", tuple(masks))
        return self

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(mask_to_sorted(mask)) for mask in self.masks)

    @property
    def k(self) -> int:
        return len(self.masks)


def SetGameRules(game: SetGame) -> MaskGame:
    """Set game: picking a non-empty set erases its elements from every set."""
    return MaskGame(game.universe, game.masks, game.masks, "set")


def parse_setgame(text: str) -> SetGame:
    """Parse the set-game format: header "k u", then one line of element ids
    per set; a blank line is an empty set."""
    (k, u), rows = _read(text, "set-game", "k u")
    masks: list[int] = []
    for lineno, tokens in rows:
        if len(masks) == k:
            if tokens:
                raise FormatError(f"more than {k} set lines", lineno)
            continue
        mask = 0
        for tok in tokens:
            try:
                e = int(tok)
            except ValueError:
                raise FormatError(f"non-integer element {tok!r}", lineno)
            if not 0 <= e < u:
                raise FormatError(f"element {e} outside universe {u}", lineno)
            mask |= 1 << e
        masks.append(mask)
    if len(masks) != k:
        raise FormatError(f"expected {k} set lines, found {len(masks)}")
    return SetGame._unchecked(u, masks)


def format_setgame(s: SetGame) -> str:
    lines = [f"{s.k} {s.universe}"]
    lines.extend(" ".join(map(str, mask_to_sorted(mask))) for mask in s.masks)
    return "\n".join(lines) + "\n"
