"""Impartial-game rules for Node Kayles, poset games, and the set game.

All three are one game over bitmask positions: move ``i`` is legal when its
``legal[i]`` mask meets the position, and it deletes ``kill[i]`` from it.

- Node Kayles: ``1 << v`` and the closed neighbourhood of v;
- poset game: ``1 << x`` and the upper cone ``up[x]``;
- set game: the set's mask for both, since a state is the mask of surviving
  ground elements and picking a set erases its elements everywhere.

A legal move always deletes part of the position, so playouts terminate:
``MaskGame`` refuses a kill mask that misses part of its legal mask.
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
from operator import or_, xor

from .graphs import FormatError, Graph, _read, _Record, mask_to_sorted
from .posets import Poset


class MaskGame:
    """Rules with one ``(legal, kill)`` mask pair per move index."""

    _poset = False  # whether move x removes the upper cone of x in a poset
    _element_game = False  # whether move x is legal iff x is in the position, and kills x

    def __init__(self, size: int, legal: Sequence[int], kill: Sequence[int], noun: str):
        if size < 0:
            raise ValueError("game size must be non-negative")
        self.size = size
        self.legal = tuple(legal)
        self.kill = tuple(kill)
        bad = any((legal | kill) >> size or legal & ~kill for legal, kill in zip(self.legal, self.kill))
        if bad or len(self.legal) != len(self.kill):
            raise ValueError(
                f"need one legal and one kill mask per move, inside {size} elements, each kill mask"
                " holding its legal mask"
            )
        self.noun = noun
        # the moves in the order the solver tries them, most-removing first,
        # ties by index, as (legal, keep): keep is ~kill, so a child is p & keep
        order = sorted(zip(self.legal, self.kill), key=lambda lk: -lk[1].bit_count())
        self.order = tuple([(legal, ~kill) for legal, kill in order])

    def initial(self) -> int:
        return (1 << self.size) - 1

    def moves(self, pos: int) -> list[int]:
        return [i for i, legal in enumerate(self.legal) if legal & pos]

    def child(self, pos: int, i: int) -> int:
        return pos & ~self.kill[i]

    def _check_position(self, pos: int) -> None:
        if not isinstance(pos, int):
            raise TypeError(f"a position is an int mask, not {type(pos).__name__}")
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
    def links(self) -> tuple[int, ...]:
        """``links[e]``: the elements linked to e, built on first use.

        Only moves whose legal mask holds e count.  A move that merely kills
        e says nothing once e is gone; in Kayles it would link the two ends
        of a path through a deleted middle vertex.  The element games come
        with their rows (``KaylesGame``, ``PosetGame``), so only a set game
        builds them here, in one pass over the moves.  Each kill mask holds
        its legal mask, so a move links its legal elements to its kill mask,
        and each element of ``kill & ~legal`` to its legal mask; the rows
        come out symmetric.  In a set game legal == kill, so ``links[e]`` is
        the union of the sets that hold e.
        """
        links = [0] * self.size
        for legal, kill in zip(self.legal, self.kill):
            for e in mask_to_sorted(legal):
                links[e] |= kill
            for e in mask_to_sorted(kill ^ legal):
                links[e] |= legal
        return tuple(links)

    @cached_property
    def antichain_win(self):
        """``antichain_win(p)``: whether p is won if p is an antichain, else
        None; built on first use.

        In an element game p is an antichain when no move legal in p kills
        another element of p, read off the kill masks with no table of its
        own.  It is then a sum of single elements, each *1, so it is won iff
        it has an odd number of elements.  Other rules get a function that
        always returns None: a set game is searched move by move, so that
        the reduction checks search both of their sides.
        """
        if not self._element_game:
            return _never
        return partial(_antichain_win, self.kill, reduce(or_, map(xor, self.kill, self.legal), 0))

    @cached_property
    def nim_heap(self):
        """``nim_heap(q)``: the Nim heap q is worth if its elements are
        pairwise linked in an element game, else None; built on first use.

        q is pairwise linked when ``links[x] & q == q`` for each x in q.  In
        the poset game ``links[x]`` is x's upper cone with its lower cone, so
        q is a chain.  A move at the i-th lowest element of a chain leaves
        the i - 1 below it, so the chain is the Nim heap *|q|.  In Kayles
        ``links[x]`` is x's closed neighbourhood, so q is a clique (a single
        vertex included), and every move clears it: it is *1.  Other rules
        get a function that always returns None: a set game is searched move
        by move, for the reason ``antichain_win`` gives.
        """
        if not self._element_game:
            return _never
        return partial(_nim_heap, self.links, self._poset)

    @cached_property
    def twins(self) -> tuple[int, ...]:
        """``twins[k]``: the twin key of the move ``order[k]``, built on first
        use.  Two moves legal in a position p lead to children of the same
        value when their keys agree within p: ``twins[i] & p == twins[j] & p``.

        In an element game (move x is legal iff x is in the position, and it
        kills x: Kayles, the poset game) the key of x is ``links[x]`` without
        x: the elements comparable to x, those x kills and those whose move
        kills x.  In Kayles that is x's neighbourhood.  Let x != y in p have
        keys that agree within p.  Then y is not comparable to x, or it would
        be in its own key.  And each z of p comparable to both lies on the
        same side of x as of y, since x < z < y would make x and y
        comparable (in Kayles there is one side).  So x and y kill the same
        other elements of p and are killed by the same other moves: swapping
        them maps the kill mask of every move legal in p, within p, onto
        that of its image.  That is an automorphism of p, so their children
        have the same value.

        Other rules (set games) get their kill masks as keys: two moves whose
        kill masks agree within p lead to the same child.
        """
        if not self._element_game:
            return tuple([~keep for _, keep in self.order])
        links = self.links
        return tuple([links[legal.bit_length() - 1] ^ legal for legal, _ in self.order])

    def component(self, pos: int) -> int:
        """The connected component of the lowest element of ``pos`` (0 for
        an empty ``pos``).

        The search stops once nothing of ``pos`` is left outside it, so a
        connected position costs no more than it takes to reach all of it.
        """
        links = self.links
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
        return pos ^ rest


def _never(p: int) -> None:
    return None


def _antichain_win(kill: tuple[int, ...], killed: int, p: int) -> bool | None:
    """``MaskGame.antichain_win`` of an element game with these ``kill``
    masks, whose elements other than the move's own add up to ``killed``.
    A position that misses ``killed`` (in the poset game, a set of minimal
    elements) is an antichain without a look at the rows."""
    if p & killed:
        rest = p
        while rest:
            low = rest & -rest
            if kill[low.bit_length() - 1] & p != low:
                return None
            rest ^= low
    return p.bit_count() & 1 == 1


def _nim_heap(links: tuple[int, ...], poset: bool, q: int) -> int | None:
    """``MaskGame.nim_heap`` of an element game with these ``links``: of a
    poset game if ``poset``, else of Kayles."""
    rest = q
    while rest:
        low = rest & -rest
        if links[low.bit_length() - 1] & q != q:
            return None
        rest ^= low
    if poset:
        return q.bit_count()
    return 1 if q else 0  # the empty position is worth 0


def KaylesGame(graph: Graph) -> MaskGame:
    """Node Kayles: a move removes a chosen vertex and its closed neighborhood."""
    single = [1 << v for v in range(graph.n)]
    nbhd = list(single)
    for u, v in graph.edges:
        nbhd[u] |= 1 << v
        nbhd[v] |= 1 << u
    game = MaskGame(graph.n, single, nbhd, "vertex")
    game._element_game = True
    game.links = game.kill  # closed neighbourhoods are symmetric
    return game


def PosetGame(poset: Poset) -> MaskGame:
    """Poset game: a move removes a chosen element and everything above it.

    Its comparability rows ``links`` are the poset's upper cones OR its lower cones."""
    game = MaskGame(poset.m, [1 << x for x in range(poset.m)], poset.up, "element")
    game._element_game = True
    game._poset = True
    game.links = tuple([*map(or_, poset.up, poset.down)])
    return game


class SetGame(_Record):
    """A collection of subsets S_1..S_k over ground elements 0..universe-1,
    each held as the mask of its elements."""

    __slots__ = ("universe", "masks")
    universe: int
    masks: tuple[int, ...]

    def __init__(self, universe: int, masks: Iterable[int]):
        masks = tuple(masks)
        if universe < 0:
            raise ValueError("universe size must be non-negative")
        if reduce(or_, masks, 0) >> universe:  # a negative mask shifts down to -1
            raise ValueError(f"a set mask is negative or holds an element outside universe {universe}")
        super().__init__(universe, masks)

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
    return SetGame(u, masks)


def format_setgame(s: SetGame) -> str:
    lines = [f"{s.k} {s.universe}"]
    lines.extend(" ".join(map(str, mask_to_sorted(mask))) for mask in s.masks)
    return "\n".join(lines) + "\n"
