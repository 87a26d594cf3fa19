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

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .graphs import FormatError, Graph
from .posets import Poset, transpose


class MaskGame:
    """Rules with one ``(legal, kill)`` mask pair per move index."""

    def __init__(self, size: int, legal: Sequence[int], kill: Sequence[int], noun: str):
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
    def links(self) -> tuple[int, ...]:
        """``links[e]``: the elements linked to e, built on first use.

        Only moves whose legal mask holds e count.  A move that merely kills
        e says nothing once e is gone; in Kayles it would link the two ends
        of a path through a deleted middle vertex.
        """
        links = [0] * self.size
        for legal, kill in zip(self.legal, self.kill):
            reach = legal | kill
            rest = legal
            while rest:
                low = rest & -rest
                links[low.bit_length() - 1] |= reach
                rest ^= low
        return tuple(a | b for a, b in zip(links, transpose(self.size, links)))

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
        n = self.size
        moves = enumerate(zip(self.legal, self.kill))
        if len(self.legal) != n or any(legal != 1 << x or not kill >> x & 1 for x, (legal, kill) in moves):
            return ((0, 0),) * len(self.order)
        cols = transpose(n, self.kill)
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


def KaylesGame(graph: Graph) -> MaskGame:
    """Node Kayles: a move removes a chosen vertex and its closed neighborhood."""
    single = [1 << v for v in range(graph.n)]
    nbhd = list(single)
    for u, v in graph.edges:
        nbhd[u] |= 1 << v
        nbhd[v] |= 1 << u
    return MaskGame(graph.n, single, nbhd, "vertex")


def PosetGame(poset: Poset) -> MaskGame:
    """Poset game: a move removes a chosen element and everything above it."""
    return MaskGame(poset.m, [1 << x for x in range(poset.m)], poset.up, "element")


@dataclass(frozen=True)
class SetGame:
    """A collection of subsets S_1..S_k over ground elements 0..universe-1."""

    universe: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        for i, s in enumerate(self.sets):
            for e in s:
                if not 0 <= e < self.universe:
                    raise ValueError(f"set {i} has element {e} outside universe {self.universe}")

    @property
    def k(self) -> int:
        return len(self.sets)


def SetGameRules(game: SetGame) -> MaskGame:
    """Set game: picking a non-empty set erases its elements from every set."""
    masks = [sum(1 << e for e in s) for s in game.sets]
    return MaskGame(game.universe, masks, masks, "set")


def parse_setgame(text: str) -> SetGame:
    """Parse the set-game format: "k u" then one line of element ids per set."""
    header = None
    rows: list[frozenset[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if header is None:
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"expected 'k u' header, got {line!r}", lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise FormatError(f"non-integer header in {line!r}", lineno)
            if header[0] < 0 or header[1] < 0:
                raise FormatError("set count and universe must be non-negative", lineno)
            continue
        if len(rows) >= header[0]:
            if line:
                raise FormatError(f"more than {header[0]} set lines", lineno)
            continue
        try:
            elems = frozenset(int(tok) for tok in line.split())
        except ValueError:
            raise FormatError(f"non-integer element in {line!r}", lineno)
        for e in elems:
            if not 0 <= e < header[1]:
                raise FormatError(f"element {e} outside universe {header[1]}", lineno)
        rows.append(elems)
    if header is None:
        raise FormatError("empty set-game file")
    if len(rows) != header[0]:
        raise FormatError(f"expected {header[0]} set lines, found {len(rows)}")
    return SetGame(header[1], tuple(rows))


def format_setgame(s: SetGame) -> str:
    lines = [f"{s.k} {s.universe}"]
    for members in s.sets:
        lines.append(" ".join(str(e) for e in sorted(members)))
    return "\n".join(lines) + "\n"
