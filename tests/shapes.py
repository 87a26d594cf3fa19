"""Graphs, posets and set games that the tests build often, and the
connected components of a position.

Each shape is built through the library's own constructors, ``Graph.of``,
``Poset.from_pairs`` and ``SetGame``, so a shape is checked the way a
user's input is.
"""

from itertools import combinations

from posetgames import Graph, Poset, SetGame
from posetgames.graphs import mask_to_sorted


def complete_graph(k):
    if k < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.of(k, combinations(range(k), 2))


def graph_sum(*parts):
    """Disjoint union; each part's vertices are shifted up past the parts before it."""
    n, edges = 0, []
    for g in parts:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return Graph.of(n, edges)


def antichain(m):
    return Poset.from_pairs(m, ())


def poset_sum(*parts):
    """Order-disjoint union; each part's elements are shifted up past the parts before it."""
    m, pairs = 0, []
    for p in parts:
        pairs += [(x + m, y + m) for x, y in p.cover_pairs()]
        m += p.m
    return Poset.from_pairs(m, pairs)


def set_game(universe, sets):
    """The set game whose sets hold these elements."""
    return SetGame(universe, [sum(1 << e for e in s) for s in sets])


def sets_of(game):
    """A set game's sets, as frozensets of their elements."""
    return tuple(frozenset(mask_to_sorted(mask)) for mask in game.masks)


def components(game, pos):
    """The connected components of ``pos`` in ``game``, lowest element first."""
    parts = []
    while pos:
        parts.append(game.component(pos))
        pos ^= parts[-1]
    return parts
