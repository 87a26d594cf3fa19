"""Winner-preserving reductions between the three games.

``psi`` pads a graph with complete graphs so that the edge count is odd and
every vertex has a non-incident edge, without changing the Kayles winner.
``phi`` turns a graph into a three-level poset whose poset game mirrors the
Kayles game on the graph.  ``poset_to_setgame`` replaces a poset by the
collection of its upper cones.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .games import SetGame
from .graphs import Graph, _Record
from .posets import Poset

Edge = tuple[int, int]


def psi(g: Graph) -> Graph:
    """Append K2 + K2 (odd edge count) or K2 + K4 (even) as new components.

    New vertices take the highest indices, K2 first.  The result always has
    an odd number of edges, and every vertex has an edge not incident to it.
    """
    k = 2 if len(g.edges) % 2 == 1 else 4
    # g's edges were checked when g was built, and the padding lies above them
    return Graph._unchecked(g.n + 2 + k, g.edges | _padding(g.n, k))


@lru_cache(maxsize=64)
def _padding(n: int, k: int) -> frozenset[Edge]:
    """The edges of K2 + Kk on the vertices from n up."""
    pad = [(0, 1), *combinations(range(2, 2 + k), 2)]
    return frozenset((u + n, v + n) for u, v in pad)


class PhiImage(_Record):
    """Three-level poset built from a graph, with its index bookkeeping.

    Levels, lowest to highest: A holds one copy per edge (the image of
    gamma), B holds the vertices, C holds the edges.  Element indices are
    laid out A-block first (in edge order), then B (vertex order), then C
    (edge order), so gamma is a fixed offset between the C and A blocks.
    ``b_elements()`` and ``c_elements()`` are the B and C blocks as ranges:
    vertex v is element ``b_elements()[v]``, and edge ``edge_order[a]`` is
    element ``c_elements()[a]`` above its low copy, element ``a``.
    """

    __slots__ = ("poset", "source", "edge_order")
    poset: Poset
    source: Graph
    edge_order: tuple[Edge, ...]

    @property
    def num_edges(self) -> int:
        return len(self.edge_order)

    def b_elements(self) -> range:
        return range(self.num_edges, self.num_edges + self.source.n)

    def c_elements(self) -> range:
        return range(self.num_edges + self.source.n, self.poset.m)

    @property
    def levels(self) -> tuple[str, ...]:
        """Each element's level, "A", "B" or "C", in index order."""
        return ("A",) * self.num_edges + ("B",) * self.source.n + ("C",) * self.num_edges


def phi(g: Graph) -> PhiImage:
    """Build the three-level poset for a graph.

    Generating relations, for each edge e and vertex b: b <= e iff b is an
    endpoint of e, and gamma(e) <= b iff b is not an endpoint of e.  The
    closure is written down directly, cones and their transpose alike:
    besides those pairs it holds gamma(e) <= f exactly for the edges f != e,
    since a path climbs at most A < B < C and passes gamma(e) < b < f for a
    b in f but not in e, which two distinct edges always have.  So
    ``up[gamma(e)] = gamma(e) + (B - e) + (C - e)``, ``up[b] = b + the edges
    at b``, ``up[e] = e``, and ``down`` mirrors them.
    """
    edges = tuple(sorted(g.edges))
    ne, nv = len(edges), g.n
    m = nv + 2 * ne
    a_all, b_all = (1 << ne) - 1, ((1 << nv) - 1) << ne
    at = [0] * nv  # at[v]: the edges at v, over edge indices
    for i, (v1, v2) in enumerate(edges):
        at[v1] |= 1 << i
        at[v2] |= 1 << i
    ends = [1 << (ne + v1) | 1 << (ne + v2) for v1, v2 in edges]  # each edge's endpoints in B
    up = [1 << i | (b_all ^ b) | (a_all ^ 1 << i) << (ne + nv) for i, b in enumerate(ends)]
    up += [1 << (ne + v) | at[v] << (ne + nv) for v in range(nv)] + [1 << x for x in range(ne + nv, m)]
    down = [1 << i for i in range(ne)] + [1 << (ne + v) | (a_all ^ at[v]) for v in range(nv)]
    down += [1 << (ne + nv + i) | b | (a_all ^ 1 << i) for i, b in enumerate(ends)]
    return PhiImage(Poset._closed(m, up, down), g, edges)


def reduce_kayles_to_poset(g: Graph) -> PhiImage:
    """The full graph-to-poset reduction: phi applied to psi."""
    return phi(psi(g))


def poset_to_setgame(p: Poset) -> SetGame:
    """One set per element: its upper cone.  Picking S_x mirrors picking x.

    The set masks are the poset's upper cones as they stand, so the set
    game's kill masks are the poset game's."""
    return SetGame(p.m, p.up)


def format_phi_mapping(image: PhiImage) -> str:
    """Sidecar mapping file: which graph feature each poset element encodes,
    one line per element in index order: ``A u v x`` for gamma of edge uv,
    ``B v x`` for vertex v and ``C u v x`` for edge uv."""
    lines = [f"A {u} {v} {x}" for x, (u, v) in enumerate(image.edge_order)]
    lines += [f"B {v} {x}" for v, x in enumerate(image.b_elements())]
    lines += [f"C {u} {v} {x}" for (u, v), x in zip(image.edge_order, image.c_elements())]
    return "\n".join(lines) + "\n"
