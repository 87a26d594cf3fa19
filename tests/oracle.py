"""Naive reference solvers used to cross-check the production solver.

Plain recursion over Python sets, no move ordering, and independent move
logic (closed neighborhoods / upper cones recomputed from the raw graph /
relation).  The ``naive_*`` solvers keep no memo, so their time grows like
m! and they stop near 10 elements.  ``memo_poset_grundy`` is the same
poset recursion with an ``lru_cache`` over frozensets, which reaches about
30 elements; like the others it calls nothing in ``posetgames``.
"""

from functools import lru_cache

from posetgames import Violation


def naive_mex(values):
    g = 0
    while g in values:
        g += 1
    return g


def naive_kayles_grundy(graph, remaining=None):
    if remaining is None:
        remaining = frozenset(range(graph.n))
    seen = set()
    for v in sorted(remaining):
        gone = {v} | {u for u in remaining if (min(u, v), max(u, v)) in graph.edges}
        seen.add(naive_kayles_grundy(graph, remaining - gone))
    return naive_mex(seen)


def naive_poset_grundy(poset, remaining=None):
    if remaining is None:
        remaining = frozenset(range(poset.m))
    seen = set()
    for x in sorted(remaining):
        cone = {y for y in remaining if poset.leq(x, y)}
        seen.add(naive_poset_grundy(poset, remaining - cone))
    return naive_mex(seen)


def memo_poset_grundy(m, up):
    """Grundy value of the poset game on elements ``range(m)`` whose upper
    cones are the bit rows ``up``: the recursion of ``naive_poset_grundy``,
    with each cone read once into a frozenset and each position's value
    cached."""
    cones = [frozenset(y for y in range(m) if up[x] >> y & 1) for x in range(m)]

    @lru_cache(maxsize=None)
    def value(remaining):
        return naive_mex({value(remaining - cones[x]) for x in remaining})

    return value(frozenset(range(m)))


def naive_setgame_grundy(sets, surviving=None):
    if surviving is None:
        surviving = frozenset(e for s in sets for e in s)
    seen = set()
    for i in range(len(sets)):
        if sets[i] & surviving:
            seen.add(naive_setgame_grundy(sets, surviving - sets[i]))
    return naive_mex(seen)


def is_down_set(poset, pos):
    """Whether the position mask holds everything below each of its elements."""
    return all(not poset.down[x] & ~pos for x in range(poset.m) if pos >> x & 1)


def naive_closure(m, pairs):
    """Reachability rows as bitmasks: bit y of row x iff y is reachable from x
    (x itself included), found by relaxing over the pairs until nothing changes."""
    reach = [{x} for x in range(m)]
    changed = True
    while changed:
        changed = False
        for x, y in pairs:
            if not reach[y] <= reach[x]:
                reach[x] |= reach[y]
                changed = True
    return [sum(1 << y for y in row) for row in reach]


def naive_transpose(m, rows):
    """Columns of the m x m bit matrix ``rows``, read one bit at a time; a row
    missing at the end counts as zero."""
    return [sum((rows[x] >> y & 1) << x for x in range(min(m, len(rows)))) for y in range(m)]


def naive_links(game):
    """x and y are linked when some move legal on one of them reaches the other."""
    moves = list(zip(game.legal, game.kill))
    return tuple(
        sum(1 << y for y in range(game.size)
            if any(legal >> x & 1 and (legal | kill) >> y & 1 or legal >> y & 1 and (legal | kill) >> x & 1
                   for legal, kill in moves))
        for x in range(game.size))


def naive_violation(m, rows):
    """The first order axiom that the relation ``rows`` breaks, read one pair
    at a time: reflexivity, then antisymmetry, then transitivity, each at its
    lowest x.  The witnesses are x; then x and the lowest y != x related both
    ways; then x, y and z for the lowest z that x misses and some y with
    x <= y <= z reaches, with the lowest such y."""
    def rel(x, y):
        return rows[x] >> y & 1

    for x in range(m):
        if not rel(x, x):
            return Violation("reflexive", (x,))
    for x in range(m):
        for y in range(m):
            if y != x and rel(x, y) and rel(y, x):
                return Violation("antisymmetric", (x, y))
    for x in range(m):
        for z in range(m):
            for y in range(m):
                if not rel(x, z) and rel(x, y) and rel(y, z):
                    return Violation("transitive", (x, y, z))
    return None
