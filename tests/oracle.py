"""Naive reference solvers used to cross-check the production solver.

Plain recursion over Python sets, no memoization, no move ordering, and
independent move logic (closed neighborhoods / upper cones recomputed from
the raw graph / relation each call).  Only usable on tiny instances.
"""


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
