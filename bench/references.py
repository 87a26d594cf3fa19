"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports posetgames: every answer is derived from the game
definitions, so a defect in the solver, a reduction or a parser under test
cannot also hide in the answer it is checked against.
"""

from __future__ import annotations

import random
from math import comb


def mex(values) -> int:
    g = 0
    while g in values:
        g += 1
    return g


def dawson_path_grundy(n: int) -> int:
    """Node Kayles on the path P_n: picking vertex i leaves P_(i-1) and
    P_(n-i-2), so g(P_n) = mex{g(P_max(i-1,0)) xor g(P_max(n-i-2,0))}."""
    g = [0] * (n + 1)
    for k in range(1, n + 1):
        g[k] = mex({g[max(i - 1, 0)] ^ g[max(k - i - 2, 0)] for i in range(k)})
    return g[n]


def chain_grundy(length: int) -> int:
    """A chain of any length is the nim heap of that size."""
    return length


def sum_grundy(*parts: int) -> int:
    """Sprague-Grundy: the value of a disjoint sum is the xor of its parts."""
    out = 0
    for p in parts:
        out ^= p
    return out


def random_graph(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) edge list, each u < v pair present with probability p."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def kayles_grundy(n: int, edges) -> int:
    """Grundy number of Node Kayles on a graph, summed over its components.

    Each connected piece of a position is solved once and memoised by its
    vertex mask, so sparse graphs on a few dozen vertices stay cheap.
    """
    nbhd = [1 << v for v in range(n)]
    for u, v in edges:
        nbhd[u] |= 1 << v
        nbhd[v] |= 1 << u

    def components(mask: int):
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = nbhd[v] & mask & ~comp
                comp |= new
                frontier |= new
            yield comp
            mask &= ~comp

    memo: dict[int, int] = {}

    def connected(mask: int) -> int:
        if mask not in memo:
            seen = set()
            for v in bits(mask):
                seen.add(sum_grundy(*(connected(c) for c in components(mask & ~nbhd[v]))))
            memo[mask] = mex(seen)
        return memo[mask]

    return sum_grundy(*(connected(c) for c in components((1 << n) - 1)))


def closure(m: int, pairs) -> list[int]:
    """Reflexive-transitive closure as up-set bitmask rows (Warshall)."""
    rows = [1 << x for x in range(m)]
    for x, y in pairs:
        rows[x] |= 1 << y
    for k in range(m):
        bit, row_k = 1 << k, rows[k]
        for x in range(m):
            if rows[x] & bit:
                rows[x] |= row_k
    return rows


def cover_pairs(rows: list[int]) -> set[tuple[int, int]]:
    """(x, y) with x < y and nothing strictly between, from closed rows."""
    covers = set()
    for x, row in enumerate(rows):
        strict = row & ~(1 << x)
        above = 0
        for z in bits(strict):
            above |= rows[z] & ~(1 << z)
        covers.update((x, y) for y in bits(strict & ~above))
    return covers


def graph_count(n: int) -> int:
    return 2 ** comb(n, 2)


def regime_instances(suite: str, max_n: int, random_posets: int = 200) -> int:
    """Instance count of a verification regime, from its definition.

    Graph suites run every labeled graph on 1..max_n vertices.  The set-game
    suite adds the phi images of graphs on up to 3 vertices to the random
    posets.  A vertex-level lemma with ``which`` chosen endpoints runs every
    (chosen set, edge) pair of the padded graph for sources on up to 3
    vertices (C(2, which) * 2^(|V|-2) per edge), and 32 samples per larger
    source; padding a graph with k edges adds K2+K2 (4 vertices, 2 edges)
    when k is odd and K2+K4 (6 vertices, 7 edges) when k is even.
    """
    if suite in ("theorem", "lemma1", "psi"):
        return sum(graph_count(n) for n in range(1, max_n + 1))
    if suite == "setgame":
        return sum(graph_count(n) for n in range(1, min(max_n, 3) + 1)) + random_posets
    which = {"lemma2": 2, "lemma3": 1, "lemma4": 0}[suite]
    total = 0
    for n in range(1, max_n + 1):
        pairs = comb(n, 2)
        if n > 3:
            total += 32 * graph_count(n)
            continue
        for k in range(pairs + 1):
            nv, ne = (n + 4, k + 2) if k % 2 else (n + 6, k + 7)
            total += comb(pairs, k) * ne * comb(2, which) * 2 ** (nv - 2)
    return total
