"""Finite simple undirected graphs on dense integer vertices."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Iterator

ENUMERATION_CAP = 6


class FormatError(ValueError):
    """Raised on malformed graph/poset/set-game text, with a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; vertices are 0..n-1, edges are (u, v) with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not 0 <= u < v < n:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")

    @classmethod
    def _unchecked(cls, n: int, edges: frozenset[tuple[int, int]]) -> "Graph":
        """A graph from edges already known to be in range and normalized."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        return self

    @classmethod
    def of(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """Build a graph, normalizing each edge to (min, max) order."""
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n, norm)


_BITS = bytes.maketrans(b"01", b"\0\1")


def mask_to_sorted(mask: int) -> list[int]:
    """The set bits of a non-negative mask, lowest first.

    ``bin(mask)`` is read from its low end as bytes of 0 and 1, which
    select their indices, so the decode runs in C and in linear time.
    """
    bits = bin(mask)[:1:-1].encode().translate(_BITS)
    return list(compress(range(len(bits)), bits))


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(k, frozenset(combinations(range(k), 2)))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are shifted up by a.n."""
    shifted = ((u + a.n, v + a.n) for u, v in b.edges)
    return Graph(a.n + b.n, a.edges | frozenset(shifted))


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled simple graphs on n vertices.

    Deterministic order: the possible edges are sorted lexicographically and
    graphs are yielded by ascending edge-subset bitmask.  The edge set of
    every subset of the low and of the high half of the edges is built once,
    so each graph's edges are one union of a high and a low subset.
    """
    if n > ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    pairs = list(combinations(range(n), 2))  # already in lexicographic order
    half = (len(pairs) + 1) // 2
    low, high = _subsets(pairs[:half]), _subsets(pairs[half:])
    for hi in high:  # mask = index of hi << half | index of lo, ascending
        for lo in low:
            yield Graph._unchecked(n, lo | hi)


def _subsets(items: list) -> list[frozenset]:
    """``out[mask]``: the frozenset of the items whose bits are set in mask."""
    out = [frozenset()]
    for item in items:
        out += [s | {item} for s in out]
    return out


def parse_graph(text: str) -> Graph:
    """Parse the graph text format: first line n, then "u v" edge lines.

    Lines whose first non-blank character is '#' are comments; duplicate or
    out-of-range edges are errors.
    """
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise FormatError(f"expected vertex count, got {line!r}", lineno)
            if n < 0:
                raise FormatError("vertex count must be non-negative", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer endpoint in {line!r}", lineno)
        if not 0 <= u < v < n:
            raise FormatError(f"edge ({u}, {v}) violates 0 <= u < v < {n}", lineno)
        if (u, v) in edges:
            raise FormatError(f"duplicate edge ({u}, {v})", lineno)
        edges.add((u, v))
    if n is None:
        raise FormatError("empty graph file")
    return Graph(n, frozenset(edges))


def format_graph(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
