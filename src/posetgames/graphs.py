"""Finite simple undirected graphs on dense integer vertices."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations, compress

ENUMERATION_CAP = 6
# the largest value a file's header may hold: a game keeps one mask of up to
# this many bits per element (README "File formats" gives what that costs)
MAX_ELEMENTS = 10_000


class FormatError(ValueError):
    """Raised on malformed graph/poset/set-game text, with a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _read(text: str, kind: str, header: str) -> tuple[list[int], Iterator[tuple[int, list[str]]]]:
    """Split a graph, poset or set-game text into its header and its rows.

    The three formats share this grammar: a line whose first non-blank
    character is '#' is a comment, anywhere in the file; blank lines before
    the header are skipped; the header is one non-negative integer per word
    of ``header``, each at most ``MAX_ELEMENTS``.  Returns the header's
    integers and an iterator of ``(line number, tokens)`` over the later
    lines that are not comments, with lines counted from 1; a blank line has
    no tokens.  Each format converts the tokens of its own rows.
    """
    rows = (
        (lineno, tokens)
        for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1)
        if not tokens or tokens[0][0] != "#"
    )
    for lineno, tokens in rows:
        if tokens:
            break
    else:
        raise FormatError(f"empty {kind} file")
    try:
        values = [int(tok) for tok in tokens]
        if len(values) != len(header.split()) or min(values) < 0:
            raise ValueError
    except ValueError:
        raise FormatError(f"expected {header!r} as non-negative integers, got {' '.join(tokens)!r}", lineno)
    if max(values) > MAX_ELEMENTS:
        raise FormatError(f"header value {max(values)} exceeds the element limit, {MAX_ELEMENTS}", lineno)
    return values, rows


class _Record:
    """An immutable value whose fields are its ``__slots__``.

    Equality, hash and repr are those of the tuple of fields, as for a frozen
    dataclass, without the code generation that a dataclass compiles at
    import.  Assignment raises AttributeError; constructors set the fields
    with ``object.__setattr__``, and pickling rebuilds a record from its
    fields without calling ``__init__``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (self.__class__, self._fields())


def _rebuild(cls, fields):
    """The record of class ``cls`` with these field values, unchecked."""
    self = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(self, name, value)
    return self


class Graph(_Record):
    """Simple undirected graph; vertices are 0..n-1, edges are (u, v) with u < v."""

    __slots__ = ("n", "edges")
    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in edges:
            if not 0 <= u < v < n:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

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

    The mask is shifted down to its lowest set bit, and its ``bin`` is read
    from the low end as bytes of 0 and 1, which select their indices.  So
    the decode runs in C, in time linear in the span from the lowest set bit
    to the highest.
    """
    if not mask:
        return []
    low = (mask & -mask).bit_length() - 1
    bits = bin(mask >> low)[:1:-1].encode().translate(_BITS)
    return list(compress(range(low, low + len(bits)), bits))


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled simple graphs on n vertices.

    Deterministic order: the possible edges are sorted lexicographically and
    graphs are yielded by ascending edge-subset bitmask.  The edge set of
    every subset of the low and of the high half of the edges is built once,
    so each graph's edges are one union of a high and a low subset.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
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
    """Parse the graph text format: header n, then "u v" edge lines.

    Duplicate or out-of-range edges are errors.
    """
    (n,), rows = _read(text, "graph", "n")
    edges: set[tuple[int, int]] = set()
    for lineno, tokens in rows:
        if not tokens:
            continue
        try:
            u, v = tokens
            u, v = int(u), int(v)
        except ValueError:
            raise FormatError(f"expected 'u v', got {' '.join(tokens)!r}", lineno)
        if not 0 <= u < v < n:
            raise FormatError(f"edge ({u}, {v}) violates 0 <= u < v < {n}", lineno)
        if (u, v) in edges:
            raise FormatError(f"duplicate edge ({u}, {v})", lineno)
        edges.add((u, v))
    return Graph(n, frozenset(edges))


def format_graph(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
