"""Finite posets stored as the full <= relation, with bitmask positions.

The canonical in-memory form is the reflexive-transitive closure: ``up[x]``
is the bitmask of every y with x <= y (the upper cone of x).  Positions in
the poset game are plain ints used as bitmasks over element indices, which
keeps arbitrary element counts cheap (Python ints grow as needed).

Every poset also holds its lower cones: bit y of ``down[x]`` is set iff
y <= x.  Whoever builds the order builds them with it.  ``Poset.from_pairs``
closes a list of generating pairs by a depth-first pass over direct-successor
masks (Purdom, "A transitive closure algorithm", BIT 10, 1970): each cone is
its own bit OR the finished cones of its direct successors, so the work
follows the pairs rather than m * m, and a back edge on the search stack is
reported as a cycle.  The same pass over direct-predecessor masks gives the
lower cones.  ``phi`` writes both in closed form.  So no bit matrix is ever
transposed.  The poset game ORs the two into its comparability rows.

A poset is built by ``Poset.from_pairs`` (or ``parse_poset``, which calls
it) and by ``phi``; both go through ``Poset._closed``.  Rows from elsewhere
are checked with ``validate_relation``, never taken as an order.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable, Iterator, Sequence

from .graphs import FormatError, _read, _Record, mask_to_sorted


class Violation(_Record):
    """First order-axiom violation found, with witnessing indices."""

    __slots__ = ("axiom", "witnesses")
    axiom: str  # "reflexive" | "antisymmetric" | "transitive"
    witnesses: tuple[int, ...]

    def __init__(self, axiom: str, witnesses: tuple[int, ...]):
        object.__setattr__(self, "axiom", axiom)
        object.__setattr__(self, "witnesses", witnesses)

    def __str__(self):
        return f"{self.axiom} violated at {self.witnesses}"


def validate_relation(m: int, rows: Sequence[int]) -> Violation | None:
    """Check a raw m x m relation (row bitmasks) against the order axioms.

    Raises ValueError when ``rows`` cannot be an m x m relation: a negative
    m, fewer than m rows, or a row with a bit at or above m.
    """
    if m < 0:
        raise ValueError("element count must be non-negative")
    if len(rows) < m:
        raise ValueError(f"relation has {len(rows)} rows, expected {m}")
    for x in range(m):
        if rows[x] >> m:
            raise ValueError(f"row {x} has bits outside elements 0..{m - 1}")
    for x in range(m):
        if not rows[x] >> x & 1:
            return Violation("reflexive", (x,))
    for x in range(m):
        bit = 1 << x
        for y in mask_to_sorted(rows[x] ^ bit):
            if rows[y] & bit:
                return Violation("antisymmetric", (x, y))
    for x in range(m):
        reach = 0
        ys = rows[x]
        while ys:
            low = ys & -ys
            reach |= rows[low.bit_length() - 1]
            ys ^= low
        extra = reach & ~rows[x]
        if extra:
            z = (extra & -extra).bit_length() - 1
            # recover some y with x<=y and y<=z for the witness
            for y in range(m):
                if rows[x] >> y & 1 and rows[y] >> z & 1:
                    return Violation("transitive", (x, y, z))
    return None


class Poset:
    """Immutable finite poset on elements 0..m-1.

    Built only as an order: ``Poset(...)`` itself refuses every argument."""

    __slots__ = ("m", "up", "down", "_covers")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Poset with Poset.from_pairs or parse_poset")

    @classmethod
    def _closed(cls, m, up, down) -> "Poset":
        """A poset from rows already known to be a partial order, and their
        lower cones ``down``."""
        self = object.__new__(cls)
        self.m = m
        self.up = tuple(up)
        self.down = tuple(down)
        self._covers = None
        return self

    @classmethod
    def from_pairs(cls, m: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Close an arbitrary sub-relation reflexively and transitively.

        The upper cones are closed over the direct successors of each
        element, the lower cones over its direct predecessors (``_cones``).
        Raises ValueError for a negative m, a pair out of range, or a cycle,
        found by the pass over the successors, which names one of its pairs.
        """
        if m < 0:
            raise ValueError("element count must be non-negative")
        succ = [0] * m
        pred = [0] * m
        for x, y in pairs:
            if not (0 <= x < m and 0 <= y < m):
                raise ValueError(f"pair ({x}, {y}) out of range for m={m}")
            succ[x] |= 1 << y
            pred[y] |= 1 << x
        return cls._closed(m, _cones(m, succ), _cones(m, pred))

    def leq(self, x: int, y: int) -> bool:
        if not (0 <= x < self.m and 0 <= y < self.m):
            raise ValueError(f"pair ({x}, {y}) out of range for m={self.m}")
        return bool(self.up[x] >> y & 1)

    def cover_pairs(self) -> Iterator[tuple[int, int]]:
        """Transitive reduction: (x, y) with x < y and nothing strictly between.

        Ordered by x, then y, and read off one mask of covers per element
        (``_covers``), built on first use.
        """
        if self._covers is None:
            self._covers = tuple(_covers(self.m, self.up))
        return ((x, y) for x, row in enumerate(self._covers) for y in mask_to_sorted(row))

    def __eq__(self, other):
        return isinstance(other, Poset) and self.m == other.m and self.up == other.up

    def __hash__(self):
        return hash((self.m, self.up))

    def __repr__(self):
        return f"Poset(m={self.m})"


def _covers(m: int, up: Sequence[int]) -> list[int]:
    """``covers[x]``: the mask of the elements that cover x in the order whose
    upper cones are ``up``.

    Read from ``up`` alone: the strict cone of x is walked from its lowest
    remaining index y, each step marking what lies strictly above y and
    dropping y's cone from the walk.  An element above some other element of
    the cone is marked, whatever the index order, so what stays unmarked are
    the covers of x.
    """
    covers = []
    for x in range(m):
        strict = up[x] ^ (1 << x)
        rest, above = strict, 0
        while rest:
            y = (rest & -rest).bit_length() - 1
            above |= up[y] ^ (1 << y)
            rest &= ~up[y]
        covers.append(strict & ~above)
    return covers


def _cones(m: int, succ: Sequence[int]) -> list[int]:
    """Reflexive-transitive cones of the relation whose direct successors of
    x are the mask ``succ[x]``.

    One depth-first pass: an element's cone is its own bit OR the cones of
    its direct successors, each finished first; a successor already inside
    the cone built so far is skipped.  The search keeps its path on an
    explicit stack, so long chains do not recurse.  Raises ValueError when a
    successor is still on the stack, naming that pair as a cycle
    (antisymmetry failure).
    """
    cones = [1 << x for x in range(m)]
    state = bytearray(m)  # 0 unseen, 1 on the stack, 2 finished
    for root in range(m):
        if state[root]:
            continue
        state[root] = 1
        stack = [root]
        while stack:
            x = stack[-1]
            cone = cones[x]
            rest = succ[x] & ~cone
            while rest:
                y = (rest & -rest).bit_length() - 1
                if state[y] != 2:
                    break
                cone |= cones[y]
                rest &= ~cone
            cones[x] = cone
            if rest:
                if state[y]:
                    raise ValueError(f"cycle between elements {x} and {y}")
                state[y] = 1
                stack.append(y)
            else:
                state[x] = 2
                stack.pop()
    return cones


def antichain(m: int) -> Poset:
    return Poset.from_pairs(m, ())


def chain(m: int) -> Poset:
    return Poset.from_pairs(m, ((i, i + 1) for i in range(m - 1)))


def random_poset(m: int, density: float, seed: int) -> Poset:
    """Random poset: each x < y pair related with the given probability,
    then closed.  Deterministic for a fixed (m, density, seed)."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = random.Random(seed)
    pairs = [
        (x, y)
        for x in range(m)
        for y in range(x + 1, m)
        if rng.random() < density
    ]
    return Poset.from_pairs(m, pairs)


def to_dot(p: Poset, levels: Sequence[str] | None = None) -> str:
    """Hasse diagram as DOT: cover edges only, oriented lower -> upper.

    ``levels``, when given, holds one label per element, written as its
    ``level`` attribute; ``PhiImage.levels`` holds a phi image's A/B/C labels.
    Raises ValueError unless there is exactly one label per element."""
    if levels is not None and len(levels) != p.m:
        raise ValueError(f"{len(levels)} level labels for {p.m} elements")
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for x in range(p.m):
        lines.append(f"  {x};" if levels is None else f'  {x} [level="{levels[x]}"];')
    for x, y in p.cover_pairs():
        lines.append(f"  {x} -> {y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_poset(text: str) -> Poset:
    """Parse the poset text format: header m, then "x y" meaning x <= y.

    The listed pairs may be any sub-relation; the loader takes the
    reflexive-transitive closure and rejects cycles.
    """
    (m,), rows = _read(text, "poset", "m")
    lows, highs = array("q"), array("q")  # the pairs, without a tuple each
    for lineno, tokens in rows:
        if not tokens:
            continue
        try:
            x, y = tokens
            x, y = int(x), int(y)
        except ValueError:
            raise FormatError(f"expected 'x y', got {' '.join(tokens)!r}", lineno)
        if x == y or not (0 <= x < m and 0 <= y < m):
            raise FormatError(f"pair ({x}, {y}) must relate distinct elements below {m}", lineno)
        lows.append(x)
        highs.append(y)
    try:
        return Poset.from_pairs(m, zip(lows, highs))
    except ValueError as exc:
        raise FormatError(str(exc))


def format_poset(p: Poset) -> str:
    """Serialize the cover pairs (the Hasse diagram); re-parsing closes them
    back into the same relation."""
    lines = [str(p.m)]
    lines.extend(f"{x} {y}" for x, y in p.cover_pairs())
    return "\n".join(lines) + "\n"
