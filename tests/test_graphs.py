import pickle
import random
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from posetgames import (
    MAX_ELEMENTS,
    FormatError,
    Graph,
    KaylesGame,
    SetGame,
    Violation,
    enumerate_labeled_graphs,
    format_graph,
    parse_graph,
    parse_poset,
    parse_setgame,
    phi,
)
from posetgames.graphs import mask_to_sorted

from shapes import complete_graph, graph_sum


def components(g):
    """g's connected components as vertex lists, ordered by lowest vertex."""
    game = KaylesGame(g)
    return [mask_to_sorted(part) for part in game.components(game.initial())]


def small_graphs(max_n=4):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            Graph.of,
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=6,
            )
            if n >= 2
            else st.just(set()),
        )
    )


class TestCompleteGraph:
    """The test helper ``complete_graph``."""

    def test_k2(self):
        g = complete_graph(2)
        assert g.n == 2 and len(g.edges) == 1

    def test_k4(self):
        g = complete_graph(4)
        assert g.n == 4 and len(g.edges) == 6

    def test_k1(self):
        g = complete_graph(1)
        assert g.n == 1 and len(g.edges) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_min_degree(self, k):
        g = complete_graph(k)
        assert min(sum(v in e for e in g.edges) for v in range(k)) == k - 1


class TestDisjointUnion:
    """The test helper ``graph_sum`` lays its parts side by side."""

    def test_two_k2(self):
        g = graph_sum(complete_graph(2), complete_graph(2))
        assert g.n == 4 and len(g.edges) == 2
        assert len(components(g)) == 2

    def test_empty_identity(self):
        empty = Graph.of(0)
        g = graph_sum(empty, complete_graph(4))
        assert g == complete_graph(4)

    def test_k2_k4_counts(self):
        g = graph_sum(complete_graph(2), complete_graph(4))
        assert g.n == 6 and len(g.edges) == 7

    @given(small_graphs(), small_graphs(), small_graphs())
    def test_associative_up_to_relabeling(self, a, b, c):
        left = graph_sum(graph_sum(a, b), c)
        right = graph_sum(a, graph_sum(b, c))
        assert left.n == right.n
        assert len(left.edges) == len(right.edges)
        key = lambda comps: sorted(len(comp) for comp in comps)
        assert key(components(left)) == key(components(right))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)])
    def test_counts(self, n, count):
        graphs = list(enumerate_labeled_graphs(n))
        assert len(graphs) == count
        assert len(set(graphs)) == count
        # enumeration skips validation; each graph must be the one Graph(...) builds
        for g in graphs:
            checked = Graph(n, g.edges)
            assert g == checked and hash(g) == hash(checked)

    def test_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_labeled_graphs(7))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            next(enumerate_labeled_graphs(-1))
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            Graph(-1, frozenset())

    def test_roundtrip_through_text(self):
        for g in enumerate_labeled_graphs(4):
            assert parse_graph(format_graph(g)) == g

    @pytest.mark.parametrize("n", range(7))
    def test_ascending_bitmask_order(self, n):
        # the instance names of the verify suites carry only this index
        pairs = sorted(combinations(range(n), 2))
        naive = [
            frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            for mask in range(1 << len(pairs))
        ]
        assert [g.edges for g in enumerate_labeled_graphs(n)] == naive
        assert {g.n for g in enumerate_labeled_graphs(n)} == {n}

    def test_independent_streams(self):
        a = enumerate_labeled_graphs(3)
        b = enumerate_labeled_graphs(3)
        next(a)
        assert list(b) != list(a)  # b still starts at the empty graph


P3 = Graph.of(3, [(0, 1), (1, 2)])


class TestAdjacency:
    """A Kayles move at v removes v and its neighbours."""

    @given(small_graphs(6))
    @example(complete_graph(2))
    @example(P3)  # the centre removes the whole path
    @example(Graph.of(3, [(0, 1)]))  # vertex 2 is isolated
    @example(graph_sum(P3, complete_graph(2)))
    def test_masks_match_edges(self, g):
        kill = KaylesGame(g).kill
        for v in range(g.n):
            expected = {v} | {u for e in g.edges if v in e for u in e}
            assert kill[v] == sum(1 << u for u in expected)
        # naive components: merge the two endpoints' sets for every edge
        label = {v: {v} for v in range(g.n)}
        for u, v in g.edges:
            if label[u] is not label[v]:
                merged = label[u] | label[v]
                for w in merged:
                    label[w] = merged
        naive = sorted({min(c): c for c in label.values()}.items())
        assert components(g) == [sorted(c) for _, c in naive]

    def test_path_components(self):
        g = Graph.of(6, [(0, 3), (3, 5), (1, 2)])
        assert components(g) == [[0, 3, 5], [1, 2], [4]]


class TestFormat:
    @pytest.mark.parametrize("parse, text, expected", [
        (parse_graph, "2\n  # indented comment\n0 1\n", Graph.of(2, [(0, 1)])),
        (lambda t: parse_poset(t).up, "2\n\t# indented comment\n0 1\n", (0b11, 0b10)),
        (parse_setgame, "1 2\n  # indented comment\n0 1\n", SetGame(2, (0b11,))),
    ])
    def test_comment_lines_only(self, parse, text, expected):
        # a line is a comment when its first non-blank character is '#';
        # a '#' after data on the same line is not a comment
        assert parse(text) == expected
        with pytest.raises(FormatError, match="line 3"):
            parse(text.replace("\n0 1\n", "\n0 1  # edge\n"))

    # each format once: a valid text, and a row its own rule rejects
    FORMATS = [
        pytest.param(parse_graph, "3\n0 1\n1 2\n", "2 1", id="graph"),
        pytest.param(parse_poset, "3\n0 1\n1 2\n", "1 1", id="poset"),
        pytest.param(parse_setgame, "2 3\n0 1\n2\n", "0 3", id="setgame"),
    ]

    @pytest.mark.parametrize("parse, text, bad_row", FORMATS)
    def test_blank_and_comment_lines_before_header(self, parse, text, bad_row):
        assert parse("\n  \n# a comment\n\t\n" + text) == parse(text)

    @pytest.mark.parametrize("parse, header", [
        (parse_graph, "three"), (parse_graph, "-3"), (parse_graph, "3 0"),
        (parse_poset, "3.0"), (parse_poset, "-1"), (parse_poset, "3 3"),
        (parse_setgame, "2 u"), (parse_setgame, "2 -3"), (parse_setgame, "2"), (parse_setgame, "2 3 0"),
    ])
    def test_bad_header(self, parse, header):
        with pytest.raises(FormatError, match="line 3"):
            parse(f"# a comment\n\n{header}\n")

    @pytest.mark.parametrize("parse", [parse_graph, parse_poset, parse_setgame])
    @pytest.mark.parametrize("empty", ["", "\n\n", "# nothing\n  # more\n\n"])
    def test_comment_only_file(self, parse, empty):
        with pytest.raises(FormatError, match="empty") as info:
            parse(empty)
        assert info.value.line is None

    @pytest.mark.parametrize("parse, text, bad_row", FORMATS)
    def test_bad_row_names_its_line(self, parse, text, bad_row):
        rows = text.splitlines()
        with pytest.raises(FormatError, match=f"line {len(rows) + 1}:") as info:
            parse("\n".join(rows[:-1] + ["# a comment", bad_row]) + "\n")
        assert info.value.line == len(rows) + 1

    @pytest.mark.parametrize("parse, text", [
        pytest.param(parse_graph, "10000000000000000000\n0 9223372036854775808\n", id="graph"),
        pytest.param(parse_poset, "10000000000000000000\n0 9223372036854775808\n", id="poset"),
        pytest.param(parse_setgame, "1 10000000000000000000\n9223372036854775808\n", id="setgame"),
    ])
    def test_header_past_maxsize(self, parse, text):
        # past any list's length, and so past the element limit too
        with pytest.raises(FormatError, match="line 1:") as info:
            parse(text)
        assert info.value.line == 1

    @pytest.mark.parametrize("parse, header", [
        pytest.param(parse_graph, f"{MAX_ELEMENTS + 1}", id="graph"),
        pytest.param(parse_poset, f"{MAX_ELEMENTS + 1}", id="poset"),
        pytest.param(parse_setgame, f"0 {MAX_ELEMENTS + 1}", id="setgame-universe"),
        pytest.param(parse_setgame, f"{MAX_ELEMENTS + 1} 0", id="setgame-sets"),
    ])
    def test_header_past_limit(self, parse, header):
        with pytest.raises(FormatError, match=f"^line 1: header value {MAX_ELEMENTS + 1} exceeds") as info:
            parse(f"{header}\n")
        assert info.value.line == 1

    def test_header_at_limit(self):
        assert parse_graph(f"{MAX_ELEMENTS}\n0 {MAX_ELEMENTS - 1}\n").n == MAX_ELEMENTS
        assert parse_poset(f"{MAX_ELEMENTS}\n{MAX_ELEMENTS - 1} 0\n").m == MAX_ELEMENTS
        s = parse_setgame(f"{MAX_ELEMENTS} {MAX_ELEMENTS}\n{MAX_ELEMENTS - 1}\n" + "\n" * MAX_ELEMENTS)
        assert (s.k, s.universe, s.masks[0]) == (MAX_ELEMENTS, MAX_ELEMENTS, 1 << MAX_ELEMENTS - 1)

    def test_comments_and_blanks(self):
        g = parse_graph("# a triangle\n3\n\n0 1\n1 2\n# done\n0 2\n")
        assert g == complete_graph(3)
        assert parse_poset("# a chain\n3\n0 1\n\n1 2\n").up == (0b111, 0b110, 0b100)

    def test_duplicate_edge(self):
        with pytest.raises(FormatError, match="line 4"):
            parse_graph("3\n0 1\n1 2\n0 1\n")

    def test_out_of_range_edge(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("2\n0 2\n")

    def test_unordered_edge_rejected(self):
        with pytest.raises(FormatError):
            parse_graph("3\n2 1\n")

    def test_empty_file(self):
        with pytest.raises(FormatError):
            parse_graph("# nothing\n")


class TestGraphInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.of(2, [(1, 1)])

    def test_endpoint_range(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 2)}))


# each immutable record: a value, an equal one built apart, a different one, and its repr
RECORDS = [
    pytest.param(
        lambda: Graph.of(2, [(1, 0)]), lambda: Graph(2, frozenset({(0, 1)})), lambda: Graph(2, frozenset()),
        "Graph(n=2, edges=frozenset({(0, 1)}))", id="Graph",
    ),
    pytest.param(
        lambda: SetGame(3, [0b011, 0b100]), lambda: parse_setgame("2 3\n0 1\n2\n"), lambda: SetGame(3, [0b100, 0b011]),
        "SetGame(universe=3, masks=(3, 4))", id="SetGame",
    ),
    pytest.param(
        lambda: Violation("transitive", (0, 1, 2)), lambda: Violation("transitive", (0, 1, 2)),
        lambda: Violation("reflexive", (0, 1, 2)),
        "Violation(axiom='transitive', witnesses=(0, 1, 2))", id="Violation",
    ),
    pytest.param(
        lambda: phi(complete_graph(2)), lambda: phi(Graph.of(2, [(0, 1)])), lambda: phi(complete_graph(3)),
        "PhiImage(poset=Poset(m=4), source=Graph(n=2, edges=frozenset({(0, 1)})), edge_order=((0, 1),))",
        id="PhiImage",
    ),
]


class TestRecords:
    """Graph, SetGame, Violation and PhiImage are values: equal by their
    fields, hashable, immutable, and they survive pickling (``verify --jobs``
    sends graphs to its workers)."""

    @pytest.mark.parametrize("make, same, other, text", RECORDS)
    def test_equality_and_hash(self, make, same, other, text):
        a, b, c = make(), same(), other()
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != c and not a == c
        assert a != text
        assert len({a, b, c}) == 2

    @pytest.mark.parametrize("make, same, other, text", RECORDS)
    def test_repr(self, make, same, other, text):
        assert repr(make()) == text

    @pytest.mark.parametrize("make, same, other, text", RECORDS)
    def test_assignment_refused(self, make, same, other, text):
        a = make()
        field = text[text.index("(") + 1:text.index("=")]
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert getattr(a, field) is before and a == same()

    @pytest.mark.parametrize("protocol", [2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
    @pytest.mark.parametrize("make, same, other, text", RECORDS)
    def test_pickle_round_trip(self, make, same, other, text, protocol):
        a = make()
        b = pickle.loads(pickle.dumps(a, protocol))
        assert type(b) is type(a) and b == a and hash(b) == hash(a) and repr(b) == text
        with pytest.raises(AttributeError):
            setattr(b, text[text.index("(") + 1:text.index("=")], None)

    def test_violation_str(self):
        assert str(Violation("reflexive", (4,))) == "reflexive violated at (4,)"


def _seeded_mask(bits, density, seed):
    rng = random.Random(seed)
    return sum(1 << i for i in range(bits) if rng.random() < density)


@pytest.mark.parametrize("mask", [
    0,
    1 << 1499,
    _seeded_mask(1500, 0.5, 1),
    _seeded_mask(1500, 0.02, 2),
    1 << 9999,
    1 << 9990 | 1 << 9999,
    _seeded_mask(1500, 0.3, 3) << 700,
], ids=["zero", "bit-1499", "dense-1500", "sparse-1500", "bit-9999", "bits-9990-9999", "shifted-700"])
def test_mask_to_sorted_against_per_bit_reference(mask):
    assert mask_to_sorted(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]
