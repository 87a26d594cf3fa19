import pickle
import re

import pytest
from hypothesis import given, strategies as st

from posetgames import (
    FormatError,
    Graph,
    Poset,
    PosetGame,
    chain,
    enumerate_labeled_graphs,
    format_poset,
    parse_poset,
    phi,
    random_poset,
    to_dot,
    validate_relation,
)
from posetgames.posets import mask_to_sorted

from oracle import is_down_set, naive_closure, naive_transpose, naive_violation
from shapes import antichain, complete_graph, poset_sum


@st.composite
def relations(draw):
    """m x m relations over m <= 7 elements.  Half are the cones of a random
    poset with up to three bits flipped, so orders and near-orders come up
    often; the rest are arbitrary rows, most of them with the diagonal set."""
    m = draw(st.integers(0, 7))
    if draw(st.booleans()):
        rows = list(random_poset(m, draw(st.floats(0, 1)), draw(st.integers(0, 999))).up)
        for _ in range(draw(st.integers(0, 3)) if m else 0):
            rows[draw(st.integers(0, m - 1))] ^= 1 << draw(st.integers(0, m - 1))
        return m, rows
    diagonal = draw(st.integers(0, 3)) > 0
    return m, [draw(st.integers(0, (1 << m) - 1)) | diagonal << x for x in range(m)]


class TestValidate:
    @given(relations())
    def test_matches_naive_violation(self, case):
        """The first violation and its witnesses are those of a pair-by-pair
        reading of the axioms, and a valid relation is its own closure:
        ``from_pairs`` on its pairs gives back its rows, with their transpose
        as the lower cones."""
        m, rows = case
        bad = validate_relation(m, rows)
        assert bad == naive_violation(m, rows)
        if bad is None:
            p = Poset.from_pairs(m, [(x, y) for x in range(m) for y in mask_to_sorted(rows[x])])
            assert p.up == tuple(rows)
            assert p.down == tuple(naive_transpose(m, rows))

    def test_singleton_ok(self):
        assert validate_relation(1, [0b1]) is None

    def test_antisymmetry_violation(self):
        rows = [0b11, 0b11]  # 0<=1 and 1<=0
        v = validate_relation(2, rows)
        assert v.axiom == "antisymmetric"
        assert set(v.witnesses) == {0, 1}

    def test_transitivity_violation(self):
        rows = [0b011, 0b110, 0b100]  # 0<=1, 1<=2, but not 0<=2
        v = validate_relation(3, rows)
        assert v.axiom == "transitive"
        assert v.witnesses == (0, 1, 2)

    def test_reflexivity_violation(self):
        v = validate_relation(2, [0b01, 0b00])
        assert v.axiom == "reflexive"
        assert v.witnesses == (1,)

    def test_constructor_rejects_invalid(self):
        for m, rows in [(2, [0b11, 0b11]), (2, [0b101, 0b10]), (-1, [])]:
            with pytest.raises(TypeError, match="Poset.from_pairs or parse_poset"):
                Poset(m, rows)

    def test_constructor_refuses_an_order(self):
        """``Poset(m, rows)`` builds nothing even from an order's cones: an
        order comes from ``from_pairs``, which closes and checks its pairs."""
        for m, rows in [(2, [0b11, 0b10]), (1, [0b1]), (0, [])]:
            with pytest.raises(TypeError, match="Poset.from_pairs or parse_poset"):
                Poset(m, rows)
        with pytest.raises(TypeError):
            Poset(m=2, up=(0b11, 0b10))

    def test_row_beyond_m_is_value_error(self):
        with pytest.raises(ValueError, match="outside elements"):
            validate_relation(2, [0b101, 0b10])

    def test_missing_rows_is_value_error(self):
        with pytest.raises(ValueError, match="rows"):
            validate_relation(3, [0b1, 0b10])

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError, match="element count must be non-negative"):
            validate_relation(-1, [])


class TestUpperCone:
    def test_maximal_element(self):
        assert chain(3).up[2] == 0b100

    def test_chain_bottom(self):
        assert chain(3).up[0] == 0b111

    def test_phi_k2_vertex(self):
        # elements: 0 = low edge copy, 1 = v1, 2 = v2, 3 = edge
        image = phi(complete_graph(2))
        assert mask_to_sorted(image.poset.up[image.b_elements()[0]]) == [1, 3]


class TestRange:
    @pytest.mark.parametrize("x, y", [(-1, 2), (2, -1), (3, 0), (0, 3)])
    def test_leq_out_of_range(self, x, y):
        with pytest.raises(ValueError, match="out of range"):
            chain(3).leq(x, y)


class TestRemoveCone:
    """Taking x removes x and everything above it (``PosetGame.apply``)."""

    def test_antichain(self):
        assert PosetGame(antichain(3)).apply(0b111, 1) == 0b101

    def test_chain_bottom_clears(self):
        assert PosetGame(chain(3)).apply(0b111, 0) == 0

    def test_phi_k2_remove_edge(self):
        image = phi(complete_graph(2))
        game = PosetGame(image.poset)
        pos = game.apply(game.initial(), image.c_elements()[image.edge_order.index((0, 1))])
        assert set(mask_to_sorted(pos)) == {0, 1, 2}  # low copy and both vertices

    def test_absent_element_rejected(self):
        with pytest.raises(ValueError):
            PosetGame(antichain(2)).apply(0b01, 1)

    @given(st.integers(1, 7), st.floats(0, 1), st.integers(0, 50), st.data())
    def test_result_is_down_set(self, m, density, seed, data):
        p = random_poset(m, density, seed)
        game = PosetGame(p)
        pos = game.initial()
        while pos:
            assert is_down_set(p, pos)
            x = data.draw(st.sampled_from(mask_to_sorted(pos)))
            pos = game.apply(pos, x)


class TestRandomPoset:
    def test_density_zero_is_antichain(self):
        assert random_poset(5, 0.0, 1) == antichain(5)

    def test_density_one_is_chain(self):
        assert random_poset(5, 1.0, 1) == chain(5)

    def test_deterministic(self):
        assert random_poset(8, 0.4, 123) == random_poset(8, 0.4, 123)

    @given(st.integers(0, 8), st.floats(0, 1), st.integers(0, 10**6))
    def test_always_valid(self, m, density, seed):
        p = random_poset(m, density, seed)
        assert validate_relation(p.m, p.up) is None

    def test_bad_density(self):
        with pytest.raises(ValueError):
            random_poset(3, 1.5, 0)


class TestUpperConeClosure:
    @given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 100))
    def test_cone_is_up_closed(self, m, density, seed):
        p = random_poset(m, density, seed)
        for x in range(m):
            cone = p.up[x]
            assert cone >> x & 1
            for y in mask_to_sorted(cone):
                for z in range(m):
                    if p.leq(y, z):
                        assert cone >> z & 1


class TestDownSets:
    @given(
        st.integers(0, 8),
        st.floats(0, 1),
        st.integers(0, 100),
        st.integers(0, 4),
    )
    def test_down_is_the_transpose_of_up(self, m, density, seed, extra):
        p = poset_sum(random_poset(m, density, seed), chain(extra))
        # the same order rebuilt from all its comparable pairs, not only its covers
        every = Poset.from_pairs(p.m, [(x, y) for x in range(p.m) for y in mask_to_sorted(p.up[x])])
        for q in (p, every):
            below = lambda x: {y for y in range(q.m) if q.leq(y, x)}
            # cover_pairs reads up alone, and down comes with the poset
            assert sorted(q.cover_pairs()) == [
                (x, y)
                for x in range(q.m)
                for y in range(q.m)
                if x != y and q.leq(x, y)
                and not any(q.leq(x, z) and q.leq(z, y) for z in set(range(q.m)) - {x, y})
            ]
            for x in range(q.m):
                assert set(mask_to_sorted(q.down[x])) == below(x)
        assert every == p


class TestImmutable:
    """A poset's hash and equality read its fields, and its lower cones and
    cached covers follow from ``up``: no field can be assigned or deleted,
    before or after the covers are cached, and a refused write changes
    nothing."""

    @pytest.mark.parametrize("cached", [False, True], ids=["fresh", "covers-cached"])
    @pytest.mark.parametrize("name", Poset.__slots__)
    def test_fields_refuse_writes(self, name, cached):
        p = chain(3)
        if cached:
            list(p.cover_pairs())
        before = (p.m, p.up, p.down, p._covers, hash(p))
        with pytest.raises(AttributeError, match=name):
            setattr(p, name, (1, 2, 4))
        with pytest.raises(AttributeError, match=name):
            delattr(p, name)
        assert (p.m, p.up, p.down, p._covers, hash(p)) == before
        assert p == chain(3)


class TestPickle:
    """``verify --jobs`` sends posets to its workers: phi images and random
    posets must come back with every table they left with."""

    @pytest.mark.parametrize("protocol", [2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
    @pytest.mark.parametrize("build", [
        lambda: random_poset(9, 0.3, 4),
        lambda: phi(Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])).poset,
        lambda: antichain(0),
        lambda: chain(70),
    ], ids=["random", "phi", "empty", "chain-70"])
    def test_round_trip(self, build, protocol):
        p = build()
        q = pickle.loads(pickle.dumps(p, protocol))
        assert type(q) is Poset and (q.m, q.up, q.down) == (p.m, p.up, p.down)
        assert q == p and hash(q) == hash(p)
        assert list(q.cover_pairs()) == list(p.cover_pairs())
        # once cover_pairs has cached the covers, they travel too
        r = pickle.loads(pickle.dumps(p, protocol))
        assert r._covers == p._covers is not None and r.down == p.down


@st.composite
def pair_lists(draw):
    """Pair lists over m <= 12 elements, duplicates and self-pairs allowed.
    Half of them point upward only, so acyclic inputs come up often."""
    m = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=3 * m))
    if draw(st.booleans()):
        pairs = [(min(x, y), max(x, y)) for x, y in pairs]
    return m, pairs


class TestClosure:
    M = 3000  # deep enough that a recursive search would hit the recursion limit

    @given(pair_lists(), st.data())
    def test_matches_naive_closure(self, case, data):
        """Both cones against the naive closure and its transpose, also when
        the pairs repeat or hold pairs the closure implies, and the same
        after a parse of the formatted cover pairs.  A cycle is reported by
        the pass over the upper cones, which names a listed pair."""
        m, pairs = case
        rows = naive_closure(m, pairs)
        mutual = {
            (x, y)
            for x in range(m)
            for y in range(m)
            if x != y and rows[x] >> y & 1 and rows[y] >> x & 1
        }
        if not mutual:
            implied = [(x, y) for x in range(m) for y in mask_to_sorted(rows[x]) if x != y]
            extra = data.draw(st.lists(st.sampled_from(implied), max_size=2 * m)) if implied else []
            p = Poset.from_pairs(m, data.draw(st.permutations(pairs + pairs[: len(pairs) // 2] + extra)))
            assert p.up == tuple(rows)
            assert p.down == tuple(naive_transpose(m, rows))
            q = parse_poset(format_poset(p))
            assert (q.up, q.down) == (p.up, p.down)
            return
        with pytest.raises(ValueError, match="cycle") as exc:
            Poset.from_pairs(m, pairs)
        x, y = map(int, re.findall(r"\d+", str(exc.value)))
        assert (x, y) in mutual and (x, y) in pairs

    def test_cycle_named_by_the_up_pass(self):
        # the pass over the lower cones would name (1, 0), a pair it walks backward
        with pytest.raises(ValueError, match="cycle between elements 2 and 0"):
            Poset.from_pairs(3, [(0, 1), (1, 2), (2, 0)])

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError, match="out of range"):
            Poset.from_pairs(2, [(0, 2)])

    @pytest.mark.parametrize("build", [
        lambda: Poset.from_pairs(-1, ()),
        lambda: chain(-1),
        lambda: antichain(-1),
        lambda: random_poset(-1, 0.5, 0),
    ], ids=["from_pairs", "chain", "antichain", "random_poset"])
    def test_negative_m_rejected(self, build):
        with pytest.raises(ValueError, match="element count must be non-negative"):
            build()

    def test_deep_chain_bottom_first(self):
        p = Poset.from_pairs(self.M, [(i, i + 1) for i in range(self.M - 1)])
        full = (1 << self.M) - 1
        assert p.up == tuple(full & ~((1 << i) - 1) for i in range(self.M))

    def test_deep_chain_top_first(self):
        p = Poset.from_pairs(self.M, [(i + 1, i) for i in range(self.M - 1)])
        assert p.up == tuple((1 << (i + 1)) - 1 for i in range(self.M))

    def test_deep_cycle_is_value_error(self):
        up_chain = [(i, i + 1) for i in range(self.M - 1)] + [(self.M - 1, 0)]
        down_chain = [(i + 1, i) for i in range(self.M - 1)] + [(0, self.M - 1)]
        for pairs in (up_chain, down_chain):
            with pytest.raises(ValueError, match="cycle"):
                Poset.from_pairs(self.M, pairs)

    def test_parse_long_cycle(self):
        lines = [str(self.M)] + [f"{i} {i + 1}" for i in range(self.M - 1)] + [f"{self.M - 1} 0"]
        with pytest.raises(FormatError, match="cycle"):
            parse_poset("\n".join(lines) + "\n")


class TestDot:
    def test_chain_cover_edges(self):
        dot = to_dot(chain(3))
        assert dot.count("->") == 2
        assert "0 -> 1;" in dot and "1 -> 2;" in dot

    def test_antichain_no_edges(self):
        assert "->" not in to_dot(antichain(3))

    def test_phi_k2_covers(self):
        image = phi(complete_graph(2))
        dot = to_dot(image.poset, image.levels)
        assert dot.count("->") == 2
        c = image.c_elements()[image.edge_order.index((0, 1))]
        for b in image.b_elements():
            assert f"{b} -> {c};" in dot
        assert 'level="A"' in dot  # the isolated low copy keeps its tag

    @pytest.mark.parametrize("levels", [(), ("A",) * 3, ("A",) * 5, ("A", "B", "C", "C", "X")],
                             ids=["none", "too-few", "one-extra", "extra-label"])
    def test_levels_must_match_elements(self, levels):
        # phi(K2) has four elements; a label too many or too few is refused
        with pytest.raises(ValueError, match=f"{len(levels)} level labels for 4 elements"):
            to_dot(phi(complete_graph(2)).poset, levels)

    def test_transitive_edges_absent(self):
        dot = to_dot(chain(4))
        assert "0 -> 2" not in dot and "0 -> 3" not in dot

    def test_phi_p3_with_levels(self):
        image = phi(Graph.of(3, [(0, 1), (1, 2)]))
        assert to_dot(image.poset, image.levels) == (
            "digraph hasse {\n  rankdir=BT;\n"
            '  0 [level="A"];\n  1 [level="A"];\n'
            '  2 [level="B"];\n  3 [level="B"];\n  4 [level="B"];\n'
            '  5 [level="C"];\n  6 [level="C"];\n'
            "  0 -> 4;\n  1 -> 2;\n  2 -> 5;\n  3 -> 5;\n  3 -> 6;\n  4 -> 6;\n}\n"
        )


class TestPosetFormat:
    def test_roundtrip_identity_on_relation(self):
        for seed in range(20):
            p = random_poset(7, 0.35, seed)
            assert parse_poset(format_poset(p)).up == p.up

    @pytest.mark.parametrize("n", range(5))
    def test_phi_image_equals_its_reparse(self, n):
        for g in enumerate_labeled_graphs(n):
            p = phi(g).poset
            q = parse_poset(format_poset(p))
            assert q == p and hash(q) == hash(p)

    def test_writes_cover_pairs(self):
        assert format_poset(chain(4)) == "4\n0 1\n1 2\n2 3\n"
        for seed in range(20):
            p = random_poset(7, 0.35, seed)
            lines = format_poset(p).splitlines()
            assert lines[1:] == [f"{x} {y}" for x, y in p.cover_pairs()]

    @given(st.integers(1, 9), st.floats(0, 1), st.integers(0, 99), st.randoms(use_true_random=False))
    def test_covers_do_not_depend_on_labels(self, m, density, seed, rnd):
        # random_poset relates x < y only; relabel so index order is no linear extension
        p = random_poset(m, density, seed)
        perm = list(range(m))
        rnd.shuffle(perm)
        q = Poset.from_pairs(m, [(perm[x], perm[y]) for x, y in p.cover_pairs()])
        assert sorted(q.cover_pairs()) == sorted((perm[x], perm[y]) for x, y in p.cover_pairs())
        assert parse_poset(format_poset(q)).up == q.up

    def test_loader_closes(self):
        p = parse_poset("3\n0 1\n1 2\n")
        assert p.leq(0, 2)

    def test_cycle_rejected(self):
        with pytest.raises(FormatError, match="cycle"):
            parse_poset("2\n0 1\n1 0\n")

    def test_reflexive_pair_rejected(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_poset("2\n1 1\n")

    def test_out_of_range(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_poset("2\n0 1\n0 2\n")

    def test_empty_poset(self):
        assert parse_poset("0\n").m == 0


class TestDisjointSum:
    def test_shapes(self):
        """The test helper ``poset_sum`` lays its parts side by side."""
        p = poset_sum(chain(2), antichain(3))
        assert p.m == 5
        assert p.leq(0, 1)
        assert not any(p.leq(x, y) for x in (0, 1) for y in (2, 3, 4))
        assert p.down == (0b00001, 0b00011, 0b00100, 0b01000, 0b10000)
