import re

import pytest
from hypothesis import given, strategies as st

from posetgames import (
    FormatError,
    Poset,
    PosetGame,
    antichain,
    chain,
    complete_graph,
    format_poset,
    parse_poset,
    phi,
    random_poset,
    to_dot,
    validate_relation,
)
from posetgames.posets import mask_to_sorted

from oracle import naive_closure


class TestValidate:
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
        with pytest.raises(ValueError, match="antisymmetric"):
            Poset(2, [0b11, 0b11])

    def test_row_beyond_m_is_value_error(self):
        with pytest.raises(ValueError, match="outside elements"):
            Poset(2, [0b101, 0b10])

    def test_missing_rows_is_value_error(self):
        with pytest.raises(ValueError, match="rows"):
            validate_relation(3, [0b1, 0b10])


class TestUpperCone:
    def test_maximal_element(self):
        assert chain(3).upper_cone(2) == {2}

    def test_chain_bottom(self):
        assert chain(3).upper_cone(0) == {0, 1, 2}

    def test_phi_k2_vertex(self):
        # elements: 0 = low edge copy, 1 = v1, 2 = v2, 3 = edge
        image = phi(complete_graph(2))
        assert image.poset.upper_cone(image.b_of_vertex(0)) == {1, 3}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chain(3).upper_cone(3)


class TestRange:
    @pytest.mark.parametrize("x, y", [(-1, 2), (2, -1), (3, 0), (0, 3)])
    def test_leq_out_of_range(self, x, y):
        with pytest.raises(ValueError, match="out of range"):
            chain(3).leq(x, y)

    @pytest.mark.parametrize("pos", [-1, 1 << 3])
    def test_is_down_set_out_of_range(self, pos):
        with pytest.raises(ValueError, match="not a set of the poset's 3 elements"):
            chain(3).is_down_set(pos)


class TestRemoveCone:
    """Taking x removes x and everything above it (``PosetGame.apply``)."""

    def test_antichain(self):
        assert PosetGame(antichain(3)).apply(0b111, 1) == 0b101

    def test_chain_bottom_clears(self):
        assert PosetGame(chain(3)).apply(0b111, 0) == 0

    def test_phi_k2_remove_edge(self):
        image = phi(complete_graph(2))
        pos = PosetGame(image.poset).apply(image.poset.full_position, image.c_of_edge((0, 1)))
        assert set(mask_to_sorted(pos)) == {0, 1, 2}  # low copy and both vertices

    def test_absent_element_rejected(self):
        with pytest.raises(ValueError):
            PosetGame(antichain(2)).apply(0b01, 1)

    @given(st.integers(1, 7), st.floats(0, 1), st.integers(0, 50), st.data())
    def test_result_is_down_set(self, m, density, seed, data):
        p = random_poset(m, density, seed)
        game = PosetGame(p)
        pos = p.full_position
        while pos:
            assert p.is_down_set(pos)
            x = data.draw(st.sampled_from(mask_to_sorted(pos)))
            pos = game.apply(pos, x)
        assert p.is_down_set(0)


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
            cone = p.upper_cone(x)
            assert x in cone
            for y in cone:
                for z in range(m):
                    if p.leq(y, z):
                        assert z in cone


class TestDownSets:
    @given(
        st.integers(0, 8),
        st.floats(0, 1),
        st.integers(0, 100),
        st.integers(0, 4),
        st.integers(0, (1 << 12) - 1),
    )
    def test_down_is_the_transpose_of_up(self, m, density, seed, extra, bits):
        p = random_poset(m, density, seed).disjoint_sum(chain(extra))
        for q in (p, Poset(p.m, p.up)):
            below = lambda x: {y for y in range(q.m) if q.leq(y, x)}
            # cover_pairs reads up alone; is_down_set runs before down is read, so it builds down
            assert sorted(q.cover_pairs()) == [
                (x, y)
                for x in range(q.m)
                for y in range(q.m)
                if x != y and q.leq(x, y)
                and not any(q.leq(x, z) and q.leq(z, y) for z in set(range(q.m)) - {x, y})
            ]
            pos = bits & q.full_position
            members = set(mask_to_sorted(pos))
            assert q.is_down_set(pos) == all(below(x) <= members for x in members)
            for x in range(q.m):
                assert set(mask_to_sorted(q.down[x])) == below(x)


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

    @given(pair_lists())
    def test_matches_naive_closure(self, case):
        m, pairs = case
        rows = naive_closure(m, pairs)
        mutual = {
            (x, y)
            for x in range(m)
            for y in range(m)
            if x != y and rows[x] >> y & 1 and rows[y] >> x & 1
        }
        if not mutual:
            assert Poset.from_pairs(m, pairs).up == tuple(rows)
            return
        with pytest.raises(ValueError, match="cycle") as exc:
            Poset.from_pairs(m, pairs)
        x, y = map(int, re.findall(r"\d+", str(exc.value)))
        assert (x, y) in mutual

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError, match="out of range"):
            Poset.from_pairs(2, [(0, 2)])

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
        dot = to_dot(image.poset)
        assert dot.count("->") == 2
        assert f"{image.b_of_vertex(0)} -> {image.c_of_edge((0, 1))};" in dot
        assert f"{image.b_of_vertex(1)} -> {image.c_of_edge((0, 1))};" in dot
        assert 'level="A"' in dot  # the isolated low copy keeps its tag

    def test_transitive_edges_absent(self):
        dot = to_dot(chain(4))
        assert "0 -> 2" not in dot and "0 -> 3" not in dot


class TestPosetFormat:
    def test_roundtrip_identity_on_relation(self):
        for seed in range(20):
            p = random_poset(7, 0.35, seed)
            assert parse_poset(format_poset(p)).up == p.up

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
        p = chain(2).disjoint_sum(antichain(3))
        assert p.m == 5
        assert p.leq(0, 1)
        assert not any(p.leq(x, y) for x in (0, 1) for y in (2, 3, 4))
