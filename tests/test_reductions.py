import random

import pytest
from hypothesis import given, settings, strategies as st

from posetgames import (
    Graph,
    KaylesGame,
    PosetGame,
    SetGameRules,
    antichain,
    chain,
    enumerate_labeled_graphs,
    format_phi_mapping,
    grundy,
    phi,
    poset_to_setgame,
    psi,
    random_poset,
    reduce_kayles_to_poset,
    solve_winner,
)
from posetgames.posets import Poset, mask_to_sorted

from oracle import naive_transpose
from shapes import complete_graph, graph_sum, set_game, sets_of


def component_sizes(g):
    game = KaylesGame(g)
    return sorted(part.bit_count() for part in game.components(game.initial()))


class TestPsi:
    def test_odd_rule_k3(self):
        h = psi(complete_graph(3))
        assert h.n == 7 and len(h.edges) == 5
        assert component_sizes(h) == [2, 2, 3]

    def test_even_rule_single_vertex(self):
        h = psi(complete_graph(1))
        assert h.n == 7 and len(h.edges) == 7
        assert component_sizes(h) == [1, 2, 4]

    def test_odd_rule_k2(self):
        h = psi(complete_graph(2))
        assert h.n == 6 and len(h.edges) == 3

    def test_source_kept_at_low_indices(self):
        g = Graph.of(3, [(0, 2)])
        h = psi(g)
        assert all(e in h.edges for e in g.edges)

    @pytest.mark.parametrize("n", range(6))
    def test_parity_and_nonincidence(self, n):
        for g in enumerate_labeled_graphs(n):
            h = psi(g)
            assert len(h.edges) % 2 == 1
            for v in range(h.n):
                assert any(v not in e for e in h.edges)

    @pytest.mark.parametrize("n", range(6))
    def test_matches_union_of_complete_graphs(self, n):
        for g in enumerate_labeled_graphs(n):
            last = complete_graph(2 if len(g.edges) % 2 == 1 else 4)
            assert psi(g) == graph_sum(g, complete_graph(2), last)


class TestPhi:
    def test_k2_shape(self):
        image = phi(complete_graph(2))
        p = image.poset
        assert p.m == 4
        nontrivial = {
            (x, y) for x in range(4) for y in range(4) if x != y and p.leq(x, y)
        }
        b0, b1 = image.b_of_vertex(0), image.b_of_vertex(1)
        c = image.c_elements()[image.edge_order.index((0, 1))]
        assert nontrivial == {(b0, c), (b1, c)}
        for v in (-1, 2):
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                image.b_of_vertex(v)

    def test_k3_low_copies(self):
        image = phi(complete_graph(3))
        p = image.poset
        assert p.m == 9
        for e in image.edge_order:
            a = image.edge_order.index(e)
            opposite = ({0, 1, 2} - set(e)).pop()
            above = set(mask_to_sorted(p.up[a])) - {a}
            expected = {image.b_of_vertex(opposite)}
            expected |= {c for e2, c in zip(image.edge_order, image.c_elements()) if e2 != e}
            assert above == expected

    def test_empty_graph_is_antichain(self):
        image = phi(Graph.of(4))
        assert image.poset.up == antichain(4).up
        assert image.levels == ("B",) * 4

    def test_levels_partition(self):
        image = phi(psi(complete_graph(3)))
        levels = image.levels
        ne, nv = image.num_edges, image.source.n
        assert levels == ("A",) * ne + ("B",) * nv + ("C",) * ne
        assert [levels[x] for x in (*image.b_elements(), *image.c_elements())] == ["B"] * nv + ["C"] * ne

    @pytest.mark.parametrize("n", range(4))
    def test_relation_soundness(self, n):
        # reconstruct the expected relation directly from the source graph
        for g in enumerate_labeled_graphs(n):
            image = phi(g)
            p = image.poset
            for x in range(p.m):
                for y in range(p.m):
                    assert p.leq(x, y) == _expected_leq(image, x, y)


def _phi_by_closure(g):
    """phi the paper's way: close its generating pairs b <= e for the
    endpoints b of e, and gamma(e) <= b for the other vertices b."""
    edges = tuple(sorted(g.edges))
    ne, nv = len(edges), g.n
    pairs = [(ne + b, ne + nv + i) if b in e else (i, ne + b)
             for i, e in enumerate(edges) for b in range(nv)]
    return Poset.from_pairs(nv + 2 * ne, pairs)


def _seeded_graphs(count=300, max_n=14):
    """Random graphs whose edges avoid some vertices; every tenth is edgeless."""
    rng = random.Random(20121)
    for i in range(count):
        n = rng.randint(0, max_n)
        spread, p = rng.randint(0, n), 0.0 if i % 10 == 0 else rng.random()
        yield Graph.of(n, [(u, v) for v in range(spread) for u in range(v) if rng.random() < p])


class TestPhiClosedForm:
    """phi writes its cones without a closure; the closure of the paper's
    generating pairs is the oracle."""

    def _check(self, g):
        p = phi(g).poset
        assert p == _phi_by_closure(g)
        assert p.down == tuple(naive_transpose(p.m, p.up))

    @pytest.mark.parametrize("n", range(6))
    def test_every_labeled_graph_and_its_padding(self, n):
        for g in enumerate_labeled_graphs(n):
            self._check(g)
            self._check(psi(g))

    def test_seeded_random_graphs(self):
        graphs = list(_seeded_graphs())
        for g in graphs:
            self._check(g)
        isolated = [g for g in graphs if g.edges and any(all(v not in e for e in g.edges) for v in range(g.n))]
        assert isolated and any(g.n and not g.edges for g in graphs)
        assert max(g.n for g in graphs) == 14


def _expected_leq(image, x, y):
    if x == y:
        return True
    lv = image.levels
    edges = image.edge_order
    ne, nv = image.num_edges, image.source.n
    if lv[x] == "B" and lv[y] == "C":
        return x - ne in edges[y - ne - nv]
    if lv[x] == "A" and lv[y] == "B":
        return y - ne not in edges[x]
    if lv[x] == "A" and lv[y] == "C":
        # via some b: b not endpoint of x's edge but endpoint of y's edge
        return any(b not in edges[x] for b in edges[y - ne - nv])
    return False


class TestComposition:
    @pytest.mark.parametrize(
        "g,expected_m",
        [
            (complete_graph(2), 12),
            (complete_graph(1), 21),
            (complete_graph(4), 36),
        ],
    )
    def test_sizes(self, g, expected_m):
        assert reduce_kayles_to_poset(g).poset.m == expected_m

    def test_size_formula(self):
        for g in enumerate_labeled_graphs(4):
            h = psi(g)
            assert reduce_kayles_to_poset(g).poset.m == h.n + 2 * len(h.edges)


class TestPosetToSetGame:
    def test_antichain(self):
        s = poset_to_setgame(antichain(3))
        assert s.masks == (0b001, 0b010, 0b100)

    def test_chain(self):
        s = poset_to_setgame(chain(3))
        assert sets_of(s) == (frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2}))

    def test_phi_k2(self):
        image = phi(complete_graph(2))
        s = sets_of(poset_to_setgame(image.poset))
        a, b0, b1, c = 0, 1, 2, 3
        assert s[a] == {a}
        assert s[b0] == {b0, c}
        assert s[b1] == {b1, c}
        assert s[c] == {c}

    @pytest.mark.parametrize("m, density, seed", [(0, 0.5, 1), (1, 0.5, 2), (12, 0.3, 3), (40, 0.1, 4), (40, 0.6, 5)])
    def test_identity_on_kill_masks(self, m, density, seed):
        p = random_poset(m, density, seed)
        s = poset_to_setgame(p)
        rules = SetGameRules(s)
        assert rules.legal == rules.kill == p.up
        # the same game, built from each cone's elements
        from_sets = set_game(m, [mask_to_sorted(cone) for cone in p.up])
        assert from_sets == s and hash(from_sets) == hash(s)
        assert s.masks == from_sets.masks == p.up and s.k == m

    @given(st.integers(0, 9), st.floats(0, 1), st.integers(0, 999))
    @settings(max_examples=50, deadline=None)
    def test_moves_correspond_one_to_one(self, m, density, seed):
        p = random_poset(m, density, seed)
        pg = PosetGame(p)
        sg = SetGameRules(poset_to_setgame(p))
        stack = [pg.initial()]
        seen = set()
        while stack:
            pos = stack.pop()
            if pos in seen:
                continue
            seen.add(pos)
            assert pg.moves(pos) == sg.moves(pos)
            for mv in pg.moves(pos):
                assert pg.apply(pos, mv) == sg.apply(pos, mv)
                stack.append(pg.apply(pos, mv))


class TestMappingSidecar:
    def test_k2(self):
        image = phi(complete_graph(2))
        assert format_phi_mapping(image) == ("A 0 1 0\nB 0 1\nB 1 2\nC 0 1 3\n")

    def test_indices_cover_all_elements(self):
        image = reduce_kayles_to_poset(complete_graph(3))
        lines = format_phi_mapping(image).splitlines()
        indices = sorted(int(line.split()[-1]) for line in lines)
        assert indices == list(range(image.poset.m))


class TestAlternatePadding:
    def test_k3_for_k2_padding_also_preserves_winner(self):
        # any pair of complete graphs is a Grundy-zero appendage, so padding
        # with K3 in place of K2 still preserves the Kayles winner
        def pad(g):
            out = graph_sum(g, complete_graph(3))
            other = 3 if len(g.edges) % 2 == 1 else 4
            return graph_sum(out, complete_graph(other))

        for g in enumerate_labeled_graphs(3):
            assert grundy(KaylesGame(g)) == grundy(KaylesGame(pad(g)))
            assert solve_winner(KaylesGame(g)) == solve_winner(
                PosetGame(phi(pad(g)).poset)
            )
