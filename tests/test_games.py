import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from posetgames import (
    FormatError,
    Graph,
    KaylesGame,
    MaskGame,
    PosetGame,
    SetGame,
    SetGameRules,
    chain,
    format_setgame,
    parse_setgame,
    phi,
    poset_to_setgame,
    random_poset,
)
from posetgames.posets import mask_to_sorted

from oracle import is_down_set, naive_links
from shapes import complete_graph, components, poset_sum, set_game

P3 = Graph.of(3, [(0, 1), (1, 2)])


class TestKayles:
    def test_full_k2_moves(self):
        game = KaylesGame(complete_graph(2))
        assert game.moves(game.initial()) == [0, 1]

    def test_empty_no_moves(self):
        assert KaylesGame(complete_graph(2)).moves(0) == []

    def test_p3_after_center(self):
        game = KaylesGame(P3)
        assert game.apply(game.initial(), 1) == 0

    def test_p3_endpoint(self):
        game = KaylesGame(P3)
        assert game.apply(game.initial(), 0) == 0b100

    def test_k2_any_vertex_clears(self):
        game = KaylesGame(complete_graph(2))
        assert game.apply(game.initial(), 0) == 0

    def test_absent_vertex_rejected(self):
        game = KaylesGame(P3)
        with pytest.raises(ValueError):
            game.apply(0b100, 0)

    def test_position_out_of_range_rejected(self):
        # bit 3 is not a vertex of the game, so the move must not leave it behind
        with pytest.raises(ValueError, match="position 9 is not a set of the game's 3 elements"):
            KaylesGame(Graph.of(3, [(0, 1)])).apply(0b1001, 0)


class TestPosetGameRules:
    def test_antichain_moves(self):
        game = PosetGame(random_poset(3, 0.0, 0))
        assert game.moves(game.initial()) == [0, 1, 2]

    def test_chain_bottom_clears(self):
        game = PosetGame(chain(3))
        assert game.apply(game.initial(), 0) == 0

    @pytest.mark.parametrize("move", [-1, 3])
    def test_move_out_of_range_rejected(self, move):
        with pytest.raises(ValueError, match=f"element {move} does not exist"):
            PosetGame(chain(3)).apply(0b111, move)

    # the solver's entry check; without it, apply(-1, 0) would return -8
    @pytest.mark.parametrize("pos, move", [(-1, 0), (1 << 3, 0), (0b1111, 3)])
    def test_position_out_of_range_rejected(self, pos, move):
        with pytest.raises(ValueError, match=f"position {pos} is not a set of the game's 3 elements"):
            PosetGame(chain(3)).apply(pos, move)

    def test_phi_k2_low_copy(self):
        image = phi(complete_graph(2))
        game = PosetGame(image.poset)
        a = image.edge_order.index((0, 1))
        after = game.apply(game.initial(), a)
        # K2 has no non-endpoint vertices, so only the copy itself goes
        assert set(mask_to_sorted(after)) == {1, 2, 3}


class TestSetGame:
    def test_all_empty_no_moves(self):
        rules = SetGameRules(set_game(2, (frozenset({0}), frozenset({1}))))
        assert rules.moves(0) == []

    def test_disjoint_singletons(self):
        rules = SetGameRules(set_game(2, (frozenset({0}), frozenset({1}))))
        after = rules.apply(rules.initial(), 0)
        assert (rules.legal[0] & after) == 0
        assert (rules.legal[1] & after) == 0b10

    def test_overlap(self):
        rules = SetGameRules(set_game(3, (frozenset({0, 1}), frozenset({1, 2}))))
        after = rules.apply(rules.initial(), 0)
        assert (rules.legal[0] & after) == 0
        assert (rules.legal[1] & after) == 0b100

    def test_empty_pick_rejected(self):
        rules = SetGameRules(set_game(2, (frozenset({0}), frozenset({1}))))
        after = rules.apply(rules.initial(), 0)
        with pytest.raises(ValueError):
            rules.apply(after, 0)

    def test_universe_enforced(self):
        # a mask at or past the universe, and a negative one, which would hold every high bit
        for masks in [(1 << 5,), (0b100,), (0b11, 0b1000), (-1,), (0b01, -2)]:
            with pytest.raises(ValueError, match="outside universe 2"):
                SetGame(2, masks)
        s = SetGame(3, iter([0b111, 0, 0b100]))
        assert (s.universe, s.masks, s.k) == (3, (0b111, 0, 0b100), 3)

    def test_negative_universe_rejected(self):
        with pytest.raises(ValueError, match="universe size must be non-negative"):
            SetGame(-1, [])

    def test_survivor_characterization(self):
        # element survives iff no chosen set contained it
        sets = (frozenset({0, 1}), frozenset({1, 2}), frozenset({3}))
        rules = SetGameRules(set_game(4, sets))
        pos = rules.initial()
        for pick in (1, 2):
            pos = rules.apply(pos, pick)
        union = set().union(*(sets[i] for i in (1, 2)))
        assert set(mask_to_sorted(pos)) == set(range(4)) - union


def test_mask_game_negative_size_rejected():
    with pytest.raises(ValueError, match="game size must be non-negative"):
        MaskGame(-2, [], [], "x")


@st.composite
def any_rules(draw):
    kind = draw(st.sampled_from(["kayles", "poset", "setgame", "mask"]))
    if kind == "kayles":
        n = draw(st.integers(1, 5))
        edges = draw(
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]), max_size=8)
        )
        return KaylesGame(Graph.of(n, edges))
    if kind == "poset":
        return PosetGame(random_poset(draw(st.integers(1, 6)), draw(st.floats(0, 1)), draw(st.integers(0, 999))))
    if kind == "mask":
        # legal masks of two or more elements, each strictly inside its kill mask
        size = draw(st.integers(3, 6))
        legal = draw(st.lists(st.integers(3, (1 << size) - 2).filter(lambda mask: mask.bit_count() > 1),
                              min_size=1, max_size=5))
        kill = [mask | draw(st.integers(1, (1 << size) - 1).filter(lambda k: k & ~mask)) for mask in legal]
        return MaskGame(size, legal, kill, "move")
    u = draw(st.integers(1, 5))
    sets = draw(st.lists(st.frozensets(st.integers(0, u - 1), max_size=u), min_size=1, max_size=5))
    return SetGameRules(set_game(u, tuple(sets)))


class TestSharedInvariants:
    @given(any_rules(), st.data())
    def test_apply_strictly_shrinks_and_terminates(self, rules, data):
        pos = rules.initial()
        steps = 0
        while True:
            moves = rules.moves(pos)
            assert moves == sorted(moves)
            if not moves:
                break
            mv = data.draw(st.sampled_from(moves))
            nxt = rules.apply(pos, mv)
            assert nxt & ~pos == 0 and nxt != pos  # strict subset
            pos = nxt
            steps += 1
            assert steps <= rules.size + len(getattr(rules, "_set_masks", []))

    @given(any_rules(), st.data())
    def test_components_split_the_moves(self, rules, data):
        pos = data.draw(st.integers(0, rules.initial()))
        parts = components(rules, pos)
        union = 0
        for part in parts:
            assert part and not part & union
            union |= part
        assert union == pos
        for legal, kill in zip(rules.legal, rules.kill):
            touched = [part for part in parts if legal & part]
            if touched:  # a legal move plays in one part and kills nothing outside it
                assert len(touched) == 1 and kill & pos & ~touched[0] == 0

    @given(st.integers(1, 7), st.floats(0, 1), st.integers(0, 99), st.data())
    def test_poset_positions_are_down_sets(self, m, density, seed, data):
        p = random_poset(m, density, seed)
        rules = PosetGame(p)
        pos = rules.initial()
        while rules.moves(pos):
            assert is_down_set(p, pos)
            pos = rules.apply(pos, data.draw(st.sampled_from(rules.moves(pos))))


class TestSetGameFormat:
    def test_roundtrip(self):
        s = SetGame(4, (0b0011, 0, 0b1100))
        assert parse_setgame(format_setgame(s)) == s

    @given(st.integers(0, 12), st.floats(0, 1), st.integers(0, 999))
    def test_roundtrip_upper_cones(self, m, density, seed):
        s = poset_to_setgame(random_poset(m, density, seed))
        assert parse_setgame(format_setgame(s)) == s

    def test_empty_set_line(self):
        s = parse_setgame("2 3\n0 1\n\n")
        assert s.masks == (0b11, 0)

    def test_comments(self):
        s = parse_setgame("# two sets\n2 2\n0\n1\n")
        assert s.k == 2

    def test_element_out_of_universe(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_setgame("1 2\n0 5\n")

    def test_missing_rows(self):
        with pytest.raises(FormatError):
            parse_setgame("2 2\n0\n")

    def test_extra_rows(self):
        # blank lines past the k-th set are ignored, a set line is not
        assert parse_setgame("1 2\n0\n\n").masks == (0b1,)
        with pytest.raises(FormatError, match="line 4: more than 1 set lines"):
            parse_setgame("1 2\n0\n\n1\n")


def test_links_per_rule_set():
    assert KaylesGame(P3).links == (0b011, 0b111, 0b110)  # closed neighbourhoods
    assert PosetGame(poset_sum(chain(3), chain(1))).links == (0b0111, 0b0111, 0b0111, 0b1000)
    # elements sharing a set are linked; element 3 is in no set
    assert SetGameRules(set_game(4, (frozenset({0, 1}), frozenset({1}), frozenset({2})))).links == (
        0b0011, 0b0011, 0b0100, 0)


@given(any_rules())
def test_links_against_naive(game):
    assert game.links == naive_links(game)


@pytest.mark.parametrize("seed", range(8))
def test_element_games_are_known_at_build(seed):
    """Kayles and the poset game set ``_element_game`` when they build the
    game."""
    rng = random.Random(seed)
    n = rng.randrange(14)
    board = Graph.of(n, [e for e in combinations(range(n), 2) if rng.random() < 0.3])
    for game in (KaylesGame(board), PosetGame(random_poset(rng.randrange(14), rng.random(), seed))):
        assert game.__dict__["_element_game"] is True


def test_mask_game_rejects_masks_outside_its_elements():
    with pytest.raises(ValueError):
        MaskGame(2, [0b1], [0b101], "vertex")
    with pytest.raises(ValueError):
        MaskGame(2, [0b1, 0b10], [0b1], "vertex")


def test_mask_game_rejects_a_move_that_removes_nothing():
    # from position 0b01 the move would be legal and leave the position as it is
    with pytest.raises(ValueError, match="holding its legal mask"):
        MaskGame(2, [0b01], [0b10], "x")
    with pytest.raises(ValueError, match="holding its legal mask"):
        MaskGame(2, [0b11], [0b01], "x")
