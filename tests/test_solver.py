import pytest
from hypothesis import given, settings, strategies as st

from posetgames import (
    BudgetExceeded,
    GameValue,
    Graph,
    KaylesGame,
    Poset,
    PosetGame,
    SearchStats,
    SetGameRules,
    TranspositionTable,
    antichain,
    best_move,
    chain,
    complete_graph,
    disjoint_union,
    enumerate_labeled_graphs,
    grundy,
    mex,
    phi,
    poset_to_setgame,
    psi,
    random_poset,
    solve_winner,
)
from oracle import naive_kayles_grundy, naive_poset_grundy, naive_setgame_grundy

P3 = Graph.of(3, [(0, 1), (1, 2)])
K2K2 = disjoint_union(complete_graph(2), complete_graph(2))


class TestMex:
    def test_empty(self):
        assert mex(()) == 0

    def test_initial_segment(self):
        assert mex({0, 1, 2}) == 3

    def test_gap(self):
        assert mex({1, 3}) == 0

    @given(st.sets(st.integers(0, 50)))
    def test_definition(self, values):
        m = mex(values)
        assert m not in values
        assert all(v in values for v in range(m))


class TestSolveWinner:
    def test_empty_position_loses(self):
        assert solve_winner(KaylesGame(P3), 0) is GameValue.LOSS

    def test_k1_wins(self):
        assert solve_winner(KaylesGame(complete_graph(1))) is GameValue.WIN

    def test_k2_k2_loses(self):
        assert solve_winner(KaylesGame(K2K2)) is GameValue.LOSS

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceeded):
            solve_winner(KaylesGame(psi(complete_graph(4))), budget=3)

    def test_counters(self):
        table = TranspositionTable()
        stats = SearchStats()
        solve_winner(KaylesGame(P3), table=table, stats=stats)
        assert stats.states == len(table) > 0


class TestGrundy:
    @pytest.mark.parametrize("n", range(6))
    def test_antichain_parity(self, n):
        assert grundy(PosetGame(antichain(n))) == n % 2

    def test_k2_union_k4(self):
        assert grundy(KaylesGame(disjoint_union(complete_graph(2), complete_graph(4)))) == 0

    def test_p3(self):
        assert grundy(KaylesGame(P3)) == 2

    def test_chain_is_nim_heap(self):
        for m in range(7):
            assert grundy(PosetGame(chain(m))) == m

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceeded):
            grundy(KaylesGame(psi(complete_graph(4))), budget=3)

    def test_table_shared_with_winner_keeps_ints(self):
        table = TranspositionTable()
        solve_winner(PosetGame(chain(3)), table=table)
        value = grundy(PosetGame(chain(3)), table=table)
        assert type(value) is int and value == 3

    def test_deep_top_first_chain(self):
        # x+1 <= x: element 0 is the top, so low indices remove little
        m = 1500
        game = PosetGame(Poset.from_pairs(m, [(x + 1, x) for x in range(m - 1)]))
        assert grundy(game) == m


class TestBestMove:
    def test_p3_center(self):
        assert best_move(KaylesGame(P3)) == 1

    def test_lost_position_none(self):
        assert best_move(KaylesGame(K2K2)) is None

    def test_terminal_rejected(self):
        with pytest.raises(ValueError):
            best_move(KaylesGame(P3), 0)

    def test_phi_psi_k2_opens_on_vertex_level(self):
        image = phi(psi(complete_graph(2)))
        mv = best_move(PosetGame(image.poset))
        assert mv in image.b_elements()

    def test_returns_actual_winning_move(self):
        for g in enumerate_labeled_graphs(4):
            game = KaylesGame(g)
            mv = best_move(game)
            if mv is None:
                assert solve_winner(game) is GameValue.LOSS
            else:
                assert solve_winner(game, game.apply(game.initial(), mv)) is GameValue.LOSS


class TestConsistency:
    def test_grundy_zero_iff_loss_small_graphs(self):
        for g in enumerate_labeled_graphs(4):
            game = KaylesGame(g)
            assert (grundy(game) == 0) == (solve_winner(game) is GameValue.LOSS)

    @given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 200))
    @settings(max_examples=40)
    def test_grundy_zero_iff_loss_posets(self, m, density, seed):
        game = PosetGame(random_poset(m, density, seed))
        assert (grundy(game) == 0) == (solve_winner(game) is GameValue.LOSS)

    def test_deterministic_across_memo_states(self):
        g = psi(P3)
        game = KaylesGame(g)
        fresh = solve_winner(game)
        table = TranspositionTable()
        # warm the table from assorted subpositions first
        for pos in range(0, game.initial() + 1, 7):
            solve_winner(game, pos, table)
        assert solve_winner(game, table=table) is fresh

    def test_xor_additivity_graphs(self):
        for a in enumerate_labeled_graphs(3):
            for b in enumerate_labeled_graphs(3):
                whole = grundy(KaylesGame(disjoint_union(a, b)))
                assert whole == grundy(KaylesGame(a)) ^ grundy(KaylesGame(b))

    @given(
        st.integers(1, 5), st.floats(0, 1), st.integers(0, 99),
        st.integers(1, 4), st.floats(0, 1), st.integers(0, 99),
    )
    @settings(max_examples=40)
    def test_xor_additivity_posets(self, m1, d1, s1, m2, d2, s2):
        p1, p2 = random_poset(m1, d1, s1), random_poset(m2, d2, s2)
        assert grundy(PosetGame(p1.disjoint_sum(p2))) == grundy(PosetGame(p1)) ^ grundy(PosetGame(p2))


class TestAgainstNaiveOracle:
    def test_kayles(self):
        for n in range(5):
            for g in enumerate_labeled_graphs(n):
                assert grundy(KaylesGame(g)) == naive_kayles_grundy(g)

    @given(st.integers(0, 7), st.floats(0, 1), st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_posets(self, m, density, seed):
        p = random_poset(m, density, seed)
        assert grundy(PosetGame(p)) == naive_poset_grundy(p)

    @given(st.integers(0, 6), st.floats(0, 1), st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_setgame(self, m, density, seed):
        s = poset_to_setgame(random_poset(m, density, seed))
        assert grundy(SetGameRules(s)) == naive_setgame_grundy(list(s.sets))
