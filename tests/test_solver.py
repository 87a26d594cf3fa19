from functools import reduce
from operator import xor

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
    SetGame,
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
from posetgames.posets import mask_to_sorted
from posetgames.verify import SuiteConfig, run_suite
from oracle import naive_kayles_grundy, naive_poset_grundy, naive_setgame_grundy

P3 = Graph.of(3, [(0, 1), (1, 2)])
K2K2 = disjoint_union(complete_graph(2), complete_graph(2))
C8 = Graph.of(8, [(i, i + 1) for i in range(7)] + [(0, 7)])


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
        # psi(K4) = K4 + K2 + K2 is a split root: three one-state components
        with pytest.raises(BudgetExceeded):
            solve_winner(KaylesGame(psi(complete_graph(4))), budget=2)

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
            grundy(KaylesGame(C8), budget=3)
        # psi(K4) = K4 + K2 + K2 splits into three one-state components
        assert grundy(KaylesGame(psi(complete_graph(4))), budget=3) == 1

    def test_table_shared_with_winner_keeps_ints(self):
        table = TranspositionTable()
        solve_winner(PosetGame(chain(3)), table=table)
        value = grundy(PosetGame(chain(3)), table=table)
        assert type(value) is int and value == 3

    def test_table_shared_with_winner_keeps_ints_on_sums(self):
        # the sum is split into its two chains; each part's value is an int too
        table = TranspositionTable()
        game = PosetGame(chain(2).disjoint_sum(chain(3)))
        solve_winner(game, table=table)
        value = grundy(game, table=table)
        assert type(value) is int and value == 1
        assert all(type(v) is int for v in table.values.values())

    def test_deep_top_first_chain(self):
        # x+1 <= x: element 0 is the top, so low indices remove little
        m = 1500
        game = PosetGame(Poset.from_pairs(m, [(x + 1, x) for x in range(m - 1)]))
        assert grundy(game) == m


def path(n):
    return Graph.of(n, [(i, i + 1) for i in range(n - 1)])


def dawson(n):
    """Node Kayles on P_n: picking vertex i leaves P_(i-1) and P_(n-i-2)."""
    g = [0] * (n + 1)
    for k in range(1, n + 1):
        g[k] = mex({g[max(i - 1, 0)] ^ g[max(k - i - 2, 0)] for i in range(k)})
    return g[n]


@st.composite
def small_graph(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.of(n, [e for e, k in zip(pairs, keep) if k])


def set_family(universe):
    return st.lists(st.frozensets(st.integers(0, universe - 1), max_size=universe), max_size=4)


def outcome(value):
    """The winner a Grundy value implies: nonzero wins for the player to move."""
    return GameValue.WIN if value else GameValue.LOSS


def assert_solves(game, pos, want):
    """Both searches agree with the oracle's Grundy value ``want`` at ``pos``."""
    assert grundy(game, pos) == want
    assert solve_winner(game, pos) is outcome(want)


def play(game, data, steps):
    """The position after up to ``steps`` random moves from the start."""
    pos = game.initial()
    for _ in range(steps):
        moves = game.moves(pos)
        if not moves:
            break
        pos = game.child(pos, data.draw(st.sampled_from(moves)))
    return pos


class TestSplitPositions:
    """Positions that fall apart into components, against the naive oracle."""

    @given(small_graph(5), small_graph(4))
    @settings(max_examples=40, deadline=None)
    def test_kayles_disjoint_union(self, a, b):
        g = disjoint_union(a, b)
        assert_solves(KaylesGame(g), None, naive_kayles_grundy(g))

    @given(
        st.integers(1, 5), st.floats(0, 1), st.integers(0, 99),
        st.integers(1, 4), st.floats(0, 1), st.integers(0, 99),
    )
    @settings(max_examples=40, deadline=None)
    def test_poset_disjoint_sum(self, m1, d1, s1, m2, d2, s2):
        p = random_poset(m1, d1, s1).disjoint_sum(random_poset(m2, d2, s2))
        assert_solves(PosetGame(p), None, naive_poset_grundy(p))

    @given(set_family(5), set_family(4))
    @settings(max_examples=40, deadline=None)
    def test_setgame_disjoint_groups(self, left, right):
        sets = left + [frozenset(e + 5 for e in s) for s in right]
        assert_solves(SetGameRules(SetGame(9, tuple(sets))), None, naive_setgame_grundy(sets))

    @given(small_graph(9), st.integers(0, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_kayles_mid_game(self, g, steps, data):
        game = KaylesGame(g)
        pos = play(game, data, steps)
        assert_solves(game, pos, naive_kayles_grundy(g, frozenset(mask_to_sorted(pos))))

    @given(st.integers(1, 9), st.floats(0, 1), st.integers(0, 99), st.integers(0, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_poset_mid_game(self, m, density, seed, steps, data):
        p = random_poset(m, density, seed)
        game = PosetGame(p)
        pos = play(game, data, steps)
        assert_solves(game, pos, naive_poset_grundy(p, frozenset(mask_to_sorted(pos))))

    @given(set_family(9), st.integers(0, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_setgame_mid_game(self, sets, steps, data):
        game = SetGameRules(SetGame(9, tuple(sets)))
        pos = play(game, data, steps)
        # elements in no set are inert; the oracle leaves them out
        alive = frozenset(mask_to_sorted(pos)) & frozenset().union(*sets)
        assert_solves(game, pos, naive_setgame_grundy(sets, alive))

    def test_deleted_vertex_does_not_link_its_neighbours(self):
        table = TranspositionTable()
        assert grundy(KaylesGame(P3), 0b101, table) == 0
        assert table.values[0b001] == table.values[0b100] == 1

    def test_set_still_meeting_the_position_links(self):
        # with element 1 gone, set {0, 1, 2} still meets the position and
        # takes 0 and 2 together, so {0, 2} is one component, not K1 + K1
        sets = [frozenset({0, 1, 2}), frozenset({0}), frozenset({2})]
        game = SetGameRules(SetGame(3, tuple(sets)))
        assert grundy(game, 0b101) == naive_setgame_grundy(sets, frozenset({0, 2})) == 2


class TestStateCounts:
    """Searched-state counts repeat exactly, so they pin down the splitting."""

    def test_kayles_p40(self):
        stats = SearchStats()
        assert grundy(KaylesGame(path(40)), stats=stats) == dawson(40)
        assert stats.states < 1_000

    def test_two_reversed_chains(self):
        stats = SearchStats()
        assert grundy(reversed_chains(300, 300), stats=stats) == 0
        assert stats.states <= 600

    def test_two_bottoms_below_twenty_tops(self):
        # the tops are all twins, and so are the bottoms: 28 659 states without
        # skipping twin moves
        stats = SearchStats()
        game = PosetGame(Poset.from_pairs(22, [(b, t) for b in (0, 1) for t in range(2, 22)]))
        assert solve_winner(game, stats=stats) is GameValue.LOSS
        assert stats.states <= 30

    def test_phi_psi_k5(self):
        stats = SearchStats()
        assert solve_winner(PosetGame(phi(psi(complete_graph(5))).poset), stats=stats) is GameValue.WIN
        assert stats.states <= 500  # 11 350 without skipping twin moves

    def test_theorem_up_to_five_vertices(self):
        report = run_suite(SuiteConfig("theorem", max_n=5))
        assert len(report.results) == 1099 and not report.failures and not report.inconclusives
        assert sum(r.states for r in report.results) <= 400_000  # 1 071 380 without

    def test_lemma3_default_regime(self):
        report = run_suite(SuiteConfig("lemma3"))
        assert report.passed
        # its split roots are Grundy searches: 2 845 states when win/loss search added them up itself
        assert sum(r.states for r in report.results) <= 2_000

    def test_split_root_is_one_grundy_search(self):
        stats = SearchStats()
        assert solve_winner(KaylesGame(psi(complete_graph(4))), stats=stats) is GameValue.WIN
        assert stats.states <= 3

    def test_twins_built_only_by_a_later_win_loss_move(self):
        chain_game = PosetGame(chain(1500))
        assert solve_winner(chain_game) is GameValue.WIN  # its first move clears it
        assert "twins" not in chain_game.__dict__
        for game in (KaylesGame(psi(P3)), PosetGame(phi(psi(complete_graph(3))).poset), reversed_chains(4, 3)):
            grundy(game)
            assert "twins" not in game.__dict__


def reversed_chains(*lengths):
    """Disjoint chains listed top-first (x+1 <= x), so the lowest-index move
    removes only a top element and a search of the whole sum runs deep."""
    pairs, base = [], 0
    for length in lengths:
        pairs += [(base + x + 1, base + x) for x in range(length - 1)]
        base += length
    return PosetGame(Poset.from_pairs(base, pairs))


class TestSplitRoot:
    """Win/loss search answers a split root from its parts' Grundy values."""

    @pytest.mark.parametrize("lengths, want", [((120, 100), GameValue.WIN), ((100, 100), GameValue.LOSS)])
    def test_reversed_chains(self, lengths, want):
        stats = SearchStats()
        assert solve_winner(reversed_chains(*lengths), stats=stats) is want
        assert stats.states <= 300

    # a chain of length k is the nim heap k; (1, 1, 1), (3, 3, 1) and
    # (6, 5, 3) XOR differently than they OR
    @pytest.mark.parametrize("lengths", [(1, 1, 1), (3, 3, 1), (3, 2, 1), (6, 5, 3), (4, 4), (5, 2, 2)])
    def test_chain_sums_are_nim_sums(self, lengths):
        assert solve_winner(reversed_chains(*lengths)) is outcome(reduce(xor, lengths))

    @pytest.mark.parametrize("lengths", [(3, 2, 2), (3, 2, 1)])
    def test_shared_table_keeps_each_type(self, lengths):
        game = reversed_chains(*lengths)
        want = reduce(xor, lengths)
        grundy_first, winner_first = TranspositionTable(), TranspositionTable()
        assert grundy(game, table=grundy_first) == want
        assert solve_winner(game, table=grundy_first) is outcome(want)
        assert solve_winner(game, table=winner_first) is outcome(want)
        value = grundy(game, table=winner_first)
        assert type(value) is int and value == want
        for table in (grundy_first, winner_first):
            assert all(type(v) is bool for v in table.wins.values())
            assert all(type(v) is int for v in table.values.values())

    @given(small_graph(5), small_graph(4))
    @settings(max_examples=40, deadline=None)
    def test_best_move_on_a_sum(self, a, b):
        g = disjoint_union(a, b)
        game = KaylesGame(g)
        if not g.n:
            return
        mv = best_move(game)
        if mv is None:
            assert naive_kayles_grundy(g) == 0
        else:
            left = mask_to_sorted(game.child(game.initial(), mv))
            assert naive_kayles_grundy(g, frozenset(left)) == 0

    @pytest.mark.parametrize(
        "build", [lambda: KaylesGame(psi(complete_graph(4))), lambda: reversed_chains(120, 100)],
        ids=["psi-K4", "reversed-chains-120-100"],
    )
    def test_root_is_split_once(self, build):
        # the Grundy search starts from the parts the root check found
        game = build()
        calls = []
        split = game.components
        game.components = lambda pos: calls.append(pos) or split(pos)
        solve_winner(game)
        assert calls.count(game.initial()) == 1

    def test_split_root_answered_from_grundy_values(self):
        game = KaylesGame(psi(complete_graph(4)))
        table, stats = TranspositionTable(), SearchStats()
        value = grundy(game, table=table, stats=stats)
        states, hits = stats.states, table.hits
        assert solve_winner(game, table=table, stats=stats) is outcome(value)
        assert (stats.states, table.hits) == (states, hits + 1)
        won = table.wins[game.initial()]
        assert type(won) is bool and won == (value != 0)

    def test_root_cleared_by_one_move_is_not_split(self):
        # the bottom of a chain clears it, so no link masks are built
        game = PosetGame(chain(1500))
        assert solve_winner(game) is GameValue.WIN
        assert "links" not in game.__dict__

    def test_budget_counts_the_parts(self):
        stats = SearchStats()
        with pytest.raises(BudgetExceeded) as exc:
            solve_winner(KaylesGame(disjoint_union(C8, C8)), budget=3, stats=stats)
        assert exc.value.states == stats.states == 4


class TestPositionRange:
    """A position outside the game's elements is rejected at every entry."""

    @pytest.mark.parametrize("pos", [-1, 1 << 3, 0b1111])
    @pytest.mark.parametrize("solve", [solve_winner, grundy, best_move])
    def test_rejected(self, solve, pos):
        with pytest.raises(ValueError, match="not a set of the game's 3 elements"):
            solve(PosetGame(chain(3)), pos)


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


def with_poset_twins(p, picks):
    """``p`` with one new element per pick, a twin of element ``pick % m``:
    the same elements strictly above and below it, and incomparable to it."""
    for pick in picks:
        m = p.m
        x = pick % m
        pairs = [(a, b) for a in range(m) for b in mask_to_sorted(p.up[a]) if a != b]
        pairs += [(m, b) for b in mask_to_sorted(p.up[x]) if b != x]
        pairs += [(a, m) for a in range(m) if a != x and p.up[a] >> x & 1]
        p = Poset.from_pairs(m + 1, pairs)
    return p


def with_graph_twins(g, picks, adjacent):
    """``g`` with one new vertex per pick, joined to the neighbours of vertex
    ``pick % n``, and to that vertex itself when ``adjacent`` is set."""
    edges = set(g.edges)
    n = g.n
    for pick in picks:
        x = pick % n
        edges |= {(v if u == x else u, n) for u, v in edges if x in (u, v)}
        if adjacent:
            edges.add((x, n))
        n += 1
    return Graph.of(n, edges)


def assert_wins_stored_right(game, table):
    """Every win/loss the search stored agrees with the Grundy search, which
    does not skip twins."""
    values = TranspositionTable()
    for pos, won in table.wins.items():
        assert (grundy(game, pos, values) != 0) == won, f"position {pos:b}"


class TestTwins:
    """Win/loss search skips moves that are twins of a move tried before.

    A split root is answered from its parts' Grundy values, so with ``hub``
    set a new element joins the parts: a maximum above everything, or a
    vertex next to the lowest vertex of each component.  The win/loss search
    then starts from a connected root and visits positions of every shape.
    """

    @given(
        st.integers(1, 6), st.floats(0, 1), st.integers(0, 99),
        st.lists(st.integers(0, 99), max_size=3), st.booleans(), st.integers(0, 3), st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_poset_against_oracle(self, m, density, seed, picks, hub, steps, data):
        p = with_poset_twins(random_poset(m, density, seed), picks)
        if hub:
            p = Poset.from_pairs(p.m + 1, [(x, p.m) for x in range(p.m)] + list(p.cover_pairs()))
        game = PosetGame(p)
        pos = play(game, data, steps)
        table = TranspositionTable()
        want = naive_poset_grundy(p, frozenset(mask_to_sorted(pos)))
        assert solve_winner(game, pos, table) is outcome(want)
        assert_wins_stored_right(game, table)

    @given(
        small_graph(6), st.lists(st.integers(0, 99), max_size=3), st.booleans(),
        st.booleans(), st.integers(0, 3), st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_kayles_against_oracle(self, g, picks, adjacent, hub, steps, data):
        if not g.n:
            return
        g = with_graph_twins(g, picks, adjacent)
        if hub:
            parts = KaylesGame(g).components((1 << g.n) - 1)
            g = Graph.of(g.n + 1, list(g.edges) + [((part & -part).bit_length() - 1, g.n) for part in parts])
        game = KaylesGame(g)
        pos = play(game, data, steps)
        table = TranspositionTable()
        want = naive_kayles_grundy(g, frozenset(mask_to_sorted(pos)))
        assert solve_winner(game, pos, table) is outcome(want)
        assert_wins_stored_right(game, table)

    def test_out_rows_alone_do_not_make_twins(self):
        # 0 < 2 < 3 and 1 < 3.  In 0b0111 elements 1 and 2 both kill nothing
        # else, but only 2 is killed by 0: taking 2 leaves 0 and 1, a lost
        # position, so 0b0111 is won.  Solving the whole poset first stores
        # 0b0111 only if a search wrongly skipped the move to 2 at the root.
        game = PosetGame(Poset.from_pairs(4, [(0, 2), (2, 3), (1, 3)]))
        table = TranspositionTable()
        assert solve_winner(game, table=table) is GameValue.WIN
        assert solve_winner(game, 0b0111, table=table) is GameValue.WIN
        assert_wins_stored_right(game, table)

    def test_rows_of_an_element_game(self):
        game = PosetGame(Poset.from_pairs(4, [(0, 2), (2, 3), (1, 3)]))
        size = game.size
        for (legal, kill), (rows, loose) in zip(game.order, game.twins):
            x = legal.bit_length() - 1
            below = sum(1 << a for a in range(size) if a != x and game.kill[a] >> x & 1)
            assert rows == (kill ^ legal) | below << size
            assert loose == sum(1 << y for y in range(size) if not (kill | below | legal) >> y & 1)

    def test_set_game_has_no_twins(self):
        game = SetGameRules(SetGame(3, (frozenset({0, 1}), frozenset({2}), frozenset({2}))))
        assert game.twins == ((0, 0),) * 3
