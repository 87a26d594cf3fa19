import dis
import inspect
import random
import sys
from fractions import Fraction
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
    SetGameRules,
    TranspositionTable,
    best_move,
    chain,
    enumerate_labeled_graphs,
    format_poset,
    grundy,
    parse_poset,
    phi,
    poset_to_setgame,
    psi,
    random_poset,
    solve_winner,
)
from posetgames import solver
from posetgames.posets import mask_to_sorted
from posetgames.verify import DEFAULT_SEED, SuiteConfig, run_suite
from oracle import (
    is_down_set,
    memo_poset_grundy,
    naive_kayles_grundy,
    naive_links,
    naive_mex,
    naive_poset_grundy,
    naive_setgame_grundy,
)
from shapes import antichain, complete_graph, components, graph_sum, poset_sum, set_game, sets_of

P3 = Graph.of(3, [(0, 1), (1, 2)])
K2K2 = graph_sum(complete_graph(2), complete_graph(2))
C8 = Graph.of(8, [(i, i + 1) for i in range(7)] + [(0, 7)])


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
        assert grundy(KaylesGame(graph_sum(complete_graph(2), complete_graph(4)))) == 0

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
        game = PosetGame(poset_sum(chain(2), chain(3)))
        solve_winner(game, table=table)
        value = grundy(game, table=table)
        assert type(value) is int and value == 1
        assert all(type(v) is int for v in table.values.values())

    def test_deep_top_first_chain(self):
        # x+1 <= x: element 0 is the top, so low indices remove little
        m = 1500
        game = PosetGame(Poset.from_pairs(m, [(x + 1, x) for x in range(m - 1)]))
        assert grundy(game) == m


class TestTableRules:
    """A table is bound to the rules of its first solve.  Games with equal
    rules still share it (``test_table_shared_with_winner_keeps_ints``)."""

    @pytest.mark.parametrize(
        "other",
        [
            lambda: PosetGame(antichain(3)),  # other kill masks
            lambda: PosetGame(chain(4)),  # another size
            lambda: SetGameRules(poset_to_setgame(chain(3))),  # other legal masks
        ],
        ids=["antichain-3", "chain-4", "setgame-chain-3"],
    )
    @pytest.mark.parametrize("solve", [solve_winner, grundy, best_move])
    def test_other_rules_rejected(self, solve, other):
        table = TranspositionTable()
        assert grundy(PosetGame(chain(3)), table=table) == 3
        with pytest.raises(ValueError, match="other rules"):
            solve(other(), table=table)
        assert table.values[0b111] == 3


def path(n):
    return Graph.of(n, [(i, i + 1) for i in range(n - 1)])


def dawson(n):
    """Node Kayles on P_n: picking vertex i leaves P_(i-1) and P_(n-i-2)."""
    g = [0] * (n + 1)
    for k in range(1, n + 1):
        g[k] = naive_mex({g[max(i - 1, 0)] ^ g[max(k - i - 2, 0)] for i in range(k)})
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
        g = graph_sum(a, b)
        assert_solves(KaylesGame(g), None, naive_kayles_grundy(g))

    @given(
        st.integers(1, 5), st.floats(0, 1), st.integers(0, 99),
        st.integers(1, 4), st.floats(0, 1), st.integers(0, 99),
    )
    @settings(max_examples=40, deadline=None)
    def test_poset_disjoint_sum(self, m1, d1, s1, m2, d2, s2):
        p = poset_sum(random_poset(m1, d1, s1), random_poset(m2, d2, s2))
        assert_solves(PosetGame(p), None, naive_poset_grundy(p))

    @given(set_family(5), set_family(4))
    @settings(max_examples=40, deadline=None)
    def test_setgame_disjoint_groups(self, left, right):
        sets = left + [frozenset(e + 5 for e in s) for s in right]
        assert_solves(SetGameRules(set_game(9, tuple(sets))), None, naive_setgame_grundy(sets))

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
        game = SetGameRules(set_game(9, tuple(sets)))
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
        game = SetGameRules(set_game(3, tuple(sets)))
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
        # Grundy search has no twin rule: the win/loss search after it (of an unsplit root) builds the keys
        for game in (KaylesGame(C8), PosetGame(phi(psi(complete_graph(3))).poset), PosetGame(chain(6))):
            grundy(game)
            assert "twins" not in game.__dict__
            solve_winner(game)
            assert "twins" in game.__dict__


class TestDawsonImages:
    """The poset side of phi(psi(g)) against Dawson's Kayles, an answer key
    that needs no search: G(n) is the Grundy value of Node Kayles on P_n
    (``dawson``), and psi's padding is *1 + *1 = 0.  A cycle C_n has one
    move up to rotation, to P_(n-3); a union P_a + P_b is worth G(a) ^ G(b),
    while its image is connected through the gamma level, so the poset side
    solves it whole."""

    @staticmethod
    def poset_side(g):
        return solve_winner(PosetGame(phi(psi(g)).poset))

    @pytest.mark.parametrize("n", range(15))
    def test_path(self, n):
        assert self.poset_side(path(n)) is outcome(dawson(n))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle(self, n):
        assert self.poset_side(Graph.of(n, [(i, (i + 1) % n) for i in range(n)])) is outcome(dawson(n - 3) == 0)

    def test_two_path_unions(self):
        pairs = [(a, b) for a in range(1, 12) for b in range(a, 13 - a)]
        assert len(pairs) == 36
        for a, b in pairs:
            assert self.poset_side(graph_sum(path(a), path(b))) is outcome(dawson(a) ^ dawson(b)), (a, b)


class TestAntichains:
    """Win/loss search answers an antichain by its parity, without searching
    it: it is a sum of single elements, each worth *1."""

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
    def test_poset_antichain(self, k):
        game = PosetGame(antichain(k))
        calls = component_calls(game)
        table, stats = TranspositionTable(), SearchStats()
        assert solve_winner(game, table=table, stats=stats) is outcome(k % 2)
        assert stats.states <= 1
        assert table.wins[game.initial()] is (k % 2 == 1)
        assert calls == []  # the root was not split

    @pytest.mark.parametrize(
        "pos, want", [(0b0101_0101, GameValue.LOSS), (0b0001_0101, GameValue.WIN)], ids=["four", "three"])
    def test_kayles_independent_set(self, pos, want):
        game = KaylesGame(C8)
        stats = SearchStats()
        assert solve_winner(game, pos, stats=stats) is want
        assert stats.states <= 1

    def test_down_sets_against_oracle(self):
        # the seeded posets of acceptance criterion 7, up to 8 elements
        antichains = 0
        for i in range(200):
            rng = random.Random(DEFAULT_SEED * 1_000_003 + i)
            m = rng.randint(1, 12)
            density = rng.uniform(0.1, 0.9)
            if m > 8:
                continue
            p = random_poset(m, density, DEFAULT_SEED * 7_919 + i)
            game = PosetGame(p)
            for pos in range(1 << m):
                if is_down_set(p, pos):
                    antichains += game.antichain_win(pos) is not None
                    want = naive_poset_grundy(p, frozenset(mask_to_sorted(pos)))
                    assert solve_winner(game, pos) is outcome(want), f"{pos:b} in {p.up}"
        assert antichains > 1000

    def test_set_game_keeps_its_search(self):
        # its masks are those of the poset game on antichain(5)
        stats = SearchStats()
        assert solve_winner(SetGameRules(poset_to_setgame(antichain(5))), stats=stats) is GameValue.WIN
        assert stats.states == 5


class TestChains:
    """Grundy search answers a chain of a poset game as the Nim heap of its
    size, and a clique of Kayles as *1, without searching it."""

    def test_every_position_against_oracle(self):
        # every subset, not only the down-sets: x < y < z without y is a chain too
        chains = 0
        for i in range(60):
            rng = random.Random(DEFAULT_SEED + i)
            p = random_poset(rng.randint(1, 7), rng.uniform(0.3, 1), DEFAULT_SEED * 31 + i)
            game = PosetGame(p)
            for pos in range(1 << p.m):
                chains += any((game.nim_heap(part) or 0) > 1 for part in components(game, pos))
                want = naive_poset_grundy(p, frozenset(mask_to_sorted(pos)))
                assert grundy(game, pos) == want, f"{pos:b} in {p.up}"
        assert chains > 1000  # 1 157 of the 2 100 positions hold a chain of two or more

    def test_every_kayles_position_against_oracle(self):
        # every subset of each graph, with one table per graph
        cliques = 0
        for i in range(60):
            rng = random.Random(DEFAULT_SEED + i)
            n = rng.randint(1, 7)
            density = rng.uniform(0.2, 0.9)
            g = Graph.of(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
            game, table = KaylesGame(g), TranspositionTable()
            for pos in range(1 << n):
                cliques += any(part.bit_count() > 1 and game.nim_heap(part) for part in components(game, pos))
                want = naive_kayles_grundy(g, frozenset(mask_to_sorted(pos)))
                assert grundy(game, pos, table) == want, f"{pos:b} in {sorted(g.edges)}"
                assert solve_winner(game, pos, table) is outcome(want), f"{pos:b} in {sorted(g.edges)}"
        assert cliques > 600  # 724 of the 2 100 positions hold a clique of two or more

    @given(
        # the oracle takes exponential time in the parts' sizes: 4 + 4 + 4 elements take 20 s
        st.integers(0, 3), st.floats(0, 1), st.integers(0, 99),
        st.lists(st.integers(1, 3), max_size=2), st.integers(0, 4), st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sums_with_chains_against_oracle(self, m, density, seed, lengths, steps, data):
        p = poset_sum(random_poset(m, density, seed), *map(chain, lengths))
        game = PosetGame(p)
        pos = play(game, data, steps)
        assert_solves(game, pos, naive_poset_grundy(p, frozenset(mask_to_sorted(pos))))

    def test_reversed_chains_are_two_states(self):
        for solve, want in ((grundy, 120 ^ 100), (solve_winner, GameValue.WIN)):
            table, stats = TranspositionTable(), SearchStats()
            assert solve(reversed_chains(120, 100), table=table, stats=stats) == want
            assert stats.states == 2
            low, high = (1 << 120) - 1, (1 << 220) - (1 << 120)
            assert (table.values[low], table.values[high]) == (120, 100)

    def test_budget_counts_each_chain(self):
        stats = SearchStats()
        with pytest.raises(BudgetExceeded) as exc:
            grundy(reversed_chains(120, 100), budget=1, stats=stats)
        assert exc.value.states == stats.states == 2

    def test_kayles_clique_is_star_one(self):
        # every move clears a clique, so it is *1 whatever its size
        game = KaylesGame(complete_graph(5))
        stats = SearchStats()
        assert grundy(game, stats=stats) == 1
        assert stats.states == 1
        assert [game.nim_heap(q) for q in (game.initial(), 0b100, 0b110, 0)] == [1, 1, 1, 0]
        assert KaylesGame(P3).nim_heap(0b111) is None

    def test_set_game_keeps_its_search(self):
        # the upper cones of a 6-chain: a chain of sets, each in the next
        stats = SearchStats()
        assert grundy(SetGameRules(poset_to_setgame(chain(6))), stats=stats) == 6
        assert stats.states > 1

    def test_win_loss_search_does_not_build_the_test(self):
        game = PosetGame(phi(psi(complete_graph(3))).poset)
        solve_winner(game)
        assert "nim_heap" not in game.__dict__


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or not (3, 11) <= sys.version_info[:2] <= (3, 13),
    reason="counts the code units of CPython's relative jumps, 3.11 to 3.13",
)
def test_move_loop_jumps_without_extended_arg():
    # The loop test jumps over the whole body when the loop ends, and back
    # from its end, and each ``continue`` jumps back to it.  A jump of more
    # than 255 code units carries an EXTENDED_ARG, which every move of every
    # search pays.  (CPython 3.10 jumps backward to absolute offsets.)  A
    # popped frame enters the loop by a forward jump from the pop dispatch,
    # across the dispatch code below it.  Those jumps stay within 64 units,
    # so the sum-frame code cannot move back between the pop and the loop.
    # A budget overrun leaves the loops by their normal exit, and the solve
    # raises after the ``finally``: the loops hold no raise.
    lines, first = inspect.getsourcelines(solver._solve)
    loop = first + next(k for k, line in enumerate(lines) if line.strip() == "while (i := i + 1) < n:")
    pop = first + next(k for k, line in enumerate(lines) if line.strip() == "p, i, seen = stack.pop()")
    code = list(dis.get_instructions(solver._solve))
    line_at, line = {}, None
    for ins in code:
        if ins.starts_line:  # from 3.13 a bool, with the line in line_number
            line = ins.line_number if sys.version_info >= (3, 13) else ins.starts_line
        line_at[ins.offset] = line
    jumps = [ins for ins in code if ins.opcode in dis.hasjrel and loop in (line_at[ins.offset], line_at[ins.argval])]
    assert any(ins.opname == "JUMP_BACKWARD" for ins in jumps)
    assert max(ins.arg for ins in jumps) <= 255, [(ins.opname, ins.arg) for ins in jumps]
    resumes = [ins for ins in jumps if pop < line_at[ins.offset] < loop and ins.argval > ins.offset]
    assert len(resumes) >= 3  # from a sum frame, a Grundy move frame and a win/loss move frame
    assert max(ins.arg for ins in resumes) <= 64, [(ins.opname, ins.arg, line_at[ins.offset] - first) for ins in resumes]
    start = first + next(k for k, line in enumerate(lines) if line.strip() == "while True:")
    end = first + next(k for k, line in enumerate(lines) if line.strip() == "finally:")
    raises = [line_at[ins.offset] - first for ins in code if ins.opname == "RAISE_VARARGS" and start <= line_at[ins.offset] <= end]
    assert not raises, raises


def reversed_chains(*lengths):
    """Disjoint chains listed top-first (x+1 <= x), so the lowest-index move
    removes only a top element and a search of the whole sum runs deep."""
    pairs, base = [], 0
    for length in lengths:
        pairs += [(base + x + 1, base + x) for x in range(length - 1)]
        base += length
    return PosetGame(Poset.from_pairs(base, pairs))


def component_calls(game):
    """A list of the positions ``game.component`` is asked about from now on."""
    calls = []
    split = game.component
    game.component = lambda pos: calls.append(pos) or split(pos)
    return calls


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
        g = graph_sum(a, b)
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
    def test_first_part_is_not_split_again(self, build):
        # the root check finds the root split, and a Grundy solve of the root
        # splits it again; the first part is then searched, not split
        game = build()
        part = game.component(game.initial())
        calls = component_calls(game)
        solve_winner(game)
        assert calls.count(game.initial()) == 2
        assert part not in calls

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
        # the bottom of a chain clears it, so it is connected
        game = PosetGame(chain(1500))
        calls = component_calls(game)
        assert solve_winner(game) is GameValue.WIN
        assert calls == []

    def test_budget_counts_the_parts(self):
        stats = SearchStats()
        with pytest.raises(BudgetExceeded) as exc:
            solve_winner(KaylesGame(graph_sum(C8, C8)), budget=3, stats=stats)
        assert exc.value.states == stats.states == 4


class TestLazySplit:
    """A sum frame splits off one part at a time, and answers what is left
    from the table whole when the table holds it.  One table serves every
    position of a game, so later positions meet stored parts and rests."""

    kayles_parts = st.lists(
        st.one_of(
            st.integers(1, 4).map(path),
            st.integers(1, 4).map(complete_graph),
            st.integers(1, 3).map(Graph.of),  # isolated vertices
            small_graph(4),
        ),
        min_size=1, max_size=4,
    ).filter(lambda parts: sum(g.n for g in parts) <= 8)  # the oracle takes n! steps on n isolated vertices

    poset_parts = st.lists(
        st.one_of(
            st.integers(1, 4).map(chain),
            st.integers(1, 3).map(antichain),
            st.builds(random_poset, st.integers(1, 4), st.floats(0, 1), st.integers(0, 99)),
        ),
        min_size=1, max_size=4,
    ).filter(lambda parts: sum(p.m for p in parts) <= 8)

    @staticmethod
    def assert_positions(game, positions, naive):
        table = TranspositionTable()
        for pos in [q & game.initial() for q in positions] + [game.initial()]:
            want = naive(frozenset(mask_to_sorted(pos)))
            assert solve_winner(game, pos, table) is outcome(want), f"position {pos:b}"
            assert grundy(game, pos, table) == want, f"position {pos:b}"

    @given(kayles_parts, st.lists(st.integers(0, 255), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_kayles_sums_against_oracle(self, parts, positions):
        g = graph_sum(*parts)
        self.assert_positions(KaylesGame(g), positions, lambda alive: naive_kayles_grundy(g, alive))

    @given(poset_parts, st.lists(st.integers(0, 255), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_poset_sums_against_oracle(self, parts, positions):
        p = poset_sum(*parts)
        self.assert_positions(PosetGame(p), positions, lambda alive: naive_poset_grundy(p, alive))

    @pytest.mark.parametrize("solve, want", [(grundy, 0), (solve_winner, GameValue.LOSS)])
    def test_stored_rest_answers_the_sum(self, solve, want):
        # P5 + P3 + K1, with P3 + K1 (*2 + *1) stored whole and P5 (*3) on
        # its own: the sum is P5's value XOR that of the rest, from two hits
        # and no state, where a look-up of each part would take three hits
        game = KaylesGame(Graph.of(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]))
        table, stats = TranspositionTable(), SearchStats()
        assert grundy(game, 0b1_1110_0000, table, stats=stats) == 3
        assert grundy(game, 0b0_0001_1111, table, stats=stats) == 3
        assert (stats.states, table.hits) == (12, 5)
        assert solve(game, table=table, stats=stats) == want
        assert (stats.states, table.hits) == (12, 7)

    def test_connected_position_is_looked_up_once(self):
        # P3 and its children {0} and {2} are connected, so each is looked
        # up only where it first misses, and so is the empty child
        class Lookups(dict):
            def get(self, key):
                keys.append(key)
                return super().get(key)

        keys = []
        table = TranspositionTable()
        table.values = Lookups()
        assert grundy(KaylesGame(P3), table=table) == 2
        assert sorted(keys) == [0, 0b001, 0b100, 0b111]


class TestBudgetExits:
    """A budget overrun stops the search at any of its three count sites,
    with the count one past the budget, and leaves no entry for a position
    it did not finish: the same table then solves the game as the oracle does."""

    @staticmethod
    def overrun(solve, game, table, stats, budget):
        with pytest.raises(BudgetExceeded) as exc:
            solve(game, table=table, budget=budget, stats=stats)
        assert exc.value.states == stats.states == budget + 1
        assert game.initial() not in (table.values if solve is grundy else table.wins)

    @staticmethod
    def assert_solved(solve, game, table):
        want = naive_kayles_grundy(C8)
        assert solve(game, table=table) == (want if solve is grundy else outcome(want))

    def test_win_loss_descent(self):
        # C8 is connected and its first move leaves P5: the root is counted
        # before the loops, and the descent into a grandchild overruns
        game, table = KaylesGame(C8), TranspositionTable()
        self.overrun(solve_winner, game, table, SearchStats(), 2)
        self.assert_solved(solve_winner, game, table)

    def test_sum_frame_part(self):
        # Grundy search counts each position as a part of a sum frame
        game, table = KaylesGame(C8), TranspositionTable()
        self.overrun(grundy, game, table, SearchStats(), 3)
        self.assert_solved(grundy, game, table)

    def test_root_check(self):
        # stats already at their budget: the root overruns before the search
        # builds anything for its moves
        stats = SearchStats()
        solve_winner(KaylesGame(P3), stats=stats)
        game, table = KaylesGame(C8), TranspositionTable()
        self.overrun(solve_winner, game, table, stats, stats.states)
        assert len(table) == 0
        assert not {"twins", "antichain_win"} & game.__dict__.keys()
        self.assert_solved(solve_winner, game, table)


class TestPositionRange:
    """A position outside the game's elements is rejected at every entry."""

    @pytest.mark.parametrize("pos", [-1, 1 << 3, 0b1111])
    @pytest.mark.parametrize("solve", [solve_winner, grundy, best_move])
    def test_rejected(self, solve, pos):
        with pytest.raises(ValueError, match="not a set of the game's 3 elements"):
            solve(PosetGame(chain(3)), pos)

    @pytest.mark.parametrize("pos", [-1, -8, 1 << 3, 0b1111])
    @pytest.mark.parametrize("solve", [solve_winner, grundy])
    def test_rejected_on_a_warm_table(self, solve, pos):
        # every position of the game is stored, so only the check can refuse it
        game, table = PosetGame(chain(3)), TranspositionTable()
        for p in range(8):
            solve_winner(game, p, table)
            grundy(game, p, table)
        with pytest.raises(ValueError, match="not a set of the game's 3 elements"):
            solve(game, pos, table)


class TestStoredRoot:
    """A root the table holds is answered by one lookup: one table hit, no
    state, no position check and no stats built; a passed budget still
    lands in the stats.  A position that is not an int is refused first,
    even where it equals a stored one."""

    @pytest.mark.parametrize("solve", [solve_winner, grundy])
    @pytest.mark.parametrize("pos", [None, 0b011, 0])
    def test_one_hit_and_no_state(self, solve, pos, monkeypatch):
        game, table, stats = KaylesGame(P3), TranspositionTable(), SearchStats()
        first = solve(game, pos, table, stats=stats)
        states, hits = stats.states, table.hits

        def refuse(*args, **kwargs):
            raise AssertionError("a stored root was checked or given stats")

        monkeypatch.setattr(game, "_check_position", refuse)
        monkeypatch.setattr(solver, "SearchStats", refuse)
        assert solve(game, pos, table, stats=stats) == first
        assert solve(game, pos, table) == first
        assert (stats.states, table.hits) == (states, hits + 2)

    @pytest.mark.parametrize("solve", [solve_winner, grundy])
    def test_budget_lands_in_stats(self, solve):
        game, table, stats = KaylesGame(C8), TranspositionTable(), SearchStats()
        solve(game, table=table, budget=1000, stats=stats)  # a miss
        assert stats.budget == 1000
        solve(game, table=table, budget=7, stats=stats)  # a stored root
        assert stats.budget == 7
        solve(game, table=table, stats=stats)  # no budget passed: the stats keep theirs
        assert stats.budget == 7


    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "fresh"])
    @pytest.mark.parametrize("entry", ["solve_winner", "grundy", "best_move", "apply"])
    @pytest.mark.parametrize("pos", [3.0, Fraction(3)], ids=["float", "Fraction"])
    def test_non_int_rejected(self, pos, entry, warm):
        # 3.0 and Fraction(3) hash and compare equal to the stored set 3, so
        # only the check before the lookup can refuse them
        game, table = PosetGame(chain(3)), TranspositionTable()
        if warm:
            solve_winner(game, 3, table)
            grundy(game, 3, table)
        call = {
            "solve_winner": lambda: solve_winner(game, pos, table),
            "grundy": lambda: grundy(game, pos, table),
            "best_move": lambda: best_move(game, pos, table),
            "apply": lambda: game.apply(pos, 0),
        }[entry]
        with pytest.raises(TypeError, match=f"not {type(pos).__name__}$"):
            call()


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
                whole = grundy(KaylesGame(graph_sum(a, b)))
                assert whole == grundy(KaylesGame(a)) ^ grundy(KaylesGame(b))

    @given(
        st.integers(1, 5), st.floats(0, 1), st.integers(0, 99),
        st.integers(1, 4), st.floats(0, 1), st.integers(0, 99),
    )
    @settings(max_examples=40)
    def test_xor_additivity_posets(self, m1, d1, s1, m2, d2, s2):
        p1, p2 = random_poset(m1, d1, s1), random_poset(m2, d2, s2)
        assert grundy(PosetGame(poset_sum(p1, p2))) == grundy(PosetGame(p1)) ^ grundy(PosetGame(p2))


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
        assert grundy(SetGameRules(s)) == naive_setgame_grundy(list(sets_of(s)))


class TestAgainstMemoOracle:
    """Past the naive oracle's reach, 12 to 27 elements, against the memoized
    one: the twin, antichain and split rules all act at these sizes."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_phi_images(self, n):
        for g in enumerate_labeled_graphs(n):
            p = phi(psi(g)).poset
            assert_solves(PosetGame(p), None, memo_poset_grundy(p.m, p.up))

    def test_random_posets(self):
        rng = random.Random(DEFAULT_SEED)
        for seed in range(60):
            p = random_poset(rng.randint(12, 20), rng.uniform(0.25, 0.6), seed)
            assert_solves(PosetGame(p), None, memo_poset_grundy(p.m, p.up))

    @pytest.mark.parametrize("tops", [10, 12, 14])
    def test_bottom_below_twin_tops(self, tops):
        p = Poset.from_pairs(tops + 1, [(0, x) for x in range(1, tops + 1)])
        assert_solves(PosetGame(p), None, memo_poset_grundy(p.m, p.up))


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
            parts = components(KaylesGame(g), (1 << g.n) - 1)
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

    def test_keys_of_an_element_game(self):
        # 0 < 2 < 3 and 1 < 3: a key holds the elements comparable to its move's element
        game = PosetGame(Poset.from_pairs(4, [(0, 2), (2, 3), (1, 3)]))
        keys = {legal.bit_length() - 1: key for (legal, _), key in zip(game.order, game.twins)}
        assert keys == {0: 0b1100, 1: 0b1000, 2: 0b1001, 3: 0b0111}
        assert [~keep for _, keep in game.order] == [game.kill[x] for x in (0, 1, 2, 3)]

    def test_kayles_keys_are_neighbourhoods(self):
        game = KaylesGame(C8)
        assert game.twins == tuple(kill ^ legal for legal, kill in zip(game.legal, game.kill))

    def test_set_game_keys_are_kill_masks(self):
        game = SetGameRules(set_game(3, (frozenset({0, 1}), frozenset({2}), frozenset({2}))))
        assert game.order == ((0b011, ~0b011), (0b100, ~0b100), (0b100, ~0b100))
        assert game.twins == (0b011, 0b100, 0b100)

    def test_set_moves_meeting_the_position_alike(self):
        # in {0, 1, 2} the sets {1, 2, 3} and {1, 2} both remove {1, 2}, so
        # once the first has led to a won child the second is skipped, not
        # looked up: 2 table hits without the skip
        sets = [frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({1, 2})]
        game = SetGameRules(set_game(4, tuple(sets)))
        table, stats = TranspositionTable(), SearchStats()
        assert solve_winner(game, 0b0111, table, stats=stats) is outcome(
            naive_setgame_grundy(sets, frozenset({0, 1, 2})))
        assert (stats.states, table.hits) == (4, 1)
        assert_wins_stored_right(game, table)

    @given(st.integers(1, 5), st.floats(0, 1), st.integers(0, 99), st.lists(st.integers(0, 99), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_poset_keys_agree_as_rows_do(self, m, density, seed, picks):
        assert_keys_agree_as_rows_do(PosetGame(with_poset_twins(random_poset(m, density, seed), picks)))

    @given(small_graph(5), st.lists(st.integers(0, 99), max_size=2), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_kayles_keys_agree_as_rows_do(self, g, picks, adjacent):
        if g.n:
            g = with_graph_twins(g, picks, adjacent)
        assert_keys_agree_as_rows_do(KaylesGame(g))


def assert_keys_agree_as_rows_do(game):
    """In every position p, two elements x != y of p have keys that agree
    within p exactly when they are twins by their rows: each kills the same
    other elements of p, each is killed by the same other moves of p, and y
    is in neither row of x."""
    size = game.size
    key = {legal.bit_length() - 1: k for (legal, _), k in zip(game.order, game.twins)}
    out = [kill ^ 1 << x for x, kill in enumerate(game.kill)]
    inn = [sum(1 << a for a in range(size) if a != x and game.kill[a] >> x & 1) for x in range(size)]
    for p in range(1 << size):
        for x in mask_to_sorted(p):
            for y in mask_to_sorted(p):
                if x != y:
                    rows = out[x] & p == out[y] & p and inn[x] & p == inn[y] & p
                    rows = rows and not (out[x] | inn[x]) >> y & 1
                    assert (key[x] & p == key[y] & p) == rows, (p, x, y)


class TestTransposes:
    """The comparability rows ``links`` come from masks each game already
    has, with no transpose: every poset comes with its lower cones, which
    the poset game ORs into its rows, Kayles neighbourhoods are symmetric,
    and a set game ORs each set into the rows of its elements."""

    C5 = Graph.of(5, [(i, (i + 1) % 5) for i in range(5)])

    @pytest.mark.parametrize("g", [complete_graph(3), P3, C5, Graph.of(2)], ids=["K3", "P3", "C5", "E2"])
    def test_phi_image_win_loss(self, g):
        image = phi(psi(g))
        game = PosetGame(image.poset)
        assert solve_winner(game) is solve_winner(KaylesGame(g))
        assert "links" in game.__dict__ and "twins" in game.__dict__
        poset = image.poset
        assert game.links == tuple(up | down for up, down in zip(poset.up, poset.down))

    def test_kayles_win_loss(self):
        game = KaylesGame(self.C5)
        assert solve_winner(game) is GameValue.LOSS
        assert "links" in game.__dict__ and "twins" in game.__dict__
        assert game.links is game.kill

    # each game with its Grundy value; the poset is built once the count has begun
    GAMES = {
        "parsed": (lambda: PosetGame(parse_poset("7\n1 0\n2 1\n4 3\n5 4\n6 5\n")), 3 ^ 4),
        "chain": (lambda: PosetGame(chain(1500)), 1500),
        "antichain": (lambda: PosetGame(antichain(300)), 0),
        "disjoint-sum": (
            lambda: PosetGame(poset_sum(chain(3), antichain(2), random_poset(6, 0.4, 5))), 7),
        "phi-image": (lambda: PosetGame(phi(P3).poset), 1),
        "kayles": (lambda: KaylesGame(graph_sum(psi(P3), C8)), 2),
    }

    @pytest.mark.parametrize("solve", [grundy, solve_winner])
    @pytest.mark.parametrize("name", GAMES)
    def test_element_game_transposes_nothing(self, name, solve):
        build, value = self.GAMES[name]
        game = build()
        assert solve(game) == (value if solve is grundy else outcome(value))

    def test_grundy_on_chain_sum_links_match_naive(self):
        # the set game of a chain sum builds its rows from its sets; the poset game comes with them
        poset = Poset.from_pairs(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        for game in SetGameRules(poset_to_setgame(poset)), PosetGame(poset):
            assert grundy(game) == 3 ^ 4
            assert solve_winner(game, 0b110_0111) is GameValue.WIN  # 3 ^ 2
            assert game.links == naive_links(game)

    def test_empty_game(self):
        game = PosetGame(antichain(0))
        assert solve_winner(game) is GameValue.LOSS
        assert grundy(game) == 0
        assert game.links == ()

    @given(small_graph(7))
    @settings(max_examples=40, deadline=None)
    def test_kayles_links_and_keys(self, g):
        near = [1 << v for v in range(g.n)]
        for u, v in g.edges:
            near[u] |= 1 << v
            near[v] |= 1 << u
        assert_links_and_keys(KaylesGame(g), near)

    @given(st.integers(0, 7), st.floats(0, 1), st.integers(0, 99), small_graph(4))
    @settings(max_examples=40, deadline=None)
    def test_poset_links_and_keys(self, m, density, seed, g):
        """Parsed posets build their rows from the kill masks, ``phi`` images
        from the lower cones they come with."""
        for poset in parse_poset(format_poset(random_poset(m, density, seed))), phi(g).poset:
            up = poset.up
            near = [sum(1 << y for y in range(poset.m) if up[x] >> y & 1 or up[y] >> x & 1) for x in range(poset.m)]
            assert_links_and_keys(PosetGame(poset), near)


def assert_links_and_keys(game, near):
    """``links[x]`` is ``near[x]``, x's comparable set with x, and the twin key
    of each move x in ``game.order`` is that set without x."""
    assert game.links == tuple(near)
    for (legal, _), key in zip(game.order, game.twins):
        assert key == game.links[legal.bit_length() - 1] ^ legal
