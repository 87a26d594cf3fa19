"""Command-line entry point.

Subcommands: winner, grundy, reduce, verify, play, export-dot.  Verdicts go
to stdout, solver stats to stderr.  Exit codes for winner: 0 first player,
1 second player, 2 error or inconclusive.
"""

from __future__ import annotations

import argparse
import sys
import time

from .games import (
    KaylesGame,
    PosetGame,
    SetGameRules,
    format_setgame,
    parse_setgame,
)
from .graphs import parse_graph
from .posets import format_poset, parse_poset, to_dot
from .reductions import format_phi_mapping, poset_to_setgame, reduce_kayles_to_poset
from .solver import (
    BudgetExceeded,
    GameValue,
    SearchStats,
    TranspositionTable,
    best_move,
    grundy,
    solve_winner,
)
from .suites import DEFAULT_BUDGET, DEFAULT_SEED, SUITES


def _read_file(path: str) -> str:
    with open(path) as f:
        return f.read()


def _load_game(path: str, game: str):
    text = _read_file(path)
    if game == "kayles":
        return KaylesGame(parse_graph(text))
    if game == "poset":
        return PosetGame(parse_poset(text))
    return SetGameRules(parse_setgame(text))  # --game is an argparse choice of the three


def _write(path: str | None, text):
    chunks = (text,) if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as f:
            f.writelines(chunks)


def _budget(args) -> int | None:
    """The ``--budget`` of a solver subcommand, which must be positive if given."""
    if args.budget is not None and args.budget < 1:
        raise ValueError("budget must be positive")
    return args.budget


def cmd_solve(args) -> int:
    """``winner`` prints first/second and exits 0/1; ``grundy`` prints the value.
    The stats line goes to stderr also when the budget runs out, before the
    ``undecided`` line, and the exit code is then 2."""
    stats = SearchStats(budget=_budget(args))
    rules = _load_game(args.input, args.game)
    t0 = time.perf_counter()
    table = TranspositionTable()
    solve = solve_winner if args.command == "winner" else grundy
    try:
        value = solve(rules, table=table, stats=stats)
    except BudgetExceeded:
        value = None
    millis = (time.perf_counter() - t0) * 1000
    print(
        f"states={stats.states} hits={table.hits} millis={millis:.1f}",
        file=sys.stderr,
    )
    if value is None:
        print("undecided: budget exhausted", file=sys.stderr)
        return 2
    if args.command == "grundy":
        print(value)
        return 0
    print("first" if value is GameValue.WIN else "second")
    return 0 if value is GameValue.WIN else 1


def cmd_reduce(args) -> int:
    if (args.src, args.dst) not in (("kayles", "poset"), ("poset", "setgame")):
        raise ValueError(
            f"unsupported reduction {args.src} -> {args.dst} (supported: kayles -> poset, poset -> setgame)"
        )
    if args.map_out and args.src != "kayles":
        raise ValueError("--map-out maps a graph onto its poset: it needs --from kayles --to poset")
    text = _read_file(args.input)
    if args.src == "kayles":
        image = reduce_kayles_to_poset(parse_graph(text))
        _write(args.out, format_poset(image.poset))
        if args.map_out:
            _write(args.map_out, format_phi_mapping(image))
        if args.dot:
            _write(args.dot, to_dot(image.poset, image.levels))
        return 0
    poset = parse_poset(text)
    _write(args.out, format_setgame(poset_to_setgame(poset)))
    if args.dot:
        _write(args.dot, to_dot(poset))
    return 0


def cmd_verify(args) -> int:
    from .verify import SuiteConfig, run_suite  # the other subcommands never load the suites

    config = SuiteConfig(
        suite=args.suite,
        max_n=args.max_n,
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
    )
    report = run_suite(config)
    sys.stdout.write(report.to_text())
    if args.out:
        _write(args.out, report.record_lines())  # one line at a time, never the whole file
    return 0 if report.passed else 1


def cmd_export_dot(args) -> int:
    poset = parse_poset(_read_file(args.input))
    _write(args.out, to_dot(poset))
    return 0


def cmd_play(args) -> int:
    budget = _budget(args)
    rules = _load_game(args.input, args.game)
    pos = rules.initial()
    table = TranspositionTable()
    human_to_move = not args.engine_first
    print(f"playing {args.game}; moves are indices, last player to move wins")
    while True:
        moves = rules.moves(pos)
        print(f"position: {sorted(moves)} available")
        if not moves:
            print("no moves left:", "engine wins" if human_to_move else "you win")
            return 0
        if human_to_move:
            try:
                line = input("your move> ")
            except EOFError:
                print()
                return 0
            try:
                mv = int(line.strip())
            except ValueError:
                print("enter a move index")
                continue
            if mv not in moves:
                print(f"illegal move {mv}")
                continue
        else:
            try:
                mv = best_move(rules, pos, table=table, budget=budget)
            except BudgetExceeded:
                print("undecided: budget exhausted", file=sys.stderr)
                return 2
            if mv is None:
                mv = moves[0]  # lost position: any move
            print(f"engine plays {rules.describe_move(mv)}")
        pos = rules.apply(pos, mv)
        human_to_move = not human_to_move


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetgames",
        description="Solve, reduce, and verify small impartial games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_cmd(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="instance file")
        p.add_argument("--game", choices=("kayles", "poset", "setgame"), required=True)
        p.add_argument("--budget", type=int, default=None, help="max states to visit (play: per engine move)")
        p.set_defaults(fn=fn)
        return p

    add_solver_cmd("winner", cmd_solve, "print which player wins (first/second)")
    add_solver_cmd("grundy", cmd_solve, "print the Grundy number of the full position")

    p = sub.add_parser("reduce", help="rewrite an instance into another game")
    p.add_argument("input")
    p.add_argument("--from", dest="src", choices=("kayles", "poset"), required=True)
    p.add_argument("--to", dest="dst", choices=("poset", "setgame"), required=True)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--map-out", default=None, help="element mapping sidecar (kayles->poset)")
    p.add_argument("--dot", default=None, help="also write a Hasse diagram in DOT")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify", help="run a brute-force verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--max-n", type=int, default=None, help="largest source-graph size")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, for any suite; the report is the same. At most one per CPU is"
        " started, and none on one CPU. A pool pays on long runs only: on 2 CPUs --jobs 2"
        " took theorem --max-n 5 from 0.78 to 0.54 s, but lemma4 from 76 to 98 ms and psi"
        " from 170 to 374 ms",
    )
    p.add_argument("--out", default=None, help="write per-instance JSON records here")
    p.set_defaults(fn=cmd_verify)

    p = add_solver_cmd("play", cmd_play, "interactive play against the solver")
    p.add_argument("--engine-first", action="store_true")

    p = sub.add_parser("export-dot", help="Hasse diagram of a poset file as DOT")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # bad input; FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # sizes the parser accepts can still be past any machine
        print("error: the input needs more memory than is available", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in the program: exit 1 would read as "second"
        import traceback  # only a failing run pays for it

        traceback.print_exc()
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
