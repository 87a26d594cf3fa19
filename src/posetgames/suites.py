"""Names and defaults of the verification suites.

The command line builds its parser from these alone, so that only its
``verify`` subcommand imports the suites themselves (the ``verify`` module)."""

SUITES = ("theorem", "lemma1", "lemma2", "lemma3", "lemma4", "setgame", "psi")

# arbitrary constant, fixed so that sampled regimes are reproducible
DEFAULT_SEED = 1381187924
DEFAULT_BUDGET = 5_000_000
