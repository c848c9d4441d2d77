"""A sweep of the command line's input space, run in process.

Each subcommand runs through ``cli.main`` with one flag at each of a fixed
list of edge values, and with each pair of its numeric flags at each pair of
six values.  The flags come from the subcommand's own parser, and the
single-flag sweep adds simulate-mcrb's ``--sweep`` of either parameter and
each figure's ``--set`` keys.  simulate-* runs take ``--trials 2``, and
simulate-detect runs both estimator models.  Every run must exit 0, 2 or 3 and
raise nothing else, and a run that exits 0 must print no ``nan`` or ``inf``
outside its ``#`` header.  A run that exits 2 must say what it refused:
argparse's usage error, an error that leads with the names of the settings
it refused, or an OSError that names the ``--config`` path.

A pair runs only the values that each flag's own rule, the parser of its
config field, takes: a value that the rule refuses exits 2 as soon as the
flag is read, whatever the other flag holds, as its single-flag run does.
"""

import contextlib
import dataclasses
import io
import itertools
import re

from rfid_doppler import cli
from rfid_doppler import experiments as X
from rfid_doppler.experiments import ConfigError, ExperimentConfig

EDGE_VALUES = ("nan", "inf", "-inf", "0", "-0", "-1", "1e-300", "5e-324", "1e300",
               "1e-9", "1e9", "1e-3", "2.5", "", "x", "1,2")
PAIR_VALUES = ("1e-300", "1e300", "0", "-1", "1e-9", "1e9")
# flags that take a value but not a number; --out would write files
TEXT_FLAGS = {"--config", "--mode", "--encoding", "--sweep", "--set"}
SKIPPED = {"--out"}
FIELDS = {field.name for field in dataclasses.fields(ExperimentConfig)}

# the arguments every run of a subcommand starts from, and the keys that the
# single-flag sweep adds to the subcommand's flags; a swept flag comes after
# the arguments, so it overrides them
BASES = [
    (["bounds"], []),
    (["vmin"], []),
    *((["figure", str(figure_id)], [f"--set={key}=" for key in params])
      for figure_id, (_, params) in sorted(X._FIGURES.items())),
    (["simulate-mcrb", "--trials", "2"], ["--sweep=ps_n0_dbhz=", "--sweep=t0_s="]),
    (["simulate-detect", "--trials", "2"], []),
    (["simulate-detect", "--trials", "2", "--estimator", "baseband"], []),
    (["noise-figure"], []),
]
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
# 'config error: NAME: ...' or 'error: NAME: ...', where NAME may join several
# names with '/' or ', '
REFUSAL = re.compile(r"(?:config )?error: (.+?): ")
FIGURE_KEYS = {key for _, params in X._FIGURES.values() for key in params}


def nameable(name):
    """What a refusal by subcommand ``name`` may name: a config field, a
    figure key, or one of the subcommand's flag dests and option strings."""
    actions = cli._subcommand_parser(name)._actions
    return FIELDS | FIGURE_KEYS | {action.dest for action in actions} \
        | {option for action in actions for option in action.option_strings}


NAMEABLE = {name: nameable(name) for name in cli._SUBCOMMANDS}


def names_what_it_refused(argv, err):
    """Whether ``err``, the stderr of a run that exits 2, says what it refused."""
    if err.startswith("usage: ") and ": error: " in err:
        return True
    paths = [piece.partition("=")[2] for piece in argv if piece.startswith("--config=")]
    if paths and repr(paths[-1]) in err:
        return True     # the OSError of a config file that cannot be read
    found = REFUSAL.match(err)
    return found is not None and set(re.split(r"/|, ", found[1])) <= NAMEABLE[argv[0]]


def run(argv):
    """None if ``main(argv)`` exits 0, 2 or 3, exiting 0, prints only finite
    numbers outside the ``#`` header, and exiting 2, says what it refused;
    else what went wrong."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # any other exception is an escape
            return f"raised {type(exc).__name__}: {exc}"
    if code not in (0, 2, 3):
        return f"exit {code}"
    printed = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    if code == 0 and any(map(NON_FINITE.search, printed)):
        return "printed a number that is not finite"
    if code == 2 and not names_what_it_refused(argv, err.getvalue()):
        return f"refused naming no setting: {err.getvalue().strip()}"
    return None


def own_rule_takes(dest, value):
    """Whether the rule of config field ``dest`` takes ``value``; a flag that
    sets no config field takes every value."""
    if dest not in FIELDS:
        return True
    try:
        ExperimentConfig().set_field(dest, value)
    except ConfigError:
        return False
    return True


def swept_flags(base, keys):
    """(single, numeric) flags of the subcommand of ``base``: single holds,
    per flag or key, the argv pieces that set it, one per value; numeric
    holds, per flag, the pieces of the pair values that its rule takes."""
    single, numeric = [[key + value for value in EDGE_VALUES] for key in keys], []
    for action in cli._subcommand_parser(base[0])._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        if flag is None or flag in SKIPPED or action.dest == "help":
            continue
        if action.nargs == 0:
            single.append(action.option_strings)
        elif action.choices is not None:
            single.append([f"{flag}={choice}" for choice in [*action.choices, "x"]])
        else:
            single.append([f"{flag}={value}" for value in EDGE_VALUES])
            if flag not in TEXT_FLAGS:
                numeric.append([f"{flag}={value}" for value in PAIR_VALUES
                                if own_rule_takes(action.dest, value)])
    return single, numeric


def sweep_runs():
    for base, keys in BASES:
        single, numeric = swept_flags(base, keys)
        for pieces in single:
            for piece in pieces:
                yield base + [piece]
        for first, second in itertools.combinations(numeric, 2):
            for pair in itertools.product(first, second):
                yield base + list(pair)


def test_every_input_exits_0_2_or_3_and_prints_only_finite_numbers():
    escapes = []
    for argv in sweep_runs():
        found = run(argv)
        if found is not None:
            escapes.append(f"{' '.join(argv)}: {found}")
    assert escapes == []
