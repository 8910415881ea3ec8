"""Fuzz test of the CLI contract: every command line exits 0, 1, 2 or 3,
and none gives a traceback; and the argument parser agrees with the
argparse parser it replaced (tests/reference_parser.py).

Hypothesis draws group specs (orders from 1 to far over every bound,
malformed parameters, nested products and table files, valid or not),
element lists (indices, generator words, exponents, Unicode digits and
stray text), commands with and without their required options, and values
of CAYLEYCODES_MAX_ORDER.  An exception that escapes `main` fails the
test.  The examples are derandomized, so the test is the same on every
run; the command bounds keep every accepted group small.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cayleycodes import __version__, cli
from cayleycodes.cli import main
from reference_parser import build_parser

TABLES = {
    "z3": "3\n0 1 2\n1 2 0\n2 0 1\n",
    # a Latin square with identity 0 that is not associative
    "nonassoc": "5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n",
    "truncated": "3\n0 1 2\n1 2\n",
    "words": "2\nzero one\none zero\n",
    "identity1": "2\n1 0\n0 1\n",
    "empty": "",
    # identity 0, but row 1 holds no 0
    "row_without_identity": "3\n0 1 2\n1 1 1\n2 0 1\n",
    # identity 0 and Latin rows, but column 1 repeats 0
    "latin_rows_only": "3\n0 1 2\n1 0 2\n2 0 1\n",
    # a header whose n^2 entries cannot fit in the file
    "huge_header": "1000000000\n0\n",
}
HUGE = [10**6, 10**12, 2**64, 10**40]

small = st.integers(min_value=1, max_value=8)
params = st.one_of(small, small, st.integers(-2, 0), st.sampled_from(HUGE))


def specs(tables):
    table = st.sampled_from([f"table:{p}" for p in tables] + ["table:", "table:/nonexistent"])
    cyclic = st.builds("cyclic:{}".format, params)
    dihedral = st.builds("dihedral:{}".format, params)
    abelian = st.builds(
        lambda ms: "abelian:" + ",".join(map(str, ms)),
        st.lists(params, min_size=1, max_size=3),
    )
    leaf = st.one_of(
        cyclic, dihedral, abelian, cyclic, dihedral, abelian, table, st.text(max_size=12)
    )

    def product(children):
        return st.builds("product:({})x({})".format, children, children)

    return st.recursive(leaf, product, max_leaves=3)


# groups and elements a user would pass, so that half the examples get past
# parsing and into the commands themselves
VALID_SPECS = st.sampled_from(
    ["cyclic:6", "cyclic:8", "cyclic:12", "dihedral:4", "dihedral:5", "abelian:2,2",
     "abelian:2,4", "abelian:2,2,2", "product:(cyclic:2)x(dihedral:3)"]
)
VALID_ELEMENTS = st.lists(st.integers(0, 5), min_size=1, max_size=3).map(
    lambda xs: ",".join(map(str, xs))
)


def terms():
    # digits that str.isdigit accepts and int() may not ("²"), with a sign
    digits = st.builds(
        str.__add__,
        st.sampled_from(["", "", "-", "--"]),
        st.text(st.sampled_from("07²³①٣௫"), min_size=1, max_size=3),
    )
    name = st.one_of(st.sampled_from(["a", "b", "a1", "a2", "a3", "c", "A", ""]), digits)
    exponent = st.one_of(st.none(), st.integers(-30, 30), st.sampled_from(HUGE))
    word = st.builds(
        lambda n, e: n if e is None else f"{n}^{e}", name, exponent
    )
    index = st.integers(0, 7).map(str)
    words = st.lists(word, min_size=1, max_size=3).map("*".join)
    return st.one_of(
        index,
        index,
        index,
        words,
        words,
        digits,
        st.integers(-3, 40).map(str),
        st.sampled_from(HUGE).map(str),
        st.text(max_size=6),
    )


elements = st.lists(terms(), min_size=1, max_size=3).map(",".join)


@st.composite
def command_lines(draw, tables):
    spec = draw(st.one_of(VALID_SPECS, specs(tables)))
    command = draw(
        st.sampled_from(
            ["classify", "check", "enumerate", "construct", "automorphisms", "verify", "bogus"]
        )
    )
    argv = [command]
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(["", "nonsense", "cor3"]))]
        if argv[-1] == "cor3":
            argv += ["--max-order", "8"]  # removed option: never runs the suite
    else:
        argv.append(spec)
    options = {
        "classify": ["--subgroup"],
        "check": ["--conn", "--code"],
        "enumerate": ["--conn"],
        "construct": ["--subgroup"],
    }.get(command, [])
    for option in options:
        if draw(st.integers(0, 9)):  # drop a required option now and then
            argv += [option, draw(st.one_of(VALID_ELEMENTS, elements))]
    if command in ("check", "enumerate", "construct") and draw(st.booleans()):
        argv.append("--total")
    if command == "automorphisms" and draw(st.booleans()):
        argv.append("--pcp")
        if draw(st.booleans()):
            argv += ["--budget", draw(st.sampled_from(["-1", "0", "x", "3", "40"]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(["0", "7", "-3", "x"]))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--format", "--format=json", "--frobnicate"])))
    env = draw(st.sampled_from([None] * 6 + ["", "abc", "-5", "0", "8", "16"]))
    return argv, env


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    for name, text in TABLES.items():
        (root / f"{name}.txt").write_text(text)
    return [str(root / f"{name}.txt") for name in TABLES] + [str(root)]


def test_every_command_line_exits_0_to_3_without_a_traceback(table_files):
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(command_lines(table_files))
    def run(case):
        argv, env = case
        out, err = io.StringIO(), io.StringIO()
        values = {} if env is None else {"CAYLEYCODES_MAX_ORDER": env}
        with mock.patch.dict(os.environ, values):
            if env is None:
                os.environ.pop("CAYLEYCODES_MAX_ORDER", None)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3), (argv, env, code)
        assert "Traceback" not in err.getvalue(), (argv, env)

    run()


@pytest.mark.parametrize("name", [name for name in TABLES if name != "z3"])
@pytest.mark.parametrize("command", ["classify", "check", "construct", "enumerate"])
def test_every_malformed_table_exits_2_without_a_traceback(table_files, name, command):
    path = table_files[list(TABLES).index(name)]
    options = {"check": ["--conn", "1", "--code", "0"], "enumerate": ["--conn", "1"],
               "construct": ["--subgroup", "0"]}.get(command, [])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main([command, f"table:{path}"] + options) == 2
    assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()


def test_huge_header_reports_the_entry_count(table_files):
    path = table_files[list(TABLES).index("huge_header")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["check", f"table:{path}", "--conn", "1", "--code", "0"]) == 2
    assert err.getvalue() == (
        f"error: table file {path!r}: expected {10**18} entries, got 1\n"
    )


# The argv forms both parsers read alike on every CPython from 3.10 to 3.13.
# Left out on purpose: "--" anywhere but just before a trailing spec (before
# the command, argparse reads it as the command on some versions and drops
# it on others; after every positional, the table parser drops it where
# argparse calls it unrecognized), "-h" with letters after it ("-hh" is help
# to argparse, an unknown option here), "--=..." and tokens that start with
# "-" and hold a space.
OPTIONS = {
    "classify": ["subgroup"],
    "check": ["conn", "code", "total"],
    "enumerate": ["conn", "total"],
    "construct": ["subgroup", "total"],
    "verify": ["suite", "seed"],
    "automorphisms": ["pcp", "budget", "seed"],
}
FLAGS = {"total", "pcp"}
GOOD = {"subgroup": ["1", "a^2,b"], "conn": ["1,5", "1"], "code": ["0,3", "0"],
        "suite": ["cor3", "thm4a"], "seed": ["0", "7", "-3"],
        "budget": ["20", "1", "0"], "format": ["json", "text"]}
ODD = ["", "-3", "-1.5", "-x", "-", "x", "0", "json", "cor3"]


@st.composite
def argv_forms(draw):
    """A command line in any of the forms the contract names: `--opt value`,
    `--opt=value`, abbreviations, repeats, values such as -3, -x and '',
    positionals before or after the options or after `--`, unknown options,
    -h/--help anywhere, and options before the command."""
    argv = []
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(
            ["--version", "--vers", "-h", "--help", "--bogus", "--version=1"])))
    command = draw(st.sampled_from([*OPTIONS] * 3 + ["bogus"]))
    argv.append(command)
    spec = draw(st.sampled_from(["cyclic:6", "dihedral:4"] * 3 + ["-3", "-x", "", None]))
    if command == "verify" and draw(st.integers(0, 5)):
        spec = None
    where = draw(st.sampled_from(["first", "first", "last", "after --"]))
    if spec is not None and where == "first":
        argv.append(spec)
    names = [n for n in OPTIONS.get(command, ["conn"]) if draw(st.integers(0, 3))]
    names += draw(st.lists(st.sampled_from(OPTIONS.get(command, ["conn"]) + ["format"]),
                           max_size=3))
    bare = False  # the last option takes a value and was given none
    for name in names:
        option = "--" + name[: draw(st.sampled_from([len(name)] * 3 + [1, 2, 3, 4]))]
        value = draw(st.sampled_from(GOOD.get(name, ODD) * 6 + ODD))
        form = draw(st.sampled_from(["space"] * 3 + ["equals"] * 2 + ["bare"]))
        if name in FLAGS:
            form = draw(st.sampled_from(["bare"] * 6 + ["equals"]))
        if form == "space":
            argv += [option, value]
        else:
            argv.append(f"{option}={value}" if form == "equals" else option)
        bare = form == "bare" and name not in FLAGS
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(1, len(argv)))
        argv.insert(at, draw(st.sampled_from(
            ["-h", "--help", "--he", "--h=x", "--frobnicate", "-x", "--max-order", "extra"])))
    if spec is not None and where == "last":
        argv.append(spec)
    elif spec is not None and where == "after --" and not bare:
        argv += ["--", spec]
    return argv


def _outcome(parse, argv):
    """The attributes `parse` gives argv, or the exit code it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


def test_parser_agrees_with_argparse():
    reference = build_parser()

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(argv_forms())
    def run(argv):
        assert _outcome(cli.parse_args, argv) == _outcome(reference.parse_args, argv), argv

    run()


@pytest.mark.parametrize("argv", [
    ["classify", "cyclic:6"],
    ["check", "cyclic:6", "--conn", "1", "--code", "0"],
    ["enumerate", "cyclic:6", "--conn", "1"],
    ["construct", "cyclic:6", "--subgroup", "1"],
    ["verify", "--suite", "cor3"],
    ["automorphisms", "cyclic:6"],
], ids=lambda argv: argv[0])
def test_every_default_matches_argparse(argv):
    assert _outcome(cli.parse_args, argv) == _outcome(build_parser().parse_args, argv)


def _parse(argv, capsys):
    """(exit code or attributes, stdout, stderr) of parse_args."""
    try:
        result = vars(cli.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


CHECK = {"command": "check", "spec": "cyclic:6", "conn": "1,5", "code": "0,3",
         "total": False, "format": "text"}


class TestParserContract:
    def test_option_values_follow_a_space_or_an_equals_sign(self, capsys):
        for argv in (["check", "cyclic:6", "--conn", "1,5", "--code", "0,3"],
                     ["check", "cyclic:6", "--conn=1,5", "--code=0,3"]):
            assert _parse(argv, capsys) == (CHECK, "", "")

    def test_a_unique_prefix_stands_for_its_option(self, capsys):
        argv = ["check", "cyclic:6", "--con", "1,5", "--cod=0,3", "--t", "--form", "json"]
        assert _parse(argv, capsys)[0] == {**CHECK, "total": True, "format": "json"}
        argv = ["verify", "--su", "cor3", "--se", "4"]
        assert _parse(argv, capsys)[0] == {
            "command": "verify", "suite": "cor3", "seed": 4, "format": "text"}

    @pytest.mark.parametrize("argv, phrase", [
        (["verify", "--s", "cor3"], "ambiguous option: --s could match --suite, --seed"),
        (["check", "cyclic:6", "--co", "1"], "ambiguous option: --co"),
        (["check", "cyclic:6", "--conn", "1", "--code", "0", "--frob"],
         "unrecognized arguments: --frob"),
        (["--frob", "classify", "cyclic:6"], "unrecognized arguments: --frob"),
    ])
    def test_an_ambiguous_or_unknown_option_exits_2(self, capsys, argv, phrase):
        code, out, err = _parse(argv, capsys)
        assert code == 2 and out == "" and phrase in err

    def test_the_last_of_a_repeated_option_wins(self, capsys):
        argv = ["check", "cyclic:6", "--conn", "1", "--conn", "1,5", "--code", "0",
                "--code=0,3", "--format", "json", "--format", "text"]
        assert _parse(argv, capsys)[0] == CHECK

    def test_values_may_be_empty_or_negative_numbers(self, capsys):
        argv = ["check", "cyclic:6", "--conn", "", "--code", "-1.5"]
        assert _parse(argv, capsys)[0] == {**CHECK, "conn": "", "code": "-1.5"}
        argv = ["automorphisms", "cyclic:6", "--seed", "-3"]
        assert _parse(argv, capsys)[0]["seed"] == -3
        # a token with a space is a value too, as in argparse
        argv = ["check", "-1 2", "--conn", "1,5", "--code", "0,3"]
        assert _parse(argv, capsys)[0] == {**CHECK, "spec": "-1 2"}

    @pytest.mark.parametrize("value", ["-x", "--code", "--", None])
    def test_an_option_value_that_looks_like_an_option_is_missing(self, capsys, value):
        argv = ["check", "cyclic:6", "--code", "0", "--conn"] + [value] * (value is not None)
        code, out, err = _parse(argv, capsys)
        assert code == 2 and "--conn: expected one argument" in err

    def test_positionals_may_follow_the_options_and_double_dash(self, capsys):
        argv = ["check", "--conn", "1,5", "--code", "0,3", "cyclic:6"]
        assert _parse(argv, capsys)[0] == CHECK
        argv = ["check", "--conn", "1,5", "--code", "0,3", "--", "-h"]
        assert _parse(argv, capsys)[0] == {**CHECK, "spec": "-h"}
        argv = ["check", "--", "cyclic:6", "--conn", "1,5", "--code", "0,3"]
        code, _, err = _parse(argv, capsys)
        assert code == 2 and "required: --conn, --code" in err

    @pytest.mark.parametrize("flag", ["--total=1", "--total=", "--t=yes"])
    def test_a_flag_given_a_value_exits_2(self, capsys, flag):
        argv = ["check", "cyclic:6", "--conn", "1", "--code", "0", flag]
        code, out, err = _parse(argv, capsys)
        assert code == 2 and out == "" and err.startswith("error: --total:")

    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    @pytest.mark.parametrize("option", ["-h", "--help", "--he"])
    def test_help_prints_a_usage_and_exits_0(self, capsys, command, option):
        # help wins over a missing positional and an unknown option before it
        argv = [option] if command is None else [command, "--frob", option]
        code, out, err = _parse(argv, capsys)
        assert code == 0 and err == ""
        assert out.startswith("usage: cayleycodes " if command is None
                              else f"usage: cayleycodes {command} [-h]")
        names = cli.COMMANDS if command is None else [*cli.COMMANDS[command][2], "format"]
        assert all(name in out for name in names)

    def test_version_prints_the_version_and_exits_0(self, capsys):
        for option in ("--version", "--vers"):
            assert _parse([option, "check"], capsys) == (0, f"{__version__}\n", "")

    @pytest.mark.parametrize("argv, phrase", [
        ([], "the following arguments are required: command"),
        (["check"], "the following arguments are required: spec, --conn, --code"),
        (["check", "cyclic:6", "--conn", "1", "--code", "0", "extra"],
         "unrecognized arguments: extra"),
        (["frobnicate", "cyclic:6"], "invalid choice: 'frobnicate'"),
        (["verify", "--suite", "nonsense"], "invalid choice: 'nonsense'"),
        (["check", "cyclic:6", "--code", "0", "--conn"], "expected one argument"),
        (["automorphisms", "cyclic:6", "--budget", "0"], "invalid positive int: '0'"),
        (["automorphisms", "cyclic:6", "--seed", "x"], "invalid int: 'x'"),
        (["classify", "cyclic:6", "--format", "yaml"], "invalid choice: 'yaml'"),
    ])
    def test_a_usage_error_prints_one_error_line_and_exits_2(self, capsys, argv, phrase):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and phrase in err
        assert err.count("\n") == 1 and err.endswith("\n")


def test_the_cli_does_not_import_argparse():
    code = ("import sys; started = set(sys.modules); import cayleycodes.cli; "
            "print(sorted({'argparse', 'gettext'} & (set(sys.modules) - started)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.stdout == "[]\n", run.stderr
