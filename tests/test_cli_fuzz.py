"""Fuzz test of the CLI contract: every command line exits 0, 1, 2 or 3,
and none gives a traceback.

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
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cayleycodes.cli import main

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
