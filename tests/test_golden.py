"""Golden `classify`, `automorphisms`, `automorphisms --pcp`, `construct`,
`enumerate`, `check` and `verify` output over the corpus, and the text
output of one run of each command.

Each digest is the SHA-256 of the key-sorted JSON report with
`elapsed_seconds` removed, so any change to a verdict, witness, row order,
subgroup, automorphism listing, constructed set or code listing shows up
here without running the benchmark.  A command that exits non-zero
(`automorphisms` on the order-32 corpus group is over its default bound;
`construct` has no construction for some subgroups) is digested as its
exit code and stderr instead.  The corpus's `table:S3` and `table:Q8` are
resolved to the corpus groups rather than read from files.

`classify` runs for every `corpus_groups(24)` group, Z2 x Z4 x Z4
(`abelian:2,4,4`, the order-32 group of the paper's counterexample),
Z2^5 and five groups at the default bound of 64: Z2^6, D16 x Z2,
D8 x Z2^2, D4 x Z2^3 and D4 x D4.  `construct` runs for every subgroup of every `corpus_groups(12)`
group and of Z2 x Z4 x Z4, given by its element indices, in both modes.
`enumerate` runs for every connection set of every `corpus_groups(8)`
group, in both modes.  `automorphisms` and `automorphisms --pcp` run for
every `corpus_groups(12)` spec and Z2 x Z4 x Z4, and `--pcp` also
sampled with `--budget 40` at seeds 0 and 7 on four groups of order 16;
its digests cover the counterexamples, which plain `automorphisms` does
not print.  `check` runs for every connection set S of every
`corpus_groups(8)` group against every subgroup and the first perfect and
first total code of S as C, in both modes; one digest per S covers all of
them.  `verify` runs every suite at its default seed, with the suite's own
`elapsed_seconds` removed too.  The text digests hash stdout, with the
`(0.03s)` timing of `verify` removed.

Re-record (only when the output is meant to change):
    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path
from unittest import mock

import pytest

from cayleycodes import cli
from cayleycodes.cayley import build_cayley, enumerate_perfect_codes
from cayleycodes.corpus import corpus_groups
from cayleycodes.groups import all_subgroups, make_abelian
from cayleycodes.pcp import all_connection_sets
from cayleycodes.specparse import parse_group_spec
from cayleycodes.verify import SUITES

GOLDEN_FILE = Path(__file__).with_name("golden_classify.json")
AUTOMORPHISMS_GOLDEN_FILE = Path(__file__).with_name("golden_automorphisms.json")
# the order-32 group of the paper's counterexample, added to each corpus
Z2_Z4_Z4 = ("abelian:2,4,4", make_abelian((2, 4, 4)))
CORPUS = dict(corpus_groups(24))
ORDER_64_SPECS = [
    "abelian:2,2,2,2,2,2",
    "product:(dihedral:16)x(abelian:2)",
    "product:(dihedral:8)x(abelian:2,2)",
    "product:(dihedral:4)x(abelian:2,2,2)",
    "product:(dihedral:4)x(dihedral:4)",
]
SPECS = list(CORPUS) + [Z2_Z4_Z4[0], "abelian:2,2,2,2,2", *ORDER_64_SPECS]
AUTOMORPHISMS_SPECS = [spec for spec, _ in corpus_groups(12)] + [Z2_Z4_Z4[0]]
CONSTRUCT_GOLDEN_FILE = Path(__file__).with_name("golden_construct.json")
ENUMERATE_GOLDEN_FILE = Path(__file__).with_name("golden_enumerate.json")
CONSTRUCT_GROUPS = corpus_groups(12) + [Z2_Z4_Z4]
ENUMERATE_GROUPS = corpus_groups(8)
MODES = ([], ["--total"])
PCP_GOLDEN_FILE = Path(__file__).with_name("golden_pcp.json")
PCP_RUNS = [f"{spec} --pcp" for spec in AUTOMORPHISMS_SPECS] + [
    f"{spec} --pcp --budget 40 --seed {seed}"
    for spec in ("cyclic:16", "abelian:2,2,4", "dihedral:8", "abelian:4,4")
    for seed in (0, 7)
]
CHECK_GOLDEN_FILE = Path(__file__).with_name("golden_check.json")
CHECK_GROUPS = corpus_groups(8)
VERIFY_GOLDEN_FILE = Path(__file__).with_name("golden_verify.json")
TEXT_GOLDEN_FILE = Path(__file__).with_name("golden_text.json")
# one text run of each command, split on spaces
TEXT_RUNS = [
    "classify abelian:2,4,4",
    "classify dihedral:6 --subgroup b",
    "check cyclic:6 --conn 1,5 --code 0,3",
    "check cyclic:6 --conn 1,5 --code 1,4",
    "check cyclic:4 --conn 1,3 --code 0,1 --total",
    "enumerate dihedral:6 --conn b,a*b,a^2*b,a^3*b,a^4*b,a^5*b --total",
    "construct dihedral:6 --subgroup a^2,b --total",
    "construct cyclic:9 --subgroup a^3",
    "verify --suite cor3",
    "automorphisms dihedral:4",
    "automorphisms dihedral:4 --pcp",
    "automorphisms abelian:2,2,4 --pcp --budget 40",
]


def _resolve(spec: str, check_order=None):
    # the corpus tables are far under every command's order bound
    if spec.startswith("table:"):
        return CORPUS[spec]
    return parse_group_spec(spec, check_order)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(cli, "parse_group_spec", _resolve),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _report_text(argv) -> str:
    code, out, err = _run(argv)
    if code == 0:
        payload = json.loads(out)
        payload.pop("elapsed_seconds")
        if argv[0] == "verify":
            payload["results"].pop("elapsed_seconds")
        return json.dumps(payload, sort_keys=True, indent=2)
    return f"exit {code}\n{err}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def command_digest(argv) -> str:
    return _sha256(_report_text(argv))


def classify_digest(spec: str) -> str:
    return command_digest(["classify", spec, "--format", "json"])


def automorphisms_digest(spec: str) -> str:
    return command_digest(["automorphisms", spec, "--format", "json"])


def pcp_digest(run: str) -> str:
    return command_digest(["automorphisms", *run.split(), "--format", "json"])


def verify_digest(suite: str) -> str:
    return command_digest(["verify", "--suite", suite, "--format", "json"])


def text_digest(run: str) -> str:
    code, out, err = _run(run.split())
    out = re.sub(r"\(\d+\.\d+s\)", "(s)", out)
    return _sha256(out if code == 0 else f"exit {code}\n{err}")


def _indices(elements) -> str:
    return ",".join(map(str, elements))


def construct_digests(g, spec: str) -> dict[str, str]:
    """Digest of `construct` for every subgroup of g, keyed by arguments."""
    out = {}
    for h in all_subgroups(g):
        for mode in MODES:
            args = [f"--subgroup={_indices(h)}", *mode]
            out[" ".join(args)] = command_digest(
                ["construct", spec, *args, "--format", "json"]
            )
    return out


def enumerate_digests(g, spec: str) -> dict[str, str]:
    """Digest of `enumerate` for every connection set of g, keyed by
    arguments."""
    out = {}
    for s in all_connection_sets(g):
        for mode in MODES:
            args = [f"--conn={_indices(s)}", *mode]
            out[" ".join(args)] = command_digest(
                ["enumerate", spec, *args, "--format", "json"]
            )
    return out


def check_digests(g, spec: str) -> dict[str, str]:
    """Digest of `check` for every connection set S of g, keyed by `--conn`:
    one digest of the reports for every subgroup and the first perfect and
    first total code of S as C, each in both modes."""
    out = {}
    subgroups = all_subgroups(g)
    for s in all_connection_sets(g):
        graph = build_cayley(g, s)
        codes = list(subgroups)
        for total in (False, True):
            codes += enumerate_perfect_codes(graph, total)[:1]
        reports = [
            _report_text(
                ["check", spec, f"--conn={_indices(s)}", f"--code={_indices(c)}",
                 *mode, "--format", "json"]
            )
            for c in codes
            for mode in MODES
        ]
        out[f"--conn={_indices(s)}"] = _sha256("\n".join(reports))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def automorphisms_golden():
    return json.loads(AUTOMORPHISMS_GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def pcp_golden():
    return json.loads(PCP_GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def construct_golden():
    return json.loads(CONSTRUCT_GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def enumerate_golden():
    return json.loads(ENUMERATE_GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def check_golden():
    return json.loads(CHECK_GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def verify_golden():
    return json.loads(VERIFY_GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def text_golden():
    return json.loads(TEXT_GOLDEN_FILE.read_text())


@pytest.mark.parametrize("spec", SPECS)
def test_classify_matches_golden(golden, spec):
    assert classify_digest(spec) == golden[spec]


@pytest.mark.parametrize("spec", AUTOMORPHISMS_SPECS)
def test_automorphisms_matches_golden(automorphisms_golden, spec):
    assert automorphisms_digest(spec) == automorphisms_golden[spec]


@pytest.mark.parametrize("run", PCP_RUNS)
def test_pcp_matches_golden(pcp_golden, run):
    assert pcp_digest(run) == pcp_golden[run]


@pytest.mark.parametrize(
    "spec, g", CONSTRUCT_GROUPS, ids=[spec for spec, _ in CONSTRUCT_GROUPS]
)
def test_construct_matches_golden(construct_golden, spec, g):
    assert construct_digests(g, spec) == construct_golden[spec]


@pytest.mark.parametrize(
    "spec, g", ENUMERATE_GROUPS, ids=[spec for spec, _ in ENUMERATE_GROUPS]
)
def test_enumerate_matches_golden(enumerate_golden, spec, g):
    assert enumerate_digests(g, spec) == enumerate_golden[spec]


@pytest.mark.parametrize("spec, g", CHECK_GROUPS, ids=[spec for spec, _ in CHECK_GROUPS])
def test_check_matches_golden(check_golden, spec, g):
    assert check_digests(g, spec) == check_golden[spec]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_matches_golden(verify_golden, suite):
    assert verify_digest(suite) == verify_golden[suite]


@pytest.mark.parametrize("run", TEXT_RUNS)
def test_text_matches_golden(text_golden, run):
    assert text_digest(run) == text_golden[run]


if __name__ == "__main__":
    for path, digest, specs in (
        (GOLDEN_FILE, classify_digest, SPECS),
        (AUTOMORPHISMS_GOLDEN_FILE, automorphisms_digest, AUTOMORPHISMS_SPECS),
        (PCP_GOLDEN_FILE, pcp_digest, PCP_RUNS),
        (VERIFY_GOLDEN_FILE, verify_digest, sorted(SUITES)),
        (TEXT_GOLDEN_FILE, text_digest, TEXT_RUNS),
    ):
        digests = {spec: digest(spec) for spec in specs}
        path.write_text(json.dumps(digests, indent=2) + "\n")
        print(f"recorded {len(digests)} digests to {path}")
    for path, digests_of, groups in (
        (CONSTRUCT_GOLDEN_FILE, construct_digests, CONSTRUCT_GROUPS),
        (ENUMERATE_GOLDEN_FILE, enumerate_digests, ENUMERATE_GROUPS),
        (CHECK_GOLDEN_FILE, check_digests, CHECK_GROUPS),
    ):
        digests = {spec: digests_of(g, spec) for spec, g in groups}
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        count = sum(map(len, digests.values()))
        print(f"recorded {count} digests to {path}")
