"""Golden `classify`, `automorphisms`, `automorphisms --pcp`, `construct`
and `enumerate` output over the corpus.

Each digest is the SHA-256 of the key-sorted JSON report with
`elapsed_seconds` removed, so any change to a verdict, witness, row order,
subgroup, automorphism listing, constructed set or code listing shows up
here without running the benchmark.  A command that exits non-zero
(`automorphisms` on the order-32 corpus group is over its default bound;
`construct` has no construction for some subgroups) is digested as its
exit code and stderr instead.  The corpus's `table:S3` and `table:Q8` are
resolved to the corpus groups rather than read from files.

`classify` runs for every `corpus_groups(24)` group, Z2 x Z4 x Z4
(`abelian:2,4,4`, the order-32 group of the paper's counterexample) and
Z2^5.  `construct` runs for every subgroup of every `corpus_groups(12)`
group and of Z2 x Z4 x Z4, given by its element indices, in both modes.
`enumerate` runs for every connection set of every `corpus_groups(8)`
group, in both modes.  `automorphisms` and `automorphisms --pcp` run for
every `corpus_groups(12)` spec and Z2 x Z4 x Z4, and `--pcp` also
sampled with `--budget 40` at seeds 0 and 7 on four groups of order 16;
its digests cover the counterexamples, which plain `automorphisms` does
not print.

Re-record (only when the output is meant to change):
    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest

from cayleycodes import cli
from cayleycodes.corpus import corpus_groups
from cayleycodes.groups import all_subgroups, make_abelian
from cayleycodes.pcp import all_connection_sets
from cayleycodes.specparse import parse_group_spec

GOLDEN_FILE = Path(__file__).with_name("golden_classify.json")
AUTOMORPHISMS_GOLDEN_FILE = Path(__file__).with_name("golden_automorphisms.json")
# the order-32 group of the paper's counterexample, added to each corpus
Z2_Z4_Z4 = ("abelian:2,4,4", make_abelian((2, 4, 4)))
CORPUS = dict(corpus_groups(24))
SPECS = list(CORPUS) + [Z2_Z4_Z4[0], "abelian:2,2,2,2,2"]
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


def _resolve(spec: str, check_order=None):
    # the corpus tables are far under every command's order bound
    if spec.startswith("table:"):
        return CORPUS[spec]
    return parse_group_spec(spec, check_order)


def command_digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "parse_group_spec", _resolve):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if code == 0:
        payload = json.loads(out.getvalue())
        payload.pop("elapsed_seconds")
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = f"exit {code}\n{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def classify_digest(spec: str) -> str:
    return command_digest(["classify", spec, "--format", "json"])


def automorphisms_digest(spec: str) -> str:
    return command_digest(["automorphisms", spec, "--format", "json"])


def pcp_digest(run: str) -> str:
    return command_digest(["automorphisms", *run.split(), "--format", "json"])


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


if __name__ == "__main__":
    for path, digest, specs in (
        (GOLDEN_FILE, classify_digest, SPECS),
        (AUTOMORPHISMS_GOLDEN_FILE, automorphisms_digest, AUTOMORPHISMS_SPECS),
        (PCP_GOLDEN_FILE, pcp_digest, PCP_RUNS),
    ):
        digests = {spec: digest(spec) for spec in specs}
        path.write_text(json.dumps(digests, indent=2) + "\n")
        print(f"recorded {len(digests)} digests to {path}")
    for path, digests_of, groups in (
        (CONSTRUCT_GOLDEN_FILE, construct_digests, CONSTRUCT_GROUPS),
        (ENUMERATE_GOLDEN_FILE, enumerate_digests, ENUMERATE_GROUPS),
    ):
        digests = {spec: digests_of(g, spec) for spec, g in groups}
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        count = sum(map(len, digests.values()))
        print(f"recorded {count} digests to {path}")
