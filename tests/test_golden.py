"""Golden `classify` and `automorphisms` output over the corpus.

Each digest is the SHA-256 of the key-sorted JSON report with
`elapsed_seconds` removed, so any change to a verdict, witness, row order,
subgroup or automorphism listing shows up here without running the
benchmark.  A command that exits non-zero (`automorphisms` on the order-32
corpus group is over its default bound) is digested as its exit code and
stderr instead.  The corpus's `table:S3` and `table:Q8` are resolved to
the corpus groups rather than read from files.

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
from cayleycodes.specparse import parse_group_spec

GOLDEN_FILE = Path(__file__).with_name("golden_classify.json")
AUTOMORPHISMS_GOLDEN_FILE = Path(__file__).with_name("golden_automorphisms.json")
CORPUS = dict(corpus_groups(24))
SPECS = list(CORPUS) + ["abelian:2,2,2,2,2"]
AUTOMORPHISMS_SPECS = [spec for spec, _ in corpus_groups(12)]


def _resolve(spec: str):
    return CORPUS[spec] if spec.startswith("table:") else parse_group_spec(spec)


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


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def automorphisms_golden():
    return json.loads(AUTOMORPHISMS_GOLDEN_FILE.read_text())


@pytest.mark.parametrize("spec", SPECS)
def test_classify_matches_golden(golden, spec):
    assert classify_digest(spec) == golden[spec]


@pytest.mark.parametrize("spec", AUTOMORPHISMS_SPECS)
def test_automorphisms_matches_golden(automorphisms_golden, spec):
    assert automorphisms_digest(spec) == automorphisms_golden[spec]


if __name__ == "__main__":
    for path, digest, specs in (
        (GOLDEN_FILE, classify_digest, SPECS),
        (AUTOMORPHISMS_GOLDEN_FILE, automorphisms_digest, AUTOMORPHISMS_SPECS),
    ):
        digests = {spec: digest(spec) for spec in specs}
        path.write_text(json.dumps(digests, indent=2) + "\n")
        print(f"recorded {len(digests)} digests to {path}")
