"""Golden `classify --format json` output over the corpus.

Each digest is the SHA-256 of the key-sorted JSON report with
`elapsed_seconds` removed, so any change to a verdict, witness, row order
or subgroup listing shows up here without running the benchmark.  The
corpus's `table:S3` and `table:Q8` are resolved to the corpus groups
rather than read from files.

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
CORPUS = dict(corpus_groups(24))
SPECS = list(CORPUS) + ["abelian:2,2,2,2,2"]


def _resolve(spec: str):
    return CORPUS[spec] if spec.startswith("table:") else parse_group_spec(spec)


def classify_digest(spec: str) -> str:
    out = io.StringIO()
    with mock.patch.object(cli, "parse_group_spec", _resolve):
        with contextlib.redirect_stdout(out):
            assert cli.main(["classify", spec, "--format", "json"]) == 0
    payload = json.loads(out.getvalue())
    payload.pop("elapsed_seconds")
    text = json.dumps(payload, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("spec", SPECS)
def test_classify_matches_golden(golden, spec):
    assert classify_digest(spec) == golden[spec]


if __name__ == "__main__":
    digests = {spec: classify_digest(spec) for spec in SPECS}
    GOLDEN_FILE.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"recorded {len(digests)} digests to {GOLDEN_FILE}")
