"""Whole-command contracts: row counts and verdicts of full CLI reports.

Each command runs in-process through `cli.main` with `--format json`, as
a user would type it.  The module imports nothing but `cayleycodes` and
pytest, so it can also run outside the checkout against an installed
package.
"""

from __future__ import annotations

import json

import pytest

from cayleycodes import cli


def _report(capsys, *argv):
    assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture(autouse=True)
def _default_bounds(monkeypatch):
    monkeypatch.delenv(cli.ENV_MAX_ORDER, raising=False)


# the whole subgroup lattice above the default bound, one row per
# subgroup: Z2^7 has 29 212 subgroups (OEIS A006116) and D4 x Z2^4 7 420
@pytest.mark.parametrize(
    "spec, rows",
    [("abelian:2,2,2,2,2,2,2", 29212), ("product:(dihedral:4)x(abelian:2,2,2,2)", 7420)],
)
def test_classify_lists_every_subgroup(capsys, monkeypatch, spec, rows):
    monkeypatch.setenv(cli.ENV_MAX_ORDER, "128")
    assert len(_report(capsys, "classify", spec)["results"]) == rows


def test_automorphisms_of_z2_4(capsys):
    # Aut(Z2^4) = GL(4, 2) has 20 160 elements, one row each, and
    # Pow(Z2^4) = {id} leaves exactly one row with `power: true`
    rows = _report(capsys, "automorphisms", "abelian:2,2,2,2", "--pcp")["results"]
    assert len(rows) == 20160
    assert sum(row["power"] is True for row in rows) == 1


# rows decided without a sweep: on D6 (trivial centre, order 12) only the
# identity preserves codes, in either mode; so on D5 (order 10), whose
# total witnesses come from construction B, and on Z2^3 (168
# automorphisms), whose 167 total witnesses come from construction A on 3
# subgroups; on Z24 all 8 automorphisms are power maps of an abelian
# group, so all 8 preserve codes in both modes (Theorem 4(a))
@pytest.mark.parametrize(
    "spec, count",
    [("dihedral:6", 12), ("dihedral:5", 20), ("abelian:2,2,2", 168), ("cyclic:24", 8)],
)
def test_automorphisms_decided_by_theorem_and_witness(capsys, spec, count):
    rows = _report(capsys, "automorphisms", spec, "--pcp")["results"]
    assert len(rows) == count
    pcp = [row["sigma"] for row in rows if row["preserving"] is True]
    tpcp = [row["sigma"] for row in rows if row["total_preserving"] is True]
    identity = list(range(len(rows[0]["sigma"])))
    want = [row["sigma"] for row in rows] if spec == "cyclic:24" else [identity]
    assert pcp == tpcp == want


@pytest.mark.parametrize("total", [False, True])
def test_rotations_of_d2048_at_the_check_bound(capsys, total):
    # <a> is a perfect code of Cay(D2048, {b}) and not a total one, and
    # as a subgroup it fills all three checks
    flag = ["--total"] if total else []
    checks = _report(
        capsys, "check", "dihedral:1024", "--conn", "1024",
        "--code", ",".join(map(str, range(1024))), *flag,
    )["results"]["checks"]
    assert checks == dict.fromkeys(["definition", "group_ring", "transversal"], not total)
