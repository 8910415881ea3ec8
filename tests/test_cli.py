"""Spec-string parsing and the command-line interface."""

from __future__ import annotations

import json

import pytest

from cayleycodes import cli, criteria, groups, specparse, verify
from cayleycodes.cayley import build_cayley, is_perfect_code, is_total_perfect_code
from cayleycodes.cli import main
from cayleycodes.corpus import symmetric_group
from cayleycodes.criteria import construct_connection_set
from cayleycodes.errors import (
    BoundExceededError,
    CayleyCodesError,
    GroupSpecError,
    GroupTableError,
)
from cayleycodes.specparse import (
    parse_element_expr,
    parse_element_list,
    parse_group_spec,
)


class TestSpecParsing:
    def test_basic_specs(self):
        assert parse_group_spec("cyclic:12").order == 12
        assert parse_group_spec("dihedral:6").order == 12
        assert parse_group_spec("abelian:2,4,4").order == 32
        assert parse_group_spec("product:(cyclic:2)x(cyclic:3)").order == 6
        assert parse_group_spec("CYCLIC:3").order == 3

    def test_nested_product(self):
        g = parse_group_spec("product:(product:(cyclic:2)x(cyclic:2))x(cyclic:2)")
        assert g.order == 8

    def test_bad_specs(self):
        for bad in ("cube:4", "cyclic:x", "product:cyclic:2", "abelian:"):
            with pytest.raises(GroupSpecError):
                parse_group_spec(bad)

    def test_table_file(self, tmp_path):
        path = tmp_path / "z3.txt"
        path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
        g = parse_group_spec(f"table:{path}")
        assert g.order == 3 and g.identity == 0

    def test_constructor_parameter_errors_are_spec_errors(self):
        for bad in ("dihedral:2", "cyclic:0", "abelian:1,2"):
            with pytest.raises(GroupSpecError):
                parse_group_spec(bad)

    def test_table_identity_must_be_zero(self, tmp_path, capsys):
        # Z2 written with identity at index 1: a group, with its identity
        # in the wrong place
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n0 1\n")
        with pytest.raises(GroupSpecError) as err:
            parse_group_spec(f"table:{path}")
        assert str(err.value) == (
            f"table file {str(path)!r}: the identity is index 1, not index 0"
        )
        assert main(["check", f"table:{path}", "--conn", "0", "--code", "1"]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    @pytest.mark.parametrize("header", ["0", "-1"])
    def test_table_header_must_be_positive(self, tmp_path, capsys, header):
        path = tmp_path / "header.txt"
        path.write_text(f"{header}\n0\n")
        with pytest.raises(GroupSpecError) as err:
            parse_group_spec(f"table:{path}")
        assert str(err.value) == (
            f"table file {str(path)!r}: the header must be a positive order, "
            f"got {header!r}"
        )
        assert main(["check", f"table:{path}", "--conn", "", "--code", "0"]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_element_expressions(self):
        g = parse_group_spec("abelian:2,4,4")
        assert parse_element_expr(g, "a2*a3") == 5
        assert parse_element_expr(g, "a1*a2^2") == 24
        d = parse_group_spec("dihedral:6")
        assert parse_element_expr(d, "a^2") == 2
        assert parse_element_expr(d, "b") == 6
        assert parse_element_expr(d, "a^3*b") == 9
        z = parse_group_spec("cyclic:9")
        assert parse_element_expr(z, "a^-1") == 8

    def test_element_lists(self):
        g = parse_group_spec("cyclic:6")
        assert parse_element_list(g, "1,5") == [1, 5]
        assert parse_element_list(g, "a,a^5") == [1, 5]
        with pytest.raises(GroupSpecError):
            parse_element_list(g, "9")
        with pytest.raises(GroupSpecError):
            parse_element_list(g, "c^2")


HUGE_EXPONENTS = [10**20 + 1, -(10**20 + 1), 99999999999999999999, -99999999999999999999]


class TestHugeExponents:
    """x^k is computed as x^(k mod |G|), so any exponent returns at once."""

    @pytest.mark.parametrize("k", HUGE_EXPONENTS)
    @pytest.mark.parametrize(
        "spec, gen", [("cyclic:4", "a"), ("dihedral:6", "a"), ("abelian:2,4", "a2")]
    )
    def test_check_matches_the_reduced_exponent(self, capsys, spec, gen, k):
        g = parse_group_spec(spec)
        r = k % g.order
        element = g.identity
        for _ in range(r):
            element = g.mult[element][parse_element_expr(g, gen)]
        reports = []
        for exp in (k, r):
            argv = ["check", spec, "--conn", f"{gen}^{exp},{gen}^{-exp}",
                    "--code", f"{gen}^{exp}", "--format", "json"]
            assert main(argv) == 0
            reports.append(json.loads(capsys.readouterr().out)["results"])
        assert reports[0] == reports[1]
        assert reports[0]["code"] == [element]
        assert reports[0]["connection_set"] == sorted({element, g.inv[element]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSpecOrder:
    """|G| is read off the spec and checked before any table is built."""

    @pytest.mark.parametrize(
        "spec",
        ["cyclic:12", "dihedral:6", "abelian:2,4,4", "CYCLIC:3", " abelian: 3 , 3 ",
         "product:(cyclic:2)x(dihedral:3)",
         "product:(product:(cyclic:2)x(cyclic:2))x(abelian:2,3)"],
    )
    def test_matches_built_group(self, spec):
        seen = []
        g = parse_group_spec(spec, seen.append)
        assert seen == [g.order]

    @pytest.mark.parametrize(
        "spec",
        ["table:whatever.txt", "cube:4", "cyclic:x", "cyclic:0", "dihedral:2",
         "abelian:", "abelian:1,2", "product:cyclic:2", "product:(cyclic:2)x(cyclic:0)",
         "product:(cyclic:2)x(table:z3.txt)"],
    )
    def test_none_when_not_read_off_the_spec(self, spec):
        # the spec's own parse error comes first: no order reaches the check
        seen = []
        with pytest.raises((GroupSpecError, OSError)):
            parse_group_spec(spec, seen.append)
        assert seen == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "abelian:2,2,2,2,2,2,2"], "|G|=128 exceeds bound 64"),
            (["classify", "cyclic:100000"], "|G|=100000 exceeds bound 64"),
            (["classify", "product:(cyclic:300)x(dihedral:300)"],
             "|G|=180000 exceeds bound 64"),
            (["automorphisms", "cyclic:100000"], "|G|=100000 exceeds bound 24"),
            (["automorphisms", "abelian:2,2,2,2,2", "--pcp"], "|G|=32 exceeds bound 24"),
            (["enumerate", "cyclic:100000", "--conn", "1"],
             "|G|=100000 exceeds bound 24"),
            (["check", "cyclic:100000", "--conn", "1", "--code", "0"],
             "|G|=100000 exceeds bound 2048"),
            (["construct", "cyclic:100000", "--subgroup", "a"],
             "|G|=100000 exceeds bound 2048"),
        ],
    )
    def test_bound_checked_before_the_table_is_built(
        self, capsys, monkeypatch, argv, message
    ):
        _refuse_tables(monkeypatch)
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bound_checked_after_reading_the_table_files_of_a_product(
        self, capsys, monkeypatch, tmp_path
    ):
        path = tmp_path / "z2.txt"
        path.write_text("2\n0 1\n1 0\n")
        _refuse_tables(monkeypatch)
        assert main(["classify", f"product:(cyclic:100000)x(table:{path})"]) == 3
        assert capsys.readouterr().err == "error: |G|=200000 exceeds bound 64\n"


def _tower(depth):
    """cyclic:1 inside `depth` nested products with cyclic:1."""
    spec = "cyclic:1"
    for _ in range(depth):
        spec = f"product:({spec})x(cyclic:1)"
    return spec


class TestSpecNesting:
    """A spec is walked once, and its products nest at most 64 deep."""

    def test_deep_product_exits_3_without_a_traceback(self, capsys):
        assert main(["classify", _tower(1000)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: product nesting exceeds bound 64\n"

    @pytest.mark.parametrize("depth, code", [(64, 0), (65, 3)])
    def test_nesting_bound(self, capsys, depth, code):
        assert specparse.MAX_PRODUCT_DEPTH == 64
        assert main(["classify", _tower(depth)]) == code

    def test_leftmost_error_is_reported(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        assert main(["classify", f"product:(cyclic:0)x(table:{missing})"]) == 2
        assert capsys.readouterr().err == "error: cyclic order must be >= 1\n"
        assert main(["classify", f"product:(table:{missing})x(cyclic:0)"]) == 2
        assert "No such file" in capsys.readouterr().err


class TestExitCodes:
    """`main` maps each error type to the README's exit code."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (BoundExceededError("over"), 3),
            (GroupSpecError("malformed"), 2),
            (GroupTableError("not-latin-square", (0, 1)), 2),
            (OSError("unreadable"), 2),
            (CayleyCodesError("failed"), 1),
        ],
    )
    def test_error_types(self, capsys, monkeypatch, error, code):
        def fail(*args):
            raise error

        monkeypatch.setattr(cli, "parse_group_spec", fail)
        assert main(["classify", "cyclic:4"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"


def _refuse_tables(monkeypatch):
    """Make building any constructor or product table fail the test."""

    def refuse(*args):
        raise AssertionError("a group table was built")

    for module in (groups, specparse):
        for name in ("make_cyclic", "make_dihedral", "make_abelian", "direct_product"):
            monkeypatch.setattr(module, name, refuse)


class TestClassify:
    def test_cyclic12(self, capsys):
        code, out = run_cli(capsys, "classify", "cyclic:12")
        assert code == 0
        assert "subgroups 6" in out
        assert "cyclic" in out

    def test_cyclic12_json(self, capsys):
        code, out = run_cli(capsys, "classify", "cyclic:12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rows = payload["results"]
        assert len(rows) == 6
        row = next(r for r in rows if r["subgroup"] == [0, 3, 6, 9])
        assert row["perfect"] and row["total_perfect"]
        assert row["method"] == "cyclic"

    def test_dihedral6_rows(self, capsys):
        code, out = run_cli(capsys, "classify", "dihedral:6", "--format", "json")
        rows = json.loads(out)["results"]
        assert len(rows) == 16
        n = 6
        for row in rows:
            if row["order"] == 12:
                continue
            if any(x >= n for x in row["subgroup"]):
                assert row["perfect"] and row["total_perfect"], row

    def test_counterexample_subgroup(self, capsys):
        code, out = run_cli(
            capsys,
            "classify",
            "abelian:2,4,4",
            "--subgroup",
            "a1*a2^2,a1*a3^2",
            "--format",
            "json",
        )
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["perfect"] is False
        assert row["witness"] == {"type": "failing_g", "value": 5}

    @pytest.mark.parametrize("subgroup", ["", " , "])
    def test_empty_generator_list_is_the_trivial_subgroup(self, capsys, subgroup):
        code, out = run_cli(
            capsys, "classify", "dihedral:4", "--subgroup", subgroup, "--format", "json"
        )
        assert code == 0
        assert [row["subgroup"] for row in json.loads(out)["results"]] == [[0]]

    @pytest.mark.parametrize(
        "spec", ["product:(dihedral:4)x(abelian:2,2)", "dihedral:16", "cyclic:12"]
    )
    def test_normality_tested_once_per_row(self, capsys, monkeypatch, spec):
        # counted as a tracer counts it: at every module that imports it
        calls = []

        def counted(g, h):
            calls.append(h)
            return groups.is_normal(g, h)

        for module in (cli, criteria):
            monkeypatch.setattr(module, "is_normal", counted)
        code, out = run_cli(capsys, "classify", spec, "--format", "json")
        rows = json.loads(out)["results"]
        assert code == 0
        assert calls == [tuple(row["subgroup"]) for row in rows]

    def test_bound_exceeded(self, capsys):
        assert main(["classify", "cyclic:200"]) == 3

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CAYLEYCODES_MAX_ORDER", "200")
        assert main(["classify", "cyclic:66", "--subgroup", "a^11"]) == 0

    def test_parse_error(self, capsys):
        assert main(["classify", "cube:4"]) == 2

    @pytest.mark.parametrize(
        "spec, env",
        [
            ("dihedral:2", None),
            ("cyclic:0", None),
            ("abelian:1,2", None),
            ("table:NONASSOC", None),
            ("table:NOTUTF8", None),
            ("cyclic:4", "abc"),
            ("cyclic:4", "0"),
            ("cyclic:4", "-5"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, monkeypatch, tmp_path, spec, env):
        if spec == "table:NONASSOC":
            # a Latin square with identity 0: (1*1)*2 = 2 but 1*(1*2) = 4
            path = tmp_path / "nonassoc.txt"
            path.write_text(
                "5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"
            )
            spec = f"table:{path}"
        if spec == "table:NOTUTF8":
            path = tmp_path / "notutf8.txt"
            path.write_bytes(b"\xff\xfe")
            spec = f"table:{path}"
        if env is not None:
            monkeypatch.setenv("CAYLEYCODES_MAX_ORDER", env)
        assert main(["classify", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_table_word_names_the_first_bad_token(self, capsys, tmp_path):
        # the out-of-range 9 and the other spelling 007 come before the word
        path = tmp_path / "words.txt"
        path.write_text("3\n0 1 9\n1 007 y\n2 0 z\n")
        assert main(["classify", f"table:{path}"]) == 2
        assert capsys.readouterr().err == (
            f"error: table file {str(path)!r}: expected an integer, got 'y'\n"
        )

    def test_table_word_names_its_file_inside_a_product(self, capsys, tmp_path):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("2\n0 1\n1 0\n")
        bad.write_text("2\n0 1\n1 y\n")
        assert main(["classify", f"product:(table:{good})x(table:{bad})"]) == 2
        assert capsys.readouterr().err == (
            f"error: table file {str(bad)!r}: expected an integer, got 'y'\n"
        )


class TestCheck:
    def test_perfect(self, capsys):
        code, out = run_cli(
            capsys, "check", "cyclic:6", "--conn", "1,5", "--code", "0,3",
            "--format", "json",
        )
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert checks == {"definition": True, "group_ring": True, "transversal": True}

    def test_total(self, capsys):
        code, out = run_cli(
            capsys, "check", "cyclic:4", "--conn", "1,3", "--code", "0,1",
            "--total", "--format", "json",
        )
        result = json.loads(out)["results"]
        assert result["total_perfect"] is True
        assert result["checks"]["definition"] is True

    @pytest.mark.parametrize("total", [False, True])
    def test_rotations_of_d2048_at_the_check_bound(self, capsys, total):
        # <a> is a perfect code of Cay(D2048, {b}) and not a total one, and
        # as a subgroup it fills all three checks
        flag = ["--total"] if total else []
        code, out = run_cli(
            capsys, "check", "dihedral:1024", "--conn", "1024",
            "--code", ",".join(map(str, range(1024))), *flag, "--format", "json",
        )
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert checks == dict.fromkeys(["definition", "group_ring", "transversal"], not total)

    def test_identity_in_connection_set(self, capsys):
        assert main(["check", "cyclic:6", "--conn", "0,1,5", "--code", "0,3"]) == 2

    @pytest.mark.parametrize(
        "conn, code", [("²", "0"), ("1,3", "a*²"), ("1,3", "a*--5")]
    )
    def test_non_decimal_digits_are_parse_errors(self, capsys, conn, code):
        # "²".isdigit() holds, but int() rejects it
        assert main(["check", "cyclic:4", "--conn", conn, "--code", code]) == 2
        assert capsys.readouterr().err.startswith("error: bad term")

    def test_non_subgroup_code_has_null_transversal(self, capsys):
        code, out = run_cli(
            capsys, "check", "cyclic:6", "--conn", "1,5", "--code", "1,4",
            "--format", "json",
        )
        result = json.loads(out)["results"]
        assert result["perfect"] is True
        assert result["checks"]["transversal"] is None


class TestEnumerate:
    def test_three_codes(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "cyclic:6", "--conn", "1,5", "--format", "json"
        )
        results = json.loads(out)["results"]
        assert results["count"] == 3
        assert results["codes"] == [[0, 3], [1, 4], [2, 5]]

    def test_no_codes(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "cyclic:5", "--conn", "1,4", "--format", "json"
        )
        assert json.loads(out)["results"]["count"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "cyclic:6", "--conn", "1,5,1"],
            ["check", "cyclic:6", "--conn", "1,5,1", "--code", "0,3"],
        ],
        ids=["enumerate", "check"],
    )
    def test_repeated_connection_element_printed_once(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("group cyclic:6  S=[1, 5]  ")

    def test_dihedral_reflections(self, capsys):
        conn = "b,a*b,a^2*b,a^3*b,a^4*b,a^5*b"
        # closed balls have size 7, which does not divide 12: no perfect codes
        code, out = run_cli(
            capsys, "enumerate", "dihedral:6", "--conn", conn, "--format", "json"
        )
        assert json.loads(out)["results"]["count"] == 0
        # the graph is K(6,6): total perfect codes are rotation/reflection pairs
        code, out = run_cli(
            capsys, "enumerate", "dihedral:6", "--conn", conn, "--total",
            "--format", "json",
        )
        results = json.loads(out)["results"]
        assert results["count"] == 36
        for c in results["codes"]:
            assert len(c) == 2 and (c[0] < 6) != (c[1] < 6)


class TestConstruct:
    def test_cyclic9(self, capsys):
        code, out = run_cli(
            capsys, "construct", "cyclic:9", "--subgroup", "a^3", "--format", "json"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["verified"] is True
        assert len(results["connection_set"]) == 2

    def test_dihedral_total_paper_set(self, capsys):
        code, out = run_cli(
            capsys, "construct", "dihedral:6", "--subgroup", "a^2,b", "--total",
            "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["connection_set"] == [6, 11]  # {b, ba}

    def test_property_failure(self, capsys):
        assert main(["construct", "cyclic:12", "--subgroup", "a^2"]) == 1

    def test_generic_fallback(self, capsys):
        # Q8-like: no specialized construction, generic witness used
        code, out = run_cli(
            capsys, "construct", "product:(cyclic:2)x(cyclic:2)",
            "--subgroup", "1", "--total", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["results"]["verified"] is True


class TestGenericSearch:
    """Non-normal subgroups that no specialized criterion decides go to
    the greedy transversal pass, which needs no node budget."""

    SPEC = "product:(dihedral:16)x(abelian:2)"

    def test_classify_order_64(self, capsys):
        code, out = run_cli(capsys, "classify", self.SPEC, "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]
        assert len(rows) == 137
        assert any(row["method"] == "generic-search" for row in rows)
        g = parse_group_spec(self.SPEC)
        for row in rows:
            h = tuple(row["subgroup"])
            for total, key, is_code in (
                (False, "perfect", is_perfect_code),
                (True, "total_perfect", is_total_perfect_code),
            ):
                if not row[key]:
                    with pytest.raises(CayleyCodesError):
                        construct_connection_set(g, h, total=total)
                    continue
                conn = construct_connection_set(g, h, total=total)
                assert is_code(build_cayley(g, conn), h), (row, total)

    def test_construct_refuses_at_index_768(self, capsys, tmp_path):
        # H = <(s, 0)> in S4 x Z64, s the involution at index 16 of S4, has
        # index 768 and no inverse-closed transversal
        s4 = symmetric_group(4)
        path = tmp_path / "s4.txt"
        path.write_text(
            f"{s4.order}\n" + "".join(" ".join(map(str, row)) + "\n" for row in s4.mult)
        )
        spec = f"product:(table:{path})x(cyclic:64)"
        assert main(["construct", spec, "--subgroup", "1024"]) == 1
        assert capsys.readouterr().err == (
            "error: no construction available for this subgroup\n"
        )

    def test_total_construct_without_involution_needs_no_search(
        self, capsys, monkeypatch, tmp_path
    ):
        # a 3-cycle generates a non-normal subgroup of S4 with no
        # involution: no total construction, and no search to find that out
        s4 = symmetric_group(4)
        path = tmp_path / "s4.txt"
        path.write_text(
            f"{s4.order}\n" + "".join(" ".join(map(str, row)) + "\n" for row in s4.mult)
        )
        three_cycle = s4.element_orders.index(3)

        def refuse(g, h):
            raise AssertionError("the transversal pass ran")

        monkeypatch.setattr(criteria, "_transversal_search", refuse)
        argv = ["construct", f"table:{path}", "--subgroup", str(three_cycle), "--total"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: no construction available for this subgroup\n"
        )


class TestVerify:
    def test_suite_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "prop3")
        assert code == 0
        assert "PASS" in out

    def test_suite_json(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "trivial-centre", "--format", "json"
        )
        results = json.loads(out)["results"]
        assert results["passed"] is True and results["failures"] == []

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 2

    # verify --max-order is gone: each suite runs one fixed corpus, so any
    # value of the option is a usage error, whatever CAYLEYCODES_MAX_ORDER says
    @pytest.mark.parametrize("value", ["-3", "0", "x"])
    def test_max_order_must_be_positive(self, capsys, value):
        assert main(["verify", "--suite", "thm4a", "--max-order", value]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --max-order {value}" in err

    @pytest.mark.parametrize(
        "suite, max_order, env, bound",
        [("cor3", "100000", None, 64), ("thm4a", "65", None, 64),
         ("lemma-equivalence", "101", "100", 100)],
    )
    def test_max_order_bound_checked_before_any_suite_runs(
        self, capsys, monkeypatch, suite, max_order, env, bound
    ):
        def refuse(seed):
            raise AssertionError("a suite ran")

        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, refuse)
        if env is not None:
            monkeypatch.setenv("CAYLEYCODES_MAX_ORDER", env)
        assert main(["verify", "--suite", suite, "--max-order", max_order]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --max-order {max_order}" in err
        assert f"exceeds bound {bound}" not in err

    def test_max_order_bound_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CAYLEYCODES_MAX_ORDER", "100")
        assert main(["verify", "--suite", "cor3", "--max-order", "80"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        # the env bound is for the spec-taking commands; verify ignores it
        monkeypatch.setenv("CAYLEYCODES_MAX_ORDER", "1")
        code, out = run_cli(capsys, "verify", "--suite", "cor3")
        assert code == 0 and "PASS" in out


class TestAutomorphisms:
    def test_cyclic8(self, capsys):
        code, out = run_cli(
            capsys, "automorphisms", "cyclic:8", "--pcp", "--format", "json"
        )
        rows = json.loads(out)["results"]
        assert len(rows) == 4
        assert all(r["power"] and r["preserving"] and r["total_preserving"] for r in rows)

    def test_dihedral3_only_identity_preserves(self, capsys):
        code, out = run_cli(
            capsys, "automorphisms", "dihedral:3", "--pcp", "--format", "json"
        )
        rows = json.loads(out)["results"]
        assert len(rows) == 6
        preserving = [r for r in rows if r["preserving"]]
        assert len(preserving) == 1
        assert preserving[0]["sigma"] == list(range(6))

    def test_klein_four(self, capsys):
        code, out = run_cli(
            capsys, "automorphisms", "abelian:2,2", "--pcp", "--format", "json"
        )
        rows = json.loads(out)["results"]
        assert len(rows) == 6
        for r in rows:
            if not r["preserving"]:
                assert r["counterexample"] is not None

    def test_node_budget_exits_3(self, capsys, monkeypatch):
        # Aut(Z2^5) has 9 999 360 elements; the search stops at its budget
        monkeypatch.setenv("CAYLEYCODES_MAX_ORDER", "32")
        monkeypatch.setattr(groups, "AUTOMORPHISM_NODE_BUDGET", 1000)
        assert main(["automorphisms", "abelian:2,2,2,2,2"]) == 3
        assert capsys.readouterr().err == (
            "error: all_automorphisms node budget exceeded:"
            " more than 1000 search nodes\n"
        )

    @pytest.mark.parametrize("value", ["-1", "0", "x"])
    def test_budget_must_be_positive(self, capsys, value):
        argv = ["automorphisms", "abelian:2,2,4", "--pcp", "--budget", value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--budget" in captured.err and captured.out == ""


REPORT_KEYS = {"command", "elapsed_seconds", "group", "results", "version"}
CLASSIFY_KEYS = {
    "group", "index", "method", "normal", "order", "perfect", "subgroup",
    "total_perfect", "witness",
}
CHECK_KEYS = {"checks", "code", "connection_set", "group", "perfect", "total_perfect"}
AUTOMORPHISM_KEYS = {"power", "sigma"}
PCP_KEYS = AUTOMORPHISM_KEYS | {
    "counterexample", "group", "preserving", "scope", "seed", "total_preserving",
}


class TestReportSchema:
    """The exact keys of each command's JSON report and `results` rows."""

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["classify", "dihedral:4"], CLASSIFY_KEYS),
            (["classify", "abelian:2,4,4", "--subgroup", "a1*a2^2,a1*a3^2"],
             CLASSIFY_KEYS),
            (["check", "cyclic:6", "--conn", "1,5", "--code", "0,3"], CHECK_KEYS),
            (["check", "cyclic:6", "--conn", "1,5", "--code", "1,4", "--total"],
             CHECK_KEYS),
            (["enumerate", "cyclic:6", "--conn", "1,5"], {"codes", "count"}),
            (["construct", "cyclic:9", "--subgroup", "a^3"],
             {"connection_set", "subgroup", "total", "verified"}),
            (["verify", "--suite", "prop3"],
             {"checks", "elapsed_seconds", "failures", "passed", "suite"}),
            (["automorphisms", "dihedral:4"], AUTOMORPHISM_KEYS),
            (["automorphisms", "dihedral:4", "--pcp"], PCP_KEYS),
            (["automorphisms", "cyclic:16", "--pcp", "--budget", "5"], PCP_KEYS),
        ],
    )
    def test_keys(self, capsys, argv, keys):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == REPORT_KEYS
        assert report["command"] == argv[0]
        assert report["group"] == (None if argv[0] == "verify" else argv[1])
        results = report["results"]
        for row in results if isinstance(results, list) else [results]:
            assert set(row) == keys
        if argv[0] == "check":
            assert set(results["checks"]) == {"definition", "group_ring", "transversal"}
        if argv[0] == "classify":
            assert all(set(row["witness"]) == {"type", "value"} for row in results)

    @pytest.mark.parametrize(
        "argv, scope, seed",
        [
            (["cyclic:4", "--pcp"], "exhaustive", None),
            (["cyclic:16", "--pcp", "--budget", "5"], "sampled", 0),
            (["cyclic:16", "--pcp", "--budget", "5", "--seed", "3"], "sampled", 3),
        ],
    )
    def test_pcp_scope_and_seed(self, capsys, argv, scope, seed):
        code, out = run_cli(capsys, "automorphisms", *argv, "--format", "json")
        rows = json.loads(out)["results"]
        assert all(r["power"] for r in rows)
        assert {(r["scope"], r["seed"]) for r in rows} == {(scope, seed)}


    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_error_while_printing_exits_2(self, capsys, monkeypatch, fmt):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["classify", "cyclic:4", "--format", fmt]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestDeterminism:
    def test_repeat_runs_identical_modulo_timing(self, capsys):
        outs = []
        for _ in range(2):
            code, out = run_cli(
                capsys, "classify", "dihedral:5", "--format", "json"
            )
            payload = json.loads(out)
            payload.pop("elapsed_seconds")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_json_is_key_sorted(self, capsys):
        code, out = run_cli(capsys, "check", "cyclic:6", "--conn", "1,5",
                            "--code", "0,3", "--format", "json")
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
