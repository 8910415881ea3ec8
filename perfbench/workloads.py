"""The four workloads: seeded inputs, the commands one pass runs, and the
checks on their outputs.

A workload is a list of ``Request`` objects.  Each names the argv given to
``cayleycodes.cli.main``, the exit code the README promises for it, and two
optional checks: ``canon`` maps the parsed JSON output to a form that does
not depend on the seed (its digest is compared with the golden file at
every seed), and ``verify`` checks the output against the benchmark's own
oracle and returns a failure reason or None.

The composition of every workload is fixed; the seed only relabels tables,
picks elements and orders requests.  So the cost of a pass barely depends on
the seed, while the inputs the program sees do.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0
TMP_DIR = ".perfbench-tmp"

SUITES = (
    "theorem3",
    "cor3",
    "dihedral",
    "abelian",
    "lemma-equivalence",
    "thm4a",
    "prop3",
    "trivial-centre",
)

# ROADMAP baselines this benchmark leaves out, printed with every result.
LEFT_OUT = {
    "automorphisms abelian:2,2,2,2 --pcp": "86 s for one command, longer than a run",
    "Tier-1 wall clock (pytest)": "times the tests, not a command a user runs",
    "make_cyclic(2048) peak memory": "one table allocation, above the order-128 cap on requests",
}


@dataclass
class Request:
    key: str
    argv: list[str]
    expect_rc: int = 0
    canon: Callable[[dict], object] | None = None
    verify: Callable[[str], str | None] | None = None
    env: dict[str, str] | None = None

    @property
    def is_json(self) -> bool:
        return "json" in self.argv and "--format" in self.argv


# ---------------------------------------------------------------------------
# digests


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_seconds"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def sha(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def parse_output(req: Request, out: str):
    """The JSON report without timings, or the raw text output."""
    return _strip_elapsed(json.loads(out)) if req.is_json else out


# ---------------------------------------------------------------------------
# groups as plain tables (identity at index 0), for generators and checks


class Table:
    """A multiplication table with the few operations the generators and
    the output checks need.  Independent of the library's own algorithms."""

    def __init__(self, mult):
        self.mult = [list(row) for row in mult]
        self.n = len(self.mult)
        self.inv = [row.index(0) for row in self.mult]

    def closure(self, gens) -> frozenset[int]:
        out, frontier = {0}, [0]
        while frontier:
            fresh = []
            for x in frontier:
                for g in gens:
                    y = self.mult[x][g]
                    if y not in out:
                        out.add(y)
                        fresh.append(y)
            frontier = fresh
        return frozenset(out)

    def is_normal(self, h) -> bool:
        m, inv = self.mult, self.inv
        return all(m[m[g][x]][inv[g]] in h for g in range(self.n) for x in h)

    def key_property(self, h):
        """Least x with x^2 in H and no k in H with (xk)^2 = e, or None."""
        m = self.mult
        for x in range(self.n):
            if m[x][x] in h and not any(m[m[x][k]][m[x][k]] == 0 for k in h):
                return x
        return None

    def is_code(self, conn, code, total: bool) -> bool:
        """Definitional check: balls (open when total) around the code
        partition the group.  Neighbours of v are s v for s in S."""
        ball = set(conn) if total else set(conn) | {0}
        count = [0] * self.n
        for c in code:
            for s in ball:
                count[self.mult[s][c]] += 1
        return all(k == 1 for k in count)

    def random_conn(self, rng, size: int) -> list[int]:
        """An inverse-closed, identity-free set of about ``size`` elements."""
        pool = list(range(1, self.n))
        rng.shuffle(pool)
        out: set[int] = set()
        for x in pool:
            if len(out) >= size:
                break
            out |= {x, self.inv[x]}
        return sorted(out)

    def right_transversal(self, h, rng) -> list[int]:
        """One random element from each right coset Hx."""
        seen, out = set(), []
        for x in range(self.n):
            if x not in seen:
                coset = [self.mult[k][x] for k in sorted(h)]
                seen.update(coset)
                out.append(rng.choice(coset))
        return sorted(out)

    def conn_ok(self, conn) -> bool:
        s = set(conn)
        return 0 not in s and all(self.inv[x] in s for x in s)


def relabel(mult, rng):
    """A random relabeling that keeps the identity at 0.  Returns the new
    table and ``back``, with back[new index] = old index."""
    n = len(mult)
    rest = list(range(1, n))
    rng.shuffle(rest)
    p = [0] + rest
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        row, new = mult[x], out[p[x]]
        for y in range(n):
            new[p[y]] = p[row[y]]
    back = [0] * n
    for old, new in enumerate(p):
        back[new] = old
    return out, back


def write_table(path: str, mult) -> None:
    lines = [str(len(mult))] + [" ".join(map(str, row)) for row in mult]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _tmp(workload: str) -> str:
    path = os.path.join(TMP_DIR, workload)
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# shared output checks


def _json_check(fn):
    """Wrap a check on the parsed report so bad JSON is a failure too."""

    def check(out: str):
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return "output is not JSON"
        return fn(report)

    return check


def _classify_canon(back):
    """Rows of a classify report with indices mapped back to the source
    group and the labeling-dependent witness value dropped."""

    def canon(report):
        rows = []
        for r in report["results"]:
            rows.append(
                [
                    sorted(back[x] for x in r["subgroup"]),
                    r["order"],
                    r["index"],
                    r["normal"],
                    r["perfect"],
                    r["total_perfect"],
                    r["method"],
                    r["witness"]["type"],
                ]
            )
        rows.sort()
        return rows

    return canon


# ---------------------------------------------------------------------------
# suites


def suites(seed: int) -> list[Request]:
    """All eight verify suites at their default bounds."""
    reqs = []
    for name in SUITES:
        argv = ["verify", "--suite", name, "--seed", str(seed), "--format", "json"]
        reqs.append(
            Request(
                name,
                argv,
                canon=lambda report: report,
                verify=_json_check(
                    lambda r: None if r["results"]["passed"] else "suite failed"
                ),
            )
        )
    return reqs


# ---------------------------------------------------------------------------
# lattice

LATTICE_SPECS = ("abelian:2,2,2,2,2,2", "abelian:2,2,2,2,3")
LATTICE_TABLES = {
    "dihedral16": lambda lib: lib.make_dihedral(16),
    "d4xv4": lambda lib: lib.direct_product(
        lib.make_dihedral(4), lib.make_abelian((2, 2))
    ),
}


def lattice(seed: int, lib) -> list[Request]:
    """classify on one large abelian 2-group, an abelian group with a
    Sylow-3 factor, and seeded relabelings of two order-32 non-abelian
    groups (generic transversal search)."""
    rng = random.Random(seed)
    reqs = [
        Request(spec, ["classify", spec, "--format", "json"], canon=lambda r: r)
        for spec in LATTICE_SPECS
    ]
    tmp = _tmp("lattice")
    for name, build in LATTICE_TABLES.items():
        table, back = relabel(build(lib).mult, rng)
        path = f"{tmp}/{name}.tbl"
        write_table(path, table)
        reqs.append(
            Request(
                name,
                ["classify", f"table:{path}", "--format", "json"],
                canon=_classify_canon(back),
            )
        )
    return reqs


# ---------------------------------------------------------------------------
# pcp

PCP_EXHAUSTIVE = {
    "abelian222": lambda lib: lib.make_abelian((2, 2, 2)),
    "dihedral6": lambda lib: lib.make_dihedral(6),
}
PCP_SAMPLED = {"cyclic:24": [], "abelian:2,2,4": ["--budget", "20"]}
# The sampled sweeps keep the program's default seed: their cost varies
# 2-3x with it (a few low-degree connection sets dominate, and a sweep
# stops at its first counterexample), which would swamp any change in a
# layer.  The bench seed relabels the exhaustively swept groups instead.
PCP_SAMPLE_SEED = 0


def _pcp_canon(back):
    """Automorphisms with their verdicts, mapped back to the source
    labels when the group is a relabeled table; counterexamples (which
    depend on the labels) dropped."""

    fwd = None if back is None else {old: new for new, old in enumerate(back)}

    def canon(report):
        rows = []
        for r in report["results"]:
            sigma = r["sigma"]
            if back is not None:
                sigma = [back[sigma[fwd[x]]] for x in range(len(sigma))]
            rows.append([sigma, r["power"], r["preserving"], r["total_preserving"], r["scope"]])
        rows.sort()
        return rows

    return canon


def _pcp_check(table: Table, seed: int | None):
    """Sweeps are sampled with the given seed (exhaustive when None),
    Theorem 4a holds for every power automorphism of an abelian group, and
    each counterexample really is one."""

    abelian = all(table.mult[x][y] == table.mult[y][x] for x in range(table.n) for y in range(x))

    def check(report):
        for row in report["results"]:
            if row["scope"] != ("exhaustive" if seed is None else "sampled") or row["seed"] != seed:
                return f"sweep scope {row['scope']} with seed {row['seed']}"
            if abelian and row["power"] and not (row["preserving"] and row["total_preserving"]):
                return f"power automorphism {row['sigma']} reported not preserving"
            ce = row["counterexample"]
            if ce is None:
                continue
            image = [row["sigma"][x] for x in ce["C"]]
            if not (
                table.conn_ok(ce["S"])
                and table.is_code(ce["S"], ce["C"], False)
                and not table.is_code(ce["S"], image, False)
            ):
                return f"counterexample {ce} does not hold"
        return None

    return check


def pcp(seed: int, lib) -> list[Request]:
    """automorphisms --pcp: exhaustive sweeps over seeded relabelings of
    two order-8 and order-12 groups, and two sampled sweeps."""
    rng = random.Random(seed)
    tmp = _tmp("pcp")
    reqs = []
    for name, build in PCP_EXHAUSTIVE.items():
        table, back = relabel(build(lib).mult, rng)
        path = f"{tmp}/{name}.tbl"
        write_table(path, table)
        reqs.append(
            Request(
                name,
                ["automorphisms", f"table:{path}", "--pcp", "--format", "json"],
                canon=_pcp_canon(back),
                verify=_json_check(_pcp_check(Table(table), None)),
            )
        )
    for spec, extra in PCP_SAMPLED.items():
        argv = ["automorphisms", spec, "--pcp", *extra, "--seed", str(PCP_SAMPLE_SEED)]
        reqs.append(
            Request(
                spec,
                argv + ["--format", "json"],
                canon=_pcp_canon(None),
                verify=_json_check(
                    _pcp_check(Table(lib.parse_group_spec(spec).mult), PCP_SAMPLE_SEED)
                ),
            )
        )
    return reqs


# ---------------------------------------------------------------------------
# requests

# Relabeled table files, orders 8..128.  Every request on one of them
# parses and validates the whole table, which is O(n^3).
REQUEST_TABLES = {
    "q8": lambda lib: lib.quaternion_group(),
    "d6": lambda lib: lib.make_dihedral(6),
    "d4xz2": lambda lib: lib.direct_product(lib.make_dihedral(4), lib.make_cyclic(2)),
    "s4": lambda lib: lib.symmetric_group(4),
    "d4xv4": lambda lib: lib.direct_product(
        lib.make_dihedral(4), lib.make_abelian((2, 2))
    ),
    "s4xz2": lambda lib: lib.direct_product(lib.symmetric_group(4), lib.make_cyclic(2)),
    "d32": lambda lib: lib.make_dihedral(32),
    "d12xv4": lambda lib: lib.direct_product(
        lib.make_dihedral(12), lib.make_abelian((2, 2))
    ),
    "d16xv4": lambda lib: lib.direct_product(
        lib.make_dihedral(16), lib.make_abelian((2, 2))
    ),
}
REQUEST_SPECS = (
    "cyclic:12",
    "cyclic:20",
    "dihedral:5",
    "dihedral:8",
    "abelian:2,4",
    "abelian:2,2,6",
    "product:(dihedral:3)x(cyclic:4)",
    "abelian:4,16",
    "dihedral:48",
)
REQUEST_ROUNDS = 2
CLASSIFY_BOUND = 64  # cmd_classify's default order bound
ENUMERATE_BOUND = 24  # cmd_enumerate's default order bound
SMALL_GENERIC_ORDER = 32  # non-normal subgroups are only asked about up to here


def _expr(spec: str, x: int, table_n: int) -> str | None:
    """Element x of a spec group as a generator expression, or None."""
    kind, _, body = spec.partition(":")
    if kind == "cyclic":
        return f"a^{x}"
    if kind == "dihedral":
        n = table_n // 2
        return f"a^{x}" if x < n else f"a^{x - n}*b"
    if kind == "abelian":
        orders = [int(m) for m in body.split(",")]
        terms, stride = [], table_n
        for i, m in enumerate(orders):
            stride //= m
            terms.append(f"a{i + 1}^{(x // stride) % m}")
        return "*".join(terms)
    return None


def _check_verdict(table: Table, conn, code, total: bool):
    want = table.is_code(conn, code, total)
    mode = "total_perfect" if total else "perfect"

    def check(out: str):
        if out.lstrip().startswith("{"):
            r = json.loads(out)["results"]
            got = r[mode]
            c = r["checks"]
            agree = c["definition"] == c["group_ring"] == got and c["transversal"] in (
                None,
                got,
            )
        else:
            m = re.search(r"definition=(\w+) group_ring=(\w+) transversal=(\w+)", out)
            if not m:
                return "text output lacks the checks line"
            vals = m.groups()
            got = vals[0] == "True"
            agree = vals[0] == vals[1] and vals[2] in ("None", vals[0])
        if not agree:
            return "the three checks disagree"
        return None if got == want else f"{mode}={got}, definition says {want}"

    return check


def _construct_check(table: Table, h, total: bool):
    def check(report):
        r = report["results"]
        conn = r["connection_set"]
        if sorted(r["subgroup"]) != sorted(h):
            return "constructed for the wrong subgroup"
        if not (table.conn_ok(conn) and table.is_code(conn, sorted(h), total)):
            return "constructed set is not a verified connection set"
        return None

    return check


def _classify_one_check(table: Table, h):
    def check(report):
        rows = report["results"]
        if len(rows) != 1 or sorted(rows[0]["subgroup"]) != sorted(h):
            return "wrong subgroup classified"
        row = rows[0]
        w = row["witness"]
        if w["type"] == "connection_set":
            if not (table.conn_ok(w["value"]) and table.is_code(w["value"], h, False)):
                return "witness connection set does not make H a perfect code"
        if w["type"] == "failing_g" and table.key_property(h) is None:
            return "failing_g witness for a subgroup with the key property"
        if table.is_normal(h):
            perfect = table.key_property(h) is None
            if (row["perfect"], row["total_perfect"]) != (
                perfect,
                perfect and len(h) % 2 == 0,
            ):
                return "verdict disagrees with the normal-subgroup criterion"
        return None

    return check


def _enumerate_check(table: Table, conn, total: bool):
    def check(report):
        codes = report["results"]["codes"]
        if report["results"]["count"] != len(codes):
            return "count does not match the listed codes"
        if any(not table.is_code(conn, c, total) for c in codes):
            return "a listed code fails the definitional check"
        if codes != sorted(codes):
            return "codes are not sorted"
        return None

    return check


def _subgroup(table: Table, rng, normal_only: bool, total: bool | None):
    """(generators, H), a proper subgroup when one is found, normal when
    asked.  For a construct request (``total`` not None) H also has a
    construction by the normal-subgroup criterion in that mode."""
    for _ in range(24):
        gens = sorted(rng.sample(range(1, table.n), rng.choice((1, 1, 2))))
        h = table.closure(gens)
        if len(h) == table.n or (normal_only and not table.is_normal(h)):
            continue
        if total is None:
            return gens, h
        if table.key_property(h) is None and (len(h) % 2 == 0 or not total):
            return gens, h
    # the whole group always has a construction (G even for every pool group)
    gens = list(range(1, table.n))
    return gens, table.closure(gens)


def requests(seed: int, lib) -> tuple[list[Request], list[Request]]:
    """A seeded list of short interactive commands over relabeled table
    files and spec groups, and the probes of known exit-code defects.

    Per table: five checks, two constructs, one classify --subgroup (order
    <= 64) and two enumerates (order <= 24).  Per spec group: two checks,
    one construct, one classify --subgroup and one enumerate, within the
    same bounds.  Then one request per malformed kind.  All of it
    REQUEST_ROUNDS times, each with its own random picks: the median
    latency moves with the picks, less so over more requests.
    """
    rng = random.Random(seed)
    tmp = _tmp("requests")
    groups = []
    for name, build in REQUEST_TABLES.items():
        mult, _ = relabel(build(lib).mult, rng)
        path = f"{tmp}/{name}.tbl"
        write_table(path, mult)
        groups.append((f"table:{path}", Table(mult)))
    for spec in REQUEST_SPECS:
        groups.append((spec, Table(lib.parse_group_spec(spec).mult)))

    reqs: list[tuple[str, list[str], int, Callable | None]] = []

    def elems(spec, table, xs):
        if spec.startswith("table:") or rng.random() < 0.5:
            return ",".join(map(str, xs))
        exprs = [_expr(spec, x, table.n) for x in xs]
        if None in exprs:
            return ",".join(map(str, xs))
        return ",".join(exprs)

    for spec, t in [g for _ in range(REQUEST_ROUNDS) for g in groups]:
        is_table = spec.startswith("table:")
        checks = (
            [(False, "json"), (False, "json"), (True, "json"), (False, "text"), (True, "text")]
            if is_table
            else [(False, "json"), (True, "text")]
        )
        for total, fmt in checks:
            _, h = _subgroup(t, rng, normal_only=False, total=None)
            if rng.random() < 0.5:
                # with S = H \ {e} the perfect codes are the right transversals of H
                conn = sorted(h - {0})
                code = t.right_transversal(h, rng)
                if rng.random() < 0.5:
                    code[rng.randrange(len(code))] = rng.randrange(t.n)
                code = sorted(set(code))
            else:
                conn = t.random_conn(rng, max(1, t.n // len(h) - 1))
                code = sorted(h)
            argv = ["check", spec, "--conn", elems(spec, t, conn), "--code", elems(spec, t, code)]
            argv += ["--total"] if total else []
            reqs.append(("check", argv + ["--format", fmt], 0, _check_verdict(t, conn, code, total)))
        for total in (False, True) if is_table else (rng.random() < 0.5,):
            gens, h = _subgroup(t, rng, normal_only=True, total=total)
            argv = ["construct", spec, "--subgroup", elems(spec, t, gens), "--format", "json"]
            argv += ["--total"] if total else []
            reqs.append(("construct", argv, 0, _json_check(_construct_check(t, h, total))))
        if t.n <= CLASSIFY_BOUND:
            gens, h = _subgroup(t, rng, normal_only=t.n > SMALL_GENERIC_ORDER, total=None)
            argv = ["classify", spec, "--subgroup", elems(spec, t, gens), "--format", "json"]
            reqs.append(("classify", argv, 0, _json_check(_classify_one_check(t, h))))
        if t.n <= ENUMERATE_BOUND:
            for total in (False, True) if is_table else (rng.random() < 0.5,):
                # S = H \ {e} for a cyclic H of index <= 3 has |H|^index
                # codes (the right transversals of H); otherwise a random S
                # of five or more elements, which rarely has any.  Smaller
                # random sets give thousands of codes, and a cost and memory
                # that swing with the seed.
                h = max((t.closure([rng.randrange(1, t.n)]) for _ in range(6)), key=len)
                conn = sorted(h - {0}) if t.n // len(h) <= 3 else t.random_conn(rng, 5)
                argv = ["enumerate", spec, "--conn", elems(spec, t, conn), "--format", "json"]
                argv += ["--total"] if total else []
                reqs.append(("enumerate", argv, 0, _json_check(_enumerate_check(t, conn, total))))

    for _ in range(REQUEST_ROUNDS):
        reqs += _malformed(rng, groups, tmp)
    rng.shuffle(reqs)
    out = [
        Request(f"{i:03d}-{kind}", argv, rc, verify=check)
        for i, (kind, argv, rc, check) in enumerate(reqs)
    ]
    return out, _known_defects(tmp)


def _malformed(rng, groups, tmp):
    """One request per malformed kind, each with the exit code the README
    promises: 2 for a usage or parse error, 3 for an exceeded bound.  No
    table larger than order 128 is built."""
    big_spec, big = next((s, t) for s, t in groups if s.startswith("table:") and t.n == 128)
    mid_spec, mid = next((s, t) for s, t in groups if s.startswith("table:") and t.n == 32)
    n, m = rng.randint(5, 40), rng.randint(25, 128)
    truncated = f"{tmp}/truncated{n}.tbl"
    with open(truncated, "w") as fh:
        fh.write(f"{n}\n" + " ".join("0" for _ in range(n * n - 1)) + "\n")
    conn = ",".join(map(str, mid.random_conn(rng, 3)))
    return [
        ("bad", ["check", f"cyclic:{rng.choice(('abc', 'x1', '1.5'))}", "--conn", "1", "--code", "0"], 2, None),
        ("bad", ["check", f"bogus:{n}", "--conn", "1", "--code", "0"], 2, None),
        ("bad", ["check", f"cyclic:{n}", "--conn", "1", "--code", "0"], 2, None),
        ("bad", ["check", f"cyclic:{n}", "--conn", f"1,{n - 1}", "--code", str(n + rng.randint(0, 9))], 2, None),
        ("bad", ["check", f"dihedral:{n}", "--conn", "c", "--code", "0"], 2, None),
        ("bad", ["check", f"product:(cyclic:3)(cyclic:{n})", "--conn", "1", "--code", "0"], 2, None),
        ("bad", ["check", f"table:{truncated}", "--conn", "1", "--code", "0"], 2, None),
        ("bad", ["classify", f"table:{tmp}/missing.tbl"], 2, None),
        ("bad", ["check", f"cyclic:{n}"], 2, None),
        ("bad", ["frobnicate", f"cyclic:{n}"], 2, None),
        ("bad", ["construct", big_spec, "--subgroup", str(big.n + rng.randint(0, 99))], 2, None),
        ("bound", ["enumerate", f"cyclic:{m}", "--conn", f"1,{m - 1}"], 3, None),
        ("bound", ["enumerate", mid_spec, "--conn", conn], 3, None),
        ("bound", ["classify", f"cyclic:{rng.randint(65, 128)}"], 3, None),
        ("bound", ["classify", "abelian:2,2,2,2,2,2,2"], 3, None),
    ]


def _known_defects(tmp) -> list[Request]:
    """Inputs ROADMAP item 4 lists as exiting 1 (or with a traceback) where
    the README promises 2.  They are run and reported with every result,
    outside the counted workload, until the CLI contract is fixed."""
    quasi = f"{tmp}/nonassociative.tbl"
    # a Latin square with identity 0 that is not associative
    rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    write_table(quasi, rows)
    return [
        Request("dihedral:2", ["classify", "dihedral:2"], 2),
        Request("cyclic:0", ["classify", "cyclic:0"], 2),
        Request("abelian:1,2", ["classify", "abelian:1,2"], 2),
        Request("non-group table", ["classify", f"table:{quasi}"], 2),
        Request("CAYLEYCODES_MAX_ORDER=abc", ["classify", "cyclic:4"], 2, env={"CAYLEYCODES_MAX_ORDER": "abc"}),
    ]


def generate(workload: str, seed: int, lib) -> tuple[list[Request], list[Request]]:
    """(timed requests, known-defect probes) for one pass of a workload."""
    if workload == "suites":
        return suites(seed), []
    if workload == "lattice":
        return lattice(seed, lib), []
    if workload == "pcp":
        return pcp(seed, lib), []
    if workload == "requests":
        return requests(seed, lib)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("suites", "lattice", "pcp", "requests")
