"""Command-line interface: classify, check, enumerate, construct, verify and
automorphisms, read from argv by `parse_args` in argparse's forms, without
argparse: `--opt value` or `--opt=value`, a unique prefix of an option, the
last of a repeated option, and `--` to end the options.  Output is a
deterministic text table by default or a key-sorted JSON report with
--format json.  Exit codes: 0 success (also -h and --version), 1 verification
failure, 2 usage or parse error (one `error:` line), 3 bound exceeded.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from contextlib import suppress
from types import SimpleNamespace

from . import __version__
from .cayley import (
    build_cayley,
    connection_set,
    enumerate_perfect_codes,
    is_perfect_code,
    is_total_perfect_code,
)
from .criteria import construct_connection_set, decide_subgroup_code
from .errors import (
    BoundExceededError,
    CayleyCodesError,
    GroupSpecError,
    GroupTableError,
)
from .groups import (
    all_automorphisms,
    all_subgroups,
    is_normal,
    is_power_automorphism,
    is_subgroup,
    subgroup_generated,
)
from .pcp import preservation_verdicts
from .specparse import parse_element_list, parse_group_spec
from .verify import SUITES, run_suite

ENV_MAX_ORDER = "CAYLEYCODES_MAX_ORDER"
# The largest |G| each command accepts; ENV_MAX_ORDER, when set, replaces
# every one of them.  check and construct do little beyond building the
# n^2 table: at order 2048 each took 0.45-0.70 s and at most 161 MB peak
# resident in a fresh interpreter (CPython 3.11.7, 2-vCPU Xeon KVM guest;
# `check dihedral:1024 --conn 1,1023 --code 0`, `construct dihedral:1024
# --subgroup a^2 --total` and the README's order-2048 `construct`, three
# runs each).  The library bounds only its work: each of its two
# exponential searches (the exact cover and the automorphism search) has a
# node budget; the generic transversal pass is linear and needs none.
ORDER_BOUNDS = {
    "classify": 64,
    "enumerate": 24,
    "automorphisms": 24,
    "check": 2048,
    "construct": 2048,
}


def _max_order(command: str) -> int:
    value = os.environ.get(ENV_MAX_ORDER)
    if not value:
        return ORDER_BOUNDS[command]
    try:
        bound = int(value)
    except ValueError:
        raise GroupSpecError(
            f"{ENV_MAX_ORDER} must be an integer, got {value!r}"
        ) from None
    if bound < 1:
        raise GroupSpecError(f"{ENV_MAX_ORDER} must be positive, got {value!r}")
    return bound


def _bounded_group(args):
    """The group of `args.spec`, within the bound of `args.command`.

    The bound is checked before any n^2 table is built, once table files
    are read, so a spec over the bound allocates no table of its order.
    """
    bound = _max_order(args.command)

    def check(order):
        if order > bound:
            raise BoundExceededError(f"|G|={order} exceeds bound {bound}")

    return parse_group_spec(args.spec, check)


def _connection_set(g, elements):
    """The connection set of `elements`; an invalid one is a usage error."""
    try:
        return connection_set(g, elements)
    except CayleyCodesError as exc:
        raise GroupSpecError(str(exc)) from exc


# Each cmd_* returns (results, text lines) or (results, text lines, exit
# code); `main` prints the lines or the JSON report around the results.
# Long outputs give their lines as a generator, so that a JSON report
# never builds them.


def cmd_classify(args):
    g = _bounded_group(args)
    if args.subgroup is not None:
        gens = parse_element_list(g, args.subgroup)
        subs = [subgroup_generated(g, gens)]
    else:
        subs = all_subgroups(g)
    rows = []
    for h in subs:
        normal = is_normal(g, h)
        verdict = decide_subgroup_code(g, h, normal)
        rows.append(
            {
                "group": args.spec,
                "subgroup": list(h),
                "order": len(h),
                "index": g.order // len(h),
                "normal": normal,
                "perfect": verdict.perfect,
                "total_perfect": verdict.total,
                "method": verdict.method,
                "witness": verdict.witness or {"type": "none", "value": None},
            }
        )

    def lines():
        yield f"group {args.spec}  order {g.order}  subgroups {len(rows)}"
        yield (
            f"{'order':>5} {'index':>5} {'normal':>6} {'perfect':>7} {'total':>5}"
            f" {'method':<18} elements"
        )
        for row in rows:
            witness = row["witness"]
            note = ""
            if witness["type"] == "failing_g":
                note = f"  witness g={witness['value']}"
            yield (
                f"{row['order']:>5} {row['index']:>5} {str(row['normal']):>6}"
                f" {str(row['perfect']):>7} {str(row['total_perfect']):>5}"
                f" {row['method']:<18} {row['subgroup']}{note}"
            )

    return rows, lines()


def cmd_check(args):
    """One (S, C) pair in the requested mode.  The ball, group-ring and
    transversal checks are one tiling test, so the three columns carry its
    one value; the transversal column is null unless C is a subgroup."""
    g = _bounded_group(args)
    s = parse_element_list(g, args.conn)
    code = parse_element_list(g, args.code)
    conn = _connection_set(g, s)
    graph = build_cayley(g, conn)
    code = sorted(set(code))
    perfect = is_perfect_code(graph, code)
    total = is_total_perfect_code(graph, code)
    definition = total if args.total else perfect
    transversal = None
    if g.identity in code and is_subgroup(g, code):
        transversal = definition
    result = {
        "group": args.spec,
        "connection_set": list(conn.sorted()),
        "code": code,
        "perfect": perfect,
        "total_perfect": total,
        "checks": {
            "definition": definition,
            "group_ring": definition,
            "transversal": transversal,
        },
    }
    mode = "total perfect" if args.total else "perfect"
    lines = [
        f"group {args.spec}  S={result['connection_set']}  C={code}",
        f"{mode} code: definition={definition}"
        f" group_ring={definition} transversal={transversal}",
    ]
    return result, lines


def cmd_enumerate(args):
    g = _bounded_group(args)
    conn = _connection_set(g, parse_element_list(g, args.conn))
    codes = enumerate_perfect_codes(build_cayley(g, conn), total=args.total)
    results = {"codes": [list(c) for c in codes], "count": len(codes)}
    mode = "total perfect" if args.total else "perfect"

    def lines():
        yield (
            f"group {args.spec}  S={list(conn.sorted())}  {mode} codes: {len(codes)}"
        )
        yield from (f"  {list(c)}" for c in codes)

    return results, lines()


def cmd_construct(args):
    g = _bounded_group(args)
    gens = parse_element_list(g, args.subgroup)
    h = subgroup_generated(g, gens)
    conn = construct_connection_set(g, h, total=args.total)
    is_code = is_total_perfect_code if args.total else is_perfect_code
    if not is_code(build_cayley(g, conn), h):
        raise CayleyCodesError("constructed set failed verification; not printed")
    results = {
        "subgroup": list(h),
        "connection_set": list(conn.sorted()),
        "total": args.total,
        "verified": True,
    }
    label = "R" if args.total else "S"
    lines = [
        f"group {args.spec}  H={list(h)}",
        f"{label} = {results['connection_set']}  (verified)",
    ]
    return results, lines


def cmd_verify(args):
    result = run_suite(args.suite, args.seed)
    results = {
        "suite": result.name,
        "checks": result.checks,
        "failures": result.failures,
        "passed": result.passed,
        "elapsed_seconds": round(result.elapsed, 3),
    }
    status = "PASS" if result.passed else "FAIL"
    lines = [
        f"suite {result.name}: {status}  checks={result.checks}"
        f" failures={len(result.failures)}  ({result.elapsed:.2f}s)"
    ]
    lines += [f"  FAIL {msg}" for msg in result.failures]
    return results, lines, 0 if result.passed else 1


def cmd_automorphisms(args):
    g = _bounded_group(args)
    sigmas = all_automorphisms(g)
    rows = [
        {"sigma": list(s), "power": is_power_automorphism(g, s)} for s in sigmas
    ]
    if args.pcp:
        powers = [row["power"] for row in rows]
        scope, pcp, tpcp = preservation_verdicts(
            g, sigmas, powers, args.budget, args.seed
        )
        seed = args.seed if scope == "sampled" else None
        for row, ce, tce in zip(rows, pcp, tpcp):
            if ce is not None:
                ce = {"S": list(ce[0]), "C": list(ce[1])}
            row.update(
                group=args.spec,
                preserving=ce is None,
                total_preserving=tce is None,
                scope=scope,
                seed=seed,
                counterexample=ce,
            )

    def lines():
        yield f"group {args.spec}  automorphisms: {len(rows)}"
        for row in rows:
            extra = ""
            if args.pcp:
                extra = (
                    f"  pcp={row['preserving']} tpcp={row['total_preserving']}"
                    f" scope={row['scope']}"
                )
                if row["counterexample"]:
                    ce = row["counterexample"]
                    extra += f"  counterexample S={ce['S']} C={ce['C']}"
            yield f"  power={str(row['power']):<5} {row['sigma']}{extra}"

    return rows, lines()


REQUIRED, INT, POSITIVE, FLAG = ..., "int", "positive int", (bool, False)
FORMAT = (("text", "json"), "text")
# command: (help line, positionals, {option: (kind, default)}); a kind is str,
# INT, POSITIVE, bool (a flag: no value) or choices.  All take -h and --format.
COMMANDS = {
    "classify": ("classify subgroups as codes", ("spec",), {"subgroup": (str, None)}),
    "check": ("run all checks on one (S, C) pair", ("spec",),
              {"conn": (str, REQUIRED), "code": (str, REQUIRED), "total": FLAG}),
    "enumerate": ("enumerate all (total) perfect codes", ("spec",),
                  {"conn": (str, REQUIRED), "total": FLAG}),
    "construct": ("build a verified connection set", ("spec",),
                  {"subgroup": (str, REQUIRED), "total": FLAG}),
    "verify": ("run a verification suite", (),
               {"suite": (tuple(sorted(SUITES)), REQUIRED), "seed": (INT, 0)}),
    "automorphisms": ("list automorphisms and PCP status", ("spec",),
                      {"pcp": FLAG, "budget": (POSITIVE, None), "seed": (INT, 0)}),
}


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help(command):
    if command is None:
        return "\n".join(["usage: cayleycodes [-h | --version]", *map(_help, COMMANDS)])
    about, positionals, options = COMMANDS[command]
    words = ["[-h]", *positionals]
    for name, (kind, default) in {**options, "format": FORMAT}.items():
        value = "{%s}" % ",".join(kind) if type(kind) is tuple else name.upper()
        word = f"--{name}" if kind is bool else f"--{name} {value}"
        words.append(word if default is REQUIRED else f"[{word}]")
    return f"usage: cayleycodes {command} {' '.join(words)}\n  {about}"


def _token(token, names):
    if token[:1] != "-" or token == "-":
        return None, token
    key, eq, value = token[2:].partition("=")
    found = [key] if key in names else [n for n in names if n.startswith(key)]
    if token[1] == "-" and len(found) > 1:
        _fail(f"ambiguous option: --{key} could match --{', --'.join(found)}")
    if token[1] == "-" and found:
        return found[0], value if eq else None
    number = token[1] != "-" and re.match(r"-\d+$|-\d*\.\d+$", token)
    return None if number or " " in token else "?", token


def _tokens(argv, options):
    """Each token as (option name, its `=` value or None), ("?", token) for an
    unknown option or (None, token) for a value, as is all after "--"; -h is --help."""
    cut, names = argv.index("--") if "--" in argv else len(argv), (*options, "help")
    pairs = [_token("--help" if t == "-h" else t, names) for t in argv[:cut]]
    return pairs + [(None if at else "--", t) for at, t in enumerate(argv[cut:])]


def _value(name, kind, text):
    if kind is str or type(kind) is tuple and text in kind:
        return text
    with suppress(ValueError):
        if type(kind) is not tuple and (kind == INT or int(text) > 0):
            return int(text)
    _fail(f"{name}: invalid {kind if type(kind) is str else 'choice'}: {text!r}")


def parse_args(argv):
    """`argv` as attributes: `command`, its positionals and its options; the top
    level reads argv up to its first non-option token, the command the rest."""
    command, positionals, options = None, ["command"], {}
    top = next((at for at, token in enumerate(argv) if token[:1] != "-"), len(argv)) + 1
    args, extras, pairs = {}, [], _tokens(argv[:top], ("version",))[::-1]
    while pairs:
        name, value = pairs.pop()
        if name is None and positionals:
            args[positionals.pop(0)] = value
            if command is None:
                command = _value("command", tuple(COMMANDS), value)
                positionals = list(COMMANDS[command][1])
                options = {**COMMANDS[command][2], "format": FORMAT}
                args |= {n: d for n, (_, d) in options.items() if d is not REQUIRED}
                pairs = _tokens(argv[top - len(pairs) :], options)[::-1]
        elif name is None or name == "?":
            extras.append(value)
        elif name != "--":
            kind = options.get(name, FLAG)[0]
            if kind is not bool and value is None and pairs and pairs[-1][0] is None:
                value = pairs.pop()[1]
            if (kind is bool) != (value is None):
                _fail(f"--{name}: expected one argument" if value is None
                      else f"--{name}: ignored explicit argument {value!r}")
            if name in ("help", "version"):
                print(_help(command) if name == "help" else __version__)
                raise SystemExit(0)
            args[name] = kind is bool or _value(f"--{name}", kind, value)
    missing = positionals + [f"--{name}" for name in options if name not in args]
    if missing:
        _fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    started = time.perf_counter()
    try:
        results, lines, *status = globals()[f"cmd_{args.command}"](args)
        if args.format == "json":
            report = {
                "command": args.command,
                "group": getattr(args, "spec", None),
                "results": results,
                "elapsed_seconds": round(time.perf_counter() - started, 3),
                "version": __version__,
            }
            lines = [json.dumps(report, sort_keys=True)]
        for line in lines:
            print(line)
        return status[0] if status else 0
    except (CayleyCodesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the most specific type first: a bound exceeded, then a malformed
        # spec, a table file that is not a group or an I/O failure, then a
        # mathematical failure (no construction, failed verification)
        exit_codes = (
            (BoundExceededError, 3),
            ((GroupSpecError, GroupTableError, OSError), 2),
            (CayleyCodesError, 1),
        )
        return next(code for kind, code in exit_codes if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
