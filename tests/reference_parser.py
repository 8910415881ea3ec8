"""The argparse parser the CLI used before its table-driven one: the
reference its tests compare `cayleycodes.cli.parse_args` against.  Test
code only; the package does not import argparse."""

from __future__ import annotations

import argparse

from cayleycodes import __version__
from cayleycodes.verify import SUITES


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleycodes",
        description="Perfect codes in Cayley graphs of finite groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="classify all subgroups as codes")
    p.add_argument("spec")
    p.add_argument("--subgroup", help="generator expression or index list")
    common(p)

    p = sub.add_parser("check", help="run all checks on one (S, C) pair")
    p.add_argument("spec")
    p.add_argument("--conn", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--total", action="store_true")
    common(p)

    p = sub.add_parser("enumerate", help="enumerate all (total) perfect codes")
    p.add_argument("spec")
    p.add_argument("--conn", required=True)
    p.add_argument("--total", action="store_true")
    common(p)

    p = sub.add_parser("construct", help="build a verified connection set")
    p.add_argument("spec")
    p.add_argument("--subgroup", required=True)
    p.add_argument("--total", action="store_true")
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("automorphisms", help="list automorphisms and PCP status")
    p.add_argument("spec")
    p.add_argument("--pcp", action="store_true")
    p.add_argument("--budget", type=positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    return parser
