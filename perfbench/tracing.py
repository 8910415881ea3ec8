"""Spans around calls into the library's layers, recorded from outside.

``Tracer.install`` replaces each traced public function by a wrapper at
every import site: every ``cayleycodes`` module attribute bound to the
original object is rebound, so ``cli.all_subgroups``, ``pcp.all_subgroups``
and ``verify.all_subgroups`` all record the same span.  A span is
(name, start, end, parent index, raised); spans stay in memory and are
written out once the pass ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from workloads import SUITES

# span name -> (module, attribute) of every public function it wraps
TARGETS = {
    "specparse.parse_group_spec": [("specparse", "parse_group_spec")],
    "groups.build": [
        ("groups", "make_cyclic"),
        ("groups", "make_dihedral"),
        ("groups", "make_abelian"),
        ("groups", "direct_product"),
    ],
    "groups.from_table": [("groups", "from_table")],
    "groups.all_subgroups": [("groups", "all_subgroups")],
    "groups.closure": [("groups", "closure")],
    "groups.is_normal": [("groups", "is_normal")],
    "groups.all_automorphisms": [("groups", "all_automorphisms")],
    "criteria.decide": [("criteria", "decide_subgroup_code")],
    "criteria.generic": [("criteria", "generic_subgroup_code_decision")],
    "criteria.construct": [
        ("criteria", "construct_connection_set_normal"),
        ("criteria", "dihedral_construct_sets"),
    ],
    "cayley.enumerate": [("cayley", "enumerate_perfect_codes")],
    "cayley.ball_check": [("cayley", "is_perfect_code"), ("cayley", "is_total_perfect_code")],
    "cayley.group_ring": [
        ("cayley", "group_ring_check_perfect"),
        ("cayley", "group_ring_check_total"),
        ("spectral", "group_ring_tiling_check"),
    ],
    "cayley.transversal": [("cayley", "subgroup_code_transversal_check")],
    "spectral.characters": [("spectral", "characters")],
    "spectral.is_zero": [("spectral", "CyclotomicSum.is_zero")],
    "spectral.tiling_check": [("spectral", "spectral_tiling_check")],
    "pcp.sweep": [("pcp", "is_pcp_automorphism"), ("pcp", "is_tpcp_automorphism")],
    "cli.command": [
        ("cli", f"cmd_{c}")
        for c in ("classify", "check", "enumerate", "construct", "verify", "automorphisms")
    ],
}
METHODS = ("cyclic", "parity", "abelian-projection", "property1", "dihedral", "generic-search")


def metric_specs():
    """Every per-layer metric as (name, unit, better), in print order."""
    out = []
    for name in TARGETS:
        out += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.raised", "count", "lower"),
        ]
    out += [
        ("groups.from_table.cells", "count", "lower"),
        ("groups.closure.new_ratio", "ratio", "higher"),
        ("groups.all_automorphisms.found", "count", "higher"),
        ("cayley.enumerate.codes", "count", "higher"),
        ("cayley.enumerate.distinct_ratio", "ratio", "higher"),
        ("spectral.characters.distinct_ratio", "ratio", "higher"),
        ("pcp.sweep.sets_per_sweep", "count", "lower"),
    ]
    out += [
        (f"criteria.decide.method.{m}", "count", "lower" if m == "generic-search" else "higher")
        for m in METHODS
    ]
    for suite in SUITES:
        out += [(f"verify.{suite}.s", "s", "lower"), (f"verify.{suite}.checks", "count", "higher")]
    out += [
        ("cli.output_bytes", "bytes", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {"cayley.enumerate": set(), "spectral.characters": set()}

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span; ``note(args, kwargs, result, index)`` runs
        after a successful call to count work the span did.  At that point
        ``spans[index + 1:]`` are exactly the span's descendants."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            outer = not self.active.get(name)
            self.spans.append(None)
            self.stack.append(index)
            self.active[name] = self.active.get(name, 0) + 1
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.active[name] -= 1
                self.spans[index] = (name, start, end, parent, raised, outer)
            if note is not None:
                note(args, kwargs, result, index)
            return result

        return wrapper

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        """Wrap every target at every ``cayleycodes`` import site."""
        from cayleycodes import verify

        notes = self._notes()
        replace = {}
        for name, sites in TARGETS.items():
            for module, attr in sites:
                mod = sys.modules[f"cayleycodes.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(mod, attr)
                replace[id(original)] = self.wrap(name, original, notes.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("cayleycodes"):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and callable(value):
                    setattr(mod, attr, replace[id(value)])
        for suite, fn in list(verify.SUITES.items()):
            verify.SUITES[suite] = self.wrap(
                f"verify.{suite}", fn, lambda a, k, r, i, s=suite: self.add(f"verify.{s}.checks", r.checks)
            )

    def _notes(self):
        def from_table(args, kwargs, result, index):
            self.add("groups.from_table.cells", result.order**3)

        def decide(args, kwargs, result, index):
            self.add(f"criteria.decide.method.{result.method}")

        def all_subgroups(args, kwargs, result, index):
            # count a lattice computed here, not one served from the cache
            if any(span[0] == "groups.closure" for span in self.spans[index + 1 :]):
                self.add("subgroups_found", len(result))

        def enumerate_codes(args, kwargs, result, index):
            graph = args[0]
            total = kwargs.get("total", args[1] if len(args) > 1 else False)
            self.add("cayley.enumerate.codes", len(result))
            self.distinct["cayley.enumerate"].add((graph.group, graph.conn.elements, total))
            if self.active.get("pcp.sweep"):
                self.add("sweep_sets")

        def characters(args, kwargs, result, index):
            self.distinct["spectral.characters"].add(args[0])

        def automorphisms(args, kwargs, result, index):
            self.add("groups.all_automorphisms.found", len(result))

        return {
            "groups.from_table": from_table,
            "criteria.decide": decide,
            "groups.all_subgroups": all_subgroups,
            "cayley.enumerate": enumerate_codes,
            "spectral.characters": characters,
            "groups.all_automorphisms": automorphisms,
        }

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (trace.* and
        cli.output_bytes are filled in by the caller)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict[str, list[float]] = {}
        for i, (name, start, end, _, raised, outer) in enumerate(self.spans):
            a = agg.setdefault(name, [0, 0.0, 0.0, 0])
            a[0] += 1
            a[1] += (end - start) if outer else 0.0
            a[2] += end - start - child[i]
            a[3] += raised
        out = {}
        for name in TARGETS:
            calls, total, self_s, raised = agg.get(name, [0, 0.0, 0.0, 0])
            out.update(
                {
                    f"{name}.calls": calls,
                    f"{name}.s": total,
                    f"{name}.self_s": self_s,
                    f"{name}.raised": raised,
                }
            )
        c = self.counts
        enum_calls = out["cayley.enumerate.calls"]
        char_calls = out["spectral.characters.calls"]
        sweeps = out["pcp.sweep.calls"]
        closures = out["groups.closure.calls"]
        out.update(
            {
                "groups.from_table.cells": c.get("groups.from_table.cells", 0),
                "groups.closure.new_ratio": c.get("subgroups_found", 0) / closures if closures else 0.0,
                "groups.all_automorphisms.found": c.get("groups.all_automorphisms.found", 0),
                "cayley.enumerate.codes": c.get("cayley.enumerate.codes", 0),
                "cayley.enumerate.distinct_ratio": (
                    len(self.distinct["cayley.enumerate"]) / enum_calls if enum_calls else 0.0
                ),
                "spectral.characters.distinct_ratio": (
                    len(self.distinct["spectral.characters"]) / char_calls if char_calls else 0.0
                ),
                "pcp.sweep.sets_per_sweep": c.get("sweep_sets", 0) / sweeps if sweeps else 0.0,
            }
        )
        for m in METHODS:
            out[f"criteria.decide.method.{m}"] = c.get(f"criteria.decide.method.{m}", 0)
        for suite in SUITES:
            out[f"verify.{suite}.s"] = agg.get(f"verify.{suite}", [0, 0.0])[1]
            out[f"verify.{suite}.checks"] = c.get(f"verify.{suite}.checks", 0)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent index, raised."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:5]) + "\n")
