"""One pass of one workload, in a fresh interpreter.

Started by run.py from the root of a checkout.  It imports cayleycodes from
the checkout's ``src``, generates the workload's inputs from the seed, then
calls ``cayleycodes.cli.main(argv)`` in-process for every request with
stdout and stderr captured.  Outputs are checked after the timed loop.  The
pass result is printed as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
OUT_DIR = ".perfbench-out"


def import_library():
    """cayleycodes from this checkout, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cayleycodes.cli
    from cayleycodes import corpus, groups, specparse

    if Path(cayleycodes.__file__).resolve().parent.parent != src:
        raise ImportError(f"cayleycodes imported from {cayleycodes.__file__}, not {src}")
    lib = SimpleNamespace(
        make_cyclic=groups.make_cyclic,
        make_dihedral=groups.make_dihedral,
        make_abelian=groups.make_abelian,
        direct_product=groups.direct_product,
        symmetric_group=corpus.symmetric_group,
        quaternion_group=corpus.quaternion_group,
        parse_group_spec=specparse.parse_group_spec,
    )
    return cayleycodes.cli, lib


def call(main, req):
    """(exit code, stdout, stderr) of one in-process CLI call.  An exception
    escaping main is a traceback a user would see: its type is the code."""
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in req.env or {}}
    os.environ.update(req.env or {})
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(req.argv)
    except Exception as exc:  # noqa: BLE001 - reported as a failed request
        rc = f"exception {type(exc).__name__}"
        err.write(traceback.format_exc())
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return rc, out.getvalue(), err.getvalue()


def check(req, rc, out, seed, golden):
    """(digest, seed-independent digest, failure reason or None) of one
    request's result.  Digests are of the output without timings."""
    if rc != req.expect_rc:
        return None, None, f"exit code {rc}, expected {req.expect_rc}"
    if rc != 0:
        return None, None, None
    try:
        parsed = workloads.parse_output(req, out)
        digest = workloads.sha(parsed)
        canonical = workloads.sha(req.canon(parsed)) if req.canon else None
        if seed == golden.get("seed") and golden["digest"].get(req.key, digest) != digest:
            return digest, canonical, "digest differs from the golden output"
        if golden["canonical"].get(req.key, canonical) != canonical:
            return digest, canonical, "seed-independent digest differs from the golden output"
        return digest, canonical, req.verify(out) if req.verify else None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return None, None, f"unexpected output: {exc!r}"


def run_pass(name, seed, trace, setup_only):
    """One pass.  Set-up is the import of cayleycodes plus input generation;
    the speed probe runs from its start to the end of the last command."""
    probe = SpeedProbe()
    with probe:
        start = time.perf_counter()
        cli, lib = import_library()
        reqs, known = workloads.generate(name, seed, lib)
        end = time.perf_counter()
        setup_s = end - start - probe.busy
        for _ in range(3):
            probe.sample()
        setup_scale = probe.scale(start, end)
        if setup_only:
            return {"setup_s": setup_s, "setup_scale": setup_scale}
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()

        results = []
        for req in reqs:
            busy = probe.busy
            start = time.perf_counter()
            rc, out, err = call(cli.main, req)
            end = time.perf_counter()
            results.append([req, rc, out, err, end - start - (probe.busy - busy), (start, end)])
    probe.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    output_bytes = sum(len(r[2].encode()) for r in results)
    layers = spans_file = None
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.output_bytes"] = output_bytes
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = f"{OUT_DIR}/spans-{name}-{seed}.jsonl"
        tracer.write(spans_file)

    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {"digest": {}, "canonical": {}, **golden_all.get(name, {})}
    golden["seed"] = golden_all.get("seed")
    digests, canonical, failures = {}, {}, []
    for req, rc, out, err, _, _ in results:
        digests[req.key], canonical[req.key], reason = check(req, rc, out, seed, golden)
        if reason:
            failures.append({"request": req.key, "argv": req.argv, "reason": reason,
                             "stderr": err[-400:]})
    defects = []
    for req in known:
        rc, _, err = call(cli.main, req)
        if rc != req.expect_rc:
            defects.append({"request": req.key, "argv": req.argv, "exit": rc,
                            "expected": req.expect_rc, "stderr": err.strip()[-200:]})

    return {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [r[4] for r in results],
        "scales": [probe.scale(*r[5]) for r in results],
        "attempted": len(results),
        "failures": failures,
        "digests": digests,
        "canonical": canonical,
        "known_defects": defects,
        "layers": layers,
        "spans_file": spans_file,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.trace, args.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
