"""Benchmark of the cayleycodes CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run is a closed loop with one caller:
it starts passes of the workload one after another, each in a fresh
single-threaded interpreter (perfbench/worker.py), until S seconds have
gone.  A fresh interpreter per pass matters because the library's
lru_caches would serve a reused process for free.  Before the passes it
starts SETUP_RUNS interpreters that only import and generate the inputs,
so set-up time is a median too.

Times are scaled to a fixed machine speed by a reference job sampled
during each pass (speed.py).  With --trace 0 the last line of stdout holds
the end-to-end metrics; with --trace 1 passes alternate untraced and
traced, and it holds the per-layer metrics from the traced ones.  The
line before it records the environment, the seed, sample counts, digests
of the outputs, failed requests, known defects and the ROADMAP baselines
left out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def run_worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("CAYLEYCODES_MAX_ORDER", None)
    proc = subprocess.run(
        cmd + list(flags),
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def scaled(pass_) -> list[float]:
    """The pass's command times at the reference machine speed (speed.py)."""
    return [t * k for t, k in zip(pass_["latencies_s"], pass_["scales"])]


def summarize(workload, seed, trace, setups, plain, traced) -> tuple[dict, dict]:
    """(info line, result line) of one run."""
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    consistent = all(p["digests"] == passes[0]["digests"] for p in passes)
    if not consistent:
        failures.append({"request": "*", "reason": "outputs differ between passes"})
    digests = passes[0]["digests"]
    # each command's median over the passes, in ms
    latencies = [statistics.median(times) * 1000 for times in zip(*map(scaled, plain))]
    wall = statistics.median(sum(scaled(p)) for p in plain)
    if trace:
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name, _, _ in tracing.metric_specs()
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median(sum(scaled(p)) for p in traced) - wall
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.metric_specs()
        }
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(s["setup_s"] * s["setup_scale"] for s in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "req_p50_ms": statistics.median(latencies),
            "req_p90_ms": p90(latencies),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    unique = {(f["request"], f["reason"]): f for f in failures}
    info = {
        "workload": workload,
        "environment": environment(seed),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setups": len(setups),
        "latency_commands": len(latencies),
        "latency_samples": sum(len(p["latencies_s"]) for p in plain),
        "unscaled": {
            "pass_wall_s": [sum(p["latencies_s"]) for p in plain],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "speed_factor": statistics.median(k for p in plain for k in p["scales"]),
        },
        "error_rate": len(failures) / attempted,
        "digest": workloads.sha("".join(f"{k}={v}\n" for k, v in digests.items())),
        "canonical_digest": workloads.sha(
            "".join(f"{k}={v}\n" for k, v in passes[0]["canonical"].items())
        ),
        "failures": list(unique.values())[:20],
        "known_defects": passes[0]["known_defects"],
        "left_out": workloads.LEFT_OUT,
        "spans_file": traced[0]["spans_file"] if traced else None,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cayleycodes" / "cli.py").is_file():
        print(f"error: no cayleycodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    measure_end = started + args.seconds
    setups, plain, traced = [], [], []
    try:
        for _ in range(SETUP_RUNS):
            setups.append(run_worker(args.workload, args.seed, deadline, "--setup-only"))
        while not plain or (args.trace and not traced) or time.monotonic() < measure_end:
            use_trace = bool(args.trace) and len(traced) < len(plain)
            flags = ("--trace",) if use_trace else ()
            result = run_worker(args.workload, args.seed, deadline, *flags)
            (traced if use_trace else plain).append(result)
            setups.append(result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / workloads.TMP_DIR, ignore_errors=True)

    info, result = summarize(args.workload, args.seed, args.trace, setups, plain, traced)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
