"""Record perfbench/golden.json from the program as it is now.

    python3 perfbench/record_golden.py

Runs one pass of every workload at the default seed and stores the digest
of every request's output.  The seed-independent digests are taken at the
default seed and must come out the same at a second seed; a check that
fails for another reason than a golden mismatch stops the recording.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OTHER_SEED = 1


def one_pass(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    broken = [f for f in result["failures"] if "golden" not in f["reason"]]
    if broken:
        sys.exit(f"{workload} seed {seed}: {broken}")
    return result


def main() -> None:
    golden = {"seed": workloads.DEFAULT_SEED}
    for workload in workloads.WORKLOADS:
        first = one_pass(workload, workloads.DEFAULT_SEED)
        canonical = {k: v for k, v in first["canonical"].items() if v is not None}
        second = one_pass(workload, OTHER_SEED)["canonical"]
        moved = [k for k, v in canonical.items() if second.get(k) != v]
        if moved:
            sys.exit(f"{workload}: canonical digests depend on the seed: {moved}")
        digests = {k: v for k, v in first["digests"].items() if v is not None}
        golden[workload] = {"digest": digests, "canonical": canonical}
        print(workload, len(first["digests"]), "digests,", len(canonical), "seed-independent")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
