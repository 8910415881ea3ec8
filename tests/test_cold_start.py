"""Cold start: importing the CLI loads no heavy standard-library module.

Every command starts in a fresh interpreter, so what `import
cayleycodes.cli` loads is paid on each one.  The modules below cost
milliseconds each and none is needed by any command: the record types are
plain classes and named tuples (no `dataclasses`, which brings `inspect`),
the argv parser is the `cli.COMMANDS` table (no `argparse`, which brings
`gettext`), and only the tests' float oracle `CyclotomicSum.as_complex`
reads `cmath`.  The import runs in a subprocess of the same interpreter
and search path as the tests; a module the interpreter's own start-up
already loads (what `python -c pass` loads) is not counted.
"""

from __future__ import annotations

import os
import subprocess
import sys

import cayleycodes

HEAVY = ("argparse", "cmath", "dataclasses", "gettext", "inspect")

PROBE = """\
import sys
started = set(sys.modules)
import cayleycodes.cli
print(cayleycodes.__file__)
print(*sorted(set(sys.modules) - started))
"""


def test_importing_the_cli_loads_no_heavy_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    where, loaded = run.stdout.splitlines()
    assert where == cayleycodes.__file__
    assert sorted(set(HEAVY) & set(loaded.split())) == []
