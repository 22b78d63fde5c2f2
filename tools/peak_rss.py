"""Run one `egobatch` command in a fresh child process and print its exit
code and peak resident set size.

    python3 tools/peak_rss.py train --arch piggyback --manifest ... --out-dir ...

Everything after the script name is the command line of `egobatch`. The
child imports the package from the `src/` next to this directory and runs
BLAS at one thread. This script first compiles the package's bytecode into
its `__pycache__`, in its own process, which the reading does not count: a
child that compiled the package from source, as it does under
`PYTHONDONTWRITEBYTECODE` when no bytecode is cached, would peak higher.
The child's peak is read with `getrusage(RUSAGE_CHILDREN)` once it has
exited: on Linux that is the largest peak of any waited-for child,
and the command is this script's only child, so the reading is the
command's own, apart from anything this script holds. The last line printed
is `exit <code> peak_rss_mib <MiB>`, and the script exits with the
command's code.
"""

from __future__ import annotations

import compileall
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    compileall.compile_dir(SRC / "egobatch", quiet=1)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = subprocess.call([sys.executable, "-m", "egobatch", *argv], env=env)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print(f"exit {code} peak_rss_mib {peak_kib / 1024:.1f}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
