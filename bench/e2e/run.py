#!/usr/bin/env python3
"""Build bench/e2e/e2e.exe from source and run it with the given arguments.

Run from the repository root:

    python3 bench/e2e/run.py --workload tree-hot --seed 1 --seconds 20 --trace 0

The build uses dune with the current directory as its root and the shared
dune cache off, so it reads and writes only inside the checkout (_build/).
The first run builds; later runs find the build up to date.  The benchmark
then replaces this process, so its exit code and output are the run's.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the repository root (no dune-project or lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune is not on PATH")
    target = "./bench/e2e/e2e.exe"
    build = subprocess.run(
        [dune, "build", "--root", root, "--cache=disabled", "--display=quiet",
         "--no-print-directory", target],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"run.py: building {target} failed")
    exe = os.path.join(root, "_build", "default", "bench", "e2e", "e2e.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
