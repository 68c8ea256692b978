#!/usr/bin/env python3
"""Polymorphic-primitive gate over the warm-path modules.

OCaml's polymorphic comparison, `min`/`max` and the generic `Hashtbl`
functions call into C (`caml_compare`, `caml_lessequal`, `caml_hash`, ...)
on every use, even on int keys.  On a warm lookup that hidden call can cost
more than the work around it (`Signature.equal_buf` took 54.6 ns through
`Stdlib.min`/`max`).  The modules below make up the warm paths, so none of
them may use one, cold code included.

For each module the gate fails when either holds:

- its native object file references `camlStdlib.(min|max|compare)` or
  `caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal|hash)`
  (read from `objdump -dr`);
- its source calls the generic `Hashtbl.(find|find_opt|add|replace|remove|mem)`
  (use `Dcache_util.Inttbl` or another `Hashtbl.Make` instance).

Usage, from the repository root after `dune build`:

    python3 bench/poly_gate.py

Exits 1 and names each module, symbol or source line that fails.
"""

import glob
import os
import re
import subprocess
import sys

MODULES = [
    ("sig", "signature"),
    ("core", "dlht"),
    ("core", "pcc"),
    ("core", "fastpath"),
    ("vfs", "dcache"),
    ("vfs", "walk"),
    ("vfs", "mount"),
    ("syscalls", "proc"),
    ("syscalls", "syscalls"),
    ("syscalls", "readdir"),
    ("storage", "pagecache"),
    ("storage", "blockdev"),
    ("fs", "extfs"),
    ("fs", "netfs"),
]

POLY_SYMBOL = re.compile(
    r"\b(camlStdlib(?:\.|__)(?:min|max|compare)_\d+"
    r"|caml_(?:compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal|hash))\b"
)
GENERIC_HASHTBL = re.compile(r"\bHashtbl\.(find|find_opt|add|replace|remove|mem)\b")
COMMENT = re.compile(r"\(\*.*?\*\)", re.S)


def object_file(lib, mod):
    pattern = os.path.join(
        "_build", "default", "lib", lib, ".*.objs", "native", "*__" + mod.capitalize() + ".o"
    )
    found = glob.glob(pattern)
    return found[0] if len(found) == 1 else None


def poly_symbols(obj):
    out = subprocess.run(
        ["objdump", "-dr", obj], check=True, capture_output=True, text=True
    ).stdout
    return sorted(set(m.group(1) for m in POLY_SYMBOL.finditer(out)))


def hashtbl_calls(src):
    with open(src) as f:
        text = f.read()
    # Blank out comments, keeping line breaks so reported lines stay right.
    text = COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    return [
        (n, line.strip())
        for n, line in enumerate(text.splitlines(), 1)
        if GENERIC_HASHTBL.search(line)
    ]


def main():
    failures = 0
    for lib, mod in MODULES:
        src = os.path.join("lib", lib, mod + ".ml")
        obj = object_file(lib, mod)
        if obj is None:
            print(f"FAIL {src}: no native object under _build (run `dune build` first)")
            failures += 1
            continue
        symbols = poly_symbols(obj)
        for sym in symbols:
            print(f"FAIL {obj}: references {sym}")
        calls = hashtbl_calls(src)
        for n, line in calls:
            print(f"FAIL {src}:{n}: generic Hashtbl call: {line}")
        failures += len(symbols) + len(calls)
        if not symbols and not calls:
            print(f"ok   {mod}")
    if failures:
        print(f"poly_gate: {failures} failure(s)")
        sys.exit(1)
    print(f"poly_gate: {len(MODULES)} modules clean")


if __name__ == "__main__":
    main()
