#!/usr/bin/env python3
"""Program-wide state gate over lib/.

A kernel owns its state: counters, timers, locks, version numbers and
fault sites live in its dcache, its superblocks or its Kernel.t, so two
kernels in one program never read each other's figures.  This gate lists
every top-level mutable binding in lib/ -- a module-level `let` (or one in
a `module X = struct` body) whose value is built by `ref`, `Atomic.make`,
`Array.make`/`init`, `Hashtbl.create`, `Inttbl.create`, `Mutex.create`,
`Domain.DLS.new_key` or `Lhist.create` -- and fails on any binding that
is not in the allowlist below.

Usage, from the repository root:

    python3 bench/state_gate.py

Exits 1 and names each binding that is not allowed (or each allowlist
entry that no longer exists).
"""

import glob
import re
import sys

# Each entry is "<path under lib/>:<Module.path.binding>".
ALLOWED = {
    # Id counters: ids must stay unique across every kernel in the program
    # (credentials and namespaces can be shared between kernels).
    "cred/cred.ml:next_id",
    "vfs/mount.ml:next_mnt_id",
    "vfs/mount.ml:next_ns_id",
    # Span blocks: span ids are minted per domain from blocks carved off
    # one program-wide counter, because a netfs server and its clients'
    # kernels share one timeline.
    "util/trace.ml:next_block",
    "util/trace.ml:span_key",
    # Stats.Counter's declaration registry: counters are declared once, at
    # module initialisation, and every kernel's table is sized from it.
    "util/stats.ml:Counter.names",
    "util/stats.ml:Counter.frozen",
    # Trace's ring and its switch: one program-wide timeline (see above).
    "util/trace.ml:armed",
    "util/trace.ml:ring_buf",
    "util/trace.ml:mask",
    "util/trace.ml:seq",
    # Rwlock's per-domain acquisition counts, read by bench/e2e/measure.ml
    # across every lock of the program.
    "util/rwlock.ml:acq_key",
    # The fastpath's per-domain probe scratch: buffers reused by every
    # probe on the domain, carrying no figure from one kernel to another.
    "core/fastpath.ml:scratch_key",
    # The fault injector's global self-check switch (tests only).
    "util/fault.ml:checks_enabled",
}

MUTABLE = re.compile(
    r"^[(\s]*(?:ref\b|Atomic\.make\b|Array\.(?:make|init)\b|Hashtbl\.create\b"
    r"|(?:\w+\.)*Inttbl\.create\b|Mutex\.create\b|Domain\.DLS\.new_key\b|(?:\w+\.)*Lhist\.create\b)"
)
LET = re.compile(r"^(\s*)let(?:\[@[^\]]*\])?\s+(?:rec\s+)?([a-z_][\w']*)\s*(.*)$", re.S)
MODULE = re.compile(r"^module\s+([A-Z]\w*)\s*(?::[^=]*)?=\s*struct\b")


def strip_comments_and_strings(text):
    """Blank out comments and string literals, keeping line breaks."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(re.sub(r"[^\n]", " ", text[i : j + 1]))
            i = j + 1
        elif c == "'" and i + 2 < n and text[i + 2] == "'":
            out.append("   ")
            i += 3
        else:
            out.append(c if (not depth or c == "\n") else " ")
            i += 1
    return "".join(out)


def bindings(path):
    lines = strip_comments_and_strings(open(path).read()).split("\n")
    module = None
    for k, line in enumerate(lines):
        m = MODULE.match(line)
        if m:
            module = m.group(1)
            continue
        if module and re.match(r"^end\b", line):
            module = None
            continue
        m = LET.match(line)
        if not m:
            continue
        indent = len(m.group(1))
        if not (indent == 0 or (module and indent == 2)):
            continue
        name, rest = m.group(2), m.group(3)
        # The binding's text runs to the next line indented no deeper.
        body = [rest]
        for nxt in lines[k + 1 :]:
            if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= indent:
                break
            body.append(nxt)
        text = " ".join(body)
        # A value binding: an optional type annotation, then "=".
        eq = re.match(r"^(?::[^=]*)?=(.*)$", text.strip(), re.S)
        if eq and MUTABLE.match(eq.group(1)):
            yield k + 1, (module + "." if module and indent else "") + name


def main():
    failures = []
    seen = set()
    for path in sorted(glob.glob("lib/**/*.ml", recursive=True)):
        rel = path[len("lib/") :]
        for lineno, name in bindings(path):
            key = f"{rel}:{name}"
            seen.add(key)
            if key not in ALLOWED:
                failures.append(f"{path}:{lineno}: program-wide mutable binding {name}")
    for key in sorted(ALLOWED - seen):
        failures.append(f"allowlist entry {key} names no binding; drop it")
    for f in failures:
        print(f)
    if failures:
        print(f"state_gate: {len(failures)} failure(s)")
        sys.exit(1)
    print(f"state_gate: {len(seen)} program-wide mutable bindings, all allowed")


if __name__ == "__main__":
    main()
