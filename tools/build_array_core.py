#!/usr/bin/env python3
"""Build the optional compiled core of the array engine.

Compiles ``src/repro/schedulers/_array_core.c`` into ``lib_array_core.so``
next to its ctypes loader, using whatever plain C compiler is on PATH
(``$CC``, then ``cc``/``gcc``/``clang``).  No Python headers, setuptools or
Cython involved — the library is a freestanding C object loaded via ctypes.

``-ffp-contract=off`` is load-bearing: it forbids fused multiply-add
contraction so the compiled duration transforms round exactly like the
pure-Python expressions, keeping traces byte-identical across the
compiled, pure-Python-array and object engines.

The library is stamped with the SHA-256 of the source it was compiled
from (``repro_core_source_sha256()``); the loader refuses a library whose
stamp differs from the source next to it, so editing the C file without
rebuilding falls back to the pure-Python loop instead of running stale code.

Exit status 0 on success (or with ``--if-possible`` when no compiler
exists, since the engine falls back to pure Python); non-zero on a failed
compile.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys

SRC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    "src",
    "repro",
    "schedulers",
    "_array_core.c",
)
OUT = os.path.join(os.path.dirname(SRC), "lib_array_core.so")

CFLAGS = ["-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math"]


def source_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def compile_core(cc: str, src: str, out: str, stamp: str) -> int:
    """Compile ``src`` into ``out`` stamped with ``stamp``; the exit status."""
    cmd = [cc, *CFLAGS, f'-DREPRO_CORE_SOURCE_SHA256="{stamp}"', "-o", out, src, "-lm"]
    print(" ".join(cmd))
    return subprocess.run(cmd).returncode


def find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def main(argv: list[str]) -> int:
    lenient = "--if-possible" in argv
    cc = find_compiler()
    if cc is None:
        print(
            "build_array_core: no C compiler found; "
            "the array engine will use its pure-Python loop",
            file=sys.stderr,
        )
        return 0 if lenient else 1
    src = os.path.normpath(SRC)
    out = os.path.normpath(OUT)
    returncode = compile_core(cc, src, out, source_sha256(src))
    if returncode != 0:
        print("build_array_core: compilation failed", file=sys.stderr)
        return returncode
    print(f"built {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
