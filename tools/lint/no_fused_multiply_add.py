#!/usr/bin/env python3
"""Fails when a library holds a fused multiply-add instruction.

The split-plane kernels return the bits std::complex<double> arithmetic
returns (DESIGN.md §3, linalg/lanes.hpp). A fused multiply-add rounds once
where that arithmetic rounds twice, so a single one moves bits. The
libraries are built with -ffp-contract=off and enable no target that has
FMA, but -ffp-contract=off alone is not enough: with FMA available, GCC 12
still turns a vectorized a * b -/+ c into vfmaddsub. This check
disassembles every library and names each FMA it finds.

    python3 tools/lint/no_fused_multiply_add.py OBJDUMP LIBRARY...

Exit status: 0 clean, 1 FMA found (or objdump failed), 77 skipped because
OBJDUMP is empty or not found.
"""

import re
import shutil
import subprocess
import sys

FMA = re.compile(r"\bv(?:fn?m(?:add|sub)|fmaddsub|fmsubadd)[0-9a-z]*\b")
MEMBER = re.compile(r"^(\S+):\s+file format\b")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def scan(objdump, library):
    """Yields (member, function, instruction line) for each FMA in library."""
    out = subprocess.run([objdump, "-d", "--no-show-raw-insn", library],
                         check=True, capture_output=True, text=True).stdout
    member = function = "?"
    for line in out.splitlines():
        if m := MEMBER.match(line):
            member = m.group(1)
        elif m := FUNCTION.match(line):
            function = m.group(1)
        elif FMA.search(line):
            yield member, function, line.strip()


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    objdump = shutil.which(argv[0]) if argv[0] else None
    if objdump is None:
        print(f"SKIPPED: objdump not found ({argv[0]!r})")
        return 77
    found = 0
    for library in argv[1:]:
        try:
            hits = list(scan(objdump, library))
        except (OSError, subprocess.CalledProcessError) as err:
            print(f"{library}: cannot disassemble: {err}")
            return 1
        for member, function, line in hits:
            print(f"{library}({member}) {function}: {line}")
        found += len(hits)
    if found:
        print(f"{found} fused multiply-add instruction(s): the libraries must "
              "not enable FMA (see src/CMakeLists.txt)")
        return 1
    print(f"no fused multiply-add in {len(argv) - 1} libraries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
