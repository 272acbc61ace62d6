#!/usr/bin/env python3
"""Fails when a library holds a fused multiply-add instruction.

The split-plane kernels return the bits std::complex<double> arithmetic
returns (DESIGN.md §3, linalg/lanes.hpp). A fused multiply-add rounds once
where that arithmetic rounds twice, so a single one moves bits. The
libraries are built with -ffp-contract=off, and the one target with FMA
they enable is avx512f, on the eight-lane entry points (its EVEX
encodings include FMA). -ffp-contract=off alone is not enough: with FMA
available, GCC 12 still turns a vectorized a * b -/+ c into vfmaddsub.
This check disassembles every library and names each FMA it finds.

    python3 tools/lint/no_fused_multiply_add.py OBJDUMP LIBRARY...
    python3 tools/lint/no_fused_multiply_add.py --selftest

Exit status: 0 clean, 1 FMA found (or objdump failed), 77 skipped because
OBJDUMP is empty or not found. --selftest feeds the scanner disassembly
lines that must and must not be flagged, and exits 0 when each is judged
right, else 1.
"""

import re
import shutil
import subprocess
import sys

FMA = re.compile(r"\bv(?:fn?m(?:add|sub)|fmaddsub|fmsubadd)[0-9a-z]*\b")
MEMBER = re.compile(r"^(\S+):\s+file format\b")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def fma_lines(disassembly):
    """Yields (member, function, instruction line) for each FMA in the text
    of `objdump -d`."""
    member = function = "?"
    for line in disassembly.splitlines():
        if m := MEMBER.match(line):
            member = m.group(1)
        elif m := FUNCTION.match(line):
            function = m.group(1)
        elif FMA.search(line):
            yield member, function, line.strip()


def scan(objdump, library):
    """Yields (member, function, instruction line) for each FMA in library."""
    out = subprocess.run([objdump, "-d", "--no-show-raw-insn", library],
                         check=True, capture_output=True, text=True).stdout
    yield from fma_lines(out)


#: Instructions the scanner must flag: EVEX (AVX-512F) and VEX forms.
SELFTEST_FMA = [
    "vfmadd231pd %zmm2,%zmm1,%zmm0{%k1}",
    "vfmaddsub132pd %ymm2,%ymm1,%ymm0",
    "vfnmadd213sd %xmm2,%xmm1,%xmm0",
    "vfmsubadd231pd %zmm2,%zmm1,%zmm0",
]

#: Instructions it must not flag: an add-subtract, products and sums alone.
SELFTEST_CLEAN = [
    "vaddsubpd %ymm2,%ymm1,%ymm0",
    "vmulpd %zmm2,%zmm1,%zmm0",
    "vaddpd %zmm2,%zmm1,%zmm0{%k1}",
]


def selftest():
    """Runs fma_lines over an objdump-like listing of SELFTEST_FMA and
    SELFTEST_CLEAN; returns the number of misjudged lines."""
    listing = ["", "fft.cpp.o:     file format elf64-x86-64", "",
               "0000000000000000 <eight_lane_transform>:"]
    listing += [f"{0x10 * i:8x}:\t{insn}"
                for i, insn in enumerate(SELFTEST_FMA + SELFTEST_CLEAN)]
    found = list(fma_lines("\n".join(listing)))
    expected = [("fft.cpp.o", "eight_lane_transform", f"{0x10 * i:x}:\t{insn}")
                for i, insn in enumerate(SELFTEST_FMA)]
    misjudged = 0
    for hit in found:
        if hit not in expected:
            print(f"flagged, but is no FMA (or misattributed): {hit}")
            misjudged += 1
    for want in expected:
        if want not in found:
            print(f"not flagged: {want}")
            misjudged += 1
    return misjudged


def main(argv):
    if argv == ["--selftest"]:
        misjudged = selftest()
        print(f"selftest: {misjudged} misjudged line(s) of "
              f"{len(SELFTEST_FMA) + len(SELFTEST_CLEAN)}")
        return 1 if misjudged else 0
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
