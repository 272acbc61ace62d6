"""Width-dispatch check: only src/linalg/lanes.hpp may enable a CPU extension.

The split-plane kernels run at the lane width lanes::dispatch picks from
the CPU (DESIGN.md §3). That file holds the one avx2 thunk and the one
avx512f thunk the kernels run in, and the one test for the architecture.
A target attribute or an architecture guard anywhere else in src/ is a
second copy of that rule, and a target enabled outside the thunks escapes
the reasoning that keeps fused multiply-adds out of the libraries
(lint.no_fused_multiply_add). A new kernel is a struct with run<L> and one
dispatch line instead.

  width-dispatch  `gnu::target`, `__attribute__((target`,
                  `#pragma GCC target` or `__x86_64__` in src/ outside
                  src/linalg/lanes.hpp, comments included (a comment naming
                  them describes a dispatch that lives elsewhere).
"""

from __future__ import annotations

import re
from typing import Iterator

from framework import CheckContext, Finding, register

#: The one file that may name a target or the architecture.
DISPATCHER = "src/linalg/lanes.hpp"

WIDTH_TOKEN = re.compile(
    r"\bgnu::target"
    r"|__attribute__\s*\(\(\s*target"
    r"|#\s*pragma\s+GCC\s+target"
    r"|__x86_64__"
)


@register("width-dispatch", "CPU targets and arch guards outside lanes.hpp")
def check_width_dispatch(ctx: CheckContext) -> Iterator[Finding]:
    for path in ctx.iter_files(("src",), (".hpp", ".cpp", ".h", ".cc")):
        if ctx.rel(path) == DISPATCHER:
            continue
        for line in ctx.lines(path):
            m = WIDTH_TOKEN.search(line.text)
            if m and not line.allows("width-dispatch"):
                yield Finding(
                    line.rel, line.lineno, "width-dispatch",
                    f"'{m.group(0)}' outside {DISPATCHER}; write the "
                    "kernel as a struct with run<L> and call it through "
                    "lanes::dispatch",
                    "width-dispatch",
                )
