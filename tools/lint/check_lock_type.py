"""Lock-type check: runtime::Mutex is the only lockable type in src/.

DESIGN.md §14 makes the annotated `runtime::Mutex`, `MutexLock` and
`CondVar` (src/runtime/sync.hpp) the only lockable types. Clang's
thread-safety analysis follows their capability attributes; a std::mutex,
a std condition variable or a std lock object is a lock it cannot see, so
the fields it guards carry no SAFE_GUARDED_BY and no build breaks when one
is read unlocked. sync.hpp wraps the std types and is the one file that
may name them.

  lock-type  `std::mutex` (and the other std mutexes),
             `std::condition_variable[_any]`, `std::lock_guard`,
             `std::unique_lock`, `std::scoped_lock` or `std::shared_lock`
             in src/ outside src/runtime/sync.hpp, comments included (a
             comment naming one describes a lock that lives elsewhere).
"""

from __future__ import annotations

import re
from typing import Iterator

from framework import CheckContext, Finding, register

#: The one file that may name the std lock types.
WRAPPER = "src/runtime/sync.hpp"

LOCK_TYPE = re.compile(
    r"\bstd::\w*mutex\b"
    r"|\bstd::condition_variable(?:_any)?\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)


@register("lock-type", "std lock types outside runtime/sync.hpp")
def check_lock_type(ctx: CheckContext) -> Iterator[Finding]:
    for path in ctx.iter_files(("src",), (".hpp", ".cpp", ".h", ".cc")):
        if ctx.rel(path) == WRAPPER:
            continue
        for line in ctx.lines(path):
            m = LOCK_TYPE.search(line.text)
            if m and not line.allows("lock-type"):
                yield Finding(
                    line.rel, line.lineno, "lock-type",
                    f"'{m.group(0)}' outside {WRAPPER}; use runtime::Mutex "
                    "with MutexLock and CondVar, so the thread-safety "
                    "analysis sees the lock",
                    "lock-type",
                )
