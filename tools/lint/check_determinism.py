"""Determinism check: the reproducibility contract, mechanically enforced.

Every module on the parity-critical path — the pipeline that must produce
byte-identical output for a given seed (DESIGN.md §2, §12) — is scanned for
the classic sources of run-to-run drift:

  wall-clock        std::chrono::system_clock, std::time / time(NULL),
                    gettimeofday, localtime/gmtime. Wall time changes
                    between runs; deterministic code must take timestamps
                    as inputs. Monotonic clocks (steady_clock, and
                    telemetry::now_ns() built on it) are allowed by design:
                    event loops and timeout math need them and they never
                    feed deterministic output.
  nondeterministic-seed
                    std::random_device — entropy that cannot be replayed.
                    Seeds come from the campaign SplitMix64 derivation
                    (runtime/seed.hpp), never from the environment.
  c-rand            rand()/srand(): hidden global state, unspecified
                    algorithm, not reproducible across libcs.
  unseeded-engine   A <random> engine constructed with no seed argument
                    (e.g. `std::mt19937 rng;`). The default seed is fixed
                    but invisible at the call site; every engine must be
                    constructed from a derived seed so the provenance is
                    explicit. The library's own engine
                    (sim::MersenneTwister64) has no default constructor,
                    so the type enforces this rule for it;
                    tests/compile_fail/unseeded_engine.cpp proves it.
  unordered-iter   A range-for directly over a std::unordered_map/set
                    declared in the same file. Iteration order is
                    unspecified and libc++/libstdc++ differ, so any output
                    produced this way is not portable-deterministic.
                    Collect-and-sort first, or suppress with
                    `lint: allow(unordered-iter)` plus a comment proving
                    order cannot reach output.

Scope: src/attack, src/core, src/dsp, src/estimation, src/cra, src/detect,
src/fault, src/sim, src/platoon, src/runtime and src/spec in full, plus the
serve-layer files on the byte-parity path
(session, trace_source, wire). The rest of src/serve (event loop, chaos
proxy, load generator) is scheduling-dependent by design and exempt.

Deliberate exceptions are suppressed per line with `lint: allow(<rule>)`
and must carry a justifying comment; the selftest pins both directions.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator

from framework import CheckContext, Finding, register

DET_DIRS = (
    "src/attack",
    "src/core",
    "src/dsp",
    "src/estimation",
    "src/cra",
    "src/detect",
    "src/fault",
    "src/sim",
    "src/platoon",
    "src/runtime",
    "src/spec",
)

#: serve-layer files whose output is under the byte-parity contract.
DET_SERVE_STEMS = ("session", "trace_source", "wire")

WALL_CLOCK = re.compile(
    r"\bsystem_clock\b"
    r"|\bgettimeofday\b"
    r"|\bstd::time\s*\("
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
    r"|\blocaltime\b"
    r"|\bgmtime\b"
)

RANDOM_DEVICE = re.compile(r"\brandom_device\b")

C_RAND = re.compile(r"\b(?:std::)?(?:s)?rand\s*\(")

# A <random> engine declared with no constructor argument: `mt19937 rng;`
# or `mt19937 rng{};`. An engine fed a seed (`mt19937 rng(seed)`) does not
# match.
UNSEEDED_ENGINE = re.compile(
    r"\b(?:std::)?"
    r"(mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux(?:24|48)(?:_base)?|knuth_b)"
    r"\s+[A-Za-z_][A-Za-z0-9_]*\s*(?:;|\{\s*\})"
)

# Declaration of an unordered container, capturing the variable name. One
# line only — a multi-line declaration escapes the heuristic, which is the
# accepted precision/complexity trade-off for a regex lint.
UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*[;{=]"
)

RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*(?P<seq>[A-Za-z_][A-Za-z0-9_]*)\s*\)")


def _in_scope(ctx: CheckContext, path: Path) -> bool:
    if ctx.under(path, DET_DIRS):
        return True
    if ctx.under(path, ("src/serve",)):
        stem = path.name.split(".")[0]
        return stem in DET_SERVE_STEMS
    return False


@register("determinism", "wall clocks, ambient entropy, unordered iteration")
def check_determinism(ctx: CheckContext) -> Iterator[Finding]:
    for path in ctx.iter_files(("src",), (".hpp", ".cpp", ".h", ".cc")):
        if not _in_scope(ctx, path):
            continue
        lines = list(ctx.lines(path))

        unordered_names = set()
        for line in lines:
            for m in UNORDERED_DECL.finditer(line.text):
                unordered_names.add(m.group("name"))

        for line in lines:
            if line.is_comment:
                continue
            if WALL_CLOCK.search(line.text) and not line.allows("wall-clock"):
                yield Finding(
                    line.rel, line.lineno, "wall-clock",
                    "wall-clock time in a deterministic module; take "
                    "timestamps as inputs (monotonic clocks are exempt)",
                    "determinism",
                )
            if RANDOM_DEVICE.search(line.text) and not line.allows(
                "nondeterministic-seed"
            ):
                yield Finding(
                    line.rel, line.lineno, "nondeterministic-seed",
                    "std::random_device cannot be replayed; derive seeds "
                    "with runtime/seed.hpp",
                    "determinism",
                )
            if C_RAND.search(line.text) and not line.allows("c-rand"):
                yield Finding(
                    line.rel, line.lineno, "c-rand",
                    "rand()/srand() is hidden global state with an "
                    "unspecified algorithm; use a seeded <random> engine "
                    "or runtime::SplitMix64",
                    "determinism",
                )
            m = UNSEEDED_ENGINE.search(line.text)
            if m and not line.allows("unseeded-engine"):
                yield Finding(
                    line.rel, line.lineno, "unseeded-engine",
                    f"'{m.group(1)}' constructed without a seed; pass a "
                    "seed derived via runtime/seed.hpp",
                    "determinism",
                )
            m = RANGE_FOR.search(line.text)
            if (
                m
                and m.group("seq") in unordered_names
                and not line.allows("unordered-iter")
            ):
                yield Finding(
                    line.rel, line.lineno, "unordered-iter",
                    f"range-for over unordered container "
                    f"'{m.group('seq')}': iteration order is unspecified; "
                    "collect and sort before producing output",
                    "determinism",
                )
