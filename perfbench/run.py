#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from this checkout and
runs one workload.

    python3 perfbench/run.py --workload fig_paper|campaign_mixed|serve_stream \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build), spans and result files to .bench_out. The last line of
standard output is the result: {"correct", "attempted", "failed", "metrics"},
where the metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1). Exits non-zero, printing no result, when
the checkout cannot be built or a run fails to produce its metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
OUT = ROOT / ".bench_out"
WORKLOADS = ("fig_paper", "campaign_mixed", "serve_stream")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if not ((BUILD / "build.ninja").exists() or (BUILD / "Makefile").exists()):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD), *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(nproc())],
                   check=True, stdout=sys.stderr)


def run_command(cmd, timeout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{cmd[0]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return out


def source_digest():
    """SHA-256 over the library and benchmark sources (a checkout need not be
    a git repository, so this identifies the code when git cannot)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git(*args):
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def used_flags():
    """Optimisation-relevant flags the library was actually compiled with,
    read from the compilation database (not from the cache's build type)."""
    try:
        entries = json.loads((BUILD / "compile_commands.json").read_text())
    except (OSError, ValueError):
        return None
    for entry in entries:
        if entry["file"].endswith("src/dsp/fft.cpp"):
            words = entry.get("command", " ".join(entry.get("arguments", []))).split()
            return " ".join(w for w in words if w.startswith(("-O", "-g", "-DNDEBUG", "-march",
                                                                "-mtune", "-f", "-std")))
    return None


def provenance(args):
    try:
        compiler = json.loads((BUILD / "perfbench_build.json").read_text())
    except (OSError, ValueError):
        compiler = {}
    # Only this checkout's own repository counts, not one it is nested in.
    top = git("rev-parse", "--show-toplevel")
    own = top is not None and Path(top).resolve() == ROOT
    sha = git("rev-parse", "HEAD") if own else None
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_digest": source_digest(),
        "flags": used_flags(),
        "build_type": compiler.get("build_type"),
        "compiler": f"{compiler.get('compiler_id')} {compiler.get('compiler_version')}",
        "nproc": nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(spec, workload, seed, seconds, trace, quick=False):
    """Runs the binary; returns (report lines, contract result, raw result)."""
    OUT.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(OUT)]
    if quick:
        cmd.append("--quick")
    lines = run_command(cmd, RUN_TIMEOUT_S).rstrip("\n").split("\n")
    raw = json.loads(lines[-1])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"{workload}: metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"{workload}: {m['name']} in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return lines[:-1], result, raw


def selfcheck(spec):
    """Unit tests of the benchmark's arithmetic, then every workload at its
    minimal size with every correctness check on, traced and untraced."""
    ok = True
    try:
        run_command([str(BUILD / "perfbench_selftest")], RUN_TIMEOUT_S)
        log("selftest: ok")
    except RuntimeError as e:
        log(f"selftest: FAILED ({e})")
        ok = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                _, result, raw = run_workload(spec, workload, 1, 1, trace, quick=True)
                good = result["correct"] and result["attempted"] > 0 and all(
                    m["value"] == m["value"] for m in result["metrics"].values())
                log(f"{workload} trace={trace}: correct={result['correct']} "
                    f"attempted={result['attempted']} failed={result['failed']} "
                    f"{raw.get('failed_by_kind', {})}")
                ok = ok and good
            except (RuntimeError, ValueError, KeyError) as e:
                log(f"{workload} trace={trace}: FAILED ({e})")
                ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
        build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log(f"perfbench: cannot build from {ROOT}: {e}")
        return 1

    if args.selfcheck:
        return 0 if selfcheck(spec) else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    try:
        lines, result, raw = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    prov = provenance(args)
    record = {"provenance": prov, "failed_by_kind": raw.get("failed_by_kind", {}),
              "result": result, "report": lines}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in lines:
        print(line)
    print("provenance: " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
