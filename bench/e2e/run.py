#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file). The first call configures and compiles the libraries and the
driver into .bench_build/e2e, which takes about a minute on four cores;
later calls only check that the build is up to date. Every argument is
passed on to the driver, so its development flags (README.md) work here too.

The driver reports what it measured by name. The metrics' names, units and
order come from BENCHMARK.json alone: the end-to-end set, or with --trace 1
the per-layer set. This script prints the driver's report, those metrics as
a table, then one JSON result line. A per-layer metric the driver did not
report is 0: its layer does no work in that workload. The script exits
non-zero, without a result line, when the build or the run fails or an
end-to-end metric is missing.
"""
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "bench" / "e2e"
BUILD_DIR = ROOT / ".bench_build" / "e2e"
WORK_DIR = BUILD_DIR / "work"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    """Run a build step, appending its output to `log`; fail on error."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        try:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out after {timeout}s: see {log}")
    if done.returncode != 0:
        tail = Path(log).read_text().splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed ({done.returncode}): "
             f"{' '.join(map(str, cmd))}")


def build():
    """Configure once, then bring the driver up to date. Returns its path."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_logged(configure, log, BUILD_TIMEOUT_S)
        run_logged(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                    "-j", jobs], log, BUILD_TIMEOUT_S)
    return BUILD_DIR / "e2e_bench"


def result(report, spec, traced):
    """Print BENCHMARK.json's metrics with the driver's values as a table;
    returns the benchmark's result object."""
    metrics = {}
    for metric in spec["per_layer" if traced else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name not in report["values"] and not traced:
            fail(f"the driver reported no value for {name}")
        value = report["values"].get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:34s} {value:16.6g}  {unit}")
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository", code=2)
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH", code=2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = sys.argv[1:]
    traced = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    binary = build()
    WORK_DIR.mkdir(exist_ok=True)
    try:
        # A --workdir among the arguments comes later and wins.
        done = subprocess.run([str(binary), "--workdir", str(WORK_DIR), *args],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S}s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"driver exited with code {done.returncode}")
    print("\n".join(lines))
    print(json.dumps(result(json.loads(lines[-1]), spec, traced)), flush=True)


if __name__ == "__main__":
    main()
