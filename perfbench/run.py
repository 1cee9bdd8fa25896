#!/usr/bin/env python3
"""Runs one OrcoDCS benchmark workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out results.jsonl]
    python3 perfbench/run.py --selftest

Run it from the root of a source tree. It builds the library and the
benchmark program (orco_perfbench) from that tree's sources into
$CARGO_TARGET_DIR (default .bench_build), runs the workload, and prints
two lines:

  * a record: {"record": {...}} with the env block (CPU model, nproc,
    simd_isa, compiler, build type, git sha / source hash), the run's
    host.steal_share, every metric under its workload-specific name, the
    per-layer metrics of a traced run and the correctness verdict;
  * the result, last: {"correct", "attempted", "failed", "metrics"}, with
    the end_to_end metrics of BENCHMARK.json for --trace 0 and its
    per_layer metrics for --trace 1 (0 where the workload leaves a layer
    idle).

Every run must print every end-to-end metric, so they carry shared names
whose unit of work depends on the workload: p50_us (and p99_us in the
record) is the latency of one request at the lo rate for uplink_sparse and
serve_finetune, of one 32-latent round for uplink_rounds, and of one
Orchestrator::train_round for train_online. The workload-specific figures
(lat_p50_us.lo, slo_rate_rps, readings_per_s, train_rounds_per_s, ...) are
in the record.

--out appends the record to a JSON-lines file; perfbench/compare.py
compares two such files. --selftest builds and runs the tests of the
benchmark's own statistics.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TARGETS = ["orco_perfbench", "perfbench_stats_test"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the benchmark from the tree's sources."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no OrcoDCS source tree (CMakeLists.txt and src/) at {ROOT}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(out), "--target", *TARGETS,
                    "-j", jobs])
    return out


def run_build_step(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail("build failed: " + " ".join(cmd))


def source_hash():
    """SHA-256 over the library sources and build files, so a git checkout
    and an exported copy of the same commit read alike."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in BENCH_DIR.rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def env_block(build_info):
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "simd_isa": build_info["simd_isa"],
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
    }


def contract_metrics(spec, record, traced):
    """The BENCHMARK.json metric list filled from the record; a missing
    end-to-end metric or a unit that disagrees is an error."""
    values = {**record["detail"], **record["metrics"]}
    out = {}
    if traced:
        for m in spec["per_layer"]:
            got = record["per_layer"].get(m["name"])
            if got is not None and got["unit"] != m["unit"]:
                fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
            value = got["value"] if got is not None else 0.0  # layer idle
            out[m["name"]] = {"value": value, "unit": m["unit"]}
        extra = set(record["per_layer"]) - {m["name"] for m in spec["per_layer"]}
        if extra:
            fail(f"per-layer metrics missing from BENCHMARK.json: {sorted(extra)}")
    else:
        for m in spec["end_to_end"]:
            got = values.get(m["name"])
            if got is None:
                fail(f"workload reported no {m['name']}")
            if got["unit"] != m["unit"]:
                fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
            out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for name, m in out.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{name} is not a finite number: {m['value']}")
    return out


def selftest():
    out = build()
    proc = subprocess.run([str(out / "perfbench_stats_test")])
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if proc.returncode == 0 and ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the record to this JSON-lines file")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no BENCHMARK.json at {ROOT}")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    out = build()
    cmd = [str(out / "orco_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with status {proc.returncode}")
    record = json.loads(lines[-1])
    record["env"] = env_block(record.pop("build"))
    record["steal_share"] = record["detail"]["host.steal_share"]["value"]
    metrics = contract_metrics(spec, record, args.trace == 1)
    if record["check_failures"]:
        print("perfbench: correctness checks failed: " +
              "; ".join(record["check_failures"]), file=sys.stderr)

    line = json.dumps({"record": record})
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(line)
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
