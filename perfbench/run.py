#!/usr/bin/env python3
"""memtherm performance benchmark: build, generate inputs, run, report.

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) from the
repository's sources, generates the workload's scenario JSON and trace
file from --seed, runs the binary, prints every metric by name and unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. Run from the repository root:

    python3 perfbench/run.py --workload ch4_grid --seed 1 --seconds 10 --trace 0

Exit status: 0 when the program's outputs were checked correct; 1 when a
correctness, digest or failed-run check failed (the result line is still
printed); 2 when the benchmark could not build or run (no result line).
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_DIR = os.path.join(WORK_DIR, "build")
BINARY = os.path.join(BUILD_DIR, "memtherm_perfbench")
# Generous for a loaded 4-core host; a normal run takes seconds + ~10 s.
RUN_TIMEOUT_S = 170

CH4_POLICIES = ["No-limit", "DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"]
FULL_LINEUP = CH4_POLICIES + ["DTM-BW+PID", "DTM-ACG+PID", "DTM-CDVFS+PID"]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- inputs -------------------------------------------------------------------

def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def ch4_grid(rng, tiny):
    """Table 4.1 platform, W1-W8 x the Chapter 4 lineup, lumped, no refresh.

    The seed only orders the grid: every seed does the same work.
    """
    return {
        "name": "ch4_grid",
        "description": "W1-W8 x {No-limit, DTM-TS, DTM-BW, DTM-ACG, "
                       "DTM-CDVFS} on the Table 4.1 platform",
        "config": {"cooling": "AOHS_1.5", "ambient": "isolated",
                   "copies_per_app": 1 if tiny else 4},
        "workloads": shuffled(rng, ["W1", "W2"] if tiny else
                              ["W%d" % i for i in range(1, 9)]),
        "policies": shuffled(rng, CH4_POLICIES),
    }


def policy_sweep_batched(rng, tiny):
    """W1-W4 x the full 8-policy lineup x t_inlet {38, 44, 50}, noisy sensors.

    The seed picks the sensor-noise stream and orders the grid.
    """
    return {
        "name": "policy_sweep_batched",
        "description": "W1-W4 x the 8-policy lineup x t_inlet {38, 44, 50} "
                       "with seeded noisy sensors, run batched",
        "config": {"cooling": "AOHS_1.5", "ambient": "isolated",
                   "copies_per_app": 1 if tiny else 4,
                   "sensor_noise_sigma": 0.25,
                   "sensor_seed": rng.randrange(1, 2**31)},
        "workloads": shuffled(rng, ["W1"] if tiny else
                              ["W1", "W2", "W3", "W4"]),
        "policies": shuffled(rng, FULL_LINEUP),
        "sweep": {"t_inlet": shuffled(rng, [38, 50] if tiny else
                                      [38, 44, 50])},
    }


# bank_grid_stream organization: 4 channels x 8 DIMMs, a 32x32 bank grid.
BG_CHANNELS, BG_DIMMS = 4, 8


def bank_trace(rng, records, cells):
    """A seeded trace: 40% of accesses on DIMM 0, half on 16 hot banks.

    Addresses follow the decoder's block interleave (channel, then DIMM,
    then bank cell), so the hot DIMM and hot banks land where intended.
    The hot DIMM and the skew are fixed; the seed picks the hot banks and
    every address, so seeds differ in detail but not in load.
    """
    hot_banks = rng.sample(range(cells), 16)
    lines = ["#memtherm-trace v1",
             "# bank_grid_stream: generated by perfbench/run.py"]
    for _ in range(records):
        channel = rng.randrange(BG_CHANNELS)
        dimm = 0 if rng.random() < 0.4 else rng.randrange(BG_DIMMS)
        bank = (rng.choice(hot_banks) if rng.random() < 0.5
                else rng.randrange(cells))
        row = rng.randrange(1 << 16)
        block = ((row * cells + bank) * BG_DIMMS + dimm) * BG_CHANNELS + channel
        lines.append("0x%x %s 64" % (block * 64,
                                     "w" if rng.random() < 0.3 else "r"))
    return "\n".join(lines) + "\n"


def bank_grid_stream(rng, tiny, trace_rel):
    """Trace-driven 4x8 organization, 32x32 bank grid, ddr2_2x refresh.

    FDHS_1.0 cooling at a 44-46 C inlet makes DTM and the 2x refresh band
    engage; remap and threshold policies; streamed with traces.
    """
    grid = 8 if tiny else 32
    return {
        "name": "bank_grid_stream",
        "description": "trace-driven 4x8 FBDIMM organization with a "
                       "%dx%d per-bank grid, ddr2_2x refresh, hot inlet "
                       "and degraded cooling" % (grid, grid),
        "config": {"cooling": "FDHS_1.0",
                   "copies_per_app": 1 if tiny else 4,
                   "max_sim_time": 2000,
                   "memory_org": {"channels": BG_CHANNELS, "dimms": BG_DIMMS},
                   "thermal_model": {"grid_x": grid, "grid_z": grid},
                   "refresh": "ddr2_2x", "remap_interval": 0.25,
                   "trace": trace_rel},
        "workloads": shuffled(rng, ["W1"] if tiny else
                              ["W1", "W2", "W3", "W4"]),
        "policies": shuffled(rng, ["DTM-TS", "DTM-remap"] if tiny else
                             ["DTM-TS", "DTM-remap", "DTM-remap-hyst",
                              "DTM-TS+remap"]),
        "sweep": {"t_inlet": shuffled(rng, [45] if tiny else [44, 46])},
    }, grid * grid


def generate(workload, seed, tiny, run_dir):
    """Write the workload's scenario (and trace) into run_dir; return its path."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "ch4_grid":
        spec = ch4_grid(rng, tiny)
    elif workload == "policy_sweep_batched":
        spec = policy_sweep_batched(rng, tiny)
    elif workload == "bank_grid_stream":
        trace_path = os.path.join(run_dir, "bank_grid_stream.trace")
        spec, cells = bank_grid_stream(rng, tiny,
                                       os.path.relpath(trace_path, ROOT))
        with open(trace_path, "w") as f:
            f.write(bank_trace(rng, 5000 if tiny else 200000, cells))
    else:
        raise BenchError("unknown workload '%s'" % workload)
    path = os.path.join(run_dir, "scenario.json")
    with open(path, "w") as f:
        json.dump(spec, f, indent=2)
    return path


# --- build and run ------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no memtherm sources here (missing %s)" % need)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: %s" % " ".join(cmd))


def run_binary(args, scenario, run_dir):
    cmd = [BINARY, "--workload", args.workload, "--scenario", scenario,
           "--out-dir", run_dir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("benchmark binary timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("benchmark binary exited %d" % proc.returncode)
    return json.loads(lines[-1])


def print_metrics(title, metrics, notes=None):
    print(title)
    for name, m in metrics.items():
        note = "   (%s)" % notes[name] if notes and name in notes else ""
        print("  %-34s %-22s %s%s" % (name, repr(m["value"]), m["unit"],
                                      note))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few runs per grid, for the self-test")
    args = ap.parse_args()

    run_dir = os.path.join(WORK_DIR, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    try:
        build()
        os.makedirs(run_dir, exist_ok=True)
        scenario = generate(args.workload, args.seed, args.size == "tiny",
                            run_dir)
        report = run_binary(args, scenario, run_dir)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("host %s" % json.dumps(report["host"], sort_keys=True))
    print("workload %s seed %d trace %d size %s" % (
        args.workload, args.seed, args.trace, args.size))
    print("digest %s (identical over every repetition%s)" % (
        report["digest"], " and the traced pass" if args.trace else ""))
    for p in report["problems"]:
        print("PROBLEM %s" % p)
    print_metrics("end-to-end (host time; over the kept, fastest timed "
                  "repetitions):", report["end_to_end"],
                  {"run_tail_ms": report["tail"]})
    print_metrics("counters (deterministic):", report["counters"])
    if args.trace:
        print_metrics("per-layer (host time; traced pass and replays):",
                      report["layers"])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    pool = dict(report["end_to_end"])
    pool.update(report["layers"])
    pool.update(report["counters"])
    metrics = {m["name"]: pool[m["name"]] for m in wanted}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
