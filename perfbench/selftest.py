#!/usr/bin/env python3
"""Self-test of the memtherm performance benchmark.

Runs every workload of BENCHMARK.json at --size tiny: twice with
--trace 1 and once with --trace 0. Asserts that

  * the deterministic counters and the simulated-results digest repeat
    exactly between the two traced runs;
  * every end-to-end and per-layer metric of BENCHMARK.json, plus
    failed_run_frac, is printed by name with its unit;
  * the last line is the result object with exactly the keys correct,
    attempted, failed and metrics, holding the end-to-end metrics with
    --trace 0 and the per-layer ones with --trace 1.

Run from the repository root: python3 perfbench/selftest.py
Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)")
SECTIONS = ("end-to-end", "counters", "per-layer")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise AssertionError("%s --trace %d exited %d" % (
            workload, trace, proc.returncode))
    printed = {s: {} for s in SECTIONS}
    section, digest = None, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("digest "):
            digest = line.split()[1]
        head = line.split(" ", 1)[0]
        if head in SECTIONS:
            section = head
            continue
        m = METRIC_LINE.match(line)
        if m and section:
            printed[section][m.group(1)] = (m.group(2), m.group(3))
    return printed, digest, json.loads(lines[-1])


def check_result(result, wanted, label):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], \
        "%s: result keys %s" % (label, sorted(result))
    assert result["correct"] is True, "%s: not correct" % label
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        "%s: result metrics differ from BENCHMARK.json" % label
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], "%s: %s unit %s" % (
            label, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), label


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in bench["end_to_end"] + bench["per_layer"]}
    expected["failed_run_frac"] = "frac"
    failures = 0
    for w in (w["name"] for w in bench["workloads"]):
        try:
            first, digest1, result1 = run(w, 1)
            second, digest2, result2 = run(w, 1)
            _, _, result0 = run(w, 0)
            check_result(result1, bench["per_layer"], w + " --trace 1")
            check_result(result0, bench["end_to_end"], w + " --trace 0")
            assert digest1 and digest1 == digest2, \
                "%s: digest %s then %s" % (w, digest1, digest2)
            assert first["counters"] and \
                first["counters"] == second["counters"], \
                "%s: counters differ:\n%s\n%s" % (
                    w, first["counters"], second["counters"])
            all_printed = {}
            for s in SECTIONS:
                all_printed.update(first[s])
            for name, unit in expected.items():
                assert name in all_printed, "%s: %s not printed" % (w, name)
                assert all_printed[name][1] == unit, \
                    "%s: %s printed with unit %s, want %s" % (
                        w, name, all_printed[name][1], unit)
            print("ok   %s: %d counters repeat, digest %s, %d metrics "
                  "printed with units" % (w, len(first["counters"]),
                                          digest1, len(expected)))
        except (AssertionError, subprocess.TimeoutExpired) as e:
            failures += 1
            print("FAIL %s: %s" % (w, e))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
