#!/usr/bin/env python3
"""Self-test of the flow benchmark (run from the repository root):

    python3 flowbench/test_smoke.py

1. BENCHMARK.json names every metric the benchmark prints, with its unit, and
   lists each per-layer metric in flowbench/METRICS.md.
2. Smoke mode (both cold thread counts on the tiny tile, the ECO serve loop
   on the small tile, and every traced replay) passes.
3. Smoke mode with one corrupted replay output fails on the hash check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=900)
    return proc.returncode, proc.stdout.decode(errors="replace")


def check_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "METRICS.md")) as f:
        doc = f.read()
    for m in spec["per_layer"]:
        base = re.sub(r"\.(2d|m3d|eco)$", "", m["name"])
        assert "`%s`" % m["name"] in doc or "`%s`" % base in doc, \
            "METRICS.md does not explain " + m["name"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "duplicate metric names"
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    return spec


def main():
    spec = check_contract()
    code, out = run(["--smoke"])
    assert code == 0, "smoke run failed:\n" + out[-3000:]
    result = json.loads(out.strip().split("\n")[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {line.split()[0] for line in out.split("\n") if re.match(r"^[a-z][\w.]* +\S", line)}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["name"] in printed, "smoke run did not print " + m["name"]
    assert "determinism: 4-thread artifacts match" in out, "no cross-thread hash check ran"

    code, out = run(["--smoke", "--inject-fault"])
    assert code != 0, "a corrupted replay output passed the hash check"
    assert re.search(r"FAILED replay \S+ (place|ECO route): hash", out), out[-3000:]
    print("flowbench self-test passed")


if __name__ == "__main__":
    main()
