#!/usr/bin/env python3
"""Flow benchmark entry point.

Builds the benchmark program (flowbench/CMakeLists.txt, which compiles the
repository's libraries from src/) into .bench_build/flowbench, runs one
workload, and prints the program's metric table followed, as the last line of
standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 flowbench/run.py --workload cold_large_t4 --seed 1 --seconds 30 --trace 0
    python3 flowbench/run.py --smoke                 # every path, in seconds
    python3 flowbench/run.py --smoke --inject-fault  # must exit nonzero

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics. Per-layer metrics of the family a workload
does not run (".2d"/".m3d" names on the ECO workload, the ECO names on the
cold workloads) are reported as 0. Exits nonzero when the build fails, a
correctness check fails, or the output does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "flowbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 170
COLD_SUFFIXES = (".2d", ".m3d")


def fail(msg):
    print("flowbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Content digest of src/ and the benchmark: names the code under test."""
    h = hashlib.sha1()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def clean_env():
    """The caller's environment minus the flows' M3D_* overrides, with
    temporary files (compiler intermediates) kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("M3D_")}
    env["TMPDIR"] = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to " + HERE)
    build_dir = os.path.join(ROOT, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                  CONFIGURE_TIMEOUT_S)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_quiet(["cmake", "--build", build_dir, "--target", "flowbench", "-j", jobs],
              BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "flowbench")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return spec, e2e, layers


def check_metrics(result, workload, trace, e2e, layers):
    """Matches the program's metrics to BENCHMARK.json; returns an error or ""."""
    metrics = result["metrics"]
    expected = layers if trace else e2e
    extra = sorted(set(metrics) - set(expected))
    if extra:
        return "metrics not in BENCHMARK.json: " + ", ".join(extra)
    for name, m in metrics.items():
        if m["unit"] != expected[name]:
            return "unit of %s is %s, BENCHMARK.json says %s" % (name, m["unit"], expected[name])
    cold = workload.startswith("cold_")
    for name in sorted(set(expected) - set(metrics)):
        other_family = trace and (name.endswith(COLD_SUFFIXES) != cold)
        if not other_family:
            return "missing metric " + name
        metrics[name] = {"value": 0, "unit": expected[name]}
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    spec, e2e, layers = load_contract()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    binary = build()

    cmd = [binary, "--out", OUT_DIR, "--source", source_digest(), "--seed", str(args.seed)]
    if args.smoke:
        cmd += ["--smoke"] + (["--inject-fault"] if args.inject_fault else [])
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark program printed no result line (exit code %d)" % proc.returncode)
    if not args.smoke:
        err = check_metrics(result, args.workload, args.trace == 1, e2e, layers)
        if err:
            fail(err)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
