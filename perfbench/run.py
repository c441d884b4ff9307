#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload vgg16-batch --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library is compiled from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls only re-check the build. The benchmark's
own output is passed through and its last line -- one JSON object with
correct, attempted, failed and metrics -- stays the last line. A traced
run (--trace 1) writes Chrome trace-event JSON under the build
directory's traces/ and this script names VGG-16's slowest host layer
from it.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run may take its window, its set-ups and its checks outside the
# window (about 50 s on vgg16-batch), and its traced probes.
RUN_ALLOWANCE_S = 120
RUN_WINDOW_FACTOR = 2.5


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(bdir):
    """Configure once, then build; all tool output goes to stderr."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", bdir, *gen,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def slowest_vgg_layer(trace_path):
    """Name VGG-16's slowest host layer and the conv MMAC/s, from the
    Chrome trace the traced run wrote."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    layers = [e for e in events
              if e.get("ph") == "X" and e["name"].startswith("core.layer.")]
    if not layers:
        return None
    worst = max(layers, key=lambda e: e["dur"])
    conv = [e for e in layers if e["name"].startswith("core.layer.conv")]
    conv_us = sum(e["dur"] for e in conv)
    conv_mmac = sum(e["args"]["macs"] for e in conv) / conv_us
    name = worst["name"][len("core.layer."):]
    return ("trace %s: VGG-16 slowest host layer %s %.1f ms "
            "(%.0f MMAC/s); bce.conv8_mmac_per_s %.0f MMAC/s"
            % (os.path.basename(trace_path), name, worst["dur"] / 1e3,
               worst["args"]["macs"] / worst["dur"], conv_mmac))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    cmd = [os.path.join(bdir, "bfree_perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", str(args.seconds), "--trace", args.trace]
    trace_path = None
    if args.trace == "1":
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        trace_path = os.path.join(
            bdir, "traces", "%s-seed%s.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    timeout = RUN_ALLOWANCE_S + RUN_WINDOW_FACTOR * args.seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %.0f s" % timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)
    json.loads(lines[-1])  # the result line must parse
    for line in lines[:-1]:
        print(line)
    if trace_path:
        summary = slowest_vgg_layer(trace_path)
        if summary:
            print(summary)
    print(lines[-1])


if __name__ == "__main__":
    main()
