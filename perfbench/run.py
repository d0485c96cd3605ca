#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ (a Release build of the
library plus the workload driver) into $CARGO_TARGET_DIR, default
.bench_build, runs one workload in a fresh private directory (its own JIT
object cache and socket) and prints two lines: a flat record of the run
(workload, seed, host fingerprint, commit, input features, phases) and, as
the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The exit status is nonzero when an output
check failed or the run could not be made.

--self-test runs every workload briefly with one output value flipped and
exits 0 only when each workload counted that as a failed operation.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mfd-steps", "chain-compile", "serve-mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench-release"))


def build():
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to perfbench/ "
             "(run from a checkout)")
    out = build_dir()
    cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cfg += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    step = ["cmake", "--build", out, "--target", "perfbench-driver", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench-driver")


def commit_id():
    """The git commit, or a digest of the sources when there is no .git."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_driver(driver, workload, seed, seconds, trace, flip=False):
    """Runs the driver in a fresh private directory; returns (code, output)."""
    work = os.path.join(build_dir(), "runs",
                        "%d-%d" % (os.getpid(), time.time_ns()))
    os.makedirs(os.path.join(work, "tmp"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCDFG_")}
    env["LCDFG_JIT_DIR"] = os.path.join(work, "jit")
    env["TMPDIR"] = os.path.join(work, "tmp")
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", "."]
    if flip:
        cmd.append("--flip-one")
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, proc.returncode), 1)
    return proc.returncode, json.loads(lines[-1])


def self_test(driver):
    ok = True
    for w in WORKLOADS:
        code, out = run_driver(driver, w, 1, 1, False, flip=True)
        caught = code != 0 and out["failed"] >= 1
        log("self-test %s: %d of %d failed, exit %d -> %s" %
            (w, out["failed"], out["attempted"], code,
             "flip caught" if caught else "FLIP NOT CAUGHT"))
        ok = ok and caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    driver = build()
    if args.self_test:
        return self_test(driver)

    code, out = run_driver(driver, args.workload, args.seed, args.seconds,
                           args.trace == 1)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        value = out["metrics"].get(m["name"])
        if value is None and args.trace:
            value = 0.0  # a layer this workload does not exercise
        if value is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(out["correct"]) and out["failed"] == 0 and not missing
    if missing:
        log("missing metrics: " + ", ".join(missing))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": commit_id(), "host": out["host"]}
    record.update(out["record"])
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if code == 0 and correct else 1


if __name__ == "__main__":
    sys.exit(main())
