#!/usr/bin/env python3
"""Run one workload of the cqanull benchmark and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cqanull source tree.  It builds the `cqanull`
binary and the measuring program (perfbench/bench.ml) into .bench_build,
generates the workload's .cqa text from the seed into .bench_work, runs the
measurement and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list.  --smoke shrinks every workload to a few hundred tuples
(used by perfbench/test_smoke.py).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = ".bench_work"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "--display", "quiet", "./perfbench/bench.exe", "./bin/main.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=880)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")
    return (os.path.join(BUILD, "default", "perfbench", "bench.exe"),
            os.path.join(BUILD, "default", "bin", "main.exe"))


def run_group(argv, timeout):
    """Run argv in its own process group; kill the whole group on timeout
    and wait until every process in it has ended."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for _ in range(1000):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    if out is None:
        fail("timed out: " + " ".join(argv[1:3]))
    return proc.returncode, out.decode(errors="replace")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload, 2)
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a cqanull source tree: %s is missing" % need, 2)

    bench, cqanull = build()
    started = time.monotonic()
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    tag = "%s-%d%s" % (args.workload, args.seed, "-smoke" if args.smoke else "")
    cqa_file = os.path.join(WORK, tag + ".cqa")
    smoke = ["--smoke"] if args.smoke else []
    common = ["--workload", args.workload, "--seed", str(args.seed)] + smoke
    try:
        code, _ = run_group([bench, "gen"] + common + ["--out", cqa_file],
                            RUN_TIMEOUT_S)
        if code != 0:
            fail("generating %s failed" % tag)
        code, out = run_group(
            [bench, "run"] + common
            + ["--seconds", str(args.seconds), "--trace", args.trace,
               "--file", cqa_file, "--cqanull", cqanull, "--work", WORK],
            RUN_TIMEOUT_S - (time.monotonic() - started))
    finally:
        for leftover in (cqa_file, os.path.join(WORK, "server.log")):
            if os.path.exists(os.path.join(ROOT, leftover)):
                os.remove(os.path.join(ROOT, leftover))
    if code != 0:
        fail("measuring %s failed (exit %d)" % (tag, code))

    result = json.loads(out.strip().splitlines()[-1])
    wanted = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or not in %s" % (m["name"], m["unit"]))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
