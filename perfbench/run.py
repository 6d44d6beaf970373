#!/usr/bin/env python3
"""Build and run the sasos benchmark from the root of a checkout.

    python3 perfbench/run.py --workload check --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe with dune (build log on stderr), runs it, and
passes its output through. The last line of stdout is the result object
(see perfbench/README.md). Exits non-zero, printing no result, when the
checkout holds no sasos sources, the build fails, the run fails or times
out, or the result names other metrics than BENCHMARK.json declares.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("report", "check", "scale", "replay")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group, which is killed whole on timeout
    or when this script is interrupted or terminated."""
    try:
        proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, on_signal) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
        fail(f"{cmd[0]} timed out after {timeout} s")
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a sasos checkout")

    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                  BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if code != 0:
        fail("build failed")

    code, out = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--rev", git_rev()], RUN_TIMEOUT_S,
                    stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"bench.exe exited with {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("bench.exe printed no result")
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        sys.stderr.write(out)
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ declared)}")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
