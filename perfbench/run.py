#!/usr/bin/env python3
"""Build and run the gpumbir benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
libraries and the driver (Release) into .bench_build/perfbench (or under
$CARGO_TARGET_DIR when set); later calls rebuild only what changed. Each run
gets a fresh scratch directory for the service's store under the build
directory and removes it afterwards. The last line of standard output is the
driver's result line, checked against BENCHMARK.json. When a step fails, it
is named on standard error and the exit code is 1.
"""
import argparse
import ctypes
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


class StepFailed(Exception):
    pass


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def die_with_parent():
    """In the child: get SIGKILL if this harness dies first."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def run_step(step, cmd, timeout, **kw):
    """Run `cmd`, forwarding its output to stderr; kill it on timeout or on
    any interruption of the harness, and wait for it to end."""
    proc = subprocess.Popen(cmd, stdout=kw.pop("stdout", sys.stderr),
                            stderr=sys.stderr, preexec_fn=die_with_parent, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise StepFailed(f"{step}: did not finish within {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise StepFailed(f"{step}: interrupted")
    if proc.returncode != 0:
        raise StepFailed(f"{step}: {cmd[0]} exited with {proc.returncode}")
    return out


def build(target):
    build_dir = build_root() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (build_dir / "CMakeCache.txt").exists():
            run_step("configure", ["cmake", "-S", str(HERE), "-B", str(build_dir),
                                   "-DCMAKE_BUILD_TYPE=Release"], 600)
        run_step("build", ["cmake", "--build", str(build_dir), "--target", target,
                           "-j", str(os.cpu_count() or 1)], 900)
    return build_dir / target


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        raise StepFailed("validate output: last line is not JSON")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise StepFailed(f"validate output: keys {sorted(res)}")
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        raise StepFailed("validate output: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got) ^ set(want))}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise StepFailed("validate output: nothing attempted")


def run_workload(args):
    driver = build("perfbench_driver")
    workdir = build_root() / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        out = run_step("run " + args.workload,
                       [str(driver), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--workdir", str(workdir)],
                       RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True, cwd=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        raise StepFailed("validate output: the driver printed nothing")
    check_result(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the negative controls of the checks")
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running step is killed and reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        if args.selftest:
            run_step("selftest", [str(build("perfbench_selftest"))], RUN_TIMEOUT_S)
            return 0
        if not args.workload:
            raise StepFailed("arguments: --workload is required")
        run_workload(args)
        return 0
    except StepFailed as e:
        print(f"perfbench: step failed: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - name the step, never a traceback
        print(f"perfbench: step failed: harness: {e!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
