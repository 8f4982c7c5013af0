#!/usr/bin/env python3
"""Canonical MEGsim benchmark: the `megsim` CLI's estimate and ground-truth flows.

Run from the root of a MEGsim checkout:

    python3 megbench/run.py --workload jjo-2d --seed 1 --seconds 35 --trace 0

The script builds the `megsim` CLI and the `megbench-trace` tracer from
source (release profile, into `$CARGO_TARGET_DIR`, default
`.bench_build`), then:

* set-up: records the workload's GL traces with `megsim record`, one per
  sub-seed derived from `--seed`, several times over, checking that the
  recordings are byte-identical. `setup_s` is the median time to record
  the whole set.
* `--trace 0`: for `--seconds` seconds, cycles through the traces running
  `megsim estimate <trace>` (the MEGsim flow: characterize every frame,
  cluster, simulate only the representatives) and
  `megsim estimate <trace> --ground-truth` (the same plus the full
  cycle-level simulation it replaces), each as a fresh process. Each
  flow's time is the median wall time per trace, averaged over the set.
  Every time above is calibrated against the host's momentary speed
  (see CALIBRATION_MS).
* `--trace 1`: runs the same two flows through each crate's API in
  `megbench-trace`, with a span around every call into a layer, and
  reports each layer's median self time per trace plus the
  methodology's own figures (frames per representative, cycle error,
  host time per simulated cycle).

The CLI's outputs are checked either way: every repetition must print
the same results, each estimate must cover every recorded frame, the
ground-truth run must report the same estimate and a finite cycle error
under the workload's ceiling, and `megbench-trace`, which composes the
flow from the crates directly, must reach the same representatives,
estimated cycles and cycle error as the CLI on the first trace.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One worker thread: the parallel stages still go through the worker
# pool, and the figures do not depend on how many cores the host has or
# how busy its other cores are.
THREADS = "1"

# Recordings of the trace set per set-up measurement.
SETUP_REPEATS = 3

# Host-speed calibration. On a shared machine the host's speed drifts by
# up to 1.5x over minutes, which no statistic over one run removes. Each
# estimate + ground-truth pair is therefore followed by one run of
# `megbench-trace --calibrate`, a fixed kernel that no change to the
# program can move, and both are timed as multiples of it. Reported
# times are that multiple times CALIBRATION_MS: milliseconds on a host
# where the kernel takes CALIBRATION_MS.
CALIBRATION_MS = 100.0

# Each workload is one benchmark of the paper's suite at a frame scale,
# optionally on a multi-GPU rig, recorded as `traces` traces: as many as
# fit one estimate + ground-truth pass over the set into about 35
# seconds, since a trace's cost, and above all its number of
# representatives, varies widely with its random mix of game phases.
# `max_error` is the cycle-error ceiling each trace's estimate must meet
# against its ground truth, loose enough for any seed and tight enough
# to catch a broken estimate: cold representatives track a single GPU
# within a few percent on long traces (up to about a third on some
# 200-frame ones) but miss a warm rig's transfer stalls and cross-frame
# contention.
WORKLOADS = {
    "jjo-2d": {
        "alias": "jjo",
        "scale": 0.1,
        "traces": 28,
        "rig": [],
        "max_error": 0.5,
    },
    "asp-3d": {
        "alias": "asp",
        "scale": 0.05,
        "traces": 18,
        "rig": [],
        "max_error": 0.5,
    },
    "spd-afr-private": {
        "alias": "spd",
        "scale": 0.04,
        "traces": 21,
        "rig": ["--gpus", "2", "--dispatch", "afr", "--mem", "private"],
        "max_error": 1.0,
    },
}


class Failure(Exception):
    """A build or environment problem: no result can be reported."""


def log(msg):
    print(f"megbench: {msg}", file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    # A persistent frame cache would turn repeated runs into cache reads,
    # and a thread override would change what is measured.
    for var in ("MEGSIM_CACHE_DIR", "MEGSIM_THREADS"):
        env.pop(var, None)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build(env):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise Failure(f"{ROOT} is not a MEGsim checkout (no Cargo.toml / crates/cli)")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "megsim-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "megbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")
    release = (ROOT / env["CARGO_TARGET_DIR"] / "release").resolve()
    return release / "megsim", release / "megbench-trace"


class Result:
    def __init__(self, code, stdout, stderr, seconds):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds


def run(args, env, work):
    """Runs one process to completion; returns its output and wall time."""
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in args], stdout=out, stderr=err,
                                cwd=work, env=env)
        _, status = os.waitpid(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, out.read().decode(), err.read().decode(), seconds)


def calibration(tracer, env, work):
    """Times one run of the calibration kernel."""
    r = run([tracer, "--calibrate"], env, work)
    if r.code != 0:
        raise Failure(f"calibration failed: {r.stderr.strip()}")
    return r.seconds


def setup(megsim, tracer, spec, seed, env, work):
    """Records the trace set SETUP_REPEATS times.

    Returns the trace paths, their frame counts and the median time to
    record the set, in calibration units."""
    traces = [work / f"trace{i}.mglt" for i in range(spec["traces"])]
    frames, first, times = [], {}, []
    for repeat in range(SETUP_REPEATS):
        seconds = 0.0
        for i, trace in enumerate(traces):
            out = trace if repeat == 0 else work / "again.mglt"
            r = run([megsim, "record", "--benchmark", spec["alias"], "--scale", spec["scale"],
                     "--seed", seed * len(traces) + i, "--out", out], env, work)
            if r.code != 0:
                raise Failure(f"record failed: {r.stderr.strip()}")
            data = out.read_bytes()
            if repeat == 0:
                first[i] = data
                frames.append(int(re.search(r"\((\d+) frames", r.stdout).group(1)))
            elif data != first[i]:
                raise Failure("record is not deterministic: two recordings differ")
            seconds += r.seconds
        times.append(seconds / calibration(tracer, env, work))
    return traces, frames, statistics.median(times)


def parse_estimate(stdout):
    """Returns (representatives, frames, estimated cycles) from `megsim estimate`."""
    sim = re.search(r"simulated (\d+) of (\d+) frames", stdout)
    cycles = re.search(r"cycles:\s+(\d+)\s*$", stdout, re.M)
    if not sim or not cycles:
        return None
    return int(sim.group(1)), int(sim.group(2)), int(cycles.group(1))


def parse_error(stdout):
    """Returns the cycle error (a fraction) from `megsim estimate --ground-truth`."""
    tail = stdout.partition("relative errors")[2]
    m = re.search(r"(\d+\.\d+)%", tail)
    return float(m.group(1)) / 100.0 if m else None


class Checker:
    """Checks the CLI's outputs per trace; every repetition must match the first."""

    def __init__(self, frames, max_error):
        self.frames = frames
        self.max_error = max_error
        self.est = {}
        self.gt = {}
        self.problems = []

    def estimate(self, i, r):
        if i not in self.est:
            parsed = parse_estimate(r.stdout) if r.code == 0 else None
            if parsed is None:
                return self.fail(f"estimate failed or unparsable: {r.stderr.strip()[-300:]}")
            k, n, _ = parsed
            if n != self.frames[i] or not 1 <= k <= n:
                return self.fail(f"estimate simulated {k} of {n} frames, "
                                 f"recorded {self.frames[i]}")
            self.est[i] = r.stdout
        elif r.code != 0 or r.stdout != self.est[i]:
            return self.fail("a repeated estimate printed different results")
        return True

    def ground_truth(self, i, r):
        if i not in self.gt:
            if r.code != 0:
                return self.fail(f"ground truth failed: {r.stderr.strip()[-300:]}")
            if parse_estimate(r.stdout) != parse_estimate(self.est.get(i, "")):
                return self.fail("ground-truth run reports a different estimate")
            error = parse_error(r.stdout)
            if error is None or not error <= self.max_error:
                return self.fail(f"cycle error {error} above ceiling {self.max_error}")
            self.gt[i] = r.stdout
        elif r.code != 0 or r.stdout != self.gt[i]:
            return self.fail("a repeated ground truth printed different results")
        return True

    def tracer(self, i, t):
        if i not in self.est or i not in self.gt:
            return
        k, n, cycles = parse_estimate(self.est[i])
        error = parse_error(self.gt[i])
        mine = (t["representatives"], t["frames"], t["estimated_cycles"])
        # The CLI prints the error in percent with three decimals.
        if mine != (k, n, cycles) or abs(t["cycle_error"] - error) > 0.5e-5 + 1e-12:
            self.fail(f"tracer disagrees with the CLI on trace {i}: {mine} err "
                      f"{t['cycle_error']} vs {(k, n, cycles)} err {error}")

    def fail(self, problem):
        log(problem)
        self.problems.append(problem)
        return False


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]

    env = clean_env()
    megsim, tracer = build(env)
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"megbench-{args.workload}-", dir=scratch))
    try:
        traces, frames, setup_units = setup(megsim, tracer, spec, args.seed, env, work)
        check = Checker(frames, spec["max_error"])
        attempted = failed = 0

        def cli(i, ground_truth):
            return ([megsim, "estimate", traces[i], "--threads", THREADS] + spec["rig"]
                    + (["--ground-truth"] if ground_truth else []))

        def flow(i, ground_truth):
            nonlocal attempted, failed
            r = run(cli(i, ground_truth), env, work)
            attempted += 1
            failed += not (check.ground_truth if ground_truth else check.estimate)(i, r)
            return r

        # Unmeasured: loads the binary into the page cache.
        run(cli(0, False), env, work)

        if args.trace == 0:
            est = [[] for _ in traces]
            gt = [[] for _ in traces]
            start = time.perf_counter()
            i = 0
            while i < len(traces) or time.perf_counter() - start < args.seconds:
                t = i % len(traces)
                e, g = flow(t, False), flow(t, True)
                unit = calibration(tracer, env, work)
                est[t].append(e.seconds / unit)
                gt[t].append(g.seconds / unit)
                i += 1
            log(f"{i} estimate / ground-truth pairs over {len(traces)} traces "
                f"in {time.perf_counter() - start:.1f} s")

            def per_trace(units):
                """Median per trace, averaged over the set, in calibrated ms."""
                return statistics.mean(map(statistics.median, units)) * CALIBRATION_MS

            metrics = {
                "estimate_ms": metric(per_trace(est), "ms"),
                "ground_truth_ms": metric(per_trace(gt), "ms"),
                "setup_s": metric(setup_units * CALIBRATION_MS / 1e3, "s"),
            }
            traced, seconds = traces[:1], 0
        else:
            flow(0, False)
            flow(0, True)
            traced, seconds = traces, args.seconds

        # The tracer composes both flows from the crates directly; its
        # results on trace 0 must match the CLI's.
        r = run([tracer] + traced + ["--seconds", seconds] + spec["rig"],
                dict(env, MEGSIM_THREADS=THREADS), work)
        if r.code != 0:
            attempted += 1
            failed += 1
            check.fail(f"tracer failed: {r.stderr.strip()}")
            if args.trace == 1:
                raise Failure("no trace recorded")
        else:
            t = json.loads(r.stdout.strip().splitlines()[-1])
            attempted += t["passes"] * len(t["outcomes"])
            check.tracer(0, t["outcomes"][0])

        if args.trace == 1:
            log(f"{t['passes']} traced passes over {len(traces)} traces in {args.seconds} s")
            n = len(traces)
            spans = t["spans_ms"]
            outcomes = t["outcomes"]
            metrics = {f"{name}_ms": metric(ms / n, "ms") for name, ms in spans.items()}
            metrics["timing_ns_per_kcycle"] = metric(
                spans["timing_full"] * 1e9 / sum(o["full_cycles"] for o in outcomes),
                "ns/kcycle")
            metrics["reduction_x"] = metric(
                sum(o["frames"] for o in outcomes)
                / sum(o["representatives"] for o in outcomes), "x")
            metrics["cycle_error_pct"] = metric(
                statistics.mean(o["cycle_error"] for o in outcomes) * 100.0, "%")
        print(json.dumps({
            "correct": not check.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        log(str(e))
        sys.exit(1)
