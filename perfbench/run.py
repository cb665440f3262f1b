"""Benchmark harness for cesarospec: end-to-end runs, or a traced per-layer run.

    python3 perfbench/run.py --workload gallery_suite --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass of a workload runs in a fresh interpreter, so the
package's caches start empty as they do for a command-line user; the passes
run one after another (a closed loop with one caller) until ``--seconds``
have been measured, and at least MIN_PASSES of them.  Times are taken here,
outside the worker:

* ``setup_s``  from process start until ``cesarospec`` and its CLI module are
  imported (median over the passes);
* ``wall_s``   one full pass of the workload (median over the passes);
* ``peak_rss_mb`` the worker's peak resident set (median over the passes).

With ``--trace 1`` untraced and traced passes alternate; the last line then
carries the per-layer metrics and ``trace.overhead_share``.  ``--workload
all`` runs the three workloads one after another.  The last line of standard
output is always one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("gallery_suite", "exact_contraction", "cli_sweep")
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced, two traced: counts are compared
RUN_BUDGET_S = 120.0    # no new pass starts after this, whatever --seconds says
RUN_DEADLINE_S = 170.0  # a worker still running then is killed

# Per-pass values printed as medians; the first three are the end-to-end
# metrics, the rest show the unnormalised times and the host speed.
PRINTED = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
           ("setup_raw_s", "s"), ("wall_raw_s", "s"), ("probe_ms", "ms"))

# One thread for every numeric library; the harness is a single caller.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class HarnessError(Exception):
    """A worker misbehaved; the run ends without a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for key in THREAD_PINS:
        env[key] = "1"
    return env


def worker_cmd(*args) -> list:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def environment(env: dict, deadline: float) -> dict:
    """Also the untimed warm-up: byte-compiles the package on a fresh checkout."""
    done = subprocess.run(worker_cmd("--env"), env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=deadline - time.perf_counter())
    if done.returncode != 0:
        raise HarnessError(f"cannot import cesarospec from {ROOT / 'src'}:\n"
                           + done.stderr.strip())
    return json.loads(done.stdout)


def one_pass(workload: str, seed: int, size: str, trace: bool,
             env: dict, deadline: float) -> dict:
    """Start a worker, time its import and its pass, reap it."""
    spans = OUT_DIR / f"spans-{workload}.jsonl"
    t_start = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd(workload, seed, size, int(trace), spans), env=env,
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(deadline - t_start, proc.kill)
    watchdog.start()
    try:
        if proc.stdout.readline().strip() != "ready":
            raise HarnessError("worker failed during import")
        t_ready = time.perf_counter()
        proc.stdin.write("go\n")
        proc.stdin.flush()
        t_go = time.perf_counter()
        if proc.stdout.readline().strip() != "done":
            raise HarnessError(f"{workload} pass did not finish")
        t_done = time.perf_counter()
        line = proc.stdout.readline()
        proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise HarnessError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(line)
    samples = result.pop("samples")
    result["setup_raw_s"] = t_ready - t_start
    result["wall_raw_s"] = t_done - t_go
    result["setup_s"] = speed.normalize(t_start, t_ready, samples)
    result["wall_s"] = speed.normalize(t_go, t_done, samples)
    result["probe_ms"] = 1e3 * statistics.median(d for _, d in samples)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0   # ru_maxrss is in KiB
    return result


def unit_of(metric: str) -> str:
    """Unit from the metric name's suffix: _s, _ms, _us, _share, _bytes."""
    suffix = metric.rsplit(".", 1)[1].rsplit("_", 1)[-1]
    return {"share": "ratio", "bytes": "bytes"}.get(
        suffix, suffix if suffix in ("s", "ms", "us") else "count")


def describe(name: str, values: list, unit: str) -> str:
    lo, hi = min(values), max(values)
    return (f"{name:<14} median {statistics.median(values):.4f} {unit}  "
            f"min {lo:.4f}  max {hi:.4f}  (n={len(values)})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str, env: dict, deadline: float) -> dict:
    """Passes until `seconds` are measured; returns the last-line object."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < (MIN_TRACED_PASSES if trace else MIN_PASSES) \
            or time.perf_counter() - t0 < seconds:
        if passes and time.perf_counter() - t0 > RUN_BUDGET_S:
            break
        traced = trace and len(passes) % 2 == 1
        passes.append(one_pass(workload, seed, size, traced, env, deadline))

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    plain = [p for p in passes if "counts" not in p]
    traced_passes = [p for p in passes if "counts" in p]

    print(f"workload: {workload}  seed: {seed}  size: {size}  "
          f"passes: {len(passes)} ({len(traced_passes)} traced)")
    e2e = {name: [p[name] for p in plain] for name, _ in PRINTED}
    for name, unit in PRINTED:
        print(describe(name, e2e[name], unit))
    print(f"{'ops':<14} {attempted} attempted over {len(passes)} passes "
          f"({passes[0]['attempted']} per pass)")
    print(f"{'ops_failed':<14} {len(failures)} of {attempted}")
    for line in sorted(set(failures)):
        print(f"  failure x{failures.count(line)}: {line}")

    correct = not failures
    if not trace:
        metrics = {name: {"value": statistics.median(e2e[name]), "unit": unit}
                   for name, unit in PRINTED[:3]}
    else:
        counts = traced_passes[0]["counts"]
        if any(p["counts"] != counts for p in traced_passes[1:]):
            print("error: per-layer counts differ between traced passes")
            correct = False
        metrics = {
            name: {"value": statistics.median(p["times"][name]
                                              for p in traced_passes),
                   "unit": unit_of(name)}
            for name in traced_passes[0]["times"]}
        metrics.update({name: {"value": value, "unit": unit_of(name)}
                        for name, value in counts.items()})
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        plain_wall = statistics.median(e2e["wall_s"])
        metrics["trace.overhead_share"] = {
            "value": traced_wall / plain_wall - 1.0, "unit": "ratio"}
        print(f"{'traced wall_s':<14} median {traced_wall:.4f} s "
              f"(n={len(traced_passes)}), {traced_passes[0]['spans']} spans "
              f"per pass, written to {OUT_DIR.name}/")
    return {"correct": correct, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the inputs for the smoke test")
    ns = parser.parse_args(argv)

    if not (ROOT / "src" / "cesarospec" / "__init__.py").is_file():
        print(f"error: no cesarospec source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if ns.workload == "all" else (ns.workload,)
    deadline = time.perf_counter() + RUN_DEADLINE_S * len(names)
    try:
        print("env: " + json.dumps(environment(env, deadline), sort_keys=True))
        results = {name: run_workload(name, ns.seed, ns.seconds,
                                      bool(ns.trace), ns.size, env, deadline)
                   for name in names}
    except (HarnessError, OSError, ValueError,
            subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[ns.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
