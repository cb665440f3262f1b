"""One fresh interpreter running one pass of one workload.

Protocol on stdout, one line each: ``ready`` once ``cesarospec`` and its CLI
module are imported; then, after the parent writes ``go`` on stdin, ``done``
the moment the pass ends, followed by one JSON line with the checks (and the
per-layer numbers when traced) and the speed samples.  The parent times the
import (process start to ``ready``) and the pass (``go`` to ``done``) from
outside.  ``--env`` prints the environment record instead and exits.

Usage: worker.py WORKLOAD SEED SIZE TRACE SPANS_PATH
       worker.py --env
"""

import json
import sys

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()

import cesarospec  # noqa: E402  (timed from the first speed sample)
import cesarospec.cli  # noqa: F401  (the CLI entry point's module)


def environment() -> dict:
    import os
    import platform

    import mpmath
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cesarospec": cesarospec.__file__,
    }


def main(argv: list) -> int:
    if argv == ["--env"]:
        print(json.dumps(environment()), flush=True)
        return 0
    workload, seed, size, trace, spans_path = argv
    print("ready", flush=True)

    import tracer
    import workloads

    make_inputs, run, check = workloads.SPECS[workload]
    inputs = make_inputs(int(seed), size)
    recorder = tracer.Recorder() if trace == "1" else None
    if recorder is not None:
        recorder.install()
    if sys.stdin.readline().strip() != "go":
        return 3
    outputs = run(inputs)
    print("done", flush=True)
    SAMPLER.stop()

    result = {"samples": SAMPLER.samples}
    if recorder is not None:
        recorder.uninstall()
        misses = recorder.kernel_matrix.cache_info().misses
        result["times"], result["counts"] = tracer.layer_metrics(
            recorder.spans, misses)
        result["spans"] = len(recorder.spans)
        recorder.write(spans_path)
    result["attempted"], result["failures"] = check(inputs, outputs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
    finally:
        SAMPLER.stop()
    sys.exit(status)
