"""One op in a fresh interpreter: ``python3 child.py <op.json>``.

The op file names the checkout's ``src`` directory, the working directory,
what to run and where to write the result.  Time is measured around the
public calls only (``run_experiment`` or ``fairbound.cli.main``), so
interpreter start-up is reported apart as ``import_s``.  Every exception
that escapes a public call is caught here and recorded by type name, so a
failing op never aborts the benchmark.

Right before and right after the timed calls the child also times its
workload's kernel from ``reference.py``, fixed work that is not fairbound's.
The harness divides op time by the kernel's slowdown (README.md).
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it exposes one."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def _call(rec, name, fn, *args):
    """Run one public call; returns (seconds, exit code or None, error)."""
    start = time.perf_counter()
    try:
        if rec is None:
            code = fn(*args)
        else:
            code = rec.span(name, fn, *args)
        error = None
    except SystemExit as exc:  # argparse exits on a command line it rejects
        code, error = exc.code, None
    except Exception as exc:  # the op boundary: record and keep going
        code = None
        error = type(exc).__name__
        print(f"{name}: {error}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, code, error


def run(op: dict) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, op["src"])
    import fairbound.cli as cli
    import fairbound.experiment as experiment

    import_s = time.perf_counter() - start
    from reference import KERNELS

    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(op["src"]) + os.sep):
        raise RuntimeError(f"fairbound imported from {origin}, not from {op['src']}")

    rec = None
    result: dict = {"import_s": import_s, "units": []}
    if op.get("trace"):
        import tracing

        rec = tracing.Recorder(op["op_id"])
        result["missing"] = tracing.install(rec)
    if op.get("environment"):
        result["environment"] = environment()

    os.chdir(op["cwd"])
    kernel = KERNELS[op["reference"]]
    reference = [kernel()]
    op_s = 0.0
    if op["kind"] == "warmup":
        for config in op["configs"]:
            _, _, error = _call(None, "load_experiment_config", experiment.load_experiment_config,
                                config, op["seed"])
            result["units"].append({"name": config, "error": error})
    elif op["kind"] == "experiment":
        try:
            cfg = experiment.load_experiment_config(op["config"], seed=op["seed"])
        except Exception as exc:
            cfg, error = None, type(exc).__name__
            print(f"config: {error}: {exc}", file=sys.stderr)
        if cfg is not None:
            op_s, _, error = _call(rec, "experiment.run_experiment", experiment.run_experiment, cfg, "out")
        result["units"].append({"name": "run_experiment", "error": error})
    else:
        for argv in op["commands"]:
            seconds, code, error = _call(rec, f"cli.{argv[0]}", cli.main, argv)
            op_s += seconds
            if error is None and code != 0:
                error = f"ExitCode{code}"
            result["units"].append({"name": argv[0], "error": error})
            if error is not None:
                break

    reference.append(kernel())
    result["op_s"] = op_s
    result["reference_s"] = reference
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        with open(op["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)
    return result


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        op = json.load(fh)
    result = run(op)
    with open(op["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
