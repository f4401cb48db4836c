"""Run one `pherm` command in this fresh process and report what it measured.

    python3 perfbench/child.py SRC_DIR run|trace ARGV_JSON

Imports `pherm.cli` from SRC_DIR, calls `pherm.cli.main(argv)` once with
its report captured, and prints one JSON line holding the CLOCK_MONOTONIC
time at which the import returned, the wall seconds of `main`, its exit
code and report, the peak resident memory and the numeric environment.  In
`trace` mode the spans of `tracer.Tracer` are on during `main` and the line
also holds the per-layer metrics.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])
import pherm.cli  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main() -> int:
    src, mode = sys.argv[1], sys.argv[2]
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(pherm.cli.__file__)))
    if not os.path.samefile(package_dir, src):
        print(f"pherm was imported from {package_dir}, not from {src}", file=sys.stderr)
        return 2
    argv = json.loads(sys.argv[3])
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    report = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(report):
            code = pherm.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    finally:
        solve_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    record = {
        "imported_at": IMPORTED_AT,
        "solve_s": solve_s,
        "exit_code": code,
        "report": report.getvalue(),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
