"""One pass of a workload: a fresh interpreter imports mecmc once and calls
``mecmc.cli.main`` on each command back to back.

Usage: ``python3 child.py SPEC.json`` from the workload's work directory.
The spec names the source tree, the commands, whether to trace, and where to
write the result (and the spans, when tracing).  The parent stamps
``time.monotonic()`` just before starting this process; ``ready`` below is
stamped on the same system-wide clock, so their difference is the set-up time.
"""

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback


def _openblas():
    """(version, threads) of the OpenBLAS that numpy loaded, where readable."""
    import numpy

    version = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return version, threads


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy

    import mecmc.cli

    if not os.path.abspath(mecmc.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit(f"mecmc imported from {mecmc.__file__}, not {spec['src']}")
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    records = []
    begin = time.perf_counter()
    for i, cmd in enumerate(spec["commands"]):
        if tracer:
            tracer.command = i
        err = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(err):
                code = mecmc.cli.main(cmd["argv"] + ["--out", cmd["out"]])
        except SystemExit as e:  # argparse rejects its input this way
            code = e.code
        except Exception:  # a traceback is a failed command, not a failed pass
            code = None
            err.write(traceback.format_exc())
        t1, c1 = time.perf_counter(), time.process_time()
        records.append({"latency_s": t1 - t0, "cpu_s": c1 - c0, "exit": code,
                        "stderr": err.getvalue()[-4000:]})
    wall = time.perf_counter() - begin

    blas_version, blas_threads = _openblas()
    result = {
        "ready": ready,
        "wall_s": wall,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "openblas": blas_version,
            "openblas_threads": blas_threads,
        },
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    if tracer:
        tracer.write(spec["spans"])


if __name__ == "__main__":
    main()
