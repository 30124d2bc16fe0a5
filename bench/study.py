"""Run one fockdiv CLI study in this fresh interpreter and write a record.

    python3 bench/study.py RECORD.json TRACE(0|1) RUN_ID -- <fockdiv cli args>

The record holds the monotonic clock reading once ``fockdiv.cli`` is
imported (the parent subtracts its spawn time to get set-up time), the wall
time of ``cli.main``, its exit code, the software versions and, when traced,
the spans, the per-layer metrics and the tracer's self-test findings.
"""

import json
import sys
import time

import fockdiv.cli as cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import tracer  # noqa: E402  (after the timestamp: not part of set-up)


def _versions() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": blas}


def main() -> int:
    record_path, trace, run_id = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    record = {"imported": IMPORTED, "selftest": []}
    if trace:
        t = tracer.Tracer(run_id)
        t.install()
        start = time.perf_counter()
        try:
            rc = t.run(cli.main, argv)
        finally:
            wall = time.perf_counter() - start
            t.uninstall()
        record["selftest"] = tracer.self_test(t, wall)
        record["spans"] = t.export()
        record["layers"] = tracer.layer_metrics(t)
    else:
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    leftover = tracer.patched_names()
    if leftover:
        record["selftest"].append(f"wrappers left in place: {leftover}")
    # After the study: mpmath is imported lazily by the study itself.
    record.update(rc=rc, wall_s=wall, versions=_versions())
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
