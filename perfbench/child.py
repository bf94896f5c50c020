"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py JOB.json RESULT.json T_SPAWN

JOB.json holds ``src`` (the directory holding the ``fpplab`` package to load),
``argv`` (CLI arguments for ``fpplab.cli.main``, or null to measure set-up
only), ``trace`` (wrap the layer functions and return their spans) and
``reference`` (with null ``argv``: also time ``reference`` once, as ``ref_s``).
T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process; ``setup_s`` runs from then until ``fpplab.cli`` is imported.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(job_path, result_path, t_spawn):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import fpplab.cli
    setup_s = time.monotonic() - t_spawn
    result = {"setup_s": setup_s, "fpplab_file": fpplab.cli.__file__}
    if job["argv"] is not None:
        result.update(_run(fpplab.cli.main, job["argv"], job["trace"]))
    elif job["reference"]:
        t0 = time.perf_counter()
        reference()
        result["ref_s"] = time.perf_counter() - t0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def reference():
    """The same numpy work every time: normal draws, a cumulative sum, two
    exponentials and a log over fresh 5000 x 252 arrays, as the ensemble
    layers do on their path batches.  It uses none of fpplab's code, so its
    time says only how fast the shared host runs at that moment.  It runs in
    a child of its own: a command's child must start with a fresh allocator
    (glibc raises its mmap threshold after the first large free)."""
    import numpy as np

    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(16):
        w = np.cumsum(0.063 * rng.standard_normal((5000, 252)), axis=1)
        u = np.exp(-0.5 * w) - 0.3 * np.exp(0.25 * w)
        total += float(np.log1p(np.abs(u)).mean(axis=0).sum())
    return total


def _run(cli_main, argv, trace):
    import numpy as np  # already loaded by fpplab.cli

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                rc = cli_main(argv)
            except Exception:  # the sample fails the gate; keep the traceback
                rc, error = None, traceback.format_exc()
            wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "rc": rc, "error": error, "stdout": out.getvalue(), "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
