"""One repetition of a workload in a fresh interpreter.

Run by ``run.py``, never by hand.  Modes:

* ``setup``: import kantcheck, build the inputs, print the set-up time;
* ``run``: set up, time the main call, check its outputs;
* ``trace``: as ``run`` with the span tracer installed around the main call.

In every mode the probe of ``calibrate.py`` runs back to back right after
set-up (``setup_probe_s``).  In ``run`` mode it also runs every 0.1 s
during the main call (``probe_s``); ``main_s`` is the call's wall time
without the probes.  ``run.py`` scales the measured times by the probes.

The last line of standard output is one JSON object describing the
repetition.  Set-up time is measured from ``--spawned-at``, the parent's
``time.monotonic()`` just before it started this process; on Linux that
clock is shared by all processes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 20


def import_kantcheck():
    """Import kantcheck from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kantcheck

    if not Path(kantcheck.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"kantcheck imported from {kantcheck.__file__}, not from {src}")
    return kantcheck


def environment() -> dict:
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    kantcheck = import_kantcheck()
    import workloads

    prepared = workloads.prepare(args.workload, args.seed, args.out)
    setup_s = time.monotonic() - args.spawned_at
    import calibrate

    rep = {"setup_s": setup_s, "setup_probe_s": calibrate.probe_seconds(SETUP_PROBES)}
    if args.mode == "setup":
        print(json.dumps(rep))
        return 0

    tracer = None
    if args.mode == "trace":
        import spans

        before = spans.bindings()
        tracer = spans.Tracer()
        spans.install(tracer)
    # The probes would show up as spans in a traced call.
    sampler = calibrate.Sampler() if tracer is None else contextlib.nullcontext()
    error = None
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        with sampler:
            result = prepared.run()
    except kantcheck.KantCheckError as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        main_s = time.perf_counter() - started
        main_cpu_s = time.process_time() - cpu_started
        if tracer is not None:
            tracer.uninstall()
    probe_s = sampler.times if tracer is None else []
    rep["main_s"] = main_s - sum(probe_s)
    rep["main_cpu_s"] = main_cpu_s
    # A call shorter than the probe interval is scaled by probes right after it.
    rep["probe_s"] = probe_s or calibrate.probe_seconds(3)
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if error is None:
        outcome = prepared.verify(result)
    else:
        rep["error"] = error
        outcome = workloads.Outcome(attempted=prepared.expected, failed=prepared.expected,
                                    gates={"no_kantcheck_error": False})
    rep.update(dataclasses.asdict(outcome))
    if tracer is not None:
        rep["unrestored"] = spans.changed_bindings(before)
        rep["nesting_errors"] = tracer.nesting_errors()
        rep["layers"], rep["eigensolves_per_check"] = spans.layer_metrics(tracer)
        if args.spans is not None:
            tracer.write(args.spans)
    rep["env"] = environment()
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
