"""kantcheck benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload campaign_small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/kantcheck``.  Every
repetition runs in a fresh child interpreter, one at a time, with BLAS
pinned to one thread.  ``--trace 0`` repeats the workload for
``--seconds`` (at least twice, so that two runs of the seed can be
compared byte for byte) and reports medians of the end-to-end metrics.
``--trace 1`` runs the workload untraced, traced, and untraced again, and
reports the per-layer metrics after reconciling the trace with the
untraced runs.

The host's speed drifts by tens of percent within seconds and between
minutes, so each repetition's ``checks_per_s`` and ``setup_s`` are scaled
to the reference CPU speed (``calibrate.py``): the main call's rate is
multiplied by the mean slowdown of the probes run during it, and the
set-up time is divided by that of the probes run right after set-up.
The raw values are kept in the record.

The last line of standard output is the result object; the line before
it is a record with the seed, the environment and every gate.  The
record is also written to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("campaign_small", "campaign_large_dim", "constants_sweep")
CAMPAIGNS = ("campaign_small", "campaign_large_dim")
MIN_REPS = 2
SETUP_SAMPLES = 15
# The whole run ends well inside 180 s; no repetition starts that would
# likely cross this mark.
BUDGET_S = 150.0
# Pinned so that LAPACK calls of one repetition do not compete with each
# other for the two-core machines this runs on, and so that runs measure
# the serial program the campaign is.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Eigensolves per check (eigh, eigvalsh) at d in {2, 3, 4, 6}, from ROADMAP.md.
ROADMAP_EIGENSOLVES = {"corollary_2_3": (7.5, 5.0), "corollary_4_4": (11.0, 6.6),
                       "theorem_4_1": (20.5, 6.0)}


class RepFailed(Exception):
    pass


def run_child(mode: str, workload: str, seed: int, out: Path, deadline: float,
              spans_path: Path | None = None) -> dict:
    """Start one child interpreter, wait for it, and return its JSON line."""
    shutil.rmtree(out, ignore_errors=True)
    command = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    env = {**os.environ, **CHILD_ENV}
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(command + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{mode} repetition of {workload} timed out") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise RepFailed(f"{mode} repetition of {workload} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["wall_s"] = time.monotonic() - spawned_at
    return rep


def rep_errors(rep: dict) -> list:
    errors = [f"gate {name} failed" for name, ok in rep.get("gates", {}).items() if not ok]
    if "error" in rep:
        errors.append(rep["error"])
    return errors


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list, dict]:
    out = WORK / f"{workload}-{os.getpid()}"
    started = time.monotonic()
    reps = []
    while True:
        reps.append(run_child("run", workload, seed, out, deadline))
        now, last = time.monotonic(), reps[-1]["wall_s"]
        # Stop at the repetition boundary nearest to --seconds.
        if len(reps) >= MIN_REPS and (now - started + last / 2 >= seconds
                                      or now + last > deadline):
            break
    setup_reps = list(reps)
    while len(setup_reps) < SETUP_SAMPLES and time.monotonic() + 2.0 < deadline:
        setup_reps.append(run_child("setup", workload, seed, out, deadline))

    errors = [e for rep in reps for e in rep_errors(rep)]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    if len({rep["digest"] for rep in reps}) != 1:
        errors.append("repetitions of one seed wrote different report files")
        failed = attempted
    metrics = {
        "checks_per_s": (statistics.median(rep["attempted"] / rep["main_s"]
                                           * slowdown(rep["probe_s"]) for rep in reps),
                         "checks/s"),
        "setup_s": (statistics.median(rep["setup_s"] / slowdown(rep["setup_probe_s"])
                                      for rep in setup_reps), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
        "passed_share": (1.0 - failed / attempted, "share"),
    }
    record = {
        "reps": len(reps),
        "main_s": [rep["main_s"] for rep in reps],
        "main_cpu_s": [rep["main_cpu_s"] for rep in reps],
        "raw_checks_per_s": statistics.median(rep["attempted"] / rep["main_s"] for rep in reps),
        "setup_s": [rep["setup_s"] for rep in setup_reps],
        "main_slowdown": [slowdown(rep["probe_s"]) for rep in reps],
        "setup_slowdown": [slowdown(rep["setup_probe_s"]) for rep in setup_reps],
        "counts": reps[0]["counts"],
        "env": reps[0]["env"],
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, errors, record


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, list, dict]:
    out = WORK / f"{workload}-{os.getpid()}"
    spans_path = WORK / f"spans-{workload}.json"
    plain = run_child("run", workload, seed, out, deadline)
    traced = run_child("trace", workload, seed, out, deadline, spans_path)
    again = run_child("run", workload, seed, out, deadline)
    errors = [f"not restored after tracing: {name}" for name in traced["unrestored"]]
    errors += traced["nesting_errors"]
    if not plain["digest"] == traced["digest"] == again["digest"]:
        errors.append("the traced and untraced runs wrote different report files")
    layers = traced["layers"]
    counts = plain["counts"]
    for key in ("checks", "links", "tight_links", "failed_links"):
        if key in counts and layers[f"verifiers.{key}"] != counts[key]:
            errors.append(f"traced verifiers.{key} {layers[f'verifiers.{key}']} "
                          f"!= untraced {counts[key]}")
    reps = (plain, traced, again)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = attempted if errors else sum(rep["failed"] for rep in reps)
    errors += [e for rep in reps for e in rep_errors(rep)]
    layers["campaign.report_bytes"] = plain["output_bytes"] if workload in CAMPAIGNS else 0
    layers["trace.overhead_share"] = (2.0 * traced["main_s"] / (plain["main_s"] + again["main_s"])
                                      - 1.0)
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}

    solves = traced["eigensolves_per_check"]
    record = {
        "counts": counts,
        "env": traced["env"],
        "attempted": attempted,
        "failed": failed,
        "eigensolves_per_check": solves,
    }
    if workload == "campaign_small":
        record["roadmap_eigensolves"] = {
            suite: {"measured": [round(v, 2) for v in solves.get(suite, [0.0, 0.0])],
                    "roadmap": list(expected),
                    "match": [round(v, 1) for v in solves.get(suite, [0.0, 0.0])]
                    == list(expected)}
            for suite, expected in ROADMAP_EIGENSOLVES.items()}
    return metrics, errors, record


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ms_p50", "_ms_max")):
        return "ms"
    if name.endswith("us_per_check"):
        return "us"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("per_check"):
        return "1/check"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "kantcheck" / "__init__.py").is_file():
        print(f"no kantcheck sources under {ROOT / 'src'}; run from a kantcheck checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            metrics, errors, record = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, errors, record = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "errors": errors, **record}
    (WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": not errors,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
