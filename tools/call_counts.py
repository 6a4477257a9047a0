"""Print how often a small campaign's fixed-cost calls or a sweep's scalar oracle calls run.

Runs the seed-1 small campaign (the default grid, dims 2, 3, 4 and 6,
4 samples per cell, base seed 1: 2,544 checks) from a checkout's ``src``
under cProfile, with BLAS on one thread, and prints one line per counted
call: its total count and its count per check.  The counted calls are
numpy's ``np.stack``, ``np.linalg.eigh`` and ``np.linalg.eigvalsh``, the
``LoewnerVerdict`` objects built, and the Kraus-map normalization checks
(``PositiveLinearMap.normalization_defect``, one per map checked alone,
and ``posmaps._normalization_defects``, one per stack of maps checked
together, where the checkout has it), the campaign's generator stack
draws (calls of a suite's ``generate``, one per stack the campaign
draws) and the window placements (``generators._place_in_window``, one
per stacked placement), and the closed-form evaluations
(``constants.kantorovich_K2``, behind every K and K2, and
``constants.beta_power_closed``, behind every C, C2 and beta).  Both
modes also count the oracle's scans (one ``constants._grid_bracket`` per
scan, whether made alone or in a lockstep pass) and its evaluations of g
on a grid-sized array (the GRID_RESOLUTION + 1 scan points) and on a
probe-sized one (2,001 points, the sign probe of checkouts that have
one), which are the calls of ``eval_scalar`` in ``constants``.  Counts
do not depend on the host, so two checkouts compare exactly:

    python3 tools/call_counts.py                  # this checkout
    python3 tools/call_counts.py ../other-checkout

``--sweep`` counts instead the oracle's scalar calls in one sweep of the
benchmark's shape (windows (1, 2), (0.5, 4) and (2, 3), 40 p in
[-3, -0.05] and 30 q in [-1, -0.05] drawn from seed 1: 14,400 rows): the
golden-section loops run one scan at a time (``constants._golden_max``)
and the points evaluated one at a time (``constants._eval_one``).
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import os
import pstats
import sys
import tempfile
from pathlib import Path

CONFIG = {"dims": [2, 3, 4, 6], "samples_per_cell": 4, "base_seed": 1}
# (printed name, source file suffix, function name) of each counted call
COUNTED = (
    ("np.stack", "shape_base.py", "stack"),
    ("np.linalg.eigh", "_linalg.py", "eigh"),
    ("np.linalg.eigvalsh", "_linalg.py", "eigvalsh"),
    ("LoewnerVerdict", "call_counts.py", "_loewner_verdict_init"),
    ("map normalization (one map)", "posmaps.py", "normalization_defect"),
    ("map normalization (one stack)", "posmaps.py", "_normalization_defects"),
    ("generators._place_in_window", "generators.py", "_place_in_window"),
    ("oracle scans", "constants.py", "_grid_bracket"),
    ("constants.kantorovich_K2", "constants.py", "kantorovich_K2"),
    ("constants.beta_power_closed", "constants.py", "beta_power_closed"),
)
STACK_DRAWS = "generator stack draws"


SWEEP_WINDOWS = [(1.0, 2.0), (0.5, 4.0), (2.0, 3.0)]
SWEEP_SEED = 1
SWEEP_COUNTED = (
    ("constants._golden_max", "constants.py", "_golden_max"),
    ("constants._eval_one", "constants.py", "_eval_one"),
    ("oracle scans", "constants.py", "_grid_bracket"),
)
PROBE_POINTS = 2001


def _calls(profile: cProfile.Profile, counted_calls) -> dict:
    calls = dict.fromkeys((name for name, _, _ in counted_calls), 0)
    for (path, _, func), (_, ncalls, *_rest) in pstats.Stats(profile).stats.items():
        for name, suffix, counted in counted_calls:
            if func == counted and path.endswith(suffix):
                calls[name] += ncalls
    return calls


def _profiled(run, counted_calls) -> tuple:
    """run()'s result, and the count of each counted call and of the
    oracle's grid-sized and probe-sized evaluations of g while it ran."""
    from kantcheck import constants

    sizes = collections.Counter()
    eval_scalar = constants.eval_scalar

    def counted_eval_scalar(f, xs):
        sizes[len(xs)] += 1
        return eval_scalar(f, xs)

    constants.eval_scalar = counted_eval_scalar
    try:
        profile = cProfile.Profile()
        result = profile.runcall(run)
    finally:
        constants.eval_scalar = eval_scalar
    calls = _calls(profile, counted_calls)
    calls["oracle g on the grid"] = sizes[constants.GRID_RESOLUTION + 1]
    calls["oracle g on the probe"] = sizes[PROBE_POINTS]
    return result, calls


def counts(checkout: Path) -> tuple[int, dict]:
    """The number of checks of the campaign and the count of each counted call."""
    sys.path.insert(0, str(checkout / "src"))
    import kantcheck
    from kantcheck import campaign, hermitian

    init = hermitian.LoewnerVerdict.__init__

    def _loewner_verdict_init(self, *args, **kwargs):
        init(self, *args, **kwargs)

    hermitian.LoewnerVerdict.__init__ = _loewner_verdict_init
    # each suite's generate function draws one stack per call
    draws = sorted({suite.generate.__name__ for suite in campaign.SUITES.values()})
    counted = ((STACK_DRAWS, "campaign.py", name) for name in draws)
    try:
        with tempfile.TemporaryDirectory(prefix="kantcheck_counts_") as tmp:
            cfg = kantcheck.CampaignConfig(**CONFIG, output_dir=tmp)
            summary, calls = _profiled(lambda: kantcheck.run_campaign(cfg),
                                       (*counted, *COUNTED))
    finally:
        hermitian.LoewnerVerdict.__init__ = init
    return summary.total_checks, calls


def sweep_counts(checkout: Path) -> tuple[int, dict]:
    """The number of rows of the sweep and the count of each counted call."""
    sys.path.insert(0, str(checkout / "src"))
    import numpy as np
    import kantcheck

    rng = np.random.default_rng(SWEEP_SEED)
    p_grid = sorted(float(p) for p in rng.uniform(-3.0, -0.05, 40))
    q_grid = sorted(float(q) for q in rng.uniform(-1.0, -0.05, 30))
    with tempfile.TemporaryDirectory(prefix="kantcheck_counts_") as tmp:
        result, calls = _profiled(
            lambda: kantcheck.sweep_constants(SWEEP_WINDOWS, p_grid, q_grid, tmp), SWEEP_COUNTED)
    return len(result.rows), calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="checkout whose src/ runs (default: this one)")
    parser.add_argument("--sweep", action="store_true",
                        help="count the oracle's scalar calls in one benchmark-shaped sweep")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    unit, counter = ("rows", sweep_counts) if args.sweep else ("checks", counts)
    total, calls = counter(args.checkout.resolve())
    print(f"{unit:<32}{total:>10,}")
    for name, n in calls.items():
        print(f"{name:<32}{n:>10,}{n / total:>10.3f} per {unit[:-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
