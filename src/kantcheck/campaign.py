"""Configuration-driven conformance campaigns.

A campaign enumerates parameter cells (suite x window x exponents),
generates ``samples_per_cell`` certified instances per cell with seeds
split as ``base_seed + global_index``, runs the suite's chain check on
each, and writes JSON-lines reports plus a summary CSV.  Output is
deterministic for a fixed configuration: report files embed the config
and its hash so any report can be reproduced byte-for-byte from its own
header.  Work items are pure functions of (seed, cell), so the loop can
be fanned out; this runner executes them serially and merges in
enumeration order.

An instance depends only on (dim, window, seed), and the generators
take one window per seed, so all of a suite's cells, across its windows,
form a ``Block`` whose samples are generated together: one stream per
dim yields that dim's samples in block order, each in its cell's window,
drawn in stacks of at most ``STACK_ELEMENTS`` matrix entries when a cell
first needs one, each checked before the dim's next stack is drawn.
Stacking removes numpy's per-call overhead, which dominates at d <= 6;
the budget keeps a d = 64 stack at one member, where stacking gains
nothing and would only hold more matrices in memory.  Cells still run
one ``run_cell`` each, in enumeration order, and a suite's report file
is open only while its cells run.  The oracle scans behind
the cells' constants are made once per run (``OracleScans``), and the
scans of a suite's cells in one window share that window's scan arena
and their grid powers (``constants``).
"""

from __future__ import annotations

import collections
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable

from . import verifiers
from .constants import _power_gap, _power_ratio, beta_power_closed, kantorovich_K, power_fun
from .errors import ConfigError
from .generators import (
    POSITIVITY_MARGIN_FACTOR,
    WINDOW_ON_A,
    _placement_margin,
    gen_chaotic_pairs,
    gen_dominated_pairs,
    gen_positive_linear_maps,
    gen_relative_pairs,
    gen_weighted_families,
)
from .hermitian import DIM_CAP, SpectralWindow
from .verifiers import CHAIN_CATALOG

MAP_SEED_OFFSET = 1 << 32
DEGENERATE_GAP = 0.05
# Matrix entries (members x dim^2) in one generation stack.
STACK_ELEMENTS = 4096


class OracleScans:
    """The oracle scans of one campaign run, each distinct input scanned once.

    ``ratio`` is max chord(t^p)/t^q and ``gap`` is max{chord(t^p) - alpha t^q}
    over a window, ``alpha_ratio`` and ``beta_generic`` of t^p and t^q bit
    for bit.  Cells of several suites need the same values; theorem_2_1
    and theorem_4_1 need all of theirs.  Each instance memoizes its own
    ``ratio`` and ``gap`` (``functools.cache``) and a run keeps one, so the
    memo lives as long as the run; it holds the scans' values only.  The
    scans share their grid powers: each reads t^q on the window's grid
    from ``constants._grid_power``, which keeps the last four (window, q)
    asked for, so scans of one q in one window evaluate it once.
    """

    def __init__(self):
        self.ratio = functools.cache(lambda w, p, q: _power_ratio(w, p, q).value)
        self.gap = functools.cache(lambda w, p, q, alpha: _power_gap(w, p, q, alpha).value)


@dataclass(frozen=True)
class Suite:
    """How the campaign runs one catalogued chain.

    ``generate(dim, windows, seeds)`` returns one instance, a tuple of check
    arguments, per (window, seed); a sample calls ``check(*instance, **cell_args,
    rel_tol=rel_tol)``.  ``axes`` lists (parameter, source) pairs in loop
    order; a source names a config grid field or is a tuple of literal
    values.  ``cell_args(scans, window, **params)`` computes once per cell
    the keyword arguments after the instance, oracle constants included;
    by default they are the parameters themselves.  ``deviation(scans,
    window, report_params, **params)`` compares the constant one report
    carries in its params, the float its check used, with its oracle scan;
    a cell's deviation is the largest over its reports, taken after its
    checks ran.  Both take oracle values from the run's
    ``OracleScans``.  ``check`` names a ``verifiers`` function and is
    looked up at call time, so a rebinding of that name (as a tracer
    makes) is honoured; the other callables resolve module globals at call
    time for the same reason.
    """

    axes: tuple
    generate: Callable
    check: str
    cell_args: Callable | None = None
    deviation: Callable | None = None


def _out_dim(dim: int) -> int:
    return max(1, dim - 1)


def _kraus_count(seed: int) -> int:
    return 1 + seed % 3


def _dominated_on_b(dim, windows, seeds):
    return [(pair,) for pair in gen_dominated_pairs(dim, windows, seeds)]


def _dominated_on_a(dim, windows, seeds):
    return [(pair,) for pair in gen_dominated_pairs(dim, windows, seeds, window_side=WINDOW_ON_A)]


def _chaotic(dim, windows, seeds):
    return [(pair,) for pair in gen_chaotic_pairs(dim, windows, seeds)]


def _relative_with_map(dim, windows, seeds):
    pairs = gen_relative_pairs(dim, windows, seeds)
    return list(zip(pairs, gen_positive_linear_maps(dim, _out_dim(dim), map(_kraus_count, seeds),
                                                    [seed + MAP_SEED_OFFSET for seed in seeds])))


def _weighted_family(dim, windows, seeds):
    return [(family,) for family in gen_weighted_families(3, dim, _out_dim(dim), windows, seeds)]


def _tight_gap(scans, w, p, q) -> dict:
    """f = t^p, g = t^q, alpha = max chord(t^p)/t^q (the calibration at which
    beta is ~0) and the oracle beta = max{chord(t^p) - alpha t^q}."""
    alpha = scans.ratio(w, p, q)
    return {"f": power_fun(p), "g": power_fun(q), "alpha": alpha,
            "beta": scans.gap(w, p, q, alpha)}


def _self_gap(scans, w, p) -> dict:
    """f = t^p, alpha = K(m,M,p) and the oracle beta = max{chord(t^p) - alpha t^p}."""
    alpha = kantorovich_K(w, p)
    return {"f": power_fun(p), "alpha": alpha, "beta": scans.gap(w, p, p, alpha)}


_P = (("p", "p_grid"),)
_PQ = _P + (("q", "q_grid"),)
_PR = _P + (("r", "r_grid"),)

SUITES = {
    "theorem_1_1": Suite((("p", "p_grid_theorem_1_1"),), _dominated_on_a, "check_theorem_1_1",
                         deviation=lambda s, w, rp, p: abs(rp["K"] - s.ratio(w, p, p))),
    "theorem_2_1": Suite(_PQ, _dominated_on_b, "check_theorem_2_1", cell_args=_tight_gap),
    "corollary_2_2": Suite(_PQ + (("alpha", "alpha_grid"),), _dominated_on_b,
                           "check_corollary_2_2", deviation=lambda s, w, rp, p, q, alpha:
                           abs(rp["beta"] - s.gap(w, p, q, alpha))),
    "corollary_2_3": Suite(_PQ, _dominated_on_b, "check_corollary_2_3",
                           deviation=lambda s, w, rp, p, q: abs(rp["K2"] - s.ratio(w, p, q))),
    "corollary_2_4": Suite(_PQ, _dominated_on_b, "check_corollary_2_4",
                           deviation=lambda s, w, rp, p, q: abs(rp["C2"] - s.gap(w, p, q, 1.0))),
    "lemma_3_1": Suite(_PR, _chaotic, "check_lemma_3_1_forward"),
    "corollary_3_2": Suite(_PR, _chaotic, "check_corollary_3_2", deviation=lambda s, w, rp, p, r:
                           abs(rp["K"] - s.ratio(w, p + r, p + r))),
    "corollary_3_3": Suite(_PR, _chaotic, "check_corollary_3_3", deviation=lambda s, w, rp, p, r:
                           abs(rp["C"] - s.gap(w, p + r, p + r, 1.0))),
    "theorem_4_1": Suite(_PQ, _weighted_family, "check_theorem_4_1", cell_args=_tight_gap),
    # the check's beta is the oracle's, so the closed form is the other side
    "theorem_4_2": Suite(_P, _relative_with_map, "check_theorem_4_2", cell_args=_self_gap,
                         deviation=lambda s, w, rp, p:
                         abs(beta_power_closed(w, p, p, rp["alpha"]) - rp["beta"])),
    "corollary_4_3": Suite(_P, _relative_with_map, "check_corollary_4_3",
                           cell_args=lambda s, w, p: {"p": p, "alpha": kantorovich_K(w, p)},
                           deviation=lambda s, w, rp, p:
                           abs(rp["beta"] - s.gap(w, p, p, rp["alpha"]))),
    "corollary_4_4": Suite(
        _P + (("mode", ("ratio", "difference")),), _relative_with_map, "check_corollary_4_4",
        deviation=lambda s, w, rp, p, mode: (abs(rp["K"] - s.ratio(w, p, p)) if mode == "ratio"
                                             else abs(rp["C"] - s.gap(w, p, p, 1.0)))),
    # regime -1 <= p < 0
    "theorem_4_5": Suite((("p", "q_grid"),), _relative_with_map, "check_theorem_4_5",
                         deviation=lambda s, w, rp, p: max(abs(rp["K"] - s.ratio(w, p, p)),
                                                           abs(rp["C"] - s.gap(w, p, p, 1.0)))),
}

ALL_SUITES = list(SUITES)


@dataclass
class CampaignConfig:
    """Everything a campaign run depends on; hashable and JSON-round-trippable."""

    suites: list = field(default_factory=lambda: list(ALL_SUITES))
    dims: list = field(default_factory=lambda: [2, 3, 4, 6])
    windows: list = field(default_factory=lambda: [(1.0, 2.0), (0.5, 4.0), (2.0, 3.0)])
    p_grid: list = field(default_factory=lambda: [-3.0, -2.0, -1.0, -0.5, -0.25])
    q_grid: list = field(default_factory=lambda: [-1.0, -0.75, -0.5, -0.25])
    r_grid: list = field(default_factory=lambda: [-1.0, -0.5, -0.25])
    alpha_grid: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    p_grid_theorem_1_1: list = field(default_factory=lambda: [1.5, 2.0, 3.0])
    samples_per_cell: int = 200
    base_seed: int = 1
    rel_tol: float = 1e-8
    fuzz_samples: int = 10_000
    output_dir: str = "campaign_out"

    def semantic_dict(self) -> dict:
        """Config content that defines the run; the output path is excluded
        so identical runs into different directories stay byte-identical."""
        data = asdict(self)
        data.pop("output_dir")
        data["windows"] = [[float(m), float(M)] for m, M in self.windows]
        return data

    def config_hash(self) -> str:
        payload = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(data)
        windows = kwargs.get("windows")
        # anything but a list of lists is left for validate_config to reject
        if isinstance(windows, list) and all(isinstance(w, list) for w in windows):
            kwargs["windows"] = [tuple(w) for w in windows]
        return cls(**kwargs)


def load_config(path) -> CampaignConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return CampaignConfig.from_dict(data)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number that is finite as a float.  JSON and argparse's float
    also read NaN and Infinity, and JSON reads integers too large for a float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_list_of(value, item_ok) -> bool:
    return isinstance(value, (list, tuple)) and all(item_ok(item) for item in value)


def _check_field_types(cfg: CampaignConfig) -> None:
    """Reject wrongly typed fields, which a JSON config can carry."""
    def require(ok: bool, name: str, kind: str) -> None:
        if not ok:
            raise ConfigError(f"{name} must be {kind}, got {getattr(cfg, name)!r}")

    require(_is_list_of(cfg.suites, lambda s: isinstance(s, str)), "suites", "a list of names")
    require(_is_list_of(cfg.dims, _is_int), "dims", "a list of integers")
    require(_is_list_of(cfg.windows, lambda w: _is_list_of(w, _is_real) and len(w) == 2),
            "windows", "a list of finite [m, M] pairs")
    for name in ("p_grid", "q_grid", "r_grid", "alpha_grid", "p_grid_theorem_1_1"):
        require(_is_list_of(getattr(cfg, name), _is_real), name, "a list of finite numbers")
    for name in ("samples_per_cell", "base_seed", "fuzz_samples"):
        require(_is_int(getattr(cfg, name)), name, "an integer")
    require(_is_real(cfg.rel_tol), "rel_tol", "a finite number")
    require(isinstance(cfg.output_dir, (str, os.PathLike)), "output_dir", "a path")


def _check_powers_fit(cfg: CampaignConfig) -> None:
    """Reject an exponent e whose m**e or M**e overflows a float, or
    underflows to 0.0, for some window.

    The constants and oracles raise ``m**e`` and ``M**e`` to every
    configured exponent: p, q, p + r, and theorem 1.1's p.
    """
    exponents = ([("p", p) for p in cfg.p_grid] + [("q", q) for q in cfg.q_grid]
                 + [("p + r", float(p) + float(r)) for p in cfg.p_grid for r in cfg.r_grid]
                 + [("theorem_1_1 p", p) for p in cfg.p_grid_theorem_1_1])
    for window in cfg.windows:
        for name, e in exponents:
            for t in window:
                try:
                    underflows = float(t) ** float(e) == 0.0
                except OverflowError:
                    raise ConfigError(f"window ({window[0]}, {window[1]}): {name}={e} overflows "
                                      f"{t}**{e}") from None
                if underflows:
                    raise ConfigError(f"window ({window[0]}, {window[1]}): {name}={e} underflows "
                                      f"{t}**{e} to 0.0")


def _check_alphas_fit(cfg: CampaignConfig) -> None:
    """Reject an alpha for which alpha A^q overflows a float on some
    generated pair, for some window and q.

    corollary_2_2 tests links against alpha A^q + beta, with q < 0, on
    dominated pairs, whose generator keeps lambda_min(A) >= c m with
    c = POSITIVITY_MARGIN_FACTOR, so the entries of alpha A^q reach up to
    alpha (c m)^q; ``hermitize`` then adds each link's difference to its
    adjoint before halving it, which doubles them.  So 2 alpha (c m)^q must
    be finite.  The oracle scans alpha t^q on [m, M], whose largest value
    alpha m^q is smaller by the factor c^(-q) > 1, so it stays finite too.
    """
    for alpha in cfg.alpha_grid:
        for m, upper in cfg.windows:
            for q in cfg.q_grid:
                try:
                    largest = 2.0 * float(alpha) * (POSITIVITY_MARGIN_FACTOR * float(m)) ** float(q)
                except OverflowError:
                    largest = math.inf
                if not math.isfinite(largest):
                    raise ConfigError(f"alpha_grid cell alpha={alpha} overflows alpha A^q for "
                                      f"window ({m}, {upper}) and q={q}")


def _check_windows_fit(cfg: CampaignConfig) -> None:
    """Reject a window too narrow for the generators to place a spectrum in
    at the largest configured dim d.

    A placement (``generators._place_in_window``) clips its d targets into
    [lo + delta, hi - delta], delta = 8 d eps max(|lo|, |hi|, 1), the margin
    that keeps the roundoff of the rebuild and of its eigensolve inside
    [lo, hi]; a member that still leaves it is placed again with delta
    multiplied by 8.  At hi - lo <= 2 delta that interval holds one point
    or none, and every target is clipped to hi - delta, within delta of lo:
    the margin no longer keeps the roundoff inside, and at hi - lo <= delta
    the target itself lies outside.  A retry, with a larger delta, only
    clips every target further past lo.  So hi - lo must exceed 2 delta,
    for [m, M], where pairs and families place their spectra, and for
    [log m, log M], where chaotic pairs place log B.
    """
    d = max(int(dim) for dim in cfg.dims)
    for m, upper in cfg.windows:
        m, upper = float(m), float(upper)
        for name, lo, hi in (("M - m", m, upper), ("log M - log m", math.log(m), math.log(upper))):
            delta = float(_placement_margin(lo, hi, d))
            if not hi - lo > 2.0 * delta:
                raise ConfigError(f"window ({m}, {upper}) is too narrow to place a spectrum "
                                  f"at dim {d}: {name} must exceed {2.0 * delta!r}")


def _check_tolerance_binds(cfg: CampaignConfig) -> None:
    """Reject a rel_tol outside (0, 1): at rel_tol >= 1 no link can fail.

    A link whose difference of sides is D fails when
    lambda_min(D) < -rel_tol (1 + ||D||_F).  Since |lambda_min(D)| <=
    ||D||_F < 1 + ||D||_F, no D fails at rel_tol >= 1.  Below 1, the
    rank-one D = -c v v* (|v| = 1) has lambda_min(D) = -c and ||D||_F = c,
    so it fails once c > rel_tol / (1 - rel_tol): 1 is the exact bound.
    """
    if not 0.0 < cfg.rel_tol < 1.0:
        raise ConfigError(f"rel_tol must lie in (0, 1), got {cfg.rel_tol}")


def validate_config(cfg: CampaignConfig) -> None:
    """Reject wrongly typed fields, and grids that leave a suite's supported regime."""
    _check_field_types(cfg)
    if not cfg.suites:
        raise ConfigError("suites must be nonempty")
    for suite in cfg.suites:
        if suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}; known: {ALL_SUITES}")
        if cfg.suites.count(suite) > 1:
            raise ConfigError(f"suite {suite!r} is listed twice")
    for name in ("samples_per_cell", "fuzz_samples"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if cfg.base_seed < 0:
        raise ConfigError(f"base_seed must be >= 0, got {cfg.base_seed}")
    if not cfg.dims:
        raise ConfigError("dims must be nonempty")
    for dim in cfg.dims:
        if not 1 <= int(dim) <= DIM_CAP:
            raise ConfigError(f"dim {dim} outside [1, {DIM_CAP}]")
    if not cfg.windows:
        raise ConfigError("windows must be nonempty")
    for m, upper in cfg.windows:
        if not 0.0 < float(m) < float(upper):
            raise ConfigError(f"window ({m}, {upper}) must satisfy 0 < m < M")
    for name in ("p_grid", "q_grid", "r_grid", "alpha_grid", "p_grid_theorem_1_1"):
        if not getattr(cfg, name):
            raise ConfigError(f"{name} must be nonempty")
    for p in cfg.p_grid:
        if p > -DEGENERATE_GAP:
            raise ConfigError(f"p_grid cell p={p} violates p <= -{DEGENERATE_GAP} "
                              "(degenerate-exponent exclusion)")
    for q in cfg.q_grid:
        if not -1.0 <= q <= -DEGENERATE_GAP:
            raise ConfigError(f"q_grid cell q={q} outside [-1, -{DEGENERATE_GAP}]")
    for r in cfg.r_grid:
        if not -1.0 <= r <= -DEGENERATE_GAP:
            raise ConfigError(f"r_grid cell r={r} outside [-1, -{DEGENERATE_GAP}]")
    for alpha in cfg.alpha_grid:
        if alpha <= 0.0:
            raise ConfigError(f"alpha_grid cell alpha={alpha} must be positive")
    for p in cfg.p_grid_theorem_1_1:
        if p < 1.0 + DEGENERATE_GAP:
            raise ConfigError(f"p_grid_theorem_1_1 cell p={p} violates p >= {1.0 + DEGENERATE_GAP}")
    _check_windows_fit(cfg)
    _check_powers_fit(cfg)
    _check_alphas_fit(cfg)
    _check_tolerance_binds(cfg)


def make_output_dir(path, files=()) -> Path:
    """Create the directory ``path`` and its parents, and the directory of
    each file ``files`` names inside it, as a command does before any work.

    Each of those files that exists and is not a regular file, such as a
    directory, raises ConfigError before any directory is made, and so
    does a directory that cannot be made, such as one at an existing file.
    """
    out = Path(path)
    targets = [out / name for name in files]
    for target in targets:
        if target.exists() and not target.is_file():
            raise ConfigError(f"output file {str(target)!r} exists and is not a regular file")
    for directory in dict.fromkeys([out, *(target.parent for target in targets)]):
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {str(directory)!r} cannot be created: "
                              f"{exc.strerror or exc}") from exc
    return out


@dataclass
class Cell:
    suite: str
    params: dict
    global_index: int


def enumerate_cells(cfg: CampaignConfig) -> list:
    """Deterministic cell order: suites as configured, grids as listed."""
    cells = []
    for suite in cfg.suites:
        axes = SUITES[suite].axes
        grids = [source if isinstance(source, tuple) else [float(v) for v in getattr(cfg, source)]
                 for _, source in axes]
        for window in cfg.windows:
            window = (float(window[0]), float(window[1]))
            for values in itertools.product(*grids):
                params = dict(zip((name for name, _ in axes), values))
                cells.append(Cell(suite, {"window": window, **params}, len(cells)))
    return cells


def _cell_seeds(cfg: CampaignConfig, cell: Cell) -> list:
    base = cfg.base_seed + cell.global_index * cfg.samples_per_cell
    return [base + j for j in range(cfg.samples_per_cell)]


def _dim_for(cfg: CampaignConfig, j: int) -> int:
    return int(cfg.dims[j % len(cfg.dims)])


class Block:
    """Cells of one suite, across its windows, whose samples are generated
    together, plus the run's oracle scans.

    An instance depends only on (dim, window, seed), and the generators
    take one window per seed.  ``streams[dim]`` yields that dim's check
    arguments in block order, each drawn in its cell's window, drawing a
    stack of at most ``STACK_ELEMENTS`` matrix entries when a cell first
    needs one, so each stack is checked before the dim's next is drawn.
    A stack may mix windows; every instance is bit for bit the one a stack
    of one window makes.
    """

    def __init__(self, cfg: CampaignConfig, cells: list, scans: OracleScans):
        self.suite = SUITES[cells[0].suite]
        self.scans = scans
        draws = collections.defaultdict(lambda: ([], []))
        for cell in cells:
            window = SpectralWindow(*cell.params["window"])
            for j, seed in enumerate(_cell_seeds(cfg, cell)):
                windows, seeds = draws[_dim_for(cfg, j)]
                windows.append(window)
                seeds.append(seed)
        self.streams = {dim: _stream(self.suite.generate, dim, windows, seeds)
                        for dim, (windows, seeds) in draws.items()}


def _stream(generate: Callable, dim: int, windows: list, seeds: list):
    # takes no Block, so a block and its streams form no reference cycle and
    # are freed as soon as the run moves on to the next block
    size = max(1, STACK_ELEMENTS // (dim * dim))
    for start in range(0, len(seeds), size):
        yield from generate(dim, windows[start:start + size], seeds[start:start + size])


def run_cell(cfg: CampaignConfig, cell: Cell, block: Block) -> tuple[list, float | None]:
    """Run every sample of one parameter cell.

    ``block`` is the cell's block, which supplies its instances and the
    run's oracle scans; the cell arguments and the deviation are taken in
    the cell's own window.  Returns the chain reports plus the largest
    absolute deviation of a report's constant from its oracle, when the
    suite has one.
    """
    suite, w = block.suite, SpectralWindow(*cell.params["window"])
    params = {name: value for name, value in cell.params.items() if name != "window"}
    args = params if suite.cell_args is None else suite.cell_args(block.scans, w, **params)
    check = getattr(verifiers, suite.check)
    reports = [check(*next(block.streams[_dim_for(cfg, j)]), **args, rel_tol=cfg.rel_tol)
               for j in range(cfg.samples_per_cell)]
    return reports, (None if suite.deviation is None else
                     max(suite.deviation(block.scans, w, r.params, **params) for r in reports))


@dataclass
class SuiteStats:
    suite: str
    cells: int = 0
    checks: int = 0
    passed: int = 0
    failed: int = 0
    tight_links: int = 0
    worst_slack: float = float("inf")
    max_constant_dev: float | None = None

    def absorb(self, reports, deviation) -> None:
        self.cells += 1
        for report in reports:
            self.checks += 1
            if report.overall:
                self.passed += 1
            else:
                self.failed += 1
            for link in report.links:
                self.tight_links += int(link.tight)
                self.worst_slack = min(self.worst_slack, link.min_slack)
        if deviation is not None:
            current = self.max_constant_dev if self.max_constant_dev is not None else 0.0
            self.max_constant_dev = max(current, deviation)


@dataclass
class CampaignSummary:
    suites: dict
    config_hash: str
    output_dir: str
    wall_seconds: float

    @property
    def total_checks(self) -> int:
        return sum(s.checks for s in self.suites.values())

    @property
    def total_failures(self) -> int:
        return sum(s.failed for s in self.suites.values())

    @property
    def max_constant_deviation(self) -> float:
        devs = [s.max_constant_dev for s in self.suites.values() if s.max_constant_dev is not None]
        return max(devs) if devs else 0.0

    @property
    def exit_code(self) -> int:
        return 0 if self.total_failures == 0 else 1


SUMMARY_COLUMNS = ["theorem_id", "cells", "checks", "pass_count", "tight_count",
                   "fail_count", "worst_slack", "max_constant_deviation"]


def _write_summary_csv(path: Path, stats: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for suite, s in stats.items():
            worst = "" if s.worst_slack == float("inf") else repr(s.worst_slack)
            dev = "" if s.max_constant_dev is None else repr(s.max_constant_dev)
            writer.writerow([suite, s.cells, s.checks, s.passed, s.tight_links,
                             s.failed, worst, dev])


def run_campaign(cfg: CampaignConfig) -> CampaignSummary:
    """Execute the configured suites and write reports under cfg.output_dir.

    Deterministic for a fixed config: two runs produce byte-identical
    report files.  Returns the in-memory summary; the exit-code contract
    (0 iff zero conformance failures) lives on the summary.
    """
    validate_config(cfg)
    started = time.perf_counter()
    out_dir = make_output_dir(cfg.output_dir,
                              ["summary.csv", *(f"reports/{suite}.jsonl" for suite in cfg.suites)])
    reports_dir = out_dir / "reports"
    cells = enumerate_cells(cfg)
    config_hash = cfg.config_hash()

    stats: dict = {}
    # the encoder json.dumps builds for these separators, built once per run
    encode = json.JSONEncoder(separators=(",", ":")).encode
    scans = OracleScans()
    # enumerate_cells lists each suite's cells together
    for suite, suite_cells in itertools.groupby(cells, key=lambda c: c.suite):
        suite_cells = list(suite_cells)
        stats[suite] = SuiteStats(suite=suite)
        header = {
            "suite": suite,
            "statement": CHAIN_CATALOG[suite],
            "config_hash": config_hash,
            "base_seed": cfg.base_seed,
            "config": cfg.semantic_dict(),
        }
        with open(reports_dir / f"{suite}.jsonl", "w", encoding="utf-8") as handle:
            handle.write(encode(header) + "\n")
            block = Block(cfg, suite_cells, scans)
            for cell in suite_cells:
                reports, deviation = run_cell(cfg, cell, block)
                stats[suite].absorb(reports, deviation)
                for report in reports:
                    handle.write(encode(report.to_json_dict()) + "\n")

    _write_summary_csv(out_dir / "summary.csv", stats)
    return CampaignSummary(
        suites=stats,
        config_hash=config_hash,
        output_dir=str(out_dir),
        wall_seconds=time.perf_counter() - started,
    )


def summarize_report_file(path) -> str:
    """Human-readable digest of a report JSONL or a summary CSV.

    A missing, empty or malformed file raises ConfigError.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        if not text.strip():
            raise ValueError("file is empty")
        if path.suffix == ".csv":
            return _format_csv(list(csv.reader(io.StringIO(text))))
        return _format_report(text.splitlines())
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc


def _format_csv(rows: list) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths))
                     for row in rows)


def _format_report(lines: list) -> str:
    header = json.loads(lines[0])
    stats = SuiteStats(suite=header["suite"])
    records = [json.loads(raw) for raw in lines[1:]]
    for rec in records:
        rec["links"] = [verifiers.Link(**lk) for lk in rec["links"]]
    stats.absorb([verifiers.ChainReport(**rec) for rec in records], None)
    out = [
        f"suite:        {stats.suite}",
        f"statement:    {header['statement']}",
        f"config_hash:  {header['config_hash']}   base_seed: {header['base_seed']}",
        f"checks:       {stats.checks}   passed: {stats.passed}   failed: {stats.failed}",
    ]
    if stats.checks:
        out.append(f"worst_slack:  {stats.worst_slack:.6e}")
    return "\n".join(out)
