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

An instance depends only on (dim, window, seed), so consecutive cells
that share a suite and a window form a ``Block`` whose samples are
generated together: one stream per dim yields that dim's samples in
block order, drawn in stacks of at most ``STACK_ELEMENTS`` matrix
entries when a cell first needs one, each checked before the dim's next
stack is drawn.
Stacking removes numpy's per-call overhead, which dominates at d <= 6;
the budget keeps a d = 64 stack at one member, where stacking gains
nothing and would only hold more matrices in memory.  Cells still run
one ``run_cell`` each, in enumeration order.  The oracle scans behind
the cells' constants are made once per run (``OracleScans``), and a
block's scans share its window's scan arena (``constants``).
"""

from __future__ import annotations

import collections
import csv
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
from .constants import (
    alpha_ratio,
    beta_generic,
    beta_power_closed,
    kantorovich_K,
    kantorovich_K2,
    power_fun,
)
from .errors import ConfigError
from .generators import (
    WINDOW_ON_A,
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
    over a window (``alpha_ratio`` and ``beta_generic``).  Cells of several
    suites need the same values; theorem_2_1 and theorem_4_1 need all of
    theirs.  A run keeps one instance, so the memo lives as long as the run.
    """

    def __init__(self):
        self._values = {}

    def _scan(self, key, scan) -> float:
        if key not in self._values:
            self._values[key] = scan().value
        return self._values[key]

    def ratio(self, w, p, q) -> float:
        return self._scan(("ratio", w, p, q),
                          lambda: alpha_ratio(power_fun(p), power_fun(q), w))

    def gap(self, w, p, q, alpha) -> float:
        return self._scan(("gap", w, p, q, alpha),
                          lambda: beta_generic(power_fun(p), power_fun(q), alpha, w))


@dataclass(frozen=True)
class Suite:
    """How the campaign runs one catalogued chain.

    ``generate(dim, window, seeds)`` returns one instance, a tuple of check
    arguments, per seed; a sample calls ``check(*instance, **cell_args,
    rel_tol=rel_tol)``.  ``axes`` lists (parameter, source) pairs in loop
    order; a source names a config grid field or is a tuple of literal
    values.  ``cell_args(scans, window, **params)`` computes once per cell
    the keyword arguments after the instance, oracle constants included;
    by default they are the parameters themselves.  ``deviation(scans,
    window, **params, **cell_args)`` is the cell's closed-form-vs-oracle
    distance, if any.  Both take oracle values from the run's
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


def _dominated_on_b(dim, w, seeds):
    return [(pair,) for pair in gen_dominated_pairs(dim, w, seeds)]


def _dominated_on_a(dim, w, seeds):
    return [(pair,) for pair in gen_dominated_pairs(dim, w, seeds, window_side=WINDOW_ON_A)]


def _chaotic(dim, w, seeds):
    return [(pair,) for pair in gen_chaotic_pairs(dim, w, seeds)]


def _relative_with_map(dim, w, seeds):
    pairs = gen_relative_pairs(dim, w, seeds)
    return list(zip(pairs, gen_positive_linear_maps(dim, _out_dim(dim), map(_kraus_count, seeds),
                                                    [seed + MAP_SEED_OFFSET for seed in seeds])))


def _weighted_family(dim, w, seeds):
    return [(family,) for family in gen_weighted_families(3, dim, _out_dim(dim), w, seeds)]


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


def _ratio_deviation(scans, w, p, q) -> float:
    """|K2(m,M,p,q) - max chord(t^p)/t^q| against the oracle."""
    return abs(kantorovich_K2(w, p, q) - scans.ratio(w, p, q))


def _gap_deviation(scans, w, p, q, alpha) -> float:
    """|beta(p,q,alpha) - max{chord(t^p) - alpha t^q}| against the oracle."""
    return abs(beta_power_closed(w, p, q, alpha) - scans.gap(w, p, q, alpha))


_P = (("p", "p_grid"),)
_PQ = _P + (("q", "q_grid"),)
_PR = _P + (("r", "r_grid"),)

SUITES = {
    "theorem_1_1": Suite((("p", "p_grid_theorem_1_1"),), _dominated_on_a, "check_theorem_1_1",
                         deviation=lambda s, w, p: _ratio_deviation(s, w, p, p)),
    "theorem_2_1": Suite(_PQ, _dominated_on_b, "check_theorem_2_1", cell_args=_tight_gap),
    "corollary_2_2": Suite(_PQ + (("alpha", "alpha_grid"),), _dominated_on_b,
                           "check_corollary_2_2", deviation=_gap_deviation),
    "corollary_2_3": Suite(_PQ, _dominated_on_b, "check_corollary_2_3",
                           deviation=_ratio_deviation),
    "corollary_2_4": Suite(_PQ, _dominated_on_b, "check_corollary_2_4",
                           deviation=lambda s, w, p, q: _gap_deviation(s, w, p, q, 1.0)),
    "lemma_3_1": Suite(_PR, _chaotic, "check_lemma_3_1_forward"),
    "corollary_3_2": Suite(_PR, _chaotic, "check_corollary_3_2",
                           deviation=lambda s, w, p, r: _ratio_deviation(s, w, p + r, p + r)),
    "corollary_3_3": Suite(_PR, _chaotic, "check_corollary_3_3",
                           deviation=lambda s, w, p, r: _gap_deviation(s, w, p + r, p + r, 1.0)),
    "theorem_4_1": Suite(_PQ, _weighted_family, "check_theorem_4_1", cell_args=_tight_gap),
    "theorem_4_2": Suite(_P, _relative_with_map, "check_theorem_4_2", cell_args=_self_gap,
                         deviation=lambda s, w, p, f, alpha, beta:
                         _gap_deviation(s, w, p, p, alpha)),
    "corollary_4_3": Suite(_P, _relative_with_map, "check_corollary_4_3",
                           cell_args=lambda s, w, p: {"p": p, "alpha": kantorovich_K(w, p)},
                           deviation=lambda s, w, p, alpha: _gap_deviation(s, w, p, p, alpha)),
    "corollary_4_4": Suite(
        _P + (("mode", ("ratio", "difference")),), _relative_with_map, "check_corollary_4_4",
        deviation=lambda s, w, p, mode: (_ratio_deviation(s, w, p, p) if mode == "ratio"
                                         else _gap_deviation(s, w, p, p, 1.0))),
    # regime -1 <= p < 0
    "theorem_4_5": Suite((("p", "q_grid"),), _relative_with_map, "check_theorem_4_5",
                         deviation=lambda s, w, p: max(_ratio_deviation(s, w, p, p),
                                                       _gap_deviation(s, w, p, p, 1.0))),
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


def validate_config(cfg: CampaignConfig) -> None:
    """Reject wrongly typed fields, and grids that leave a suite's supported regime."""
    _check_field_types(cfg)
    for suite in cfg.suites:
        if suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}; known: {ALL_SUITES}")
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
    _check_powers_fit(cfg)
    if cfg.rel_tol <= 0.0:
        raise ConfigError(f"rel_tol must be positive, got {cfg.rel_tol}")


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
    """Consecutive cells that share a suite and a window, whose samples are
    generated together, plus the run's oracle scans.

    An instance depends only on (dim, window, seed).  ``streams[dim]``
    yields that dim's check arguments in block order, drawing a stack of at
    most ``STACK_ELEMENTS`` matrix entries when a cell first needs one, so
    each stack is checked before the dim's next is drawn.
    """

    def __init__(self, cfg: CampaignConfig, cells: list, scans: OracleScans):
        self.suite = SUITES[cells[0].suite]
        self.window = SpectralWindow(*cells[0].params["window"])
        self.scans = scans
        seeds = collections.defaultdict(list)
        for cell in cells:
            for j, seed in enumerate(_cell_seeds(cfg, cell)):
                seeds[_dim_for(cfg, j)].append(seed)
        self.streams = {dim: _stream(self.suite.generate, dim, self.window, dim_seeds)
                        for dim, dim_seeds in seeds.items()}


def _stream(generate: Callable, dim: int, window: SpectralWindow, seeds: list):
    # takes no Block, so a block and its streams form no reference cycle and
    # are freed as soon as the run moves on to the next block
    size = max(1, STACK_ELEMENTS // (dim * dim))
    for start in range(0, len(seeds), size):
        yield from generate(dim, window, seeds[start:start + size])


def run_cell(cfg: CampaignConfig, cell: Cell,
             block: Block | None = None) -> tuple[list, float | None]:
    """Run every sample of one parameter cell.

    ``block`` is the cell's block in a campaign run, which supplies its
    instances and the run's oracle scans; alone, the cell is a block of
    its own.  Returns the chain reports plus the absolute
    closed-form-vs-oracle deviation of the cell's constant, when the
    suite has one.
    """
    block = Block(cfg, [cell], OracleScans()) if block is None else block
    suite, w = block.suite, block.window
    params = {name: value for name, value in cell.params.items() if name != "window"}
    args = params if suite.cell_args is None else suite.cell_args(block.scans, w, **params)
    deviation = (None if suite.deviation is None
                 else suite.deviation(block.scans, w, **{**params, **args}))
    check = getattr(verifiers, suite.check)
    reports = [check(*next(block.streams[_dim_for(cfg, j)]), **args, rel_tol=cfg.rel_tol)
               for j in range(cfg.samples_per_cell)]
    return reports, deviation


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
    out_dir = Path(cfg.output_dir)
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    cells = enumerate_cells(cfg)
    config_hash = cfg.config_hash()

    stats: dict = {}
    handles: dict = {}
    # the encoder json.dumps builds for these separators, built once per run
    encode = json.JSONEncoder(separators=(",", ":")).encode
    try:
        for suite in cfg.suites:
            stats[suite] = SuiteStats(suite=suite)
            handle = open(reports_dir / f"{suite}.jsonl", "w", encoding="utf-8")
            handles[suite] = handle
            header = {
                "suite": suite,
                "statement": CHAIN_CATALOG[suite],
                "config_hash": config_hash,
                "base_seed": cfg.base_seed,
                "config": cfg.semantic_dict(),
            }
            handle.write(encode(header) + "\n")
        scans = OracleScans()
        for _, run in itertools.groupby(cells, key=lambda c: (c.suite, c.params["window"])):
            run = list(run)
            block = Block(cfg, run, scans)
            for cell in run:
                reports, deviation = run_cell(cfg, cell, block)
                stats[cell.suite].absorb(reports, deviation)
                handle = handles[cell.suite]
                for report in reports:
                    handle.write(encode(report.to_json_dict()) + "\n")
    finally:
        for handle in handles.values():
            handle.close()

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
