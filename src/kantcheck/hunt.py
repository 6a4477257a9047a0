"""Sharpness hunting: relax one hypothesis at a time and record what breaks.

Fuzz runs never feed the conformance verdict; they write a separate
report whose entries carry the worst observed violation and a serialized
witness instance.  Finding no violation is a legitimate outcome and is
logged as such.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .campaign import CampaignConfig, validate_config
from .constants import alpha_ratio, grid_max_1d, kantorovich_K
from .generators import (
    CERT_CHAOTIC,
    CERT_DOMINATED,
    CertifiedPair,
    gen_chaotic_pair,
    gen_dominated_pair,
    gen_hermitian_in_window,
    pair_to_json,
)
from .hermitian import SpectralWindow, loewner_leq, matrix_power
from .verifiers import (
    check_corollary_2_2,
    check_corollary_2_3,
    check_corollary_3_2,
    check_theorem_2_1,
    corollary_3_3_unweighted_slack,
    lemma_3_1_exponent_slacks,
)

# 2x2 witness that the squared map is not order preserving: A0 <= B0 holds
# while B0^2 - A0^2 has a negative eigenvalue below -0.1.
SQUARED_ORDER_WITNESS_A = [[1.01, 0.0], [0.0, 0.01]]
SQUARED_ORDER_WITNESS_B = [[2.01, 1.0], [1.0, 1.01]]

UNWEIGHTED_LINK = "B^(-r) G_{t^(p+r)}(B) <= C I + A^p"


@dataclass
class HuntModeResult:
    mode: str
    samples: int
    violations: int
    max_violation: float
    witness: dict | None = None
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "samples": self.samples,
            "violations": self.violations,
            "max_violation": self.max_violation,
            "witness": self.witness,
            "notes": self.notes,
        }


def _observe(result: HuntModeResult, failing: list, pair: CertifiedPair, params: dict) -> None:
    """Fold one fuzz sample into the mode result, keeping the worst witness.

    failing lists (label, min_slack) for each link of the sample that did
    not hold.
    """
    result.samples += 1
    if not failing:
        return
    result.violations += 1
    worst = min(slack for _, slack in failing)
    if worst < result.max_violation:
        result.max_violation = worst
        result.witness = {
            "pair": pair_to_json(pair),
            "params": params,
            "failing_links": [label for label, _ in failing],
            "min_slack": worst,
        }


def _failing_links(report) -> list:
    return [(lk.label, lk.min_slack) for lk in report.links if not lk.holds]


def _cycle(cfg: CampaignConfig, j: int) -> tuple[int, SpectralWindow]:
    dim = int(cfg.dims[j % len(cfg.dims)])
    window = cfg.windows[j % len(cfg.windows)]
    return dim, SpectralWindow(*window)


def _hunt_q_beyond_regime(cfg: CampaignConfig, samples: int, q: float = -2.0,
                          p: float = -1.0) -> HuntModeResult:
    result = HuntModeResult(mode="corollary_2_3_q_beyond_regime", samples=0,
                            violations=0, max_violation=0.0)
    result.notes.append(f"regime relaxed to q={q}; violations are sharpness "
                        "witnesses, absence of violations is also a valid outcome")
    for j in range(samples):
        dim, w = _cycle(cfg, j)
        seed = cfg.base_seed + j
        pair = gen_dominated_pair(dim, w, seed)
        report = check_corollary_2_3(pair, p, q, cfg.rel_tol)
        _observe(result, _failing_links(report), pair, {"p": p, "q": q, "m": w.m, "M": w.M})
    return result


def _hunt_r_beyond_regime(cfg: CampaignConfig, samples: int, r: float = -2.0,
                          p: float = -1.0) -> HuntModeResult:
    result = HuntModeResult(mode="corollary_3_2_r_beyond_regime", samples=0,
                            violations=0, max_violation=0.0)
    result.notes.append(f"regime relaxed to r={r}")
    for j in range(samples):
        dim, w = _cycle(cfg, j)
        seed = cfg.base_seed + j
        pair = gen_chaotic_pair(dim, w, seed)
        report = check_corollary_3_2(pair, p, r, cfg.rel_tol)
        _observe(result, _failing_links(report), pair, {"p": p, "r": r, "m": w.m, "M": w.M})
    return result


def _hunt_non_log_convex(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    result = HuntModeResult(mode="theorem_2_1_non_log_convex_f", samples=0,
                            violations=0, max_violation=0.0)
    result.notes.append("f(t) = sqrt(t) is log-concave; the interpolant link "
                        "is expected to flip in the interior")
    for j in range(samples):
        dim, w = _cycle(cfg, j)
        seed = cfg.base_seed + j
        pair = gen_dominated_pair(dim, w, seed)
        f = np.sqrt
        g = lambda t: t ** -1.0
        alpha = alpha_ratio(f, g, w).value
        report = check_theorem_2_1(pair, f, g, alpha, "i", cfg.rel_tol)
        _observe(result, _failing_links(report), pair,
                 {"f": "sqrt", "g": "t^-1", "alpha": alpha, "m": w.m, "M": w.M})
    return result


def _hunt_missing_domination(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    """Drop A <= B: draw A independently with spectrum reaching above M."""
    result = HuntModeResult(mode="corollary_2_2_without_domination", samples=0,
                            violations=0, max_violation=0.0)
    result.notes.append("A is drawn independently of B with spectrum in [m, 2M]; "
                        "the dominated certificate is deliberately not satisfied")
    p = q = -1.0
    for j in range(samples):
        dim, w = _cycle(cfg, j)
        seed = cfg.base_seed + j
        rng = np.random.default_rng(seed)
        b = gen_hermitian_in_window(dim, w, rng)
        a = gen_hermitian_in_window(dim, SpectralWindow(w.m, 2.0 * w.M), rng)
        pair = CertifiedPair(A=a, B=b, window=w, certificate=CERT_DOMINATED, seed=seed)
        alpha = kantorovich_K(w, -1.0)
        report = check_corollary_2_2(pair, p, q, alpha, cfg.rel_tol)
        _observe(result, _failing_links(report), pair,
                 {"p": p, "q": q, "alpha": alpha, "m": w.m, "M": w.M})
    return result


def _hunt_squared_order_control(cfg: CampaignConfig) -> HuntModeResult:
    """Replay the fixed 2x2 witness that squaring breaks the order."""
    result = HuntModeResult(mode="squared_order_negative_control", samples=1,
                            violations=0, max_violation=0.0)
    a = np.array(SQUARED_ORDER_WITNESS_A, dtype=complex)
    b = np.array(SQUARED_ORDER_WITNESS_B, dtype=complex)
    base = loewner_leq(a, b, cfg.rel_tol)
    squared = loewner_leq(matrix_power(a, 2.0), matrix_power(b, 2.0), cfg.rel_tol)
    result.notes.append(f"A0 <= B0: holds={base.holds} min_slack={base.min_slack!r}")
    result.notes.append(f"A0^2 <= B0^2: holds={squared.holds} min_slack={squared.min_slack!r}")
    if base.holds and not squared.holds:
        result.violations = 1
        result.max_violation = squared.min_slack
        pair = CertifiedPair(A=a, B=b, window=SpectralWindow(0.0, 3.0),
                             certificate=CERT_DOMINATED, seed=0)
        result.witness = {
            "pair": pair_to_json(pair),
            "params": {"power": 2.0},
            "failing_links": ["A^2 <= B^2"],
            "min_slack": squared.min_slack,
        }
    return result


def _hunt_lemma_exponent_variants(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    """Compare the outer exponents r/(p+r) and p/(p+r) on a chaotic corpus."""
    result = HuntModeResult(mode="lemma_3_1_exponent_variants", samples=0,
                            violations=0, max_violation=0.0)
    grids = [(-1.0, -0.5), (-0.5, -0.25)]
    corpus = [gen_chaotic_pair(*_cycle(cfg, j), cfg.base_seed + j) for j in range(samples)]
    # the A = B, p != r instance separates the exponents immediately
    dim, w = _cycle(cfg, 0)
    base = gen_chaotic_pair(dim, w, cfg.base_seed)
    corpus.append(CertifiedPair(A=base.B, B=base.B, window=w, certificate=CERT_CHAOTIC,
                                seed=base.seed))
    stats = {"r_over_p_plus_r": {"holds": 0, "worst": 0.0},
             "p_over_p_plus_r": {"holds": 0, "worst": 0.0}}
    total = 0
    for pair in corpus:
        for p, r in grids:
            slacks = lemma_3_1_exponent_slacks(pair, p, r, cfg.rel_tol)
            total += 1
            for name, info in slacks.items():
                stats[name]["holds"] += int(info["holds"])
                stats[name]["worst"] = min(stats[name]["worst"], info["min_slack"])
    result.samples = total
    result.violations = total - stats["p_over_p_plus_r"]["holds"]
    result.max_violation = stats["p_over_p_plus_r"]["worst"]
    result.notes.append(
        f"exponent r/(p+r): held {stats['r_over_p_plus_r']['holds']}/{total}, "
        f"worst slack {stats['r_over_p_plus_r']['worst']!r}")
    result.notes.append(
        f"exponent p/(p+r): held {stats['p_over_p_plus_r']['holds']}/{total}, "
        f"worst slack {stats['p_over_p_plus_r']['worst']!r}")
    return result


def _hunt_unweighted_difference_constant(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    """Probe the difference-type chaotic bound with the unweighted constant.

    The provable chain has C(m,M,p+r) B^(-r) in the final term; dropping
    the weight to C(m,M,p+r) I is refuted by commuting instances on
    windows with m > 1, and this mode records such witnesses.
    """
    result = HuntModeResult(mode="corollary_3_3_unweighted_constant", samples=0,
                            violations=0, max_violation=0.0)
    result.notes.append("final bound relaxed to C(m,M,p+r) I + A^p; the "
                        "conformance chain uses C(m,M,p+r) B^(-r) + A^p")
    p, r = -0.25, -1.0
    windows = [w for w in cfg.windows if w[0] > 1.0] or cfg.windows
    # deterministic commuting witness: A = B loaded on the maximizer of the
    # weighted gap t^(-r) (G_{p+r}(t) - t^(p+r)) over the first window
    w0 = SpectralWindow(*windows[0])
    s = p + r
    lnm, lnM = math.log(w0.m) * s, math.log(w0.M) * s
    weighted_gap = lambda t: t ** (-r) * (
        np.exp(((w0.M - t) * lnm + (t - w0.m) * lnM) / w0.width) - t ** s)
    t_star = grid_max_1d(weighted_gap, w0).t_star
    mat = np.diag(np.asarray([t_star, w0.m], dtype=complex))
    pairs = [CertifiedPair(A=mat, B=mat, window=w0, certificate=CERT_CHAOTIC, seed=-1)]
    for j in range(samples):
        dim = int(cfg.dims[j % len(cfg.dims)])
        w = SpectralWindow(*windows[j % len(windows)])
        pairs.append(gen_chaotic_pair(dim, w, cfg.base_seed + j))
    for pair in pairs:
        slack = corollary_3_3_unweighted_slack(pair, p, r, cfg.rel_tol)
        failing = [] if slack["holds"] else [(UNWEIGHTED_LINK, slack["min_slack"])]
        _observe(result, failing, pair,
                 {"p": p, "r": r, "m": pair.window.m, "M": pair.window.M})
    return result


def hunt_sharpness(cfg: CampaignConfig, out_dir=None) -> dict:
    """Run every fuzz mode; write hunt_report.json when out_dir is given."""
    validate_config(cfg)
    side_samples = max(50, cfg.fuzz_samples // 20)
    modes = [
        _hunt_q_beyond_regime(cfg, cfg.fuzz_samples),
        _hunt_r_beyond_regime(cfg, side_samples),
        _hunt_non_log_convex(cfg, side_samples),
        _hunt_missing_domination(cfg, side_samples),
        _hunt_squared_order_control(cfg),
        _hunt_lemma_exponent_variants(cfg, max(25, side_samples // 4)),
        _hunt_unweighted_difference_constant(cfg, side_samples),
    ]
    report = {
        "config_hash": cfg.config_hash(),
        "base_seed": cfg.base_seed,
        "modes": {m.mode: m.to_json_dict() for m in modes},
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "hunt_report.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return report
