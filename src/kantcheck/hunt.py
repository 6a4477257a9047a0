"""Sharpness hunting: relax one hypothesis at a time and record what breaks.

Fuzz runs never feed the conformance verdict; they write a separate
report whose entries carry the worst observed violation and a serialized
witness instance.  Finding no violation is a legitimate outcome and is
logged as such.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .campaign import CampaignConfig, _dim_for, make_output_dir, validate_config
from .constants import alpha_ratio, beta_generic, grid_max_1d, kantorovich_K, power_fun
from .generators import (
    CERT_CHAOTIC,
    CERT_DOMINATED,
    CertifiedPair,
    gen_chaotic_pair,
    gen_dominated_pair,
    gen_hermitian_in_window,
    pair_to_json,
)
from .hermitian import SpectralWindow, geometric_interpolant, matrix_power
from .verifiers import (
    ChainReport,
    _finish,
    _links,
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


@dataclass
class HuntModeResult:
    mode: str
    samples: int
    violations: int
    max_violation: float
    witness: dict | None = None
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return self.__dict__.copy()


def _observe(result: HuntModeResult, pair: CertifiedPair, report: ChainReport) -> None:
    """Fold one fuzz sample, the report of a check on ``pair``, into the mode
    result: a sample with a link that does not hold is a violation, and the
    worst one is kept as the witness, with the report's params."""
    result.samples += 1
    failing = [lk for lk in report.links if not lk.holds]
    if not failing:
        return
    result.violations += 1
    worst = min(lk.min_slack for lk in failing)
    if worst < result.max_violation:
        result.max_violation = worst
        result.witness = {"pair": pair_to_json(pair), "params": report.params,
                          "failing_links": [lk.label for lk in failing], "min_slack": worst}


def _sample(cfg: CampaignConfig, j: int) -> tuple[int, SpectralWindow, int]:
    """Sample j's dimension, window and seed: the configured dims and windows in turn."""
    return _dim_for(cfg, j), SpectralWindow(*cfg.windows[j % len(cfg.windows)]), cfg.base_seed + j


def _sample_loop(cfg: CampaignConfig, mode: str, notes: list, samples: int, generate=None,
                 check=None, args=None, fixed=()) -> HuntModeResult:
    """The mode result of the ``fixed`` (pair, report) observations, then of
    samples 0..samples-1, each the report of check(pair, **args(window)) on
    pair = generate(dim, window, seed)."""
    result = HuntModeResult(mode=mode, samples=0, violations=0, max_violation=0.0, notes=notes)
    for observation in fixed:
        _observe(result, *observation)
    for j in range(samples):
        dim, w, seed = _sample(cfg, j)
        pair = generate(dim, w, seed)
        _observe(result, pair, check(pair, **args(w), rel_tol=cfg.rel_tol))
    return result


def _hunt_q_beyond_regime(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    p, q = -1.0, -2.0
    return _sample_loop(cfg, "corollary_2_3_q_beyond_regime",
                        [f"regime relaxed to q={q}; violations are sharpness witnesses, "
                         "absence of violations is also a valid outcome"], samples,
                        gen_dominated_pair, check_corollary_2_3, lambda w: {"p": p, "q": q})


def _hunt_r_beyond_regime(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    p, r = -1.0, -2.0
    return _sample_loop(cfg, "corollary_3_2_r_beyond_regime", [f"regime relaxed to r={r}"],
                        samples, gen_chaotic_pair, check_corollary_3_2, lambda w: {"p": p, "r": r})


def _hunt_non_log_convex(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    f, g = np.sqrt, power_fun(-1.0)

    @cache
    def gap_constants(w):
        """alpha = max chord(f)/g and theorem_2_1's beta, once per window."""
        alpha = alpha_ratio(f, g, w).value
        return {"alpha": alpha, "beta": beta_generic(f, g, alpha, w).value}

    return _sample_loop(cfg, "theorem_2_1_non_log_convex_f",
                        ["f(t) = sqrt(t) is log-concave and g(t) = t^-1; the interpolant "
                         "link is expected to flip in the interior"], samples,
                        gen_dominated_pair, partial(check_theorem_2_1, f=f, g=g), gap_constants)


def _undominated_pair(dim: int, w: SpectralWindow, seed: int) -> CertifiedPair:
    """B in the window and A drawn independently with spectrum in [m, 2M]."""
    rng = np.random.default_rng(seed)
    b = gen_hermitian_in_window(dim, w, rng)
    a = gen_hermitian_in_window(dim, SpectralWindow(w.m, 2.0 * w.M), rng)
    return CertifiedPair(A=a, B=b, window=w, certificate=CERT_DOMINATED, seed=seed)


def _hunt_missing_domination(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    """Drop A <= B: draw A independently with spectrum reaching above M."""
    ratio = cache(lambda w: kantorovich_K(w, -1.0))
    return _sample_loop(cfg, "corollary_2_2_without_domination",
                        ["A is drawn independently of B with spectrum in [m, 2M]; "
                         "the dominated certificate is deliberately not satisfied"], samples,
                        _undominated_pair, check_corollary_2_2,
                        lambda w: {"p": -1.0, "q": -1.0, "alpha": ratio(w)})


def _hunt_squared_order_control(cfg: CampaignConfig) -> HuntModeResult:
    """Replay the fixed 2x2 witness that squaring breaks the order."""
    a = np.array(SQUARED_ORDER_WITNESS_A, dtype=complex)
    b = np.array(SQUARED_ORDER_WITNESS_B, dtype=complex)
    base, squared = _links(cfg.rel_tol, ("A <= B", a, b),
                           ("A^2 <= B^2", matrix_power(a, 2.0), matrix_power(b, 2.0)))
    w = SpectralWindow(0.0, 3.0)
    pair = CertifiedPair(A=a, B=b, window=w, certificate=CERT_DOMINATED, seed=0)
    report = _finish("squared_order", pair.dim, pair.seed, w, {"power": 2.0}, [base, squared])
    return _sample_loop(cfg, "squared_order_negative_control",
                        [f"A0 <= B0: holds={base.holds} min_slack={base.min_slack!r}",
                         f"A0^2 <= B0^2: holds={squared.holds} min_slack={squared.min_slack!r}"],
                        0, fixed=[(pair, report)])


def _hunt_lemma_exponent_variants(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    """Compare the outer exponents r/(p+r) and p/(p+r) on a chaotic corpus."""
    grids = [(-1.0, -0.5), (-0.5, -0.25)]
    corpus = [gen_chaotic_pair(*_sample(cfg, j)) for j in range(samples)]
    # the A = B, p != r instance separates the exponents immediately
    first = corpus[0]
    corpus.append(CertifiedPair(A=first.B, B=first.B, window=first.window,
                                certificate=CERT_CHAOTIC, seed=first.seed))
    observed = [(pair, lemma_3_1_exponent_slacks(pair, p, r, cfg.rel_tol))
                for pair in corpus for p, r in grids]
    columns = list(zip(*(report.links for _, report in observed)))
    total = len(observed)
    held = [sum(lk.holds for lk in links) for links in columns]
    worst = [min(0.0, *(lk.min_slack for lk in links)) for links in columns]
    return _sample_loop(cfg, "lemma_3_1_exponent_variants",
                        [f"exponent {exponent}: held {h}/{total}, worst slack {w!r}"
                         for exponent, h, w in zip(("r/(p+r)", "p/(p+r)"), held, worst)],
                        0, fixed=observed)


def _hunt_unweighted_difference_constant(cfg: CampaignConfig, samples: int) -> HuntModeResult:
    """Probe the difference-type chaotic bound with the unweighted constant.

    The provable chain has C(m,M,p+r) B^(-r) in the final term; dropping
    the weight to C(m,M,p+r) I is refuted by commuting instances on
    windows with m > 1, and this mode records such witnesses.
    """
    p, r = -0.25, -1.0
    cfg = replace(cfg, windows=[w for w in cfg.windows if w[0] > 1.0] or cfg.windows)
    # deterministic commuting witness: A = B loaded on the maximizer of the
    # weighted gap t^(-r) (G_{p+r}(t) - t^(p+r)) over the first window
    w0 = SpectralWindow(*cfg.windows[0])
    s = p + r
    g = geometric_interpolant(w0, s * math.log(w0.m), s * math.log(w0.M))
    t_star = grid_max_1d(lambda t: t ** (-r) * (g(t) - t ** s), w0).t_star
    mat = np.diag(np.asarray([t_star, w0.m], dtype=complex))
    commuting = CertifiedPair(A=mat, B=mat, window=w0, certificate=CERT_CHAOTIC, seed=-1)
    check = corollary_3_3_unweighted_slack
    return _sample_loop(cfg, "corollary_3_3_unweighted_constant",
                        ["final bound relaxed to C(m,M,p+r) I + A^p; the "
                         "conformance chain uses C(m,M,p+r) B^(-r) + A^p"], samples,
                        gen_chaotic_pair, check, lambda w: {"p": p, "r": r},
                        fixed=[(commuting, check(commuting, p, r, cfg.rel_tol))])


def hunt_sharpness(cfg: CampaignConfig, out_dir) -> dict:
    """Run every fuzz mode and write hunt_report.json under out_dir."""
    validate_config(cfg)
    out = make_output_dir(out_dir, ["hunt_report.json"])
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
    report = {"config_hash": cfg.config_hash(), "base_seed": cfg.base_seed,
              "modes": {m.mode: m.to_json_dict() for m in modes}}
    (out / "hunt_report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report
