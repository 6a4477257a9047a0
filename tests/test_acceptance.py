"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The full conformance campaign (criterion 3) and the determinism
re-run (criterion 7) dominate the runtime; everything else is seconds.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from kantcheck.campaign import CampaignConfig, run_campaign
from kantcheck.constants import (
    alpha_ratio,
    beta_generic,
    beta_power_closed,
    chord_coefficients,
    grid_max_1d,
    kantorovich_C,
    kantorovich_C2,
    kantorovich_K,
    kantorovich_K2,
    power_fun,
)
from kantcheck.generators import (
    CERT_DOMINATED,
    CertifiedPair,
    gen_chaotic_pair,
    read_corpus,
)
from kantcheck.hermitian import SpectralWindow, loewner_leq, matrix_log, matrix_power
from kantcheck.hunt import _hunt_missing_domination
from kantcheck.verifiers import check_corollary_2_3
from test_campaign import assert_matches_recorded_digests

WINDOW_TUPLES = [(1.0, 2.0), (0.5, 4.0), (2.0, 3.0)]
WINDOWS = [SpectralWindow(m, M) for m, M in WINDOW_TUPLES]
DATA_DIR = Path(__file__).parent / "data"


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def rel_close(a, b, tol=1e-6):
    return abs(a - b) <= max(tol * max(1.0, abs(a), abs(b)), 1e-9)


def test_criterion_1_oracle_equivalence_of_constants():
    started = time.perf_counter()
    ps = [float(p) for p in np.linspace(-3.0, -0.05, 25)]
    qs = [float(q) for q in np.linspace(-1.0, -0.05, 20)]
    worst = 0.0
    for w in WINDOWS:
        for p in ps:
            k_oracle = alpha_ratio(power_fun(p), power_fun(p), w).value
            c_oracle = beta_generic(power_fun(p), power_fun(p), 1.0, w).value
            assert rel_close(kantorovich_K(w, p), k_oracle), ("K", w, p)
            assert rel_close(kantorovich_C(w, p), c_oracle), ("C", w, p)
            worst = max(worst, abs(kantorovich_K(w, p) - k_oracle),
                        abs(kantorovich_C(w, p) - c_oracle))
            for q in qs:
                k2 = kantorovich_K2(w, p, q)
                k2_oracle = alpha_ratio(power_fun(p), power_fun(q), w).value
                assert rel_close(k2, k2_oracle), ("K2", w, p, q)
                c2 = kantorovich_C2(w, p, q)
                c2_oracle = beta_generic(power_fun(p), power_fun(q), 1.0, w).value
                assert rel_close(c2, c2_oracle), ("C2", w, p, q)
                worst = max(worst, abs(k2 - k2_oracle), abs(c2 - c2_oracle))
                for alpha in (0.5, 2.0):
                    gap = beta_power_closed(w, p, q, alpha)
                    gap_oracle = beta_generic(power_fun(p), power_fun(q), alpha, w).value
                    assert rel_close(gap, gap_oracle), ("beta", w, p, q, alpha)
                    worst = max(worst, abs(gap - gap_oracle))
    elapsed = time.perf_counter() - started
    report("criterion 1 (oracle equivalence, 1e-6 rel)", True,
           f"worst |closed - oracle| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_beta_zero_calibration():
    worst = 0.0
    for m, M in WINDOW_TUPLES:
        w = SpectralWindow(m, M)
        alpha = (M + m) ** 2 / (4.0 * M * m)
        worst = max(worst, abs(beta_power_closed(w, -1.0, -1.0, alpha)))
    report("criterion 2 (beta = 0 calibration, 1e-12)", worst <= 1e-12,
           f"worst |beta| = {worst:.2e}")


def test_criterion_3_full_conformance_campaign(default_campaign):
    cfg, summary = default_campaign
    detail = (f"{summary.total_checks} checks across {len(summary.suites)} suites, "
              f"{summary.total_failures} failures, "
              f"max const deviation {summary.max_constant_deviation:.2e}, "
              f"wall {summary.wall_seconds:.0f}s")
    report("criterion 3 (conformance: zero link failures at rel_tol 1e-8)",
           summary.total_failures == 0, detail)


def test_criterion_4_tightness():
    # (a) endpoint-loaded A = B = diag{m, M}: the first link is an equality
    worst_first = 0.0
    for w in WINDOWS:
        mat = np.diag(np.asarray([w.m, w.M], dtype=complex))
        pair = CertifiedPair(A=mat, B=mat, window=w, certificate=CERT_DOMINATED, seed=-1)
        for p, q in ((-1.0, -1.0), (-2.0, -0.5)):
            slack = check_corollary_2_3(pair, p, q).link("B^p <= G_").min_slack
            worst_first = max(worst_first, abs(slack))
    # (b) chord tightness: the refined minimum of K2 t^q - chord(t) is zero
    worst_touch = 0.0
    for w in WINDOWS:
        for p in (-3.0, -2.0, -1.0, -0.5, -0.25):
            chord = chord_coefficients(power_fun(p), w)
            for q in (-1.0, -0.75, -0.5, -0.25):
                k2 = kantorovich_K2(w, p, q)
                gap = lambda t: k2 * t ** q - chord.at(t)
                refined_min = -grid_max_1d(lambda t: -gap(t), w).value
                worst_touch = max(worst_touch, abs(refined_min))
    ok = worst_first < 1e-10 and worst_touch <= 1e-8
    report("criterion 4 (tightness: equality < 1e-10, chord touch within 1e-8)", ok,
           f"worst first-link |slack| = {worst_first:.2e}, "
           f"worst |chord gap min| = {worst_touch:.2e}")


def test_criterion_5_negative_controls():
    # (a) squaring breaks the order on the fixed 2x2 witness
    a = np.array([[1.0, 0.0], [0.0, 0.0]]) + 0.01 * np.eye(2)
    b = np.array([[2.0, 1.0], [1.0, 1.0]]) + 0.01 * np.eye(2)
    squared = loewner_leq(matrix_power(a, 2.0), matrix_power(b, 2.0))
    ok_a = loewner_leq(a, b).holds and squared.min_slack <= -0.1
    # (b) a chaotic pair in the recorded corpus fails A <= B
    witnesses = read_corpus(DATA_DIR / "chaotic_witnesses.jsonl")
    ok_b = False
    for pair in witnesses:
        regenerated = gen_chaotic_pair(pair.dim, pair.window, pair.seed)
        log_ok = loewner_leq(matrix_log(regenerated.A), matrix_log(regenerated.B)).holds
        if log_ok and not loewner_leq(regenerated.A, regenerated.B).holds:
            ok_b = True
            break
    # (c) dropping A <= B produces violations in fuzz mode
    fuzz = _hunt_missing_domination(CampaignConfig(), samples=100)
    ok_c = fuzz.violations > 0
    report("criterion 5 (negative controls)", ok_a and ok_b and ok_c,
           f"squared slack {squared.min_slack:.3f}; chaotic witness found: {ok_b}; "
           f"fuzz violations: {fuzz.violations}/100")


def test_criterion_6_scalar_layer():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for m, M in WINDOW_TUPLES:
        width = M - m
        for p in (-3.0, -2.0, -1.0, -0.5, -0.25):
            x = m + width * rng.random(10_000)
            y = m + width * rng.random(10_000)
            v = rng.random(10_000)
            log_convexity = (x ** p) ** (1 - v) * (y ** p) ** v - ((1 - v) * x + v * y) ** p
            ts = m + width * rng.random(10_000)
            geo = (m ** p) ** ((M - ts) / width) * (M ** p) ** ((ts - m) / width)
            chord = ((M ** p - m ** p) * ts + (M * m ** p - m * M ** p)) / width
            worst = min(worst, float(np.min(log_convexity)),
                        float(np.min(geo - ts ** p)), float(np.min(chord - geo)))
    report("criterion 6 (scalar log-convexity and double bound, slack >= -1e-12)",
           worst >= -1e-12, f"worst slack = {worst:.2e}")


def test_criterion_7_campaign_determinism(default_campaign, tmp_path):
    """A rerun of the default campaign writes the same bytes as the first
    run, and both write exactly the files recorded in
    ``tests/data/default_campaign_digests.txt``.  The record was made from
    a checkout's ``src`` with

        cd "$(mktemp -d)" && PYTHONPATH=<checkout>/src python3 -c '
        from kantcheck.campaign import CampaignConfig, run_campaign
        run_campaign(CampaignConfig(output_dir="out"))'
        cd out && find . -type f | sort | sed 's|^\\./||' | xargs sha256sum
    """
    cfg, _ = default_campaign
    rerun_cfg = CampaignConfig(**{**cfg.__dict__, "output_dir": str(tmp_path / "rerun")})
    started = time.perf_counter()
    run_campaign(rerun_cfg)
    elapsed = time.perf_counter() - started
    first = Path(cfg.output_dir)
    second = Path(rerun_cfg.output_dir)
    mismatched = []
    names = sorted(str(p.relative_to(first)) for p in first.rglob("*") if p.is_file())
    names_second = sorted(str(p.relative_to(second)) for p in second.rglob("*") if p.is_file())
    ok = names == names_second
    if ok:
        for name in names:
            if (first / name).read_bytes() != (second / name).read_bytes():
                mismatched.append(name)
        ok = not mismatched
    report("criterion 7 (byte-identical default campaign, base_seed 1)", ok,
           f"{len(names)} files compared, rerun wall {elapsed:.0f}s"
           + (f", mismatches: {mismatched[:3]}" if mismatched else ""))
    assert_matches_recorded_digests(first, "default_campaign_digests.txt")
