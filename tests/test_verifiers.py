import math
import sys

import numpy as np
import pytest

from kantcheck import generators, hermitian, posmaps, verifiers
from kantcheck.campaign import ALL_SUITES, SUITES, CampaignConfig, OracleScans, enumerate_cells
from kantcheck.constants import alpha_ratio, kantorovich_C, kantorovich_K, power_fun
from kantcheck.errors import (
    DegenerateExponentError,
    DomainError,
    HermiticityError,
    HypothesisError,
    ParameterError,
)
from kantcheck.generators import (
    CERT_CHAOTIC,
    CERT_DOMINATED,
    CERT_RELATIVE,
    WINDOW_ON_A,
    CertifiedPair,
    gen_chaotic_pair,
    gen_dominated_pair,
    gen_dominated_pairs,
    gen_positive_linear_map,
    gen_relative_pair,
    gen_relative_pairs,
    gen_weighted_family,
    pair_from_json,
    pair_to_json,
)
from kantcheck.hermitian import SpectralWindow, loewner_verdicts
from kantcheck.hunt import hunt_sharpness
from kantcheck.posmaps import PositiveLinearMap, WeightedFamily, apply_map, tsallis_entropy
from kantcheck.verifiers import (
    CHAIN_CATALOG,
    check_corollary_2_2,
    check_corollary_2_3,
    check_corollary_2_4,
    check_corollary_3_2,
    check_corollary_3_3,
    check_corollary_4_3,
    check_corollary_4_4,
    check_lemma_3_1_forward,
    check_theorem_1_1,
    check_theorem_2_1,
    check_theorem_4_1,
    check_theorem_4_2,
    check_theorem_4_5,
    corollary_3_3_unweighted_slack,
    lemma_3_1_exponent_slacks,
)

W12 = SpectralWindow(1.0, 2.0)
# (window, dim, seed) instances on which a corollary must be its theorem at
# fixed constants, bit for bit
CHAIN_GRID = [(SpectralWindow(*w), dim, seed)
              for w in ((1.0, 2.0), (0.5, 4.0), (0.05, 20.0))
              for dim in (2, 3, 4, 5, 6, 16) for seed in range(10)]


def diag_pair(window, certificate, extra=0):
    """A = B = diag with eigenvalues {m, M} (plus a midpoint when extra)."""
    vals = [window.m, window.M] + [0.5 * (window.m + window.M)] * extra
    mat = np.diag(np.asarray(vals, dtype=complex))
    return CertifiedPair(A=mat, B=mat, window=window, certificate=certificate, seed=-1)


class TestTheorem11:
    def test_constants_and_chain(self):
        pair = gen_dominated_pair(4, W12, seed=9, window_side=WINDOW_ON_A)
        report = check_theorem_1_1(pair, 2.0)
        assert report.overall
        assert report.params["K"] == pytest.approx(9.0 / 8.0, abs=1e-12)
        assert report.params["K"] <= (W12.M / W12.m) ** (2.0 - 1.0)

    def test_equal_pair_at_upper_endpoint(self):
        mat = W12.M * np.eye(3)
        pair = CertifiedPair(A=mat, B=mat, window=W12, certificate=CERT_DOMINATED,
                             seed=-1, window_side=WINDOW_ON_A)
        report = check_theorem_1_1(pair, 2.0)
        assert report.overall  # K >= 1 makes A^p = B^p <= K B^p immediate

    def test_small_campaign(self):
        for p in (1.5, 2.0, 3.0):
            for seed in range(10):
                pair = gen_dominated_pair(2 + seed % 3, W12, seed, window_side=WINDOW_ON_A)
                assert check_theorem_1_1(pair, p).overall

    def test_parameter_validation(self):
        pair = gen_dominated_pair(3, W12, seed=1, window_side=WINDOW_ON_A)
        for p in (0.5, 1.0):
            with pytest.raises(ParameterError, match="needs p > 1"):
                check_theorem_1_1(pair, p)

    def test_needs_window_on_a(self):
        pair = gen_dominated_pair(3, W12, seed=1)
        with pytest.raises(HypothesisError):
            check_theorem_1_1(pair, 2.0)


class TestTheorem21:
    def test_calibrated_inverse_chain(self):
        pair = gen_dominated_pair(3, W12, seed=1)
        f = g = power_fun(-1.0)
        report = check_theorem_2_1(pair, f, g, 9.0 / 8.0)
        assert report.overall
        assert abs(report.params["beta"]) < 1e-9

    def test_scalar_endpoint_instance(self):
        mat = W12.m * np.eye(2)
        pair = CertifiedPair(A=mat, B=mat, window=W12, certificate=CERT_DOMINATED, seed=-1)
        report = check_theorem_2_1(pair, power_fun(-1.0), power_fun(-1.0), 9.0 / 8.0)
        assert report.overall
        assert abs(report.link("f(B) <= G_f(B)").min_slack) < 1e-12

    def test_case_ii_increasing_concave(self):
        for seed in range(20):
            pair = gen_dominated_pair(3, W12, seed)
            report = check_theorem_2_1(pair, power_fun(-1.0), np.log, -0.5)
            assert report.overall, (seed, [l.min_slack for l in report.links])

    def test_case_follows_the_sign_of_alpha(self):
        pair = gen_dominated_pair(3, W12, seed=2)
        f = g = power_fun(-1.0)
        assert check_theorem_2_1(pair, f, g, 9.0 / 8.0).params["case"] == "i"
        assert check_theorem_2_1(pair, f, np.log, -0.5).params["case"] == "ii"
        with pytest.raises(HypothesisError, match="alpha != 0"):
            check_theorem_2_1(pair, f, g, 0.0)

    def test_needs_window_on_b(self):
        pair = gen_dominated_pair(3, W12, seed=1, window_side=WINDOW_ON_A)
        with pytest.raises(HypothesisError, match="needs the window certified on B"):
            check_theorem_2_1(pair, power_fun(-1.0), power_fun(-1.0), 9.0 / 8.0)

    def test_rejects_wrong_certificate(self):
        pair = gen_chaotic_pair(3, W12, seed=3)
        with pytest.raises(HypothesisError):
            check_theorem_2_1(pair, power_fun(-1.0), power_fun(-1.0), 1.0)


class TestCorollary22:
    def test_zero_exponent_first_link_trivial(self):
        pair = gen_dominated_pair(3, W12, seed=4)
        report = check_corollary_2_2(pair, 0.0, -1.0, 1.0)
        assert report.overall
        assert abs(report.link("B^p <= G_{t^p}(B)").min_slack) < 1e-12

    def test_beta_zero_cell(self):
        for seed in range(20):
            pair = gen_dominated_pair(2 + seed % 3, W12, seed)
            report = check_corollary_2_2(pair, -1.0, -1.0, 9.0 / 8.0)
            assert report.overall
            assert abs(report.params["beta"]) < 1e-12

    def test_grid_of_cells(self):
        for p in (-2.0, -0.5):
            for q in (-1.0, -0.25):
                for alpha in (0.5, 2.0):
                    for seed in range(5):
                        pair = gen_dominated_pair(3, W12, seed)
                        assert check_corollary_2_2(pair, p, q, alpha).overall

    def test_degenerate_q_takes_the_endpoint_gap(self):
        pair = gen_dominated_pair(3, W12, seed=6)
        report = check_corollary_2_2(pair, -1.0, 0.0, 2.0)
        assert report.overall
        # with q = 0 the gap constant is max(chord) - alpha = m^p - alpha
        assert report.params["beta"] == W12.m ** -1.0 - 2.0

    def test_parameter_validation(self):
        pair = gen_dominated_pair(3, W12, seed=6)
        with pytest.raises(ParameterError):
            check_corollary_2_2(pair, 0.5, -1.0, 1.0)
        with pytest.raises(ParameterError):
            check_corollary_2_2(pair, -1.0, -1.0, -1.0)
        with pytest.raises(ParameterError):
            check_corollary_2_2(pair, -1.0, 1.0, 1.0)


class TestCorollary23:
    def test_equality_at_window_eigenvalues(self):
        # the interpolant agrees with t^p at t in {m, M}, so a diagonal pair
        # loaded on the endpoints makes the first link an equality
        report = check_corollary_2_3(diag_pair(W12, CERT_DOMINATED), -1.0, -1.0)
        assert report.overall
        assert abs(report.link("B^p <= G_{t^p}(B)").min_slack) < 1e-10
        assert report.link("B^p <= G_{t^p}(B)").tight

    def test_report_completeness(self):
        pair = gen_dominated_pair(3, W12, seed=7)
        report = check_corollary_2_3(pair, -2.0, -1.0)
        labels = [lk.label for lk in report.links]
        assert labels == [
            "B^p <= G_{t^p}(B)",
            "G_{t^p}(B) <= K2 A^q",
            "B^p <= K2 A^q [audit]",
        ]
        assert report.overall == all(lk.holds for lk in report.links)

    def test_cells_pass(self):
        for p, q in ((-1.0, -1.0), (-2.0, -1.0), (-0.5, -0.25)):
            for seed in range(15):
                pair = gen_dominated_pair(2 + seed % 3, W12, seed)
                assert check_corollary_2_3(pair, p, q).overall

    def test_q_zero_ends_the_regime_and_passes(self):
        # at q = 0 K2 = max chord(t^p) = m^p for p < 0, with no fuzz note
        for seed in range(5):
            pair = gen_dominated_pair(3, W12, seed)
            report = check_corollary_2_3(pair, -1.0, 0.0)
            assert report.overall and report.notes == []
            assert report.params["K2"] == W12.m ** -1.0

    def test_fuzz_regime_is_flagged_not_rejected(self):
        pair = gen_dominated_pair(3, W12, seed=8)
        report = check_corollary_2_3(pair, -1.0, -2.0)
        assert any("outside the [-1, 0] regime" in note for note in report.notes)

    def test_scaling_covariance_of_first_link(self):
        # scaling (A, B, m, M) by c > 0 scales the first-link slack by c^p
        p, q, c = -1.0, -0.5, 1.7
        pair = gen_dominated_pair(4, W12, seed=21)
        base = check_corollary_2_3(pair, p, q).link("B^p <= G_").min_slack
        scaled_pair = CertifiedPair(
            A=c * pair.A, B=c * pair.B,
            window=SpectralWindow(c * W12.m, c * W12.M),
            certificate=CERT_DOMINATED, seed=pair.seed)
        scaled = check_corollary_2_3(scaled_pair, p, q).link("B^p <= G_").min_slack
        assert scaled == pytest.approx(c ** p * base, rel=1e-8, abs=1e-14)


class TestCorollary24:
    def test_classic_cell_records_constant(self):
        pair = gen_dominated_pair(3, W12, seed=9)
        report = check_corollary_2_4(pair, -1.0, -1.0)
        assert report.overall
        assert report.params["C2"] == pytest.approx(1.5 - math.sqrt(2.0), abs=1e-12)

    def test_degenerate_exponents_take_the_endpoint_gap(self):
        pair = gen_dominated_pair(3, W12, seed=10)
        report = check_corollary_2_4(pair, 0.0, 0.0)
        assert report.overall
        assert report.params["C2"] == 0.0  # I <= I <= 0*I + I

    @pytest.mark.parametrize("p, q", [(0.5, -1.0), (-1.0, 0.5)], ids=["p", "q"])
    def test_regime_is_enforced_by_the_constant(self, p, q):
        pair = gen_dominated_pair(3, W12, seed=10)
        with pytest.raises(ParameterError, match="gap constant needs"):
            check_corollary_2_4(pair, p, q)

    def test_cells_pass(self):
        for p, q in ((-2.0, -1.0), (-0.5, -0.75)):
            for seed in range(15):
                pair = gen_dominated_pair(2 + seed % 3, W12, seed)
                assert check_corollary_2_4(pair, p, q).overall


class TestLemma31:
    def test_equal_pair_is_tight(self):
        report = check_lemma_3_1_forward(diag_pair(W12, CERT_CHAOTIC), -1.0, -1.0)
        assert report.overall
        assert abs(report.links[0].min_slack) < 1e-10
        assert report.links[0].tight

    def test_chaotic_corpus_passes(self):
        for p, r in ((-1.0, -1.0), (-0.5, -0.25)):
            for seed in range(20):
                pair = gen_chaotic_pair(2 + seed % 3, W12, seed)
                assert check_lemma_3_1_forward(pair, p, r).overall

    def test_degenerate_exponent_sum(self):
        pair = gen_chaotic_pair(3, W12, seed=1)
        with pytest.raises(DegenerateExponentError):
            check_lemma_3_1_forward(pair, -1e-4, -1e-4)

    def test_certificate_required(self):
        pair = gen_dominated_pair(3, W12, seed=1)
        with pytest.raises(HypothesisError):
            check_lemma_3_1_forward(pair, -1.0, -1.0)

    def test_exponent_variant_separation(self):
        # the stated outer exponent r/(p+r) holds; the p/(p+r) variant is
        # refuted already by A = B with p != r, where it asks B^r <= B^p
        pair = diag_pair(W12, CERT_CHAOTIC)
        report = lemma_3_1_exponent_slacks(pair, -1.0, -0.5)
        assert report.params == {"m": W12.m, "M": W12.M, "p": -1.0, "r": -0.5}
        stated, variant = report.links
        assert stated.label == check_lemma_3_1_forward(pair, -1.0, -0.5).links[0].label
        assert variant.label == "B^r <= (B^(r/2) A^p B^(r/2))^(p/(p+r))"
        assert stated.holds
        assert not variant.holds
        for seed in range(10):
            random_pair = gen_chaotic_pair(3, W12, seed)
            assert lemma_3_1_exponent_slacks(random_pair, -1.0, -0.5).links[0].holds


class TestCorollary32And33:
    def test_equal_pair_reduces_to_single_operator_chain(self):
        pair = diag_pair(W12, CERT_CHAOTIC, extra=1)
        assert check_corollary_3_2(pair, -1.0, -0.5).overall
        assert check_corollary_3_3(pair, -1.0, -0.5).overall

    def test_chaotic_corpus_passes(self):
        for p, r in ((-1.0, -0.5), (-0.25, -0.75), (-1.0, -1.0)):
            for seed in range(15):
                pair = gen_chaotic_pair(2 + seed % 3, W12, seed)
                assert check_corollary_3_2(pair, p, r).overall
                assert check_corollary_3_3(pair, p, r).overall

    def test_r_zero_runs_under_chaotic_certificate(self):
        # r = 0 keeps p + r < 0 for p < 0; the middle term degenerates to
        # the plain interpolant and the chain is still expected to hold
        for seed in range(10):
            pair = gen_chaotic_pair(3, W12, seed)
            assert check_corollary_3_2(pair, -1.0, 0.0).overall
            assert check_corollary_3_3(pair, -1.0, 0.0).overall

    def test_constants_recorded(self):
        pair = gen_chaotic_pair(3, W12, seed=2)
        r32 = check_corollary_3_2(pair, -1.0, -1.0)
        assert r32.params["K"] == pytest.approx(kantorovich_K(W12, -2.0), abs=1e-12)
        r33 = check_corollary_3_3(pair, -1.0, -1.0)
        assert r33.params["C"] == pytest.approx(kantorovich_C(W12, -2.0), abs=1e-12)

    def test_unweighted_difference_constant_is_refuted(self):
        # on windows with m > 1 the constant term must carry the B^(-r)
        # weight: a commuting pair loaded near the weighted-gap maximizer
        # violates the unweighted bound while the weighted chain holds
        w23 = SpectralWindow(2.0, 3.0)
        p, r = -0.25, -1.0
        mat = np.diag(np.asarray([2.4538, 2.0], dtype=complex))
        pair = CertifiedPair(A=mat, B=mat, window=w23, certificate=CERT_CHAOTIC, seed=-1)
        report = corollary_3_3_unweighted_slack(pair, p, r)
        assert report.params == {"m": 2.0, "M": 3.0, "p": p, "r": r,
                                 "C": kantorovich_C(w23, p + r)}
        (unweighted,) = report.links
        assert unweighted.label == "B^(-r) G_{t^(p+r)}(B) <= C I + A^p"
        assert not unweighted.holds
        assert unweighted.min_slack < -1e-3
        assert check_corollary_3_3(pair, p, r).overall

    def test_weighted_chain_survives_the_hot_cell(self):
        # the cell that exposes the unweighted variant: window (2,3),
        # p = -0.25, r = -1; the weighted chain is provable and must pass
        w23 = SpectralWindow(2.0, 3.0)
        for seed in range(30):
            pair = gen_chaotic_pair(2 + seed % 4, w23, seed)
            assert check_corollary_3_3(pair, -0.25, -1.0).overall, seed


class TestTheorem41:
    def _alpha(self, p, q):
        return alpha_ratio(power_fun(p), power_fun(q), W12).value

    def test_identity_map_single_summand(self):
        eye = PositiveLinearMap((np.eye(3, dtype=complex),))
        from kantcheck.generators import gen_hermitian_in_window
        op = gen_hermitian_in_window(3, W12, np.random.default_rng(12))
        from kantcheck.posmaps import WeightedFamily
        family = WeightedFamily(items=((1.0, eye, op),), window=W12)
        report = check_theorem_4_1(family, power_fun(-1.0), power_fun(-1.0),
                                   self._alpha(-1.0, -1.0))
        assert report.overall

    def test_scalar_operators_reduce_to_scalar_chain(self):
        from kantcheck.posmaps import WeightedFamily
        c = 1.5
        phi = gen_positive_linear_map(3, 2, 2, 31)
        family = WeightedFamily(
            items=((0.5, phi, c * np.eye(3)), (0.5, phi, c * np.eye(3))), window=W12)
        report = check_theorem_4_1(family, power_fun(-1.0), power_fun(-1.0),
                                   self._alpha(-1.0, -1.0))
        assert report.overall
        first = report.link("sum w_i Phi_i(f(A_i)) <= sum")
        assert first.min_slack == pytest.approx(
            math.exp(((W12.M - c) * math.log(W12.m ** -1)
                      + (c - W12.m) * math.log(W12.M ** -1)) / W12.width) - c ** -1,
            abs=1e-10)

    def test_random_families_pass(self):
        alpha = self._alpha(-1.0, -1.0)
        for seed in range(30):
            family = gen_weighted_family(3, 4, 3, W12, seed)
            report = check_theorem_4_1(family, power_fun(-1.0), power_fun(-1.0), alpha)
            assert report.overall

    def test_undefined_endpoint_raises_domain_error(self):
        # a family's window may start at 0, where t^-1 is undefined
        family = gen_weighted_family(3, 3, 2, SpectralWindow(0.0, 2.0), 1)
        for beta in (None, 0.0):
            with pytest.raises(DomainError, match="undefined at t=0.0"):
                check_theorem_4_1(family, power_fun(-1.0), power_fun(-0.5), 1.0, beta=beta)


class TestTheorem42:
    def test_identity_base_reduces_to_window_chain(self):
        b = np.diag([1.0, 1.5, 2.0]).astype(complex)
        pair = CertifiedPair(A=np.eye(3, dtype=complex), B=b, window=W12,
                             certificate=CERT_RELATIVE, seed=-1)
        phi = gen_positive_linear_map(3, 2, 2, 41)
        report = check_theorem_4_2(pair, phi, power_fun(-1.0), kantorovich_K(W12, -1.0))
        assert report.overall

    def test_random_instances_pass(self):
        alpha = kantorovich_K(W12, -1.0)
        for seed in range(30):
            dim = 2 + seed % 3
            pair = gen_relative_pair(dim, W12, seed)
            phi = gen_positive_linear_map(dim, max(1, dim - 1), 1 + seed % 3, seed + 100)
            report = check_theorem_4_2(pair, phi, power_fun(-1.0), alpha)
            assert report.overall, seed

    def test_certificate_required(self):
        pair = gen_dominated_pair(3, W12, seed=5)
        phi = gen_positive_linear_map(3, 2, 1, 6)
        with pytest.raises(HypothesisError):
            check_theorem_4_2(pair, phi, power_fun(-1.0), 1.0)


class TestCorollary43And44:
    def test_ratio_mode_matches_beta_form_at_tight_alpha(self):
        # with alpha = K(m,M,p) the closed-form gap vanishes, so the final
        # bounds of the beta form and the ratio reverse coincide
        p = -1.0
        alpha = kantorovich_K(W12, p)
        for seed in range(10):
            dim = 2 + seed % 3
            pair = gen_relative_pair(dim, W12, seed)
            phi = gen_positive_linear_map(dim, max(1, dim - 1), 1 + seed % 3, seed + 7)
            beta_form = check_corollary_4_3(pair, phi, p, alpha)
            ratio_form = check_corollary_4_4(pair, phi, p, "ratio")
            assert beta_form.overall and ratio_form.overall
            assert abs(beta_form.params["beta"]) < 1e-12
            lhs = beta_form.link("<= beta Phi(A) + alpha").min_slack
            rhs = ratio_form.link("<= K Phi(A) #_p").min_slack
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_equal_operands_collapse(self):
        a = np.diag([1.0, 1.2, 0.9]).astype(complex)
        pair = CertifiedPair(A=a, B=a, window=SpectralWindow(0.5, 2.0),
                             certificate=CERT_RELATIVE, seed=-1)
        phi = gen_positive_linear_map(3, 2, 2, 8)
        for mode in ("ratio", "difference"):
            report = check_corollary_4_4(pair, phi, -1.0, mode)
            assert report.overall

    def test_baseline_link_included_in_regime(self):
        pair = gen_relative_pair(3, W12, seed=2)
        phi = gen_positive_linear_map(3, 2, 1, 3)
        in_regime = check_corollary_4_4(pair, phi, -0.5, "ratio")
        assert any("baseline" in lk.label for lk in in_regime.links)
        outside = check_corollary_4_4(pair, phi, -2.0, "ratio")
        assert not any("baseline" in lk.label for lk in outside.links)
        assert outside.overall

    def test_both_modes_pass(self):
        for mode in ("ratio", "difference"):
            for seed in range(20):
                dim = 2 + seed % 3
                pair = gen_relative_pair(dim, W12, seed)
                phi = gen_positive_linear_map(dim, max(1, dim - 1), 1 + seed % 2, seed + 9)
                assert check_corollary_4_4(pair, phi, -1.0, mode).overall

    @pytest.mark.parametrize("p, alpha", [(0.5, 1.0), (-1.0, 0.0), (-1.0, -1.0)],
                             ids=["p", "alpha_zero", "alpha_negative"])
    def test_corollary_4_3_regime_is_enforced_by_the_constant(self, p, alpha):
        pair = gen_relative_pair(3, W12, seed=2)
        phi = gen_positive_linear_map(3, 2, 1, 3)
        with pytest.raises(ParameterError, match="gap constant needs"):
            check_corollary_4_3(pair, phi, p, alpha)


class TestTheorem45:
    def test_parameter_range(self):
        pair = gen_relative_pair(3, W12, seed=1)
        phi = gen_positive_linear_map(3, 2, 1, 2)
        for p in (-1.5, 0.0, 0.5):
            with pytest.raises(ParameterError):
                check_theorem_4_5(pair, phi, p)

    def test_instances_pass_with_baseline_bracket(self):
        for seed in range(20):
            dim = 2 + seed % 3
            pair = gen_relative_pair(dim, W12, seed)
            phi = gen_positive_linear_map(dim, max(1, dim - 1), 1 + seed % 3, seed + 11)
            for p in (-1.0, -0.5):
                report = check_theorem_4_5(pair, phi, p)
                assert report.overall, (seed, p)
                assert any("baseline" in lk.label for lk in report.links)

    def test_baseline_is_the_public_entropy(self):
        """The baseline link tests Phi(T_p(A|B)) <= T_p(Phi(A)|Phi(B)) with
        exactly the operators ``tsallis_entropy`` and ``apply_map`` give."""
        for w, dim, seed in CHAIN_GRID:
            (pair,) = gen_relative_pairs(dim, [w], [seed])
            phi = gen_positive_linear_map(dim, max(1, dim - 1), 1 + seed % 3, seed + 11)
            p = (-1.0, -0.5, -0.25)[seed % 3]
            phi_a, phi_b = apply_map(phi, np.stack([pair.A, pair.B]))
            (expected,) = loewner_verdicts([(apply_map(phi, tsallis_entropy(pair.A, pair.B, p)),
                                             tsallis_entropy(phi_a, phi_b, p))])
            report = check_theorem_4_5(pair, phi, p)
            assert report.link("[baseline]").min_slack == expected.min_slack, (w, dim, seed)

    def test_equal_operands_reduce_to_constant_signs(self):
        a = np.diag([1.0, 1.1]).astype(complex)
        pair = CertifiedPair(A=a, B=a, window=SpectralWindow(0.5, 2.0),
                             certificate=CERT_RELATIVE, seed=-1)
        phi = gen_positive_linear_map(2, 2, 1, 14)
        report = check_theorem_4_5(pair, phi, -1.0)
        assert report.overall


def _slacks(links):
    return [lk.min_slack for lk in links]


class TestCorollariesAreTheirTheorems:
    """Corollaries 2.2-2.4 are theorem 2.1, and corollaries 4.3-4.4 are
    theorem 4.2, at f = t^p and fixed constants: every chain link has the
    same slack, bit for bit."""

    def test_dominated_corollaries(self):
        for w, dim, seed in CHAIN_GRID:
            (pair,) = gen_dominated_pairs(dim, [w], [seed])
            p, q = (-1.0, -0.5, -2.0)[seed % 3], (-0.5, -1.0)[seed % 2]
            f, g = power_fun(p), power_fun(q)
            cor22 = check_corollary_2_2(pair, p, q, (0.5, 1.0, 2.0)[dim % 3])
            cor23 = check_corollary_2_3(pair, p, q)
            cor24 = check_corollary_2_4(pair, p, q)
            for cor, alpha, beta in (
                    (cor22, cor22.params["alpha"], cor22.params["beta"]),
                    (cor23, cor23.params["K2"], 0.0),
                    (cor24, 1.0, cor24.params["C2"])):
                theorem = check_theorem_2_1(pair, f, g, alpha, beta=beta)
                assert _slacks(cor.links) == _slacks(theorem.links), (cor.theorem_id, w, dim, seed)

    def test_relative_corollaries(self):
        for w, dim, seed in CHAIN_GRID:
            (pair,) = gen_relative_pairs(dim, [w], [seed])
            phi = gen_positive_linear_map(dim, max(1, dim - 1), 1 + seed % 3, seed + 7)
            p = (-1.0, -0.5, -2.0)[seed % 3]
            cor43 = check_corollary_4_3(pair, phi, p, (0.5, 1.0, 2.0)[dim % 3])
            ratio = check_corollary_4_4(pair, phi, p, "ratio")
            difference = check_corollary_4_4(pair, phi, p, "difference")
            for cor, alpha, beta in (
                    (cor43, cor43.params["alpha"], cor43.params["beta"]),
                    (ratio, ratio.params["K"], 0.0),
                    (difference, 1.0, difference.params["C"])):
                theorem = check_theorem_4_2(pair, phi, power_fun(p), alpha, beta=beta)
                # corollary 4.4 tests its baseline first, then the chain
                assert _slacks(cor.links[-3:]) == _slacks(theorem.links), (
                    cor.theorem_id, cor.params.get("mode"), w, dim, seed)


class TestMapOnce:
    """Each Phi check maps all of an item's or a pair's operators in one call."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = verifiers._apply_map

        def counting(phi, x):
            calls.append(np.shape(x))
            return real(phi, x)

        monkeypatch.setattr(verifiers, "_apply_map", counting)
        return calls

    def test_theorem_4_1_maps_each_item_once(self, monkeypatch):
        family = gen_weighted_family(3, 4, 3, W12, 5)
        calls = self._counted(monkeypatch)
        alpha = alpha_ratio(power_fun(-1.0), power_fun(-1.0), W12).value
        assert check_theorem_4_1(family, power_fun(-1.0), power_fun(-1.0), alpha).overall
        assert calls == [(3, 4, 4)] * 3

    @pytest.mark.parametrize("check", [
        lambda pair, phi: check_theorem_4_2(pair, phi, power_fun(-1.0), kantorovich_K(W12, -1.0)),
        lambda pair, phi: check_corollary_4_3(pair, phi, -1.0, kantorovich_K(W12, -1.0)),
        lambda pair, phi: check_corollary_4_4(pair, phi, -1.0, "ratio"),
        lambda pair, phi: check_corollary_4_4(pair, phi, -1.0, "difference"),
        lambda pair, phi: check_theorem_4_5(pair, phi, -0.5),
    ], ids=["theorem_4_2", "corollary_4_3", "corollary_4_4_ratio",
            "corollary_4_4_difference", "theorem_4_5"])
    def test_relative_checks_map_once(self, monkeypatch, check):
        pair = gen_relative_pair(3, W12, seed=4)
        phi = gen_positive_linear_map(3, 2, 2, 6)
        calls = self._counted(monkeypatch)
        assert check(pair, phi).overall
        assert calls == [(4, 3, 3)]


RELATIVE_CHECKS = [
    pytest.param(lambda pair, phi: check_theorem_4_2(pair, phi, power_fun(-1.0), 1.0),
                 id="theorem_4_2"),
    pytest.param(lambda pair, phi: check_corollary_4_3(pair, phi, -1.0, 1.0), id="corollary_4_3"),
    pytest.param(lambda pair, phi: check_corollary_4_4(pair, phi, -1.0, "ratio"),
                 id="corollary_4_4_ratio"),
    pytest.param(lambda pair, phi: check_corollary_4_4(pair, phi, -1.0, "difference"),
                 id="corollary_4_4_difference"),
    pytest.param(lambda pair, phi: check_theorem_4_5(pair, phi, -0.5), id="theorem_4_5"),
]


# a generated pair of each other certificate, and a check that reads its B
OTHER_CHECKS = [
    pytest.param(lambda: gen_dominated_pair(3, W12, seed=4),
                 lambda pair: check_corollary_2_3(pair, -1.0, -0.5), id="corollary_2_3"),
    pytest.param(lambda: gen_dominated_pair(3, W12, seed=4, window_side=WINDOW_ON_A),
                 lambda pair: check_theorem_1_1(pair, 2.0), id="theorem_1_1"),
    pytest.param(lambda: gen_chaotic_pair(3, W12, seed=4),
                 lambda pair: check_corollary_3_2(pair, -1.0, -0.5), id="corollary_3_2"),
]


def count_validations(monkeypatch) -> list:
    """The arguments of every call of the validator ``hermitian``, wrapped in
    every ``kantcheck`` namespace that holds it."""
    real = hermitian.hermitian
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    wrapped = {name for name, module in list(sys.modules.items())
               if name.startswith("kantcheck") and getattr(module, "hermitian", None) is real}
    assert "kantcheck.hermitian" in wrapped
    for name in wrapped:
        monkeypatch.setattr(sys.modules[name], "hermitian", counted)
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestInputValidation:
    """A hand-built pair or family is validated where a check first reads it:
    a skewed operand raises HermiticityError and a NaN entry ValueError,
    never a verdict."""

    @staticmethod
    def _hand_built_with_b(make, edit):
        """The pair ``make()`` generates, built again by hand with its B edited."""
        pair = make()
        b = pair.B.copy()
        edit(b)
        return CertifiedPair(A=pair.A, B=b, window=pair.window, certificate=pair.certificate,
                             seed=pair.seed, window_side=pair.window_side)

    @classmethod
    def _relative_pair_with_b(cls, edit):
        return cls._hand_built_with_b(lambda: gen_relative_pair(3, W12, seed=4), edit)

    @staticmethod
    def _skew(b):
        # an anti-Hermitian part, so T = A^(-1/2) B A^(-1/2) stays in the window once hermitized
        b[0, 1] += 1e-3
        b[1, 0] -= 1e-3

    @pytest.mark.parametrize("check", RELATIVE_CHECKS)
    def test_relative_check_rejects_a_skewed_b(self, check):
        pair = self._relative_pair_with_b(self._skew)
        with pytest.raises(HermiticityError):
            check(pair, gen_positive_linear_map(3, 2, 2, 6))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("check", RELATIVE_CHECKS)
    def test_relative_check_rejects_a_nan_in_b(self, check, entry):
        pair = self._relative_pair_with_b(lambda b: b.__setitem__(entry, math.nan))
        with pytest.raises(ValueError, match="NaN or infinite"):
            check(pair, gen_positive_linear_map(3, 2, 2, 6))

    @pytest.mark.parametrize("edit, error, message", [
        (_skew.__func__, HermiticityError, "deviates from Hermitian"),
        (lambda b: b.__setitem__((1, 1), math.nan), ValueError, "NaN or infinite"),
    ], ids=["skewed", "nan"])
    @pytest.mark.parametrize("make, check", OTHER_CHECKS)
    def test_other_checks_reject_a_bad_b(self, make, check, edit, error, message):
        pair = self._hand_built_with_b(make, edit)
        with pytest.raises(error, match=message):
            check(pair)

    @pytest.mark.parametrize("make, checks", [
        pytest.param(lambda: gen_relative_pair(3, W12, seed=4),
                     (lambda pair, phi: check_theorem_4_2(pair, phi, power_fun(-1.0), 1.0),
                      lambda pair, phi: check_corollary_4_4(pair, phi, -1.0, "ratio")),
                     id="relative"),
        pytest.param(lambda: gen_dominated_pair(3, W12, seed=4),
                     (lambda pair, phi: check_corollary_2_3(pair, -1.0, -0.5),
                      lambda pair, phi: check_corollary_2_4(pair, -1.0, -0.5)),
                     id="dominated"),
    ])
    def test_hand_built_pair_is_validated_once(self, monkeypatch, make, checks):
        """A and B, in one call, however many checks read them."""
        pair = self._hand_built_with_b(make, lambda b: None)
        phi = gen_positive_linear_map(3, 2, 2, 6)
        calls = count_validations(monkeypatch)
        for check in checks:
            assert check(pair, phi).overall
        assert len(calls) == 1

    def test_pair_read_from_json_is_validated_once(self, monkeypatch):
        """A and B, as one stack, when the pair is read; not again when checked."""
        record = pair_to_json(gen_dominated_pair(3, W12, 4))
        calls = count_validations(monkeypatch)
        pair = pair_from_json(record)
        assert check_corollary_2_3(pair, -1.0, -0.5).overall
        assert len(calls) == 1 and calls[0][1:] == ("pair (A, B)",)
        assert pair.A.base is pair.operands and pair.B.base is pair.operands

    def test_pair_read_from_json_needs_one_shape(self):
        record = pair_to_json(gen_dominated_pair(3, W12, 4))
        record["B"] = pair_to_json(gen_dominated_pair(2, W12, 4))["B"]
        with pytest.raises(ValueError):
            pair_from_json(record)

    @pytest.mark.parametrize("edit, error", [
        (_skew.__func__, HermiticityError),
        (lambda op: op.__setitem__((1, 1), math.nan), ValueError),
    ], ids=["skewed", "nan"])
    def test_theorem_4_1_rejects_a_bad_operator(self, edit, error):
        family = gen_weighted_family(3, 3, 2, W12, 5)
        items = list(family.items)
        weight, phi, op = items[1]
        op = op.copy()
        edit(op)
        items[1] = (weight, phi, op)
        bad = WeightedFamily(items=tuple(items), window=W12, seed=5)
        with pytest.raises(error):
            check_theorem_4_1(bad, power_fun(-1.0), power_fun(-1.0), 1.0)


class TestDecomposeOnce:
    def test_corollary_2_3_runs_no_eigh(self, monkeypatch):
        pair = gen_dominated_pair(4, W12, seed=5)
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        assert check_corollary_2_3(pair, -1.0, -0.5).overall
        assert calls == []

    def test_exponent_slacks_decompose_the_two_sided_product_once(self, monkeypatch):
        pair = gen_chaotic_pair(4, W12, seed=5)
        pair.spec_A, pair.spec_B
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        stated, _ = lemma_3_1_exponent_slacks(pair, -1.0, -0.5).links
        assert stated.holds
        assert len(calls) == 1

    @staticmethod
    def _cells(suite_name):
        """The suite, window and check keyword arguments of each cell of a
        one-window grid (corollary_4_4 has one cell per mode)."""
        cfg = CampaignConfig(suites=[suite_name], dims=[3], windows=[(1.0, 2.0)],
                             p_grid=[-1.0], q_grid=[-0.5], r_grid=[-0.5], alpha_grid=[1.0],
                             p_grid_theorem_1_1=[2.0])
        suite = SUITES[suite_name]
        cells = []
        for cell in enumerate_cells(cfg):
            params = dict(cell.params)
            w = SpectralWindow(*params.pop("window"))
            args = (params if suite.cell_args is None
                    else suite.cell_args(OracleScans(), w, **params))
            cells.append((suite, w, args))
        return cells

    @classmethod
    def _cell(cls, suite_name):
        """The suite, window and check keyword arguments of the grid's first cell."""
        return cls._cells(suite_name)[0]

    @pytest.mark.parametrize("suite_name", ALL_SUITES)
    def test_check_tests_every_link_in_one_eigvalsh(self, monkeypatch, suite_name):
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        stacks = []  # (mode, stack size of each eigvalsh call, link count) per check
        for suite, w, args in self._cells(suite_name):
            for seed in (11, 12):
                (instance,) = suite.generate(3, [w], [seed])
                calls.clear()
                report = getattr(verifiers, suite.check)(*instance, **args)
                assert report.overall
                stacks.append((args.get("mode"), [len(a) for a in calls], len(report.links)))
        assert all(sizes == [links] for _, sizes, links in stacks), stacks

    @pytest.mark.parametrize("suite_name", ALL_SUITES)
    def test_check_never_redecomposes_an_operand(self, monkeypatch, suite_name):
        suite, w, args = self._cell(suite_name)
        (instance,) = suite.generate(3, [w], [11])
        owner = instance[0]
        # touch the cached spectra so that they exist before the check runs
        if isinstance(owner, CertifiedPair):
            operands = [owner.A, owner.B]
            owner.spec_A, owner.spec_B
        else:
            operands = [op for _, _, op in owner.items]
            owner.spectra
        real = hermitian._eigh

        def guarded(a):
            assert isinstance(a, np.ndarray)
            assert not any(np.array_equal(a, op) for op in operands)
            return real(a)

        for module in (hermitian, generators, posmaps, verifiers):
            monkeypatch.setattr(module, "_eigh", guarded)
        assert getattr(verifiers, suite.check)(*instance, **args).overall

    @pytest.mark.parametrize("suite_name", ALL_SUITES)
    def test_sample_validates_nothing(self, monkeypatch, suite_name):
        """Generating an instance and checking it never calls the validator:
        a generated pair comes with its operands and spectra, a family with
        its spectra."""
        calls = count_validations(monkeypatch)
        for suite, w, args in self._cells(suite_name):
            (instance,) = suite.generate(3, [w], [11])
            assert getattr(verifiers, suite.check)(*instance, **args).overall
        assert calls == []

    @pytest.mark.parametrize("suite_name", ALL_SUITES)
    def test_sample_decomposes_no_array_twice(self, monkeypatch, suite_name):
        """Generating an instance and checking it hands np.linalg.eigh each
        array (shape and bytes) once: the generator's window test included."""
        suite, w, args = self._cell(suite_name)
        eigh = np.linalg.eigh
        seen = []

        def hashed(a):
            arr = np.asarray(a)
            key = (arr.shape, arr.dtype.str, arr.tobytes())
            assert key not in seen, f"eigh repeated on a {arr.shape} array"
            seen.append(key)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", hashed)
        for seed in (11, 12, 13):
            seen.clear()
            (instance,) = suite.generate(3, [w], [seed])
            assert getattr(verifiers, suite.check)(*instance, **args).overall
        assert seen


class TestLinksFromSlacks:
    """``_links`` builds each Link from ``hermitian._slacks`` without a
    LoewnerVerdict; every field is bit for bit what ``loewner_verdicts`` and
    ``loewner_leq`` give for its test."""

    @staticmethod
    def _tests(rng, k, n):
        """k random (label, lhs, rhs) tests of n x n Hermitian matrices: one
        holds with room, one is tight (rhs = lhs), one fails, the rest random."""
        def herm():
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return hermitian.hermitize(x)

        tests = []
        for i in range(k):
            lhs, x = herm(), herm()
            gap = hermitian.hermitize(x @ x.conj().T) + 0.1 * np.eye(n)
            rhs = [lhs + gap, lhs.copy(), lhs - gap][i] if i < 3 else herm()
            tests.append((f"link {i}", lhs, rhs))
        return tests

    @pytest.mark.parametrize("k, n", [(3, 1), (3, 2), (4, 3), (6, 5), (9, 6), (5, 16)])
    def test_links_equal_the_verdicts(self, k, n):
        rng = np.random.default_rng(100 * k + n)
        for rel_tol in (1e-8, 1e-3):
            tests = self._tests(rng, k, n)
            links = verifiers._links(rel_tol, *tests)
            pairs = [(lhs, rhs) for _, lhs, rhs in tests]
            slacks, tols = hermitian._slacks(pairs, rel_tol)
            verdicts = loewner_verdicts(pairs, rel_tol)
            assert [lk.label for lk in links] == [label for label, _, _ in tests]
            for link, slack, tol, verdict, (lhs, rhs) in zip(links, slacks, tols, verdicts, pairs):
                alone = hermitian.loewner_leq(lhs, rhs, rel_tol)
                assert type(link.min_slack) is float and type(link.tolerance) is float
                for got in (link.min_slack, slack, verdict.min_slack):
                    assert np.float64(got).tobytes() == np.float64(alone.min_slack).tobytes()
                for got in (link.tolerance, tol, verdict.tolerance_used):
                    assert np.float64(got).tobytes() == np.float64(alone.tolerance_used).tobytes()
                assert link.holds is verdict.holds is alone.holds
                assert link.tight is (abs(alone.min_slack) < alone.tolerance_used)
            assert links[0].holds and not links[0].tight
            assert links[1].holds and links[1].tight and links[1].min_slack == 0.0
            assert not links[2].holds and not links[2].tight

    def test_links_build_no_verdict(self, monkeypatch, tmp_path):
        """A check, both diagnostics and every hunt mode test their links
        through ``_links``: none builds a LoewnerVerdict."""
        def no_verdict(**fields):
            raise AssertionError("a LoewnerVerdict was built")

        monkeypatch.setattr(hermitian, "LoewnerVerdict", no_verdict)
        with pytest.raises(AssertionError):
            hermitian.loewner_leq(np.eye(2), np.eye(2))
        pair = gen_dominated_pair(3, W12, seed=3)
        assert check_corollary_2_3(pair, -1.0, -0.5).overall
        chaotic = gen_chaotic_pair(3, W12, seed=3)
        assert lemma_3_1_exponent_slacks(chaotic, -1.0, -0.5).links[0].holds
        assert corollary_3_3_unweighted_slack(chaotic, -0.25, -1.0).overall
        report = hunt_sharpness(CampaignConfig(dims=[2], fuzz_samples=1), tmp_path)
        assert len(report["modes"]) == 7


class TestReportMachinery:
    def test_catalog_covers_all_checks(self):
        assert set(CHAIN_CATALOG) == {
            "theorem_1_1", "theorem_2_1", "corollary_2_2", "corollary_2_3",
            "corollary_2_4", "lemma_3_1", "corollary_3_2", "corollary_3_3",
            "theorem_4_1", "theorem_4_2", "corollary_4_3", "corollary_4_4",
            "theorem_4_5",
        }
        assert list(SUITES) == ALL_SUITES
        assert set(SUITES) == set(CHAIN_CATALOG)
        for suite in SUITES.values():
            assert callable(getattr(verifiers, suite.check))

    def test_transitivity_audit_present_and_passing(self):
        for seed in range(10):
            pair = gen_dominated_pair(3, W12, seed)
            report = check_corollary_2_3(pair, -1.0, -0.5)
            audit = report.link("[audit]")
            assert audit.holds
            assert report.overall

    def test_json_round_trip_shape(self):
        pair = gen_dominated_pair(3, W12, seed=3)
        record = check_corollary_2_3(pair, -1.0, -0.5).to_json_dict()
        assert set(record) == {"theorem_id", "dim", "seed", "params", "links",
                               "overall", "notes"}
        assert all(set(lk) == {"label", "min_slack", "tolerance", "holds", "tight"}
                   for lk in record["links"])
