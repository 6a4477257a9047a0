import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kantcheck import generators, posmaps
from kantcheck.campaign import MAP_SEED_OFFSET, SUITES
from kantcheck.errors import GenerationError, HypothesisError
from kantcheck.generators import (
    CERT_CHAOTIC,
    CERT_DOMINATED,
    CERT_RELATIVE,
    WINDOW_ON_A,
    CertifiedPair,
    gen_chaotic_pair,
    gen_chaotic_pairs,
    gen_dominated_pair,
    gen_dominated_pairs,
    gen_hermitian_in_window,
    gen_positive_linear_map,
    gen_positive_linear_maps,
    gen_relative_pair,
    gen_relative_pairs,
    gen_weighted_families,
    gen_weighted_family,
    pair_from_json,
    pair_to_json,
    read_corpus,
    write_corpus,
    _certified_pairs,
)
from kantcheck.hermitian import (
    SpectralWindow,
    eig_hermitian,
    loewner_leq,
    matrix_log,
    spectrum_in_window,
)
from kantcheck.posmaps import PositiveLinearMap, WeightedFamily, apply_map

W12 = SpectralWindow(1.0, 2.0)
DATA_DIR = Path(__file__).parent / "data"
WIDE_WINDOWS = [(1.0, 2.0), (0.5, 4.0), (0.05, 20.0), (0.01, 1.0), (10.0, 1000.0)]


def window_id(window):
    return f"{window[0]:g}-{window[1]:g}"


def reject_first_window_tests(monkeypatch, chosen):
    """Make the first window test of every ``_place_in_window`` call fail the
    members that ``chosen`` marks (it maps the stacked eigenvalues to one
    bool per member), so they are placed again; later window tests, retries
    and certificates alike, are the real ones.  Returns the list of masks
    applied, one per placement."""
    place, test = generators._place_in_window, generators.spectrum_in_window
    masks = []
    first = False

    def placing(*args):
        nonlocal first
        first = True
        return place(*args)

    def testing(dec, window, tol):
        nonlocal first
        verdicts = test(dec, window, tol)
        if first:
            first = False
            masks.append(chosen(dec.eigenvalues))
            verdicts = verdicts & ~masks[-1]
        return verdicts

    monkeypatch.setattr(generators, "_place_in_window", placing)
    monkeypatch.setattr(generators, "spectrum_in_window", testing)
    return masks

# frozen witness: at dim 3 on [1, 2] this seed yields log A <= log B while
# A <= B fails, separating the chaotic order from domination
CHAOTIC_WITNESS_SEED = 12


class TestWindowGenerator:
    def test_scalar_case(self):
        a = gen_hermitian_in_window(1, W12, np.random.default_rng(3))
        assert a.shape == (1, 1)
        assert W12.m <= float(a[0, 0].real) <= W12.M

    def test_window_holds_with_zero_tolerance(self):
        rng = np.random.default_rng(123)
        for dim in (1, 2, 4, 6, 16):
            for _ in range(10):
                a = gen_hermitian_in_window(dim, W12, rng)
                assert spectrum_in_window(a, W12, 0.0)

    def test_reproducible_bitwise(self):
        a = gen_hermitian_in_window(3, W12, 42)
        b = gen_hermitian_in_window(3, W12, 42)
        assert np.array_equal(a, b)
        assert spectrum_in_window(a, W12, 0.0)

    def test_endpoints_are_hit(self):
        rng = np.random.default_rng(0)
        hit_m = hit_upper = 0
        for _ in range(100):
            vals = eig_hermitian(gen_hermitian_in_window(4, W12, rng)).eigenvalues
            hit_m += int(np.min(np.abs(vals - W12.m)) < 1e-10)
            hit_upper += int(np.min(np.abs(vals - W12.M)) < 1e-10)
        # each eigenvalue is aimed at an endpoint with probability 0.2, and
        # lands a few ulps inside it
        assert hit_m > 30 and hit_upper > 30

    @pytest.mark.parametrize("window", WIDE_WINDOWS, ids=window_id)
    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_endpoint_targets_land_next_to_the_endpoints(self, dim, window):
        """The eigenvalues aimed at m or M are nudged inside the window, but
        stay within 1e-12 of the window's scale from their endpoint."""
        w = SpectralWindow(*window)
        tol = 1e-12 * max(abs(w.m), abs(w.M), 1.0)
        aimed = 0
        for seed in range(8 if dim < 64 else 3):
            uniforms, _ = generators._window_draws(dim, np.random.default_rng(seed))
            (target,) = generators._window_targets(uniforms[None], generators._Windows.of([w]))
            at_m, at_upper = int(np.sum(target == w.m)), int(np.sum(target == w.M))
            vals = eig_hermitian(gen_hermitian_in_window(dim, w, seed)).eigenvalues
            assert np.all(np.abs(vals[:at_m] - w.m) <= tol), seed
            assert np.all(np.abs(vals[dim - at_upper:] - w.M) <= tol), seed
            aimed += at_m + at_upper
        assert aimed > 0


class TestDominatedPairs:
    def test_certificate_holds(self):
        pair = gen_dominated_pair(4, W12, seed=7)
        assert loewner_leq(pair.A, pair.B).holds
        assert spectrum_in_window(pair.B, W12, 0.0)
        assert eig_hermitian(pair.A).eigenvalues[0] > 0.0

    def test_zero_perturbation_gives_equal_pair(self):
        pair = gen_dominated_pair(3, W12, seed=5, rho=0.0)
        assert np.array_equal(pair.A, pair.B)

    def test_scalar_pair(self):
        pair = gen_dominated_pair(1, W12, seed=11)
        a, b = float(pair.A[0, 0].real), float(pair.B[0, 0].real)
        assert 0.0 < a <= b <= W12.M

    def test_window_on_a_side(self):
        pair = gen_dominated_pair(4, W12, seed=9, window_side=WINDOW_ON_A)
        assert pair.window_side == WINDOW_ON_A
        assert spectrum_in_window(pair.A, W12, 0.0)
        assert loewner_leq(pair.A, pair.B).holds

    def test_slack_coverage_both_regimes(self):
        # over 1000 seeded pairs at dim 4 the perturbation slack must reach
        # both the near-tight (< 1e-3) and the wide (> 0.3 (M-m)) regime
        slacks = np.array([
            loewner_leq((p := gen_dominated_pair(4, W12, seed)).A, p.B).min_slack
            for seed in range(1000)
        ])
        assert int(np.sum(slacks < 1e-3)) >= 1
        assert int(np.sum(slacks > 0.3 * W12.width)) >= 1

    def test_certificate_failure_lists_every_fact(self):
        # seed 3's pair passes; seed 4's has order and window but a negative A
        a = np.array([np.diag([1.0, 1.2]), np.diag([-0.5, 1.0])]).astype(complex)
        b = np.array([np.diag([1.5, 1.8]), np.diag([1.5, 1.2])]).astype(complex)
        spec_b = eig_hermitian(b)
        facts = {"order": np.array([loewner_leq(x, y).holds for x, y in zip(a, b)]),
                 "window": spectrum_in_window(spec_b, W12, 0.0)}
        with pytest.raises(GenerationError) as info:
            _certified_pairs(a, b, [W12, W12], CERT_DOMINATED, [3, 4], facts,
                             spec_A=eig_hermitian(a), spec_B=spec_b)
        assert str(info.value) == ("dominated certificate failed for seed 4: "
                                   "order=True window=True positive=False")

    def test_determinism_in_exchange_format(self):
        one = json.dumps(pair_to_json(gen_dominated_pair(4, W12, seed=2024)))
        two = json.dumps(pair_to_json(gen_dominated_pair(4, W12, seed=2024)))
        assert one == two


class TestChaoticPairs:
    def test_certificate_holds(self):
        for seed in (0, 1, 2, 3):
            pair = gen_chaotic_pair(3, W12, seed)
            assert loewner_leq(matrix_log(pair.A), matrix_log(pair.B)).holds
            assert spectrum_in_window(pair.B, W12, 1e-10)
            assert eig_hermitian(pair.A).eigenvalues[0] > 0.0

    def test_zero_perturbation_gives_equal_pair(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_LOG_PERTURBATION", 0.0)
        pair = gen_chaotic_pair(3, W12, seed=4)
        assert np.max(np.abs(pair.A - pair.B)) < 1e-14

    def test_log_windows_are_taken_with_math_log(self, monkeypatch):
        """K is placed in [log m, log M] as ``math.log`` takes them, as a lone
        pair always did; numpy's log of 1.05 and 18.038 is one ulp off."""
        logs = [math.log(t) for t in (1.0, 2.0, 1.05, 18.038)]
        assert np.log(np.array([1.05, 18.038])).tolist() != logs[2:]
        real, placed = generators._place_in_window, []
        monkeypatch.setattr(generators, "_place_in_window",
                            lambda draws, windows: placed.append(windows) or real(draws, windows))
        gen_chaotic_pairs(3, [W12, SpectralWindow(1.05, 18.038)], [1, 2])
        (windows,) = placed
        assert windows.m.tolist() == logs[0::2] and windows.M.tolist() == logs[1::2]

    def test_chaotic_order_is_weaker_than_domination(self):
        pair = gen_chaotic_pair(3, W12, CHAOTIC_WITNESS_SEED)
        assert loewner_leq(matrix_log(pair.A), matrix_log(pair.B)).holds
        assert not loewner_leq(pair.A, pair.B).holds

    def test_witness_corpus_reproduces(self):
        """The corpus holds ``gen_chaotic_pair``'s pairs of seeds 12, 20 and
        32 at dim 3 on [1, 2], written with endpoint targets nudged inside
        the window; each is rebuilt bit for bit and fails A <= B."""
        recorded = read_corpus(DATA_DIR / "chaotic_witnesses.jsonl")
        assert recorded
        for pair in recorded:
            regenerated = gen_chaotic_pair(pair.dim, pair.window, pair.seed)
            assert np.array_equal(regenerated.A, pair.A)
            assert np.array_equal(regenerated.B, pair.B)
            assert not loewner_leq(pair.A, pair.B).holds


class TestRelativePairs:
    def test_certificate_holds(self):
        pair = gen_relative_pair(4, W12, seed=3)
        assert loewner_leq(W12.m * pair.A, pair.B).holds
        assert loewner_leq(pair.B, W12.M * pair.A).holds
        assert eig_hermitian(pair.A).eigenvalues[0] > 0.0

    def test_reproducible(self):
        one = gen_relative_pair(3, W12, seed=8)
        two = gen_relative_pair(3, W12, seed=8)
        assert np.array_equal(one.A, two.A) and np.array_equal(one.B, two.B)


class TestKrausMaps:
    def test_normalization(self):
        phi = gen_positive_linear_map(4, 3, 2, 5)
        assert phi.normalization_defect() < 1e-10
        assert np.max(np.abs(apply_map(phi, np.eye(4)) - np.eye(3))) < 1e-10

    def test_conditioning_test_reuses_the_decomposition(self, monkeypatch):
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        calls = {"eigh": 0, "eigvalsh": 0}

        def counted(name, fn):
            return lambda a: calls.__setitem__(name, calls[name] + 1) or fn(a)

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
        gen_positive_linear_map(3, 2, 2, 7)
        assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_single_square_factor_is_unitary(self):
        phi = gen_positive_linear_map(3, 3, 1, 5)
        w = phi.kraus[0]
        assert np.max(np.abs(w.conj().T @ w - np.eye(3))) < 1e-10
        assert np.max(np.abs(w @ w.conj().T - np.eye(3))) < 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_positive_linear_map(2, 2, 0, 1)
        with pytest.raises(ValueError):
            gen_positive_linear_map(2, 5, 2, 1)

    def test_singular_normalization_raises_without_redraw(self, monkeypatch):
        draws = []

        def zeros(rng, rows, cols):
            draws.append((rows, cols))
            return np.zeros((rows, cols), dtype=complex)

        monkeypatch.setattr(generators, "_complex_gaussian", zeros)
        with pytest.raises(GenerationError, match="singular"):
            gen_positive_linear_map(3, 2, 2, 7)
        assert draws == [(3, 2), (3, 2)]

    def test_singular_member_of_a_stack_names_its_seed(self, monkeypatch):
        """Draws 3 and 4 (seed 12's only factor and seed 13's first) are
        zero, so seeds 12 and 13 have a singular S: the first in seed order
        raises, naming seed 12, after each draw was made once."""
        real = generators._complex_gaussian
        draws = []

        def drawing(rng, rows, cols):
            draws.append((rows, cols))
            v = real(rng, rows, cols)
            return np.zeros_like(v) if len(draws) in (4, 5) else v

        monkeypatch.setattr(generators, "_complex_gaussian", drawing)
        with pytest.raises(GenerationError, match=r"singular for seed 12$"):
            gen_positive_linear_maps(3, 2, [1, 2, 1, 1, 2], [10, 11, 12, 13, 14])
        assert draws == [(3, 2)] * 7

    def test_singular_map_of_a_family_stack_names_its_seed(self, monkeypatch):
        """Every Kraus draw from the second seed on is zero; the first
        singular map is then the second family's, and no draw is repeated."""
        real = generators._complex_gaussian
        seeds = [20, 21, 22]
        kraus_of_first = sum(len(phi.kraus) for _, phi, _ in gen_weighted_family(3, 3, 2, W12, 20).items)
        clean, draws = [], []
        monkeypatch.setattr(generators, "_complex_gaussian",
                            lambda rng, rows, cols: clean.append((rows, cols)) or real(rng, rows, cols))
        gen_weighted_families(3, 3, 2, [W12] * 3, seeds)

        def drawing(rng, rows, cols):
            draws.append((rows, cols))
            v = real(rng, rows, cols)
            later = draws.count((3, 2)) > kraus_of_first
            return np.zeros_like(v) if (rows, cols) == (3, 2) and later else v

        monkeypatch.setattr(generators, "_complex_gaussian", drawing)
        with pytest.raises(GenerationError, match=r"singular for seed 21$"):
            gen_weighted_families(3, 3, 2, [W12] * 3, seeds)
        assert draws == clean


class TestStackedNormalization:
    """Generated maps are certified normalized with their stack, in one
    computation, and are not checked again one by one when made."""

    COUNTS, SEEDS = [1, 2, 3, 1, 2], [30, 31, 32, 33, 34]

    def test_defects_are_each_maps_own_bit_for_bit(self, monkeypatch):
        stacked = []
        real = posmaps._normalization_defects
        monkeypatch.setattr(generators, "_normalization_defects",
                            lambda ws, counts: stacked.append(real(ws, counts)) or stacked[-1])
        maps = gen_positive_linear_maps(3, 2, self.COUNTS, self.SEEDS)
        (defects,) = stacked
        assert [len(phi.kraus) for phi in maps] == self.COUNTS
        for phi, defect in zip(maps, defects):
            assert np.float64(defect).tobytes() == np.float64(phi.normalization_defect()).tobytes()

    def test_a_nan_defect_in_the_stack_is_rejected(self, monkeypatch):
        # the stacked certificate raises as a map made alone does
        real = posmaps._normalization_defects

        def with_nan(ws, counts):
            defects = real(ws, counts)
            defects[2] = np.nan
            return defects

        monkeypatch.setattr(generators, "_normalization_defects", with_nan)
        with pytest.raises(ValueError, match=r"^map is not normalized: .* = nan$"):
            gen_positive_linear_maps(3, 2, self.COUNTS, self.SEEDS)

    def test_generated_maps_skip_the_per_map_check(self, monkeypatch):
        checked = []
        real = PositiveLinearMap.normalization_defect
        monkeypatch.setattr(PositiveLinearMap, "normalization_defect",
                            lambda phi: checked.append(phi) or real(phi))
        maps = gen_positive_linear_maps(3, 2, self.COUNTS, self.SEEDS)
        families = gen_weighted_families(3, 3, 2, [W12] * 2, [5, 6])
        assert checked == []
        for phi in maps + [phi for family in families for _, phi, _ in family.items]:
            assert (phi.dim_in, phi.dim_out) == (3, 2)
            assert all(type(w) is np.ndarray and w.dtype == complex for w in phi.kraus)
            assert phi == PositiveLinearMap(phi.kraus)

    def test_unnormalized_member_raises_the_error_it_raises_alone(self, monkeypatch):
        """Map 3's inverse root S^(-1/2) is scaled by 1.01, so its factors W_i
        are; the stack raises the ValueError that a map made by hand from
        those factors raises."""
        real_power, real_gaussian = generators.matrix_power, generators._complex_gaussian
        draws, roots = [], []

        def scaled(dec, p):
            root = real_power(dec, p)
            root[3] *= 1.01
            roots.append(root)
            return root

        monkeypatch.setattr(generators, "matrix_power", scaled)
        monkeypatch.setattr(generators, "_complex_gaussian",
                            lambda rng, rows, cols: draws.append(real_gaussian(rng, rows, cols))
                            or draws[-1])
        with pytest.raises(ValueError) as stacked:
            gen_positive_linear_maps(3, 2, self.COUNTS, self.SEEDS)
        start = sum(self.COUNTS[:3])
        factors = tuple(v @ roots[0][3] for v in draws[start:start + self.COUNTS[3]])
        with pytest.raises(ValueError) as alone:
            PositiveLinearMap(factors)
        assert str(stacked.value) == str(alone.value)
        assert str(stacked.value).startswith("map is not normalized: |sum W*W - I| = 2.01")

    def test_hand_built_unnormalized_map_still_raises(self):
        message = "map is not normalized: |sum W*W - I| = 2.100e-01"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PositiveLinearMap((1.1 * np.eye(2),))
        with pytest.raises(ValueError, match="not normalized"):
            PositiveLinearMap((np.eye(3)[:, :2], np.eye(3)[:, :2]))


class TestWeightedFamilies:
    def test_generated_family_validates(self):
        family = gen_weighted_family(3, 4, 3, W12, 123)
        assert len(family.items) == 3
        assert sum(w for w, _, _ in family.items) == pytest.approx(1.0, abs=1e-12)
        family.validate()

    def test_spectra_cached_per_operator(self):
        family = gen_weighted_family(3, 4, 3, W12, 123)
        assert family.spectra is family.spectra
        for (_, _, op), dec in zip(family.items, family.spectra):
            assert np.array_equal(dec.eigenvalues, eig_hermitian(op).eigenvalues)

    def test_spectra_are_the_window_test_decompositions(self):
        family = gen_weighted_family(3, 4, 3, W12, 123)
        for (_, _, op), dec in zip(family.items, family.spectra):
            fresh = eig_hermitian(op)
            assert np.array_equal(dec.eigenvalues, fresh.eigenvalues)
            assert np.array_equal(dec.eigenvectors, fresh.eigenvectors)

    @pytest.mark.parametrize("dim", [3, 16])
    def test_operands_placed_in_one_call(self, monkeypatch, dim):
        """A call of k seeds decomposes the normalization matrices of its 3k
        maps as one (3k, d - 1, d - 1) stack, then the window test its 3k
        operands as one (3k, d, d) stack, and a retry only the failing ones,
        again as one stack."""
        eigh = np.linalg.eigh
        shapes = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(np.shape(a)) or eigh(a))
        w = SpectralWindow(0.5, 4.0)
        for seeds in ([0], [1], [2], [3], [4, 5, 6], list(range(7, 15))):
            shapes.clear()
            if len(seeds) == 1:
                gen_weighted_family(3, dim, dim - 1, w, seeds[0])
            else:
                gen_weighted_families(3, dim, dim - 1, [w] * len(seeds), seeds)
            normalization, *stacks = shapes
            k = len(seeds)
            assert normalization == (3 * k, dim - 1, dim - 1)
            assert stacks[0] == (3 * k, dim, dim)
            assert all(len(shape) == 3 and shape[1:] == (dim, dim) for shape in stacks)
            assert all(later[0] <= earlier[0] for earlier, later in zip(stacks, stacks[1:]))

    def test_empty_family_rejected(self):
        with pytest.raises(HypothesisError, match="empty"):
            gen_weighted_family(0, 3, 2, W12, 1)
        with pytest.raises(HypothesisError, match="empty"):
            gen_weighted_families(0, 3, 2, [W12] * 2, [1, 2])

    def test_bad_weights_rejected(self):
        family = gen_weighted_family(2, 3, 2, W12, 5)
        broken = WeightedFamily(
            items=((0.7, family.items[0][1], family.items[0][2]),
                   (0.7, family.items[1][1], family.items[1][2])),
            window=W12,
        )
        with pytest.raises(HypothesisError):
            broken.validate()

    def test_operator_outside_window_rejected(self):
        family = gen_weighted_family(2, 3, 2, W12, 5)
        broken = WeightedFamily(
            items=((family.items[0][0], family.items[0][1], 5.0 * np.eye(3)),
                   (family.items[1][0], family.items[1][1], family.items[1][2])),
            window=W12,
        )
        with pytest.raises(HypothesisError):
            broken.validate()


@pytest.mark.parametrize("make", [
    lambda: gen_dominated_pair(4, W12, 3),
    lambda: gen_dominated_pair(4, W12, 3, window_side=WINDOW_ON_A),
    lambda: gen_chaotic_pair(4, W12, 3),
    lambda: gen_relative_pair(4, W12, 3),
], ids=["dominated_on_B", "dominated_on_A", "chaotic", "relative"])
def test_pair_spectra_equal_a_fresh_decomposition(make):
    """A generator hands its window test's decomposition to the pair; it is
    bit for bit what eig_hermitian makes of the matrix handed out."""
    pair = make()
    for matrix, dec in ((pair.A, pair.spec_A), (pair.B, pair.spec_B)):
        fresh = eig_hermitian(matrix)
        assert np.array_equal(dec.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(dec.eigenvectors, fresh.eigenvectors)


STACKED_FAMILIES = {
    "dominated_on_B": (lambda dim, ws, seeds: gen_dominated_pairs(dim, ws, seeds),
                       lambda dim, w, seed: gen_dominated_pair(dim, w, seed)),
    "dominated_on_A": (lambda dim, ws, seeds: gen_dominated_pairs(dim, ws, seeds,
                                                                  window_side=WINDOW_ON_A),
                       lambda dim, w, seed: gen_dominated_pair(dim, w, seed,
                                                               window_side=WINDOW_ON_A)),
    "chaotic": (gen_chaotic_pairs, gen_chaotic_pair),
    "relative": (gen_relative_pairs, gen_relative_pair),
}


MIXED_WINDOWS = [SpectralWindow(1.0, 2.0), SpectralWindow(0.5, 4.0), SpectralWindow(2.0, 3.0)]

# each campaign generate function's instance, made by the single-seed generators
LONE_INSTANCES = {
    "corollary_2_3": lambda dim, w, seed: (gen_dominated_pair(dim, w, seed),),
    "theorem_1_1": lambda dim, w, seed: (gen_dominated_pair(dim, w, seed,
                                                            window_side=WINDOW_ON_A),),
    "lemma_3_1": lambda dim, w, seed: (gen_chaotic_pair(dim, w, seed),),
    "theorem_4_2": lambda dim, w, seed: (
        gen_relative_pair(dim, w, seed),
        gen_positive_linear_map(dim, dim - 1, 1 + seed % 3, seed + MAP_SEED_OFFSET)),
    "theorem_4_1": lambda dim, w, seed: (gen_weighted_family(3, dim, dim - 1, w, seed),),
}


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def assert_same_bits(got, want):
    """A pair, map or family is bit for bit ``want``: every matrix and
    decomposition it holds, and its window and seed."""
    assert type(got) is type(want)
    if isinstance(got, PositiveLinearMap):
        assert len(got.kraus) == len(want.kraus)
        assert all(same_bits(x, y) for x, y in zip(got.kraus, want.kraus))
        return
    assert (got.window, got.seed) == (want.window, want.seed)
    if isinstance(got, CertifiedPair):
        assert (got.certificate, got.window_side) == (want.certificate, want.window_side)
        decs = [(got.spec_A, want.spec_A), (got.spec_B, want.spec_B)]
        matrices = [(got.A, want.A), (got.B, want.B)]
    else:
        decs = list(zip(got.spectra, want.spectra))
        matrices = []
        for (weight, phi, op), (weight_1, phi_1, op_1) in zip(got.items, want.items,
                                                               strict=True):
            assert same_bits(weight, weight_1)
            assert_same_bits(phi, phi_1)
            matrices.append((op, op_1))
    for dec, dec_1 in decs:
        matrices += [(dec.eigenvalues, dec_1.eigenvalues), (dec.eigenvectors, dec_1.eigenvectors)]
    assert all(same_bits(x, y) for x, y in matrices)


class TestStackedGenerators:
    @pytest.mark.parametrize("window", [(1.0, 2.0), (0.5, 4.0), (0.05, 20.0)],
                             ids=["1-2", "0.5-4", "0.05-20"])
    @pytest.mark.parametrize("dim", [2, 3, 6, 16, 64])
    @pytest.mark.parametrize("family", list(STACKED_FAMILIES))
    def test_stack_equals_each_stack_of_one(self, monkeypatch, family, dim, window):
        """Every member of a stack is bit for bit the pair its seed makes
        alone, re-placed window tests included."""
        stacked, single = STACKED_FAMILIES[family]
        w = SpectralWindow(*window)
        seeds = list(range(40, 40 + (12 if dim <= 16 else 3)))
        # a member is failed by its content, so it is failed in the stack and
        # alone; the stack and its stacks of one then re-place the same members
        masks = reject_first_window_tests(monkeypatch, lambda vals: np.array(
            [hashlib.sha256(v.tobytes()).digest()[0] % 4 != 0 for v in vals]))
        pairs = stacked(dim, [w] * len(seeds), seeds)
        # some member failed a window test and was placed again
        assert any(np.any(mask) for mask in masks)
        assert [pair.seed for pair in pairs] == seeds
        for seed, pair in zip(seeds, pairs):
            alone = single(dim, w, seed)
            for got, want in ((pair.A, alone.A), (pair.B, alone.B),
                              (pair.spec_A.eigenvalues, alone.spec_A.eigenvalues),
                              (pair.spec_A.eigenvectors, alone.spec_A.eigenvectors),
                              (pair.spec_B.eigenvalues, alone.spec_B.eigenvalues),
                              (pair.spec_B.eigenvectors, alone.spec_B.eigenvectors)):
                assert np.array_equal(got, want), seed

    @pytest.mark.parametrize("window", [(1.0, 2.0), (0.5, 4.0), (0.05, 20.0)],
                             ids=["1-2", "0.5-4", "0.05-20"])
    @pytest.mark.parametrize("dim", [2, 3, 6, 16, 64])
    def test_family_stack_equals_each_stack_of_one(self, monkeypatch, dim, window):
        """Every family of a stack is bit for bit the family its seed makes
        alone: weights, Kraus factors, operands, spectra and seed, re-placed
        window tests included."""
        w = SpectralWindow(*window)
        seeds = list(range(40, 40 + (6 if dim <= 16 else 2)))
        masks = reject_first_window_tests(monkeypatch, lambda vals: np.array(
            [hashlib.sha256(v.tobytes()).digest()[0] % 4 != 0 for v in vals]))
        families = gen_weighted_families(3, dim, dim - 1, [w] * len(seeds), seeds)
        assert any(np.any(mask) for mask in masks)
        assert [family.seed for family in families] == seeds
        for seed, family in zip(seeds, families):
            alone = gen_weighted_family(3, dim, dim - 1, w, seed)
            assert family.seed == alone.seed == seed
            for (weight, phi, op), dec, (weight_1, phi_1, op_1), dec_1 in zip(
                    family.items, family.spectra, alone.items, alone.spectra):
                assert np.array_equal(weight, weight_1), seed
                assert len(phi.kraus) == len(phi_1.kraus), seed
                for got, want in ((op, op_1), (dec.eigenvalues, dec_1.eigenvalues),
                                  (dec.eigenvectors, dec_1.eigenvectors),
                                  *zip(phi.kraus, phi_1.kraus)):
                    assert np.array_equal(got, want), seed

    @pytest.mark.parametrize("dim", [2, 3, 6, 16, 64])
    def test_map_stack_equals_each_stack_of_one(self, dim):
        """Every map of a stack, with 1 to 3 Kraus factors, is bit for bit
        the map its seed makes alone."""
        seeds = list(range(60, 60 + (12 if dim <= 16 else 4)))
        counts = [1 + seed % 3 for seed in seeds]
        maps = gen_positive_linear_maps(dim, dim - 1 or 1, counts, seeds)
        assert [len(phi.kraus) for phi in maps] == counts
        for seed, n_kraus, phi in zip(seeds, counts, maps):
            alone = gen_positive_linear_map(dim, dim - 1 or 1, n_kraus, seed)
            for got, want in zip(phi.kraus, alone.kraus, strict=True):
                assert np.array_equal(got, want), seed

    def test_retry_moves_only_the_failing_members(self, monkeypatch):
        seeds = list(range(20))
        untouched = gen_dominated_pairs(3, [W12] * 20, seeds)
        # these seeds aim an eigenvalue at an endpoint, so a retry, whose
        # larger margin moves that target, changes their B
        failing = np.isin(np.arange(20), [3, 6, 11])
        reject_first_window_tests(monkeypatch, lambda vals: failing)
        real = generators._eigh
        sizes = []
        monkeypatch.setattr(generators, "_eigh", lambda a: sizes.append(len(a)) or real(a))
        pairs = gen_dominated_pairs(3, [W12] * 20, seeds)
        # the window test of the whole stack, then of the whole stack
        # rebuilt, then the certificate's decomposition of A
        assert sizes == [20, 20, 20]
        for fails, pair, before in zip(failing, pairs, untouched):
            assert np.array_equal(pair.B, before.B) != fails
            assert spectrum_in_window(pair.spec_B, W12, 0.0)

    @pytest.mark.parametrize("window", WIDE_WINDOWS, ids=window_id)
    @pytest.mark.parametrize("dim", [2, 6, 16, 64])
    @pytest.mark.parametrize("family", [*STACKED_FAMILIES, "weighted"])
    def test_each_placement_decomposes_once(self, monkeypatch, family, dim, window):
        """Endpoint targets start inside the window, so every window test
        passes on the placement's first eigensolve, at d = 64 too."""
        real_eig, real_place = generators._eigh, generators._place_in_window
        eigs, per_placement = [], []

        def placing(*args):
            before = len(eigs)
            placed = real_place(*args)
            per_placement.append(len(eigs) - before)
            return placed

        monkeypatch.setattr(generators, "_eigh", lambda a: eigs.append(a) or real_eig(a))
        monkeypatch.setattr(generators, "_place_in_window", placing)
        w = SpectralWindow(*window)
        seeds = list(range(8 if dim < 64 else 3))
        if family == "weighted":
            gen_weighted_families(3, dim, dim - 1 or 1, [w] * len(seeds), seeds)
        else:
            STACKED_FAMILIES[family][0](dim, [w] * len(seeds), seeds)
        assert per_placement and all(count == 1 for count in per_placement)

    def test_failing_member_raises_its_own_certificate_error(self):
        w = SpectralWindow(1.0, 2.0)
        # rho > 1 can push A's spectrum below zero: seeds 0-3 pass, seed 4 fails
        with pytest.raises(GenerationError) as alone:
            gen_dominated_pair(3, w, 4, rho=1.05)
        assert "for seed 4:" in str(alone.value)
        assert len(gen_dominated_pairs(3, [w] * 4, [0, 1, 2, 3], rho=1.05)) == 4
        with pytest.raises(GenerationError) as stacked:
            gen_dominated_pairs(3, [w] * 6, [0, 1, 2, 3, 4, 8], rho=1.05)
        assert str(stacked.value) == str(alone.value)

    def test_stacks_reproduce_pairs_recorded_one_seed_at_a_time(self):
        """The corpus was written one seed at a time, by the single-seed
        generators (stacks of one) with endpoint targets nudged inside the
        window; stacks of its seeds rebuild each pair bit for bit."""
        recorded = read_corpus(DATA_DIR / "unstacked_pairs.jsonl")
        families = {(CERT_DOMINATED, "B"): "dominated_on_B",
                    (CERT_DOMINATED, "A"): "dominated_on_A",
                    (CERT_CHAOTIC, "B"): "chaotic", (CERT_RELATIVE, "B"): "relative"}
        groups = {}
        for pair in recorded:
            key = (families[pair.certificate, pair.window_side], pair.dim, pair.window)
            groups.setdefault(key, []).append(pair)
        assert len(groups) == 8
        for (family, dim, window), pairs in groups.items():
            stacked, _ = STACKED_FAMILIES[family]
            rebuilt = stacked(dim, [window] * len(pairs), [p.seed for p in pairs])
            for pair, again in zip(pairs, rebuilt):
                assert np.array_equal(pair.A, again.A) and np.array_equal(pair.B, again.B)

    @pytest.mark.parametrize("dim", [2, 3, 6, 16])
    @pytest.mark.parametrize("suite", list(LONE_INSTANCES))
    def test_a_stack_of_interleaved_windows_equals_lone_calls(self, monkeypatch, suite, dim):
        """A campaign stack whose members cycle through the windows (1, 2),
        (0.5, 4) and (2, 3) gives each member the bits of a lone call in its
        own window: operands, decompositions, Kraus factors, weights, window
        and seed, re-placed window tests included."""
        seeds = list(range(70, 82))
        windows = [MIXED_WINDOWS[i % 3] for i in range(len(seeds))]
        masks = reject_first_window_tests(monkeypatch, lambda vals: np.array(
            [hashlib.sha256(v.tobytes()).digest()[0] % 4 != 0 for v in vals]))
        instances = SUITES[suite].generate(dim, windows, seeds)
        assert any(np.any(mask) for mask in masks)
        assert len(instances) == len(seeds)
        for w, seed, instance in zip(windows, seeds, instances):
            alone = LONE_INSTANCES[suite](dim, w, seed)
            assert len(instance) == len(alone)
            for got, want in zip(instance, alone):
                assert_same_bits(got, want)

    def test_a_stack_needs_one_window_per_seed(self):
        with pytest.raises(ValueError, match="one window per seed, got 1 for 2 seeds"):
            gen_dominated_pairs(3, [W12], [1, 2])
        with pytest.raises(ValueError, match="one window per seed, got 3 for 2 seeds"):
            gen_weighted_families(3, 3, 2, MIXED_WINDOWS, [1, 2])

    def test_empty_stack(self):
        assert gen_dominated_pairs(3, [], []) == []
        assert gen_chaotic_pairs(3, [], []) == []
        assert gen_relative_pairs(3, [], []) == []
        assert gen_positive_linear_maps(3, 2, [], []) == []
        assert gen_weighted_families(3, 3, 2, [], []) == []


# the edges of SeedSequence's 32-bit words: a Kraus map's seed offset is 2^32
BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**96, 2**128 - 1]


def seed_sequence_state(seed):
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


class TestBulkSeeding:
    """A stack of seeds is seeded in one pass (``generators._bulk_rngs``),
    each stream bit for bit ``np.random.default_rng``'s."""

    @pytest.mark.parametrize("seeds", [
        BOUNDARY_SEEDS,
        [int.from_bytes(np.random.default_rng(2024).bytes(16), "little") for _ in range(1000)],
        list(range(2_000, 3_200)),
    ], ids=["boundaries", "random-128-bit", "consecutive"])
    def test_states_equal_seed_sequence(self, seeds):
        rngs = generators._bulk_rngs(seeds)
        assert len(rngs) == len(seeds)
        for seed, rng in zip(seeds, rngs):
            state = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
            assert same_bits(state, seed_sequence_state(seed)), seed

    def test_streams_equal_default_rng(self):
        for seed, rng in zip(BOUNDARY_SEEDS, generators._bulk_rngs(BOUNDARY_SEEDS)):
            lone = np.random.default_rng(seed)
            assert rng.bit_generator.state == lone.bit_generator.state, seed
            assert rng.random() == lone.random(), seed
            assert rng.standard_normal() == lone.standard_normal(), seed

    def test_a_stack_is_seeded_in_one_pass(self, monkeypatch):
        calls = []
        bulk = generators._bulk_rngs
        monkeypatch.setattr(generators, "_bulk_rngs", lambda seeds: calls.append(seeds) or bulk(seeds))
        gen_dominated_pairs(3, [W12] * 2, [5, 2**64])
        gen_positive_linear_maps(3, 2, [1, 2], [5, 2**32 + 5])
        gen_weighted_families(2, 3, 2, [W12] * 2, [5, 6])
        gen_dominated_pair(3, W12, 5)
        assert calls == [[5, 2**64], [5, 2**32 + 5], [5, 6]]

    @pytest.mark.parametrize("odd_seed", [2**128, 2**200, np.int64(7)], ids=["2^128", "2^200", "int64"])
    def test_a_seed_past_the_pool_is_seeded_alone(self, odd_seed):
        seeds = [5, odd_seed]
        for seed, rng in zip(seeds, generators._rngs(seeds)):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        for pair, seed in zip(gen_chaotic_pairs(3, [W12] * 2, seeds), seeds):
            assert_same_bits(pair, gen_chaotic_pair(3, W12, seed))

    def test_a_generator_in_a_stack_is_drawn_from_as_it_is(self):
        maps = gen_positive_linear_maps(3, 2, [2, 2], [5, np.random.default_rng(9)])
        assert_same_bits(maps[0], gen_positive_linear_map(3, 2, 2, 5))
        assert_same_bits(maps[1], gen_positive_linear_map(3, 2, 2, np.random.default_rng(9)))

    @pytest.mark.parametrize("bad_seed", [-1, 1.5, 2.0], ids=["negative", "float", "whole-float"])
    def test_a_bad_seed_raises_the_lone_error(self, bad_seed):
        with pytest.raises(Exception) as lone:
            np.random.default_rng(bad_seed)
        stacks = [lambda: gen_dominated_pairs(3, [W12] * 3, [1, bad_seed, 2]),
                  lambda: gen_chaotic_pairs(3, [W12] * 2, [1, bad_seed]),
                  lambda: gen_relative_pairs(3, [W12] * 2, [1, bad_seed]),
                  lambda: gen_positive_linear_maps(3, 2, [1, 1], [1, bad_seed]),
                  lambda: gen_weighted_families(2, 3, 2, [W12] * 2, [1, bad_seed])]
        for stack in stacks:
            with pytest.raises(type(lone.value)) as stacked:
                stack()
            assert str(stacked.value) == str(lone.value)

    def test_importing_kantcheck_does_not_import_numpy_random(self):
        src = str(Path(generators.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        probe = "import sys, kantcheck; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        pairs = [gen_dominated_pair(3, W12, s) for s in range(4)]
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, pairs)
        loaded = read_corpus(path)
        assert len(loaded) == 4
        for original, restored in zip(pairs, loaded):
            assert np.array_equal(original.A, restored.A)
            assert np.array_equal(original.B, restored.B)
            assert original.certificate == restored.certificate
            assert original.seed == restored.seed

    def test_pair_json_shape(self):
        pair = gen_chaotic_pair(2, W12, 1)
        record = pair_to_json(pair)
        assert record["certificate"] == CERT_CHAOTIC
        assert set(record) == {"certificate", "seed", "window", "window_side", "A", "B"}
        restored = pair_from_json(record)
        assert isinstance(restored, CertifiedPair)
