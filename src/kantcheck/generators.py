"""Seeded generators for matrix pairs and Kraus maps.

Every generator re-verifies its hypothesis certificate with the
hermitian-core checks before returning; a pair that comes out of this
module can be trusted by the chain verifiers.  All randomness flows from
an integer seed through numpy's PCG64 generator, so identical
(seed, dim, window) inputs reproduce identical artifacts byte-for-byte
in the exchange format.

Each pair family has one body that takes a list of seeds and one
window per seed: every seed draws from its own generator, and the QR
factorizations, eigensolves and products then run once over the stack
of members.  The single-seed generators are that body on a stack of
one.  Kraus maps and weighted families are drawn the same way: each
seed's draws keep their order, then every map's normalization matrix is
decomposed and inverted, and every family operand placed in its window,
as one stack.  A relative pair's A and its C are placed in one stack too.
Each Kraus factor is drawn straight into the column stack that
normalizes it, and every map's normalization is certified with its
stack, in one computation, rather than by each map when it is made.
Likewise each pair family tests its certificate facts (its order, by
``hermitian._holds``) for the whole stack at once.  The generators
decompose their own intermediates with ``_eigh``, which does not
re-validate them.

A stack may mix windows.  The bodies apply each member's m and M, and
what is derived from them (the placement margins, the positivity
margin, the chaotic log-window, taken with ``math.log``), as per-member
arrays built by the float operations a lone call makes, so every member
gets the bits a single-window call gives it.

A window placement targets the endpoints m and M but nudges its targets
inside by a margin that grows with the dimension, so that each operand's
zero-tolerance window test passes on the first eigensolve.  Should one
still fail, its targets move further in and the whole stack is placed
again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GenerationError, HypothesisError
from .hermitian import (
    DIM_CAP,
    Array,
    SpectralDecomposition,
    SpectralWindow,
    _eigh,
    _holds,
    _matrix_entries,
    hermitian,
    hermitize,
    loewner_leq,  # noqa: F401  (perfbench/tests/test_bench_trace.py reads generators.loewner_leq)
    matrix_exp,
    matrix_log,
    matrix_power,
    matrix_to_json,
    spectrum_in_window,
)
from .posmaps import (
    PositiveLinearMap,
    WeightedFamily,
    _gram_sums,
    _normalization_defects,
    _require_normalized,
)

CERT_DOMINATED = "dominated"
CERT_CHAOTIC = "chaotic"
CERT_RELATIVE = "relative"

WINDOW_ON_B = "B"
WINDOW_ON_A = "A"

ENDPOINT_PROB = 0.2
POSITIVITY_MARGIN_FACTOR = 1e-6
RELATIVE_BASE_WINDOW = SpectralWindow(0.5, 2.0)
MAX_KRAUS = 3
MAX_LOG_PERTURBATION = 2.0


@dataclass(frozen=True)
class CertifiedPair:
    """A pair (A, B) together with the hypothesis it was generated under.

    certificate is one of "dominated" (A <= B with the window on the side
    named by window_side), "chaotic" (log A <= log B, window on B) or
    "relative" (m A <= B <= M A).

    operands (A and B as one validated (2, n, n) stack), spec_A and spec_B are
    made on first use and kept, the matrices being immutable; generators hand them over.
    """

    A: Array
    B: Array
    window: SpectralWindow
    certificate: str
    seed: int
    window_side: str = WINDOW_ON_B

    @property
    def dim(self) -> int:
        return int(self.A.shape[0])

    @cached_property
    def operands(self) -> Array:
        return hermitian(np.stack([self.A, self.B]), "pair (A, B)")

    @cached_property
    def spec_A(self) -> SpectralDecomposition:
        return _eigh(self.operands[0])

    @cached_property
    def spec_B(self) -> SpectralDecomposition:
        return _eigh(self.operands[1])


def _rng(seed_or_rng) -> np.random.Generator:
    """``np.random.default_rng`` of a seed, built directly; a Generator is
    passed through unchanged."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.PCG64(seed_or_rng))


def _complex_normal(parts: Array) -> Array:
    """(re + 1j im) / sqrt(2) of standard normal parts stacked on axis -3,
    real part first: one complex Gaussian, or one per member of a stack.
    The sum and the quotient are formed in place, in one complex array."""
    z = 1j * parts[..., 1, :, :]
    z += parts[..., 0, :, :]
    z /= math.sqrt(2.0)
    return z


def _complex_gaussian(rng, rows: int, cols: int) -> Array:
    return _complex_normal(rng.standard_normal((2, rows, cols)))


def _haar(gaussians: Array) -> Array:
    """Haar-ish random unitaries from the QR factorizations of complex
    Gaussians (one matrix or a stack), each column's phase fixed by R's diagonal."""
    q, r = np.linalg.qr(gaussians)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng) -> Array:
    """Haar-ish random unitary from the QR factorization of a complex Gaussian."""
    return _haar(_complex_gaussian(_rng(rng), dim, dim))


def gen_hermitian_in_window(dim: int, window: SpectralWindow, rng) -> Array:
    """Random Hermitian matrix whose spectrum lies inside [m, M].

    Eigenvalues are drawn uniformly, with probability 0.2 each of targeting
    m or M, then conjugated by a random unitary.  All targets are first
    nudged inside the window by 8 * dim * eps * max(|m|, |M|, 1), so an
    endpoint-targeted eigenvalue lands that close to m or M, not on it.  The
    result is re-verified to pass the window check with zero tolerance; if
    roundoff still pushed an eigenvalue outside, the targets are nudged
    further inward and the matrix is rebuilt.
    """
    return _place_in_window([_window_draws(dim, _rng(rng))], _Windows.of([window]))[0][0]


def _window_draws(dim: int, rng) -> tuple[Array, Array]:
    """One window placement's draws from ``rng``, in order: two rows of
    uniforms (each target's endpoint choice and interior position, see
    ``_window_targets``) and the real and imaginary parts of the Gaussian
    of its unitary."""
    if not 1 <= dim <= DIM_CAP:
        raise ValueError(f"dim {dim} outside supported range [1, {DIM_CAP}]")
    return rng.random((2, dim)), rng.standard_normal((2, dim, dim))


class _Windows(NamedTuple):
    """One window per member of a stack: member i's m and M are ``m[i]`` and
    ``M[i]``, the floats its SpectralWindow holds.  ``spectrum_in_window``
    takes it as it takes a window, and tests each member against its own."""

    m: Array
    M: Array

    @classmethod
    def of(cls, windows) -> "_Windows":
        return cls(np.array([w.m for w in windows]), np.array([w.M for w in windows]))


def _window_targets(uniforms: Array, windows: _Windows) -> Array:
    """The target spectrum of each member of a stack (k, 2, d) of uniforms,
    in its own window: m or M with probability ENDPOINT_PROB each, else
    uniform in the window."""
    u, position = uniforms[:, 0], uniforms[:, 1]
    m, upper = windows.m[:, None], windows.M[:, None]
    interior = m + (upper - m) * position
    return np.where(u < ENDPOINT_PROB, m, np.where(u < 2 * ENDPOINT_PROB, upper, interior))


def _placement_margin(lo, hi, dim: int):
    """8 dim eps max(|lo|, |hi|, 1), the first inward margin of a placement into [lo, hi]."""
    return 8.0 * np.finfo(float).eps * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0) * dim


def _place_in_window(draws: list, windows: _Windows) -> tuple[Array, SpectralDecomposition]:
    """The stack of window placements of a list of ``_window_draws``, each
    in its own window, and the stacked decomposition their window test made.

    The targets start nudged inside the window by 8 * dim * eps times the
    window's scale, which covers the roundoff of the rebuild and of its
    eigensolve (both grow with the dimension), so the zero-tolerance
    window test passes on the first try.  Should a member's test still
    fail, its targets are nudged further inward and the whole stack is
    rebuilt and tested again; a member that passed is rebuilt bit for bit.
    A member's margin only grows while it fails, so it is the one a lone
    placement of that member uses.
    """
    uniforms, parts = zip(*draws)
    q = _haar(_complex_normal(np.array(parts)))
    m, upper = windows
    margin = _placement_margin(m, upper, q.shape[-1])
    target = np.clip(np.sort(_window_targets(np.array(uniforms), windows), axis=-1),
                     (m + margin)[:, None], (upper - margin)[:, None])
    for _ in range(6):
        a = hermitize((q * target[:, None, :]) @ q.conj().swapaxes(-1, -2))
        dec = _eigh(a)
        outside = ~spectrum_in_window(dec, windows, 0.0)
        if not outside.any():
            return a, dec
        margin *= 8.0
        target[outside] = np.clip(target[outside], (m + margin)[outside, None],
                                  (upper - margin)[outside, None])
    i = np.flatnonzero(outside)[0]
    raise GenerationError(f"could not place a spectrum inside [{float(m[i])}, {float(upper[i])}]")


def _perturbation_draws(rngs: list, n_uniform: int, dim: int) -> tuple[Array, Array]:
    """Each generator's perturbation draws, in order: n_uniform uniforms and
    the real and imaginary parts of a d x d complex Gaussian.  Returns the
    (k, n_uniform) uniforms and the (k, d, d) complex Gaussians."""
    uniforms, parts = map(np.array, zip(*[
        (rng.random(n_uniform), rng.standard_normal((2, dim, dim))) for rng in rngs]))
    return uniforms, _complex_normal(parts)


def _with_spectra(obj, **spectra):
    """``obj`` with the operands and decompositions its generator already made
    stored as its cached properties' values, neither recomputed nor validated."""
    vars(obj).update(spectra)
    return obj


def _random_psd(gaussians: Array, spectral_norm: Array, iso_floor: Array) -> Array:
    """PSD matrices of the requested spectral norms, one per member of a
    stack of complex Gaussians G: normalized G*G blended with an isotropic
    floor, or zero where the norm is not positive.

    A pure Wishart G*G has its smallest eigenvalue pinned near zero by the
    condition number; the floor lifts it to iso_floor * spectral_norm so
    perturbation slacks can reach any fraction of the norm across seeds.
    """
    p = hermitize(gaussians.conj().swapaxes(-1, -2) @ gaussians)
    top = np.linalg.eigvalsh(p)[:, -1]
    zero = (spectral_norm <= 0.0) | (top == 0.0)
    per_member = (slice(None), None, None)
    unit = p / np.where(zero, 1.0, top)[per_member]
    blended = iso_floor[per_member] * np.eye(p.shape[-1]) + (1.0 - iso_floor)[per_member] * unit
    return np.where(zero[per_member], 0.0, blended * spectral_norm[per_member])


def _certified_pairs(a: Array, b: Array, windows: list, certificate: str, seeds,
                     facts: dict, window_side: str = WINDOW_ON_B, **spectra) -> list:
    """One pair per member of the stacks ``a`` and ``b``, in its member of
    ``windows``, handed its members of one stack of operands (its A and B are
    views of it) and of the decompositions ``spectra`` (spec_A among them),
    certified by its member of each fact.  The facts, and the one all
    certificates share, a strictly positive A, are tested for the whole
    stack at once; the first member to fail raises a GenerationError that
    lists its value of every fact."""
    facts = {**facts, "positive": spectra["spec_A"].eigenvalues[:, 0] > 0.0}
    failed = np.flatnonzero(~np.array(list(facts.values())).all(axis=0))
    if failed.size:
        i = failed[0]
        listed = " ".join(f"{name}={bool(holds[i])}" for name, holds in facts.items())
        raise GenerationError(f"{certificate} certificate failed for seed {int(seeds[i])}: {listed}")
    operands = np.stack([a, b], axis=1)
    decs = [dec.members() for dec in spectra.values()]
    return [_with_spectra(CertifiedPair(A=ops[0], B=ops[1], window=window,
                                        certificate=certificate, seed=int(seed),
                                        window_side=window_side),
                          operands=ops, **dict(zip(spectra, member_decs)))
            for window, seed, ops, *member_decs in zip(windows, seeds, operands, *decs)]


def gen_dominated_pair(dim: int, window: SpectralWindow, seed: int,
                       rho: float | None = None,
                       window_side: str = WINDOW_ON_B) -> CertifiedPair:
    """Pair with A <= B and strictly positive A.

    window_side "B" bounds m <= B <= M and subtracts a PSD perturbation of
    norm rho*(lambda_min(B) - eps) to get A; window_side "A" bounds A and
    adds a PSD perturbation of norm rho*(M - m) to get B.  rho defaults to
    a uniform draw in (0, 1); passing rho=0 yields A = B.
    """
    return gen_dominated_pairs(dim, [window], [seed], rho, window_side)[0]


def _one_per_seed(windows, seeds) -> list:
    """The list of ``windows``, which must hold one window per seed."""
    windows = list(windows)
    if len(windows) != len(seeds):
        raise ValueError(f"need one window per seed, got {len(windows)} for {len(seeds)} seeds")
    return windows


def gen_dominated_pairs(dim: int, windows, seeds,
                        rho: float | None = None,
                        window_side: str = WINDOW_ON_B) -> list:
    """``gen_dominated_pair`` of each (window, seed), with each step stacked
    over the seeds.

    Each seed draws from its own generator in the order a lone pair does,
    so every pair is bit for bit the one ``gen_dominated_pair`` makes.
    """
    ws = [w.require_positive() for w in _one_per_seed(windows, seeds)]
    if window_side not in (WINDOW_ON_A, WINDOW_ON_B):
        raise ValueError(f"window_side must be 'A' or 'B', got {window_side!r}")
    if not seeds:
        return []
    rngs = [_rng(seed) for seed in seeds]
    bounds = _Windows.of(ws)
    anchor, spec = _place_in_window([_window_draws(dim, rng) for rng in rngs], bounds)
    uniforms, gaussians = _perturbation_draws(rngs, 2, dim)
    draw, floor = uniforms.T
    scale = draw if rho is None else np.full(len(rngs), float(rho))
    if window_side == WINDOW_ON_B:
        b = anchor
        margin = POSITIVITY_MARGIN_FACTOR * bounds.m
        lam_min = spec.eigenvalues[:, 0]
        a = hermitize(b - _random_psd(gaussians, scale * np.maximum(lam_min - margin, 0.0), floor))
        spectra = {"spec_A": _eigh(a), "spec_B": spec}
    else:
        a = anchor
        b = hermitize(a + _random_psd(gaussians, scale * (bounds.M - bounds.m), floor))
        spectra = {"spec_A": spec}
    return _certified_pairs(a, b, ws, CERT_DOMINATED, seeds,
                            {"order": _holds(zip(a, b)),
                             "window": spectrum_in_window(spec, bounds, 0.0)},
                            window_side, **spectra)


def gen_chaotic_pair(dim: int, window: SpectralWindow, seed: int) -> CertifiedPair:
    """Pair with log A <= log B and m <= B <= M; A <= B may genuinely fail.

    B = exp(K) for K drawn in the log-window, A = exp(K - Q) for a random
    PSD Q of spectral norm up to MAX_LOG_PERTURBATION.
    """
    return gen_chaotic_pairs(dim, [window], [seed])[0]


def gen_chaotic_pairs(dim: int, windows, seeds) -> list:
    """``gen_chaotic_pair`` of each (window, seed), with each step stacked
    over the seeds; every pair is bit for bit the one a lone call makes.
    Each log-window is taken with ``math.log``, as a lone call takes it."""
    ws = [w.require_positive() for w in _one_per_seed(windows, seeds)]
    if not seeds:
        return []
    rngs = [_rng(seed) for seed in seeds]
    log_windows = _Windows(np.array([math.log(w.m) for w in ws]),
                           np.array([math.log(w.M) for w in ws]))
    k, spec_k = _place_in_window([_window_draws(dim, rng) for rng in rngs], log_windows)
    uniforms, gaussians = _perturbation_draws(rngs, 1, dim)
    q = _random_psd(gaussians, uniforms[:, 0] * MAX_LOG_PERTURBATION, np.zeros(len(rngs)))
    a = matrix_exp(_eigh(hermitize(k - q)))
    b = matrix_exp(spec_k)
    spec_a, spec_b = _eigh(a), _eigh(b)
    bounds = _Windows.of(ws)
    return _certified_pairs(
        a, b, ws, CERT_CHAOTIC, seeds,
        {"log_order": _holds(zip(matrix_log(spec_a), matrix_log(spec_b))),
         "window": spectrum_in_window(spec_b, bounds,
                                      1e-10 * np.maximum(1.0, np.abs(bounds.M)))},
        spec_A=spec_a, spec_B=spec_b)


def gen_relative_pair(dim: int, window: SpectralWindow, seed: int) -> CertifiedPair:
    """Pair with m A <= B <= M A via congruence: B = A^(1/2) C A^(1/2), Sp(C) in [m, M].

    A is drawn with spectrum in RELATIVE_BASE_WINDOW."""
    return gen_relative_pairs(dim, [window], [seed])[0]


def gen_relative_pairs(dim: int, windows, seeds) -> list:
    """``gen_relative_pair`` of each (window, seed), with each step stacked
    over the seeds; every pair is bit for bit the one a lone call makes.
    Every A and every C are placed in one call, the A first."""
    ws = [w.require_positive() for w in _one_per_seed(windows, seeds)]
    if not seeds:
        return []
    rngs = [_rng(seed) for seed in seeds]
    bases, congruents = zip(*[(_window_draws(dim, rng), _window_draws(dim, rng)) for rng in rngs])
    n = len(seeds)
    placed, spec = _place_in_window([*bases, *congruents],
                                    _Windows.of([RELATIVE_BASE_WINDOW] * n + ws))
    a, c = placed[:n], placed[n:]
    spec_a = SpectralDecomposition(spec.eigenvalues[:n], spec.eigenvectors[:n])
    root = matrix_power(spec_a, 0.5)
    b = hermitize(root @ c @ root)
    bounds = _holds([bound for w, a_i, b_i in zip(ws, a, b)
                     for bound in ((w.m * a_i, b_i), (b_i, w.M * a_i))])
    return _certified_pairs(a, b, ws, CERT_RELATIVE, seeds,
                            {"lower": bounds[0::2], "upper": bounds[1::2]},
                            spec_A=spec_a)


class _KrausColumns:
    """The Kraus draws of a stack of maps, each factor drawn straight into
    its column: column k stacks the k-th factor of each map that has one, in
    map order, so each S is summed in Kraus order from zero, as a sum over
    its factors is.  Each column has a row for every map of the stack and is
    filled from the top."""

    def __init__(self, n_maps: int, dim_in: int, dim_out: int):
        self.shape = (n_maps, dim_in, dim_out)
        self.counts = []
        self.columns = []
        self.filled = []

    def draw(self, n_kraus: int, rng) -> None:
        """Draw the next map's n_kraus complex Gaussians V_i from ``rng``."""
        _, dim_in, dim_out = self.shape
        if n_kraus < 1:
            raise ValueError(f"n_kraus must be >= 1, got {n_kraus}")
        if n_kraus * dim_in < dim_out:
            raise ValueError(f"need n_kraus*dim_in >= dim_out for normalization, "
                             f"got {n_kraus}*{dim_in} < {dim_out}")
        for k in range(n_kraus):
            if k == len(self.columns):
                self.columns.append(np.empty(self.shape, dtype=complex))
                self.filled.append(0)
            self.columns[k][self.filled[k]] = _complex_gaussian(rng, dim_in, dim_out)
            self.filled[k] += 1
        self.counts.append(n_kraus)

    def normalized_maps(self, seeds: list) -> list:
        """The normalized map of each draw: W_i = V_i S^(-1/2),
        S = sum V_i* V_i, with every S summed by ``posmaps._gram_sums`` and
        decomposed, tested and inverted as one stack.  The first singular S,
        in map order, raises naming its seed.  The normalization of every
        map is then certified by the same Gram-sum body over the W columns,
        bit for bit each map's own check; the first map in map order that
        fails raises the ValueError it raises when made."""
        counts = np.array(self.counts)
        columns = [column[:filled] for column, filled in zip(self.columns, self.filled)]
        s = _gram_sums(columns, counts)
        s_spec = _eigh(hermitize(s))
        lam = s_spec.eigenvalues
        singular = np.flatnonzero(~(lam[:, 0] > 1e-10 * lam[:, -1]))
        if singular.size:
            raise GenerationError(f"normalization matrix S = sum V_i* V_i is singular "
                                  f"for seed {seeds[singular[0]]}")
        inv_root = matrix_power(s_spec, -0.5)
        # column k's rows follow the maps that have a k-th factor, in map order
        ws = [vs @ inv_root[counts > k] for k, vs in enumerate(columns)]
        # S, its decomposition and S^(-1/2) are each as large as the Gram
        # sums: free them before the certificate's temporaries add to the peak
        del s, s_spec, lam, inv_root
        _require_normalized(_normalization_defects(ws, counts))
        rows = [iter(w) for w in ws]
        return [PositiveLinearMap._certified(tuple(next(rows[k]) for k in range(n)))
                for n in counts]


def gen_positive_linear_map(dim_in: int, dim_out: int, n_kraus: int, seed_or_rng) -> PositiveLinearMap:
    """Random normalized positive linear map: W_i = V_i S^(-1/2), S = sum V_i* V_i."""
    return gen_positive_linear_maps(dim_in, dim_out, [n_kraus], [seed_or_rng])[0]


def gen_positive_linear_maps(dim_in: int, dim_out: int, counts, seeds) -> list:
    """``gen_positive_linear_map`` of each (Kraus count, seed), with S's
    eigensolve and S^(-1/2) stacked over the seeds; every map is bit for bit
    the one a lone call makes.  A singular S raises, naming its seed, and is
    never redrawn."""
    if not seeds:
        return []
    kraus = _KrausColumns(len(seeds), dim_in, dim_out)
    for n_kraus, seed in zip(counts, seeds, strict=True):
        kraus.draw(n_kraus, _rng(seed))
    return kraus.normalized_maps(seeds)


def gen_weighted_family(n_items: int, dim_in: int, dim_out: int,
                        window: SpectralWindow, seed: int) -> WeightedFamily:
    """Random weighted family (w_i, Phi_i, A_i) with Sp(A_i) inside the window;
    each map has 1 to MAX_KRAUS Kraus operators.

    The seed draws the weights, then each item's Kraus count, map and
    operand's window draws; the maps are normalized, and the operands
    placed in the window, as one stack each.  The seed is recorded on the
    family.
    """
    return gen_weighted_families(n_items, dim_in, dim_out, [window], [seed])[0]


def gen_weighted_families(n_items: int, dim_in: int, dim_out: int, windows, seeds) -> list:
    """``gen_weighted_family`` of each (window, seed), with the maps'
    normalization and the operands' placement stacked over every item of
    every seed; each family is bit for bit the one a lone call makes, and is
    validated where it is checked (``check_theorem_4_1``), not here."""
    if not n_items:
        raise HypothesisError("weighted family is empty")
    windows = _one_per_seed(windows, seeds)
    if not seeds:
        return []
    weights, draws = [], []
    kraus = _KrausColumns(len(seeds) * n_items, dim_in, dim_out)
    for seed in seeds:
        rng = _rng(seed)
        raw = 0.1 + rng.random(n_items)
        weights.append(raw / raw.sum())
        for _ in range(n_items):
            kraus.draw(int(rng.integers(1, MAX_KRAUS + 1)), rng)
            draws.append(_window_draws(dim_in, rng))
    maps = kraus.normalized_maps([seed for seed in seeds for _ in range(n_items)])
    ops, spec = _place_in_window(draws, _Windows.of([w for w in windows for _ in range(n_items)]))
    decs = spec.members()
    families = []
    for i, (window, seed) in enumerate(zip(windows, seeds)):
        items = slice(i * n_items, (i + 1) * n_items)
        family = WeightedFamily(items=tuple(zip(map(float, weights[i]), maps[items], ops[items])),
                                window=window, seed=int(seed))
        families.append(_with_spectra(family, spectra=tuple(decs[items])))
    return families


def pair_to_json(pair: CertifiedPair) -> dict:
    """JSON-lines exchange record for a certified pair."""
    return {
        "certificate": pair.certificate,
        "seed": pair.seed,
        "window": {"m": pair.window.m, "M": pair.window.M},
        "window_side": pair.window_side,
        "A": matrix_to_json(pair.A),
        "B": matrix_to_json(pair.B),
    }


def pair_from_json(obj: dict) -> CertifiedPair:
    """The pair of a ``pair_to_json`` record.  A and B are validated once, as
    one stack, which the pair is handed as its ``operands`` (its A and B are
    views of it); A and B of different shapes raise ValueError."""
    operands = hermitian(np.stack([_matrix_entries(obj["A"]), _matrix_entries(obj["B"])]),
                         "pair (A, B)")
    pair = CertifiedPair(
        A=operands[0],
        B=operands[1],
        window=SpectralWindow(obj["window"]["m"], obj["window"]["M"]),
        certificate=obj["certificate"],
        seed=int(obj["seed"]),
        window_side=obj.get("window_side", WINDOW_ON_B),
    )
    return _with_spectra(pair, operands=operands)


def write_corpus(path, pairs) -> None:
    """One certified pair per line, in the JSON exchange format."""
    with open(path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(json.dumps(pair_to_json(pair), separators=(",", ":")) + "\n")


def read_corpus(path) -> list[CertifiedPair]:
    pairs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                pairs.append(pair_from_json(json.loads(line)))
    return pairs
