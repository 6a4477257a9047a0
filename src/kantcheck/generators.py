"""Seeded generators for matrix pairs and Kraus maps.

Every generator re-verifies its hypothesis certificate with the
hermitian-core checks before returning; a pair that comes out of this
module can be trusted by the chain verifiers.  All randomness flows from
an integer seed through numpy's PCG64 generator, so identical
(seed, dim, window) inputs reproduce identical artifacts byte-for-byte
in the exchange format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GenerationError
from .hermitian import (
    DIM_CAP,
    Array,
    SpectralDecomposition,
    SpectralWindow,
    eig_hermitian,
    hermitize,
    loewner_leq,  # noqa: F401  (still importable from this module, as before)
    loewner_verdicts,
    matrix_exp,
    matrix_log,
    matrix_power,
    matrix_from_json,
    matrix_to_json,
    spectrum_in_window,
)
from .posmaps import PositiveLinearMap, WeightedFamily

CERT_DOMINATED = "dominated"
CERT_CHAOTIC = "chaotic"
CERT_RELATIVE = "relative"

WINDOW_ON_B = "B"
WINDOW_ON_A = "A"

ENDPOINT_PROB = 0.2
POSITIVITY_MARGIN_FACTOR = 1e-6
RELATIVE_BASE_WINDOW = SpectralWindow(0.5, 2.0)
MAX_KRAUS = 3


@dataclass(frozen=True)
class CertifiedPair:
    """A pair (A, B) together with the hypothesis it was generated under.

    certificate is one of "dominated" (A <= B with the window on the side
    named by window_side), "chaotic" (log A <= log B, window on B) or
    "relative" (m A <= B <= M A).

    spec_A and spec_B decompose A and B on first use and are kept, since
    the matrices are never modified after construction.
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
    def spec_A(self) -> SpectralDecomposition:
        return eig_hermitian(self.A)

    @cached_property
    def spec_B(self) -> SpectralDecomposition:
        return eig_hermitian(self.B)


def _rng(seed_or_rng) -> np.random.Generator:
    return np.random.default_rng(seed_or_rng)


def _complex_gaussian(rng, rows: int, cols: int) -> Array:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def haar_unitary(dim: int, rng) -> Array:
    """Haar-ish random unitary from the QR factorization of a complex Gaussian."""
    rng = _rng(rng)
    q, r = np.linalg.qr(_complex_gaussian(rng, dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gen_hermitian_in_window(dim: int, window: SpectralWindow, rng) -> Array:
    """Random Hermitian matrix whose spectrum lies inside [m, M].

    Eigenvalues are drawn uniformly with probability 0.2 each of hitting
    m and M exactly, then conjugated by a random unitary.  The result is
    re-verified to pass the window check with zero tolerance; if roundoff
    pushed an eigenvalue outside, the targets are nudged inward by a few
    ulps and the matrix is rebuilt.
    """
    return _in_window(dim, window, rng)[0]


def _in_window(dim: int, window: SpectralWindow, rng) -> tuple[Array, SpectralDecomposition]:
    """``gen_hermitian_in_window`` and the decomposition its window test made,
    which is ``eig_hermitian`` of the returned matrix."""
    if not 1 <= dim <= DIM_CAP:
        raise ValueError(f"dim {dim} outside supported range [1, {DIM_CAP}]")
    rng = _rng(rng)
    u = rng.random(dim)
    interior = window.m + window.width * rng.random(dim)
    lam = np.where(u < ENDPOINT_PROB, window.m,
                   np.where(u < 2 * ENDPOINT_PROB, window.M, interior))
    q = haar_unitary(dim, rng)
    scale = max(abs(window.m), abs(window.M), 1.0)
    margin = 8.0 * np.finfo(float).eps * scale
    target = np.sort(lam)
    for _ in range(6):
        a = hermitize((q * target) @ q.conj().T)
        dec = eig_hermitian(a)
        if spectrum_in_window(dec, window, 0.0):
            return a, dec
        target = np.clip(target, window.m + margin, window.M - margin)
        margin *= 8.0
    raise GenerationError(f"could not place a spectrum inside [{window.m}, {window.M}]")


def _with_spectra(obj, **spectra):
    """``obj`` with decompositions its generator already made stored as the
    values of its cached spectra properties, which are then not recomputed."""
    vars(obj).update(spectra)
    return obj


def _random_psd(dim: int, rng, spectral_norm: float, iso_floor: float = 0.0) -> Array:
    """PSD matrix of the requested spectral norm: normalized G*G from a
    complex Gaussian G, optionally blended with an isotropic floor.

    A pure Wishart G*G has its smallest eigenvalue pinned near zero by the
    condition number; the floor lifts it to iso_floor * spectral_norm so
    perturbation slacks can reach any fraction of the norm across seeds.
    """
    g = _complex_gaussian(rng, dim, dim)
    p = hermitize(g.conj().T @ g)
    top = float(np.linalg.eigvalsh(p)[-1])
    if spectral_norm <= 0.0 or top == 0.0:
        return np.zeros((dim, dim), dtype=complex)
    blended = iso_floor * np.eye(dim) + (1.0 - iso_floor) * (p / top)
    return blended * spectral_norm


def gen_dominated_pair(dim: int, window: SpectralWindow, seed: int,
                       rho: float | None = None,
                       window_side: str = WINDOW_ON_B) -> CertifiedPair:
    """Pair with A <= B and strictly positive A.

    window_side "B" bounds m <= B <= M and subtracts a PSD perturbation of
    norm rho*(lambda_min(B) - eps) to get A; window_side "A" bounds A and
    adds a PSD perturbation of norm rho*(M - m) to get B.  rho defaults to
    a uniform draw in (0, 1); passing rho=0 yields A = B.
    """
    w = window.require_positive()
    rng = _rng(seed)
    anchor, spec = _in_window(dim, w, rng)
    draw = rng.random()
    scale = float(draw if rho is None else rho)
    floor = rng.random()
    if window_side == WINDOW_ON_B:
        b = anchor
        lam_min = float(spec.eigenvalues[0])
        margin = POSITIVITY_MARGIN_FACTOR * w.m
        p = _random_psd(dim, rng, scale * max(lam_min - margin, 0.0), iso_floor=floor)
        a = hermitize(b - p)
    elif window_side == WINDOW_ON_A:
        a = anchor
        p = _random_psd(dim, rng, scale * w.width, iso_floor=floor)
        b = hermitize(a + p)
    else:
        raise ValueError(f"window_side must be 'A' or 'B', got {window_side!r}")
    pair = _with_spectra(CertifiedPair(A=a, B=b, window=w, certificate=CERT_DOMINATED,
                                       seed=int(seed), window_side=window_side),
                         **{f"spec_{window_side}": spec})
    (order,) = loewner_verdicts([(a, b)])
    return _certified(pair, order=order.holds, window=spectrum_in_window(spec, w, 0.0))


def _certified(pair: CertifiedPair, **facts) -> CertifiedPair:
    """Return ``pair`` if each named certificate fact holds, plus the one all
    certificates share, a strictly positive A; else raise listing every fact."""
    facts["positive"] = float(pair.spec_A.eigenvalues[0]) > 0.0
    if not all(facts.values()):
        listed = " ".join(f"{name}={holds}" for name, holds in facts.items())
        raise GenerationError(f"{pair.certificate} certificate failed for seed {pair.seed}: {listed}")
    return pair


def gen_chaotic_pair(dim: int, window: SpectralWindow, seed: int,
                     max_log_perturbation: float = 2.0) -> CertifiedPair:
    """Pair with log A <= log B and m <= B <= M; A <= B may genuinely fail.

    B = exp(K) for K drawn in the log-window, A = exp(K - Q) for a random
    PSD Q of spectral norm up to max_log_perturbation.
    """
    w = window.require_positive()
    rng = _rng(seed)
    log_window = SpectralWindow(math.log(w.m), math.log(w.M))
    k, spec_k = _in_window(dim, log_window, rng)
    q = _random_psd(dim, rng, rng.random() * max_log_perturbation)
    a = matrix_exp(hermitize(k - q))
    b = matrix_exp(spec_k)
    pair = CertifiedPair(A=a, B=b, window=w, certificate=CERT_CHAOTIC, seed=int(seed))
    (log_order,) = loewner_verdicts([(matrix_log(pair.spec_A), matrix_log(pair.spec_B))])
    return _certified(pair, log_order=log_order.holds,
                      window=spectrum_in_window(pair.spec_B, w, 1e-10 * max(1.0, abs(w.M))))


def gen_relative_pair(dim: int, window: SpectralWindow, seed: int) -> CertifiedPair:
    """Pair with m A <= B <= M A via congruence: B = A^(1/2) C A^(1/2), Sp(C) in [m, M].

    A is drawn with spectrum in RELATIVE_BASE_WINDOW."""
    w = window.require_positive()
    rng = _rng(seed)
    a, spec_a = _in_window(dim, RELATIVE_BASE_WINDOW, rng)
    c = gen_hermitian_in_window(dim, w, rng)
    root = matrix_power(spec_a, 0.5)
    b = hermitize(root @ c @ root)
    pair = _with_spectra(CertifiedPair(A=a, B=b, window=w, certificate=CERT_RELATIVE,
                                       seed=int(seed)), spec_A=spec_a)
    lower, upper = loewner_verdicts([(w.m * a, b), (b, w.M * a)])
    return _certified(pair, lower=lower.holds, upper=upper.holds)


def gen_positive_linear_map(dim_in: int, dim_out: int, n_kraus: int, seed_or_rng) -> PositiveLinearMap:
    """Random normalized positive linear map: W_i = V_i S^(-1/2), S = sum V_i* V_i."""
    if n_kraus < 1:
        raise ValueError(f"n_kraus must be >= 1, got {n_kraus}")
    if n_kraus * dim_in < dim_out:
        raise ValueError(f"need n_kraus*dim_in >= dim_out for normalization, "
                         f"got {n_kraus}*{dim_in} < {dim_out}")
    rng = _rng(seed_or_rng)
    for _ in range(2):
        vs = [_complex_gaussian(rng, dim_in, dim_out) for _ in range(n_kraus)]
        s_spec = eig_hermitian(hermitize(sum(v.conj().T @ v for v in vs)))
        lam = s_spec.eigenvalues
        if lam[0] > 1e-10 * lam[-1]:
            inv_root = matrix_power(s_spec, -0.5)
            kraus = tuple(v @ inv_root for v in vs)
            return PositiveLinearMap(kraus=kraus, dim_in=dim_in, dim_out=dim_out)
    raise GenerationError("normalization matrix stayed singular after a retry")


def gen_weighted_family(n_items: int, dim_in: int, dim_out: int,
                        window: SpectralWindow, seed_or_rng) -> WeightedFamily:
    """Random weighted family (w_i, Phi_i, A_i) with Sp(A_i) inside the window;
    each map has 1 to MAX_KRAUS Kraus operators.

    An integer seed is recorded on the family; a family drawn from a
    Generator records seed 0.
    """
    seed = int(seed_or_rng) if isinstance(seed_or_rng, (int, np.integer)) else 0
    rng = _rng(seed_or_rng)
    raw = 0.1 + rng.random(n_items)
    weights = raw / raw.sum()
    items = []
    spectra = []
    for i in range(n_items):
        n_kraus = int(rng.integers(1, MAX_KRAUS + 1))
        phi = gen_positive_linear_map(dim_in, dim_out, n_kraus, rng)
        op, spec = _in_window(dim_in, window, rng)
        items.append((float(weights[i]), phi, op))
        spectra.append(spec)
    family = WeightedFamily(items=tuple(items), window=window, seed=seed)
    return _with_spectra(family, spectra=tuple(spectra)).validate()


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
    return CertifiedPair(
        A=matrix_from_json(obj["A"]),
        B=matrix_from_json(obj["B"]),
        window=SpectralWindow(obj["window"]["m"], obj["window"]["M"]),
        certificate=obj["certificate"],
        seed=int(obj["seed"]),
        window_side=obj.get("window_side", WINDOW_ON_B),
    )


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
