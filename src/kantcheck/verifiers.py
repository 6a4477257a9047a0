"""Inequality-chain checks, one per statement in the chain catalog.

Each check builds every operator appearing in its chain, tests its "<="
links together at the configured tolerance, in one stacked eigensolve,
with no re-validation of the check's own intermediates, and returns a
ChainReport.  ``_links`` builds every Link, the diagnostics' and the
sharpness hunt's too, straight from ``hermitian._slacks``, the body of
``loewner_verdicts``, with the fields ``loewner_leq`` would give it, bit
for bit, and no LoewnerVerdict.  The
operators a check takes from one decomposition are rebuilt from it in
one call, one row of values each.  A hand-built pair is validated once,
on first use of its cached ``operands``, ``spec_A`` or ``spec_B``, and a
generated pair comes with them; a hand-built family is validated where
it is first decomposed.
Links whose slack sits inside the tolerance band are marked tight rather
than failed: the constants are designed to be attained.
Every multi-link chain also carries an end-to-end audit link comparing
the first and last operators directly, which catches tolerance
accumulation across the middle terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    _endpoint_values,
    beta_generic,
    beta_power_closed,
    kantorovich_C,
    kantorovich_C2,
    kantorovich_K,
    kantorovich_K2,
    power_fun,
)
from .errors import DegenerateExponentError, HypothesisError, ParameterError
from .generators import (
    CERT_CHAOTIC,
    CERT_DOMINATED,
    CERT_RELATIVE,
    WINDOW_ON_A,
    WINDOW_ON_B,
    CertifiedPair,
)
from .hermitian import (
    DEFAULT_REL_TOL,
    Array,
    SpectralDecomposition,
    SpectralWindow,
    _eigh,
    _power_values,
    _slacks,
    _superlog_values,
    apply_scalar_function,
    eval_scalar,
    geometric_interpolant,
    hermitize,
    identity,
    loewner_leq,  # noqa: F401  (still importable from this module, as before)
    matrix_power,
)
from .posmaps import (
    PositiveLinearMap,
    WeightedFamily,
    _apply_map,
    _f_connection,
    sqrt_invsqrt,
)

MIN_EXPONENT_SUM = 1e-3

# Catalog of the verified chains.  G_f denotes the geometric endpoint
# interpolant G_f(t) = f(m)^((M-t)/(M-m)) * f(M)^((t-m)/(M-m)) over the
# window [m, M]; K, K2, C, C2 are the constants module's closed forms and
# beta the gap constant max{chord_f(t) - alpha*g(t)}.
CHAIN_CATALOG = {
    "theorem_1_1": "A <= B, m <= A <= M, p > 1:  A^p <= K(m,M,p) B^p <= (M/m)^(p-1) B^p",
    "theorem_2_1": "A <= B, m <= B <= M, f log-convex:  f(B) <= G_f(B) <= alpha g(A) + beta",
    "corollary_2_2": "A <= B, m <= B <= M, p,q <= 0, alpha > 0:  B^p <= G_{t^p}(B) <= alpha A^q + beta",
    "corollary_2_3": "A <= B, m <= B <= M, p <= 0, -1 <= q < 0:  B^p <= G_{t^p}(B) <= K2(m,M,p,q) A^q",
    "corollary_2_4": "A <= B, m <= B <= M, p,q <= 0:  B^p <= G_{t^p}(B) <= C2(m,M,p,q) I + A^q",
    "lemma_3_1": "log A <= log B, p,r <= 0:  B^r <= (B^(r/2) A^p B^(r/2))^(r/(p+r))",
    "corollary_3_2": "log A <= log B, m <= B <= M, p <= 0, -1 <= r <= 0:  "
                     "B^p <= B^(-r) G_{t^(p+r)}(B) <= K(m,M,p+r) A^p",
    "corollary_3_3": "log A <= log B, m <= B <= M, p <= 0, -1 <= r <= 0:  "
                     "B^p <= B^(-r) G_{t^(p+r)}(B) <= C(m,M,p+r) B^(-r) + A^p",
    "theorem_4_1": "Sp(A_i) in [m,M], sum w_i = 1, f log-convex:  "
                   "sum w_i Phi_i(f(A_i)) <= sum w_i Phi_i(G_f(A_i)) <= alpha g(sum w_i Phi_i(A_i)) + beta",
    "theorem_4_2": "m A <= B <= M A, f log-convex:  "
                   "Phi(A sigma_f B) <= Phi(A^(1/2) G_f(T) A^(1/2)) <= beta Phi(A) + alpha Phi(A) sigma_f Phi(B)",
    "corollary_4_3": "m A <= B <= M A, p <= 0, alpha > 0:  "
                     "Phi(A #_p B) <= Phi(A^(1/2) G_{t^p}(T) A^(1/2)) <= beta Phi(A) + alpha Phi(A) #_p Phi(B)",
    "corollary_4_4": "m A <= B <= M A, p <= 0:  ratio bound K(m,M,p) Phi(A) #_p Phi(B) or "
                     "difference bound C(m,M,p) Phi(A) + Phi(A) #_p Phi(B) above Phi(A #_p B)",
    "theorem_4_5": "m A <= B <= M A, -1 <= p < 0:  Phi(T_p(A|B)) bounded below through the "
                   "interpolant and above by T_p(Phi(A)|Phi(B))",
}


@dataclass(frozen=True)
class Link:
    """One tested "<=" of a chain with its smallest difference eigenvalue."""

    label: str
    min_slack: float
    tolerance: float
    holds: bool
    tight: bool

    def to_json_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class ChainReport:
    """Per-instance record of every link in one theorem chain."""

    theorem_id: str
    dim: int
    seed: int
    params: dict
    links: list
    overall: bool
    notes: list = field(default_factory=list)

    def link(self, label_fragment: str) -> Link:
        for lk in self.links:
            if label_fragment in lk.label:
                return lk
        raise KeyError(f"no link matching {label_fragment!r} in {self.theorem_id}")

    def to_json_dict(self) -> dict:
        return {**self.__dict__, "links": [lk.to_json_dict() for lk in self.links]}


def _links(rel_tol: float, *tests) -> list:
    """One Link per (label, lhs, rhs) test of lhs <= rhs, all tested in one
    stacked eigensolve; the matrices are the check's own intermediates."""
    slacks, tols = _slacks([(lhs, rhs) for _, lhs, rhs in tests], rel_tol)
    return [Link(label=label, min_slack=slack, tolerance=tol, holds=slack >= -tol,
                 tight=abs(slack) < tol)
            for (label, _, _), slack, tol in zip(tests, slacks.tolist(), tols.tolist())]


def _chain(lower: tuple, mid: tuple, upper: tuple, rel_tol: float, *before) -> list:
    """Links lower <= mid and mid <= upper, then the audit lower <= upper,
    after the (label, lhs, rhs) tests ``before``, all in one eigensolve.

    Each term is a (printed name, matrix) pair; the labels are built from
    the printed names.
    """
    (lo, lo_op), (mi, mid_op), (up, up_op) = lower, mid, upper
    return _links(rel_tol, *before,
                  (f"{lo} <= {mi}", lo_op, mid_op),
                  (f"{mi} <= {up}", mid_op, up_op),
                  (f"{lo} <= {up} [audit]", lo_op, up_op))


def _finish(theorem_id: str, dim: int, seed: int, window: SpectralWindow, params: dict,
            links: list, notes: list | None = None) -> ChainReport:
    """The report of one check; its params start with the window's m and M."""
    return ChainReport(
        theorem_id=theorem_id,
        dim=dim,
        seed=seed,
        params={"m": window.m, "M": window.M, **params},
        links=links,
        overall=all(lk.holds for lk in links),
        notes=notes or [],
    )


def _fuzz_notes(name: str, value: float, outside: bool) -> list:
    """The report note of an exponent run outside its [-1, 0] regime (fuzz mode)."""
    note = f"{name}={value} outside the [-1, 0] regime; result is a fuzz observation"
    return [note] if outside else []


def _require_certificate(pair: CertifiedPair, certificate: str, check: str) -> None:
    if pair.certificate != certificate:
        raise HypothesisError(
            f"{check} needs a {certificate!r} pair, got certificate {pair.certificate!r}")


def check_theorem_1_1(pair: CertifiedPair, p: float,
                      rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """A^p <= K(m,M,p) B^p <= (M/m)^(p-1) B^p for A <= B, m <= A <= M, p > 1;
    p <= 1 raises ParameterError."""
    _require_certificate(pair, CERT_DOMINATED, "check_theorem_1_1")
    if pair.window_side != WINDOW_ON_A:
        raise HypothesisError("check_theorem_1_1 needs the window certified on A")
    p = float(p)
    if p <= 1.0:
        raise ParameterError(f"order-preserving bound needs p > 1, got p={p}")
    w = pair.window
    k = kantorovich_K(w, p)
    a_pow = matrix_power(pair.spec_A, p)
    b_pow = matrix_power(pair.spec_B, p)
    cap = (w.M / w.m) ** (p - 1.0)
    links = _chain(("A^p", a_pow), ("K B^p", k * b_pow), ("(M/m)^(p-1) B^p", cap * b_pow),
                   rel_tol)
    return _finish("theorem_1_1", pair.dim, pair.seed, w, {"p": p, "K": k}, links)


def _interpolant_chain(pair: CertifiedPair, f, g_a: Array, alpha: float, beta: float,
                       names: tuple, rel_tol: float) -> list:
    """The links of f(B) <= G_f(B) <= alpha g(A) + beta I, the chain theorem 2.1
    and corollaries 2.2-2.4 share; ``g_a`` is g(A), formed by the caller, and
    ``names`` are the printed names of the three terms."""
    w, spec = pair.window, pair.spec_B
    g_vals = _superlog_values(spec, w, *_endpoint_values(f, w), 1e-9)
    f_b, g_b = spec.rebuild(np.array([eval_scalar(f, spec.eigenvalues), g_vals]))
    lower, middle, upper = names
    return _chain((lower, f_b), (middle, g_b),
                  (upper, alpha * g_a + beta * identity(pair.dim)), rel_tol)


def check_theorem_2_1(pair: CertifiedPair, f, g, alpha: float,
                      rel_tol: float = DEFAULT_REL_TOL, *,
                      beta: float | None = None) -> ChainReport:
    """f(B) <= G_f(B) <= alpha g(A) + beta for a log-convex f on the window.

    The sign of alpha names the case: alpha > 0 is case (i), g decreasing
    convex; alpha < 0 is case (ii), g increasing concave.  g itself is a
    black box and is not checked.  beta is the oracle gap of f against
    alpha g on the window; omitted, it is computed here.
    """
    _require_certificate(pair, CERT_DOMINATED, "check_theorem_2_1")
    if pair.window_side != WINDOW_ON_B:
        raise HypothesisError("check_theorem_2_1 needs the window certified on B")
    alpha = float(alpha)
    if alpha == 0.0:
        raise HypothesisError("theorem 2.1 needs alpha != 0: alpha > 0 is case (i), "
                              "alpha < 0 case (ii)")
    w = pair.window
    if beta is None:
        beta = beta_generic(f, g, alpha, w).value
    links = _interpolant_chain(pair, f, apply_scalar_function(pair.spec_A, g), alpha, beta,
                               ("f(B)", "G_f(B)", "alpha g(A) + beta"), rel_tol)
    return _finish("theorem_2_1", pair.dim, pair.seed, w,
                   {"alpha": alpha, "beta": beta, "case": "ii" if alpha < 0.0 else "i"}, links)


def check_corollary_2_2(pair: CertifiedPair, p: float, q: float, alpha: float,
                        rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """B^p <= G_{t^p}(B) <= alpha A^q + beta for p, q <= 0 and alpha > 0;
    beta_power_closed enforces that regime before any matrix is built."""
    _require_certificate(pair, CERT_DOMINATED, "check_corollary_2_2")
    p, q, alpha = float(p), float(q), float(alpha)
    w = pair.window
    beta = beta_power_closed(w, p, q, alpha)
    links = _interpolant_chain(pair, power_fun(p), matrix_power(pair.spec_A, q), alpha, beta,
                               ("B^p", "G_{t^p}(B)", "alpha A^q + beta"), rel_tol)
    return _finish("corollary_2_2", pair.dim, pair.seed, w,
                   {"p": p, "q": q, "alpha": alpha, "beta": beta}, links)


def check_corollary_2_3(pair: CertifiedPair, p: float, q: float,
                        rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """B^p <= G_{t^p}(B) <= K2(m,M,p,q) A^q; regime p <= 0, -1 <= q < 0.

    Values of q outside [-1, 0) are still executed (fuzz mode) and flagged
    in the report notes instead of being rejected.
    """
    _require_certificate(pair, CERT_DOMINATED, "check_corollary_2_3")
    p, q = float(p), float(q)
    if p > 0.0:
        raise ParameterError(f"needs p <= 0, got p={p}")
    w = pair.window
    k2 = kantorovich_K2(w, p, q)
    links = _interpolant_chain(pair, power_fun(p), matrix_power(pair.spec_A, q), k2, 0.0,
                               ("B^p", "G_{t^p}(B)", "K2 A^q"), rel_tol)
    return _finish("corollary_2_3", pair.dim, pair.seed, w, {"p": p, "q": q, "K2": k2}, links,
                   _fuzz_notes("q", q, q < -1.0 - 1e-12 or q > 0.0))


def check_corollary_2_4(pair: CertifiedPair, p: float, q: float,
                        rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """B^p <= G_{t^p}(B) <= C2(m,M,p,q) I + A^q for p, q <= 0; C2 enforces
    that regime before any matrix is built."""
    _require_certificate(pair, CERT_DOMINATED, "check_corollary_2_4")
    p, q = float(p), float(q)
    w = pair.window
    c2 = kantorovich_C2(w, p, q)
    links = _interpolant_chain(pair, power_fun(p), matrix_power(pair.spec_A, q), 1.0, c2,
                               ("B^p", "G_{t^p}(B)", "C2 + A^q"), rel_tol)
    return _finish("corollary_2_4", pair.dim, pair.seed, w, {"p": p, "q": q, "C2": c2}, links)


def _chaotic_exponents(p: float, r: float) -> tuple[float, float]:
    p, r = float(p), float(r)
    if p > 0.0 or r > 0.0:
        raise ParameterError(f"needs p <= 0 and r <= 0, got p={p}, r={r}")
    if p + r > -MIN_EXPONENT_SUM:
        raise DegenerateExponentError(
            f"p + r = {p + r} too close to 0; the outer exponent r/(p+r) degenerates")
    return p, r


def furuta_term(pair: CertifiedPair, p: float, r: float) -> SpectralDecomposition:
    """The decomposition of B^(r/2) A^p B^(r/2), the two-sided product of the chaotic order."""
    half = matrix_power(pair.spec_B, r / 2.0)
    return _eigh(hermitize(half @ matrix_power(pair.spec_A, p) @ half))


def check_lemma_3_1_forward(pair: CertifiedPair, p: float, r: float,
                            rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """B^r <= (B^(r/2) A^p B^(r/2))^(r/(p+r)) under the chaotic order, p, r <= 0."""
    _require_certificate(pair, CERT_CHAOTIC, "check_lemma_3_1_forward")
    p, r = _chaotic_exponents(p, r)
    rhs = matrix_power(furuta_term(pair, p, r), r / (p + r))
    links = _links(rel_tol,
                   ("B^r <= (B^(r/2) A^p B^(r/2))^(r/(p+r))", matrix_power(pair.spec_B, r), rhs))
    return _finish("lemma_3_1", pair.dim, pair.seed, pair.window, {"p": p, "r": r}, links)


def lemma_3_1_exponent_slacks(pair: CertifiedPair, p: float, r: float,
                              rel_tol: float = DEFAULT_REL_TOL) -> list:
    """The links B^r <= (B^(r/2) A^p B^(r/2))^e of the two candidate outer
    exponents e = r/(p+r) and e = p/(p+r), in that order.

    Diagnostic used by the sharpness hunt to record which exponent the
    chaotic order actually supports; the conformance check uses r/(p+r).
    """
    _require_certificate(pair, CERT_CHAOTIC, "lemma_3_1_exponent_slacks")
    p, r = _chaotic_exponents(p, r)
    b_r = matrix_power(pair.spec_B, r)
    term = furuta_term(pair, p, r)
    exponents = {"r/(p+r)": r / (p + r), "p/(p+r)": p / (p + r)}
    powers = term.rebuild(np.array([_power_values(term, expo) for expo in exponents.values()]))
    return _links(rel_tol, *((f"B^r <= (B^(r/2) A^p B^(r/2))^({name})", b_r, power)
                             for name, power in zip(exponents, powers)))


def _chaotic_middle(pair: CertifiedPair, p: float, r: float) -> Array:
    """The eigenvalues of B^(-r) G_{t^(p+r)}(B), a single scalar function of B.

    Both factors are functions of B and commute exactly, so the product is
    computed as t -> t^(-r) G_{t^(p+r)}(t) on the spectrum; this avoids
    commutator noise from multiplying two separately rounded matrices.
    """
    w, s = pair.window, p + r
    g = geometric_interpolant(w, s * math.log(w.m), s * math.log(w.M))
    return eval_scalar(lambda t: t ** (-r) * g(t), pair.spec_B.eigenvalues)


def _chaotic_terms(pair: CertifiedPair, p: float, r: float, *rows) -> Array:
    """B^p, B^(-r) G_{t^(p+r)}(B) and one more function of B per row of
    eigenvalues in ``rows``, rebuilt from B's decomposition in one call."""
    b_p = _power_values(pair.spec_B, p)
    return pair.spec_B.rebuild(np.array([b_p, _chaotic_middle(pair, p, r), *rows]))


def _chaotic_chain(b_p: Array, mid: Array, upper: tuple, rel_tol: float) -> list:
    """The links of B^p <= B^(-r) G_{t^(p+r)}(B) <= upper, the chain corollaries
    3.2 and 3.3 share; ``upper`` is the (printed name, matrix) term that sets each apart."""
    return _chain(("B^p", b_p), ("B^(-r) G_{t^(p+r)}(B)", mid), upper, rel_tol)


def check_corollary_3_2(pair: CertifiedPair, p: float, r: float,
                        rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """B^p <= B^(-r) G_{t^(p+r)}(B) <= K(m,M,p+r) A^p under the chaotic order."""
    _require_certificate(pair, CERT_CHAOTIC, "check_corollary_3_2")
    p, r = _chaotic_exponents(p, r)
    w = pair.window
    k = kantorovich_K(w, p + r)
    a_p = matrix_power(pair.spec_A, p)
    links = _chaotic_chain(*_chaotic_terms(pair, p, r), ("K A^p", k * a_p), rel_tol)
    return _finish("corollary_3_2", pair.dim, pair.seed, w, {"p": p, "r": r, "K": k}, links,
                   _fuzz_notes("r", r, r < -1.0 - 1e-12))


def check_corollary_3_3(pair: CertifiedPair, p: float, r: float,
                        rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """B^p <= B^(-r) G_{t^(p+r)}(B) <= C(m,M,p+r) B^(-r) + A^p under the chaotic order.

    The constant term carries the same B^(-r) weight as the interpolant:
    the chain is obtained by conjugating the one-operator difference bound
    with B^(-r/2), which multiplies the constant by B^(-r).  The unweighted
    variant C(m,M,p+r) I + A^p is false for windows above 1 (see
    corollary_3_3_unweighted_slack and the sharpness hunt for witnesses).
    """
    _require_certificate(pair, CERT_CHAOTIC, "check_corollary_3_3")
    p, r = _chaotic_exponents(p, r)
    w = pair.window
    c = kantorovich_C(w, p + r)
    b_neg_r = _power_values(pair.spec_B, -r)
    a_p = matrix_power(pair.spec_A, p)
    b_p, mid, b_neg_r = _chaotic_terms(pair, p, r, b_neg_r)
    links = _chaotic_chain(b_p, mid, ("C B^(-r) + A^p", c * b_neg_r + a_p), rel_tol)
    return _finish("corollary_3_3", pair.dim, pair.seed, w, {"p": p, "r": r, "C": c}, links,
                   _fuzz_notes("r", r, r < -1.0 - 1e-12))


def corollary_3_3_unweighted_slack(pair: CertifiedPair, p: float, r: float,
                                   rel_tol: float = DEFAULT_REL_TOL) -> Link:
    """The link of the unweighted final bound C(m,M,p+r) I + A^p.

    Diagnostic only: this variant drops the B^(-r) weight on the constant
    and is refuted already by commuting instances on windows with m > 1;
    the sharpness hunt records where it breaks.
    """
    _require_certificate(pair, CERT_CHAOTIC, "corollary_3_3_unweighted_slack")
    p, r = _chaotic_exponents(p, r)
    w = pair.window
    c = kantorovich_C(w, p + r)
    mid = pair.spec_B.rebuild(_chaotic_middle(pair, p, r))
    rhs = c * identity(pair.dim) + matrix_power(pair.spec_A, p)
    (link,) = _links(rel_tol, ("B^(-r) G_{t^(p+r)}(B) <= C I + A^p", mid, rhs))
    return link


def check_theorem_4_1(family: WeightedFamily, f, g, alpha: float,
                      rel_tol: float = DEFAULT_REL_TOL, *,
                      beta: float | None = None) -> ChainReport:
    """Weighted-map chain: sum w_i Phi_i(f(A_i)) <= sum w_i Phi_i(G_f(A_i))
    <= alpha g(sum w_i Phi_i(A_i)) + beta for log-convex f, continuous g.

    beta is the oracle gap of f against alpha g on the window; omitted, it
    is computed here."""
    family.validate()
    w = family.window
    alpha = float(alpha)
    if beta is None:
        beta = beta_generic(f, g, alpha, w).value
    fm, fM = _endpoint_values(f, w)
    dim_out = family.items[0][1].dim_out
    acc = np.zeros((3, dim_out, dim_out), dtype=complex)
    for (weight, phi, op), spec in zip(family.items, family.spectra):
        f_vals = eval_scalar(f, spec.eigenvalues)
        rows = np.array([f_vals, _superlog_values(spec, w, fm, fM, 1e-9)])
        acc += weight * _apply_map(phi, np.concatenate([spec.rebuild(rows), op[None]]))
    lhs, mid, agg = hermitize(acc)
    rhs = alpha * apply_scalar_function(_eigh(agg), g) + beta * identity(dim_out)
    links = _chain(("sum w_i Phi_i(f(A_i))", lhs), ("sum w_i Phi_i(G_f(A_i))", mid),
                   ("alpha g(agg) + beta", rhs), rel_tol)
    dim_in = family.items[0][1].dim_in
    return _finish("theorem_4_1", dim_in, family.seed, w,
                   {"alpha": alpha, "beta": beta, "n": len(family.items), "dim_out": dim_out},
                   links)


def _relative_means(pair: CertifiedPair, f) -> tuple:
    """The pair's operands A and B, then A sigma_f B and
    A^(1/2) G_f(T) A^(1/2), both rebuilt from the one decomposition of
    T = A^(-1/2) B A^(-1/2)."""
    a, b = pair.operands
    w = pair.window
    rt, irt = sqrt_invsqrt(pair.spec_A)
    t = _eigh(hermitize(irt @ b @ irt))
    g_vals = _superlog_values(t, w, *_endpoint_values(f, w), 1e-8)
    f_vals = eval_scalar(f, t.eigenvalues)
    mean, interp = hermitize(rt @ t.rebuild(np.array([f_vals, g_vals])) @ rt)
    return a, b, mean, interp


def _mapped_mean(phi_a: Array, phi_b: Array, f) -> Array:
    """Phi(A) sigma_f Phi(B) of the mapped operands."""
    return _f_connection(sqrt_invsqrt(_eigh(phi_a)), phi_b, f)


def _relative_chain(pair: CertifiedPair, phi: PositiveLinearMap, f, alpha: float, beta: float,
                    names: tuple, rel_tol: float, *before) -> list:
    """The links of Phi(A sigma_f B) <= Phi(A^(1/2) G_f(T) A^(1/2))
    <= beta Phi(A) + alpha Phi(A) sigma_f Phi(B), the chain theorem 4.2 and
    corollaries 4.3 and 4.4 share; ``names`` are the printed names of the
    three terms.  A sigma_f B, the G-term, A and B are mapped in one call.
    Each label in ``before`` names a forward baseline link
    Phi(A) sigma_f Phi(B) <= Phi(A sigma_f B), tested ahead of the chain."""
    a, b, mean, interp = _relative_means(pair, f)
    lhs, mid, phi_a, phi_b = _apply_map(phi, np.array([mean, interp, a, b]))
    mean_term = _mapped_mean(phi_a, phi_b, f)
    lower, middle, upper = names
    return _chain((lower, lhs), (middle, mid), (upper, beta * phi_a + alpha * mean_term), rel_tol,
                  *((label, mean_term, lhs) for label in before))


def check_theorem_4_2(pair: CertifiedPair, phi: PositiveLinearMap, f, alpha: float,
                      rel_tol: float = DEFAULT_REL_TOL, *,
                      beta: float | None = None) -> ChainReport:
    """Phi(A sigma_f B) <= Phi(A^(1/2) G_f(T) A^(1/2)) <= beta Phi(A) + alpha Phi(A) sigma_f Phi(B).

    T = A^(-1/2) B A^(-1/2) has spectrum in [m, M] by the relative
    certificate; beta is the oracle gap of f against itself at the given
    alpha; omitted, it is computed here.
    """
    _require_certificate(pair, CERT_RELATIVE, "check_theorem_4_2")
    alpha = float(alpha)
    w = pair.window
    if beta is None:
        beta = beta_generic(f, f, alpha, w).value
    links = _relative_chain(pair, phi, f, alpha, beta,
                            ("Phi(A sigma_f B)", "Phi(A^(1/2) G_f(T) A^(1/2))",
                             "beta Phi(A) + alpha Phi(A) sigma_f Phi(B)"), rel_tol)
    return _finish("theorem_4_2", pair.dim, pair.seed, w,
                   {"alpha": alpha, "beta": beta, "dim_out": phi.dim_out}, links)


def check_corollary_4_3(pair: CertifiedPair, phi: PositiveLinearMap, p: float, alpha: float,
                        rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """Power-mean case with closed-form beta: Phi(A #_p B) <= interpolant term
    <= beta Phi(A) + alpha Phi(A) #_p Phi(B), beta = beta_power_closed(p, p, alpha),
    which enforces p <= 0 and alpha > 0 before any matrix is built."""
    _require_certificate(pair, CERT_RELATIVE, "check_corollary_4_3")
    p, alpha = float(p), float(alpha)
    w = pair.window
    beta = beta_power_closed(w, p, p, alpha)
    links = _relative_chain(pair, phi, power_fun(p), alpha, beta,
                            ("Phi(A #_p B)", "Phi(A^(1/2) G_{t^p}(T) A^(1/2))",
                             "beta Phi(A) + alpha Phi(A) #_p Phi(B)"), rel_tol)
    return _finish("corollary_4_3", pair.dim, pair.seed, w,
                   {"p": p, "alpha": alpha, "beta": beta, "dim_out": phi.dim_out}, links)


def check_corollary_4_4(pair: CertifiedPair, phi: PositiveLinearMap, p: float,
                        mode: str = "ratio",
                        rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """Reverses of the map-mean inequality for p <= 0.

    ratio mode bounds Phi(A #_p B) by K(m,M,p) Phi(A) #_p Phi(B) through
    the interpolant term; difference mode bounds it by
    C(m,M,p) Phi(A) + Phi(A) #_p Phi(B).  For -1 <= p < 0 the forward
    baseline Phi(A) #_p Phi(B) <= Phi(A #_p B) is checked alongside.
    """
    _require_certificate(pair, CERT_RELATIVE, "check_corollary_4_4")
    p = float(p)
    if p > 0.0:
        raise ParameterError(f"needs p <= 0, got p={p}")
    if mode not in ("ratio", "difference"):
        raise ValueError(f"mode must be 'ratio' or 'difference', got {mode!r}")
    w = pair.window
    params = {"p": p, "mode": mode, "dim_out": phi.dim_out}
    if mode == "ratio":
        alpha, beta, upper = kantorovich_K(w, p), 0.0, "K Phi(A) #_p Phi(B)"
        params["K"] = alpha
    else:
        alpha, beta, upper = 1.0, kantorovich_C(w, p), "C Phi(A) + Phi(A) #_p Phi(B)"
        params["C"] = beta
    baseline = ("Phi(A) #_p Phi(B) <= Phi(A #_p B) [baseline]",) if -1.0 <= p < 0.0 else ()
    links = _relative_chain(pair, phi, power_fun(p), alpha, beta,
                            ("Phi(A #_p B)", "Phi(A^(1/2) G_{t^p}(T) A^(1/2))", upper), rel_tol,
                            *baseline)
    return _finish("corollary_4_4", pair.dim, pair.seed, w, params, links)


def check_theorem_4_5(pair: CertifiedPair, phi: PositiveLinearMap, p: float,
                      rel_tol: float = DEFAULT_REL_TOL) -> ChainReport:
    """Entropy bounds for -1 <= p < 0, tested as two lower chains plus the
    forward baseline Phi(T_p(A|B)) <= T_p(Phi(A)|Phi(B)).

    The middle term is (Phi(A^(1/2) G_{t^p}(T) A^(1/2)) - Phi(A)) / p; the
    two lower bounds use K(m,M,p) with the mean term and C(m,M,p) with
    Phi(A) respectively.
    """
    _require_certificate(pair, CERT_RELATIVE, "check_theorem_4_5")
    p = float(p)
    if not (-1.0 <= p < 0.0):
        raise ParameterError(f"entropy bounds need -1 <= p < 0, got p={p}")
    w = pair.window
    k = kantorovich_K(w, p)
    c = kantorovich_C(w, p)
    a, b, mean_in, interp = _relative_means(pair, power_fun(p))
    # T_p(X|Y) = (X #_p Y - X)/p from means built once
    entropy_in = hermitize((mean_in - a) / p)
    lhs, phi_interp, phi_a, phi_b = _apply_map(phi, np.array([entropy_in, interp, a, b]))
    mid = hermitize((phi_interp - phi_a) / p)
    mean_term = _mapped_mean(phi_a, phi_b, power_fun(p))
    entropy_out = hermitize((mean_term - phi_a) / p)
    ratio_floor = hermitize(entropy_out - ((1.0 - k) / p) * mean_term)
    diff_floor = hermitize(entropy_out + (c / p) * phi_a)
    links = _links(
        rel_tol,
        ("Phi(T_p(A|B)) >= (Phi(G-term) - Phi(A))/p", mid, lhs),
        ("(Phi(G-term) - Phi(A))/p >= T_p(Phi(A)|Phi(B)) - ((1-K)/p) mean", ratio_floor, mid),
        ("Phi(T_p(A|B)) >= T_p(Phi(A)|Phi(B)) - ((1-K)/p) mean [audit]", ratio_floor, lhs),
        ("(Phi(G-term) - Phi(A))/p >= T_p(Phi(A)|Phi(B)) + (C/p) Phi(A)", diff_floor, mid),
        ("Phi(T_p(A|B)) >= T_p(Phi(A)|Phi(B)) + (C/p) Phi(A) [audit]", diff_floor, lhs),
        ("Phi(T_p(A|B)) <= T_p(Phi(A)|Phi(B)) [baseline]", lhs, entropy_out),
    )
    return _finish("theorem_4_5", pair.dim, pair.seed, w,
                   {"p": p, "K": k, "C": c, "dim_out": phi.dim_out}, links)
