"""Residual harness: every summation identity stated as LHS - RHS over a
parameter grid, with certified truncation (norm_integral, an exact Gauss
rule, files its rounding bound).  A case passes iff residual <= tol +
certified_tail, both relative when |RHS| > 1 and absolute otherwise.
Reports are deterministic: the same case list with the same tolerances
produces bit-identical records: tol is the only truncation setting, and
every cutoff follows from it.  A right-hand side that `conespace` already
represents (Linet's form, `g3_linet`) is that function, not a copy.  A
check that raises (a QuadratureError of `summation.quadpack` among them)
is a record with an `error` field."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .blackhole import lambda_of
from .conespace import (ConePoint, _spheroidal_terms, _toroidal_rate, _toroidal_terms,
                        check_alpha, g3_linet, generalized_heine_rhs, heine_double_sum)
from .errors import DomainError, StringHorizonError
from .specfun import log_gamma
from .summation import mode_sum, quadpack, sum_l

__all__ = [
    "IdentityCase",
    "check_heine_classic",
    "check_heine_generalized",
    "check_app5",
    "check_linet_sum",
    "check_toroidal_addition",
    "check_spheroidal_sum",
    "check_norm_integral",
    "spheroidal_ratio_audit",
    "CHECKS",
    "run_cases",
]


@dataclass(frozen=True)
class IdentityCase:
    """One identity evaluation: parameters, truncation, and residuals."""

    name: str
    params: dict
    lmax: int | None
    mmax: int | None
    tol: float
    lhs: float
    rhs: float
    residual_abs: float
    residual_rel: float
    residual: float
    certified_tail: float
    passed: bool
    note: str = ""

    def to_record(self) -> dict:
        return {**vars(self), "params": dict(self.params)}


def _make_case(name, params, tol, lhs, rhs, tail, lmax=None, mmax=None,
               note="") -> IdentityCase:
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    res_abs = abs(lhs - rhs)
    res_rel = res_abs / abs(rhs) if rhs != 0.0 else math.inf
    scale = max(1.0, abs(rhs))
    residual = res_abs / scale
    tail_scaled = tail / scale
    return IdentityCase(
        name=name, params=dict(params), lmax=lmax, mmax=mmax, tol=tol,
        lhs=float(lhs), rhs=float(rhs), residual_abs=float(res_abs),
        residual_rel=float(res_rel), residual=float(residual),
        certified_tail=float(tail_scaled),
        passed=bool(residual <= tol + tail_scaled), note=note)


# ----------------------------------------------------------------------
# classic and generalized Heine
# ----------------------------------------------------------------------

def check_heine_classic(zeta: float, psi: float,
                        tol: float = 1e-8) -> IdentityCase:
    """sum_l (2l+1) P_l(psi) Q_l(zeta) = 1/(zeta - psi), |psi| < zeta."""
    if not zeta > 1.0 + 1e-12:
        raise DomainError(f"zeta must exceed 1, got {zeta}")
    if not abs(psi) < min(1.0, zeta):
        raise DomainError(f"validity needs |psi| < min(1, zeta), got {psi}")

    def terms(count):
        from scipy.special import eval_legendre
        ls = np.arange(count)
        return ((2.0 * ls + 1.0) * eval_legendre(ls, psi)
                * specfun.legendre_Q_sequence(0.0, zeta, count))

    lhs, tail, lmax = sum_l(terms, tol, math.acosh(zeta))
    rhs = 1.0 / (zeta - psi)
    return _make_case("heine_classic", {"zeta": zeta, "psi": psi}, tol,
                      lhs, rhs, tail, lmax=lmax)


def check_heine_generalized(alpha: float, theta: float, theta_p: float,
                            dphi: float, chi: float,
                            tol: float = 1e-6) -> IdentityCase:
    """Double sum of (2lam+1) gammaRatio P P Q_lam(zeta) against
    sinh(chi/alpha) / [sin sin' sinh(chi) (cosh(chi/alpha) - cos dphi)]."""
    if not chi > 0.0:
        raise DomainError(f"chi must be positive, got {chi}")
    cc = math.cos(theta) * math.cos(theta_p)
    ss = math.sin(theta) * math.sin(theta_p)
    zeta = cc + ss * math.cosh(chi)
    if not zeta > 1.0 + 1e-6:
        raise DomainError(
            f"zeta = {zeta:.6f} <= 1: no Euclidean pair has these (theta, theta', chi); "
            "chi must exceed arccosh((1 - cos th cos th')/(sin th sin th'))")
    lhs, tail, lmax, mmax = heine_double_sum(alpha, theta, theta_p, dphi,
                                             zeta, tol=tol)
    rhs = generalized_heine_rhs(alpha, theta, theta_p, dphi, chi)
    params = {"alpha": alpha, "theta": theta, "theta_p": theta_p,
              "dphi": dphi, "chi": chi}
    return _make_case("heine_generalized", params, tol, lhs, rhs, tail,
                      lmax=lmax, mmax=mmax)


# ----------------------------------------------------------------------
# appendix identities
# ----------------------------------------------------------------------

def check_app5(alpha: float, m: int, theta: float, theta_p: float,
               tol: float = 1e-6) -> IdentityCase:
    """sum_l gammaRatio P_lam^{-mu}(cos th) P_lam^{-mu}(cos th') =
    Q_{mu-1/2}((1 - cos th cos th')/(sin th sin th')) / (pi sqrt(sin sin')).

    The l-sum decays only like 1/lam (coincident radii), so `sum_l` takes
    its Wynn limit; the tail filed is that limit's error estimate + 1e-12.
    """
    check_alpha(alpha)
    if abs(theta - theta_p) < 1e-3:
        raise DomainError("theta = theta' makes both sides divergent")
    mu = abs(m) / alpha
    x1, x2 = math.cos(theta), math.cos(theta_p)
    lhs, err, lmax = sum_l(lambda n: specfun.ferrers_band(mu, x1, x2, n), tol)
    rhs = _app5_rhs(mu, theta, theta_p)
    params = {"alpha": alpha, "m": m, "theta": theta, "theta_p": theta_p}
    return _make_case("app5", params, tol, lhs, rhs, err + 1e-12, lmax=lmax)


def _app5_rhs(mu, theta, theta_p):
    """app5's right-hand side at order mu, theta != theta'."""
    ss = math.sin(theta) * math.sin(theta_p)
    coshxi = (1.0 - math.cos(theta) * math.cos(theta_p)) / ss
    q = specfun.legendre_Qhat_axis(mu - 0.5, 0.0, coshxi)
    return q / (math.pi * math.sqrt(ss))


def _linet_lhs_offdiag(alpha, theta, theta_p, dphi, tol):
    """(1/alpha) sum_m e^{i m dphi} [Wynn limit of the l-sum], theta != theta'.
    Band m is app5's at mu = m/alpha, which falls with mu (DLMF 14.12's
    integral): as `mode_sum`'s closed bands they refuse a sum past the band
    cap, at one Q value where they can, before any Wynn limit."""
    x1, x2 = math.cos(theta), math.cos(theta_p)
    value, tail, _, bands = mode_sum(
        lambda m, n: specfun.ferrers_band(m / alpha, x1, x2, n), tol, dphi,
        closed=lambda m: _app5_rhs(m / alpha, theta, theta_p))
    return value / alpha, tail / alpha, bands


def _linet_lhs_diag(alpha, theta, dphi, tol):
    """theta = theta' limit of the double sum: exact resummation of the
    m-sum via the Heine integral representation,
    sum_m e^{im dphi} Q_{|m|/alpha - 1/2}(cosh xi -> 1) ->
    int_0^oo sinh(t/a) / [(cosh(t/a) - cos dphi) 2 sinh(t/2)] dt."""
    if 2.0 * math.sin(0.5 * dphi) ** 2 < 1e-10:
        raise DomainError("diagonal Linet check needs dphi away from 0")
    beta = 1.0 / alpha
    cpsi = math.cos(dphi)

    def integrand(t):
        if t == 0.0:
            return 1.0 / (alpha * (1.0 - cpsi))
        if t > 600.0:
            return 0.0
        e = math.exp(-beta * t)
        ratio = (1.0 - e * e) / (1.0 + e * e - 2.0 * cpsi * e)
        return ratio / (2.0 * math.sinh(0.5 * t))

    val, err = quadpack(integrand, 0.0, np.inf, "diagonal resummation", 1e-9)
    s2 = math.sin(theta) ** 2
    return val / (math.pi * alpha * s2 ** 0.5), err, None


def check_linet_sum(alpha: float, theta: float, theta_p: float, dphi: float,
                    tol: float = 1e-6) -> IdentityCase:
    """(1/alpha) double mode sum at r = r' = 1 against Linet's image +
    F_alpha-integral form, 4 pi `g3_linet` of the same pair, every image
    included.  It runs first, so its domain rule (alpha in (1/2, 1], no
    null image within 1e-2) refuses a case before any band is summed."""
    if not math.isfinite(dphi):
        raise DomainError(f"linet needs a finite dphi, got {dphi}")
    dphi = math.remainder(dphi, 2.0 * math.pi)
    # g3_linet is even in dphi; |dphi| lies in the chart's [0, 2 pi) exactly
    rhs = 4.0 * math.pi * g3_linet(ConePoint("spherical", (1.0, theta, 0.0)),
                                   ConePoint("spherical", (1.0, theta_p, abs(dphi))),
                                   alpha, tol)
    note = ""
    if abs(theta - theta_p) < 1e-3:
        lhs, tail, bands = _linet_lhs_diag(alpha, theta, dphi, tol)
        note = "theta=theta' diagonal: m-sum resummed by the Heine integral"
    else:
        lhs, tail, bands = _linet_lhs_offdiag(alpha, theta, theta_p, dphi, tol)
    params = {"alpha": alpha, "theta": theta, "theta_p": theta_p, "dphi": dphi}
    return _make_case("linet", params, tol, lhs, rhs, tail + 1e-12,
                      mmax=bands, note=note)


def check_toroidal_addition(alpha: float, m: int, w: float, w_p: float,
                            eta: float, eta_p: float,
                            tol: float = 1e-6) -> IdentityCase:
    """sum_n e^{in (eta-eta')} G(n+mu+1/2)/G(n-mu+1/2) P_{n-1/2}^{-mu}(cosh w<)
    Qhat_{n-1/2}^{-mu}(cosh w>) against
    Q_{mu-1/2}(chi) / sqrt(sinh w sinh w'),
    cosh chi = (cosh w cosh w' - cos(eta-eta')) / (sinh w sinh w').

    The chi argument is the cylindrical-Q argument expressed through the
    toroidal map; it depends on (w, w', eta - eta') only, so the
    (cosh w - cos eta) factors printed alongside the source mode sum cancel
    from the addition theorem.
    """
    check_alpha(alpha)
    if not (w > 0.0 and w_p > 0.0 and math.isfinite(eta - eta_p)):
        raise DomainError(f"toroidal coordinates need w, w' > 0 and a finite "
                          f"eta - eta', got {w}, {w_p}, {eta}, {eta_p}")
    mu = abs(m) / alpha
    deta = math.remainder(eta - eta_p, 2.0 * math.pi)
    w_lt, w_gt = min(w, w_p), max(w, w_p)
    chi = (math.cosh(w) * math.cosh(w_p) - math.cos(deta)) \
        / (math.sinh(w) * math.sinh(w_p))
    if not chi > 1.0 + 1e-12:
        raise DomainError(f"coincident toroidal pair (cosh chi = {chi}); RHS divergent")
    rate = _toroidal_rate(w_lt, w_gt, deta)
    note = "w = w': n-sum evaluated by Wynn's epsilon-algorithm" if rate is None else ""
    lhs, tail, nmax = sum_l(
        lambda n: _toroidal_terms(alpha, m, w_lt, w_gt, deta, n), tol, rate)
    rhs = specfun.legendre_Qhat_axis(mu - 0.5, 0.0, chi) \
        / math.sqrt(math.sinh(w) * math.sinh(w_p))
    params = {"alpha": alpha, "m": m, "w": w, "w_p": w_p,
              "eta": eta, "eta_p": eta_p}
    return _make_case("toroidal_addition", params, tol, lhs, rhs, tail,
                      lmax=nmax, note=note)


def _spheroidal_chi(theta, theta_p, s1, s2):
    num = (math.cosh(s1) ** 2 + math.cosh(s2) ** 2
           - math.sin(theta) ** 2 - math.sin(theta_p) ** 2
           - 2.0 * math.cosh(s1) * math.cosh(s2)
           * math.cos(theta) * math.cos(theta_p))
    den = 2.0 * math.sinh(s1) * math.sinh(s2) * math.sin(theta) * math.sin(theta_p)
    return num / den


def _spheroidal_lhs_rhs(alpha, m, theta, theta_p, sigma_lt, sigma_gt, tol):
    if not sigma_lt <= sigma_gt:
        raise DomainError(f"need sigma< <= sigma>, got {sigma_lt}, {sigma_gt}")
    lhs, tail, lmax = sum_l(lambda n: _spheroidal_terms(
        alpha, m, theta, theta_p, sigma_lt, sigma_gt, n), tol, sigma_gt - sigma_lt)
    mu = abs(m) / alpha
    chi = _spheroidal_chi(theta, theta_p, sigma_lt, sigma_gt)
    rhs = specfun.legendre_Qhat_axis(mu - 0.5, 0.0, chi) \
        / (math.pi * alpha * math.sqrt(math.sinh(sigma_lt) * math.sinh(sigma_gt)
                                       * math.sin(theta) * math.sin(theta_p)))
    return lhs, rhs, tail, lmax


def check_spheroidal_sum(alpha: float, m: int, theta: float, theta_p: float,
                         sigma_lt: float, sigma_gt: float,
                         tol: float = 1e-6) -> IdentityCase:
    """Four-Legendre-product l-sum against the printed closed form
    (1/(pi alpha)) Q_{mu-1/2}(chi)/sqrt(sinh s sinh s' sin th sin th').

    The printed constant carries a spurious 1/alpha (the ratio audit
    measures LHS/RHS = alpha); at alpha = 1 the identity holds as printed.
    """
    check_alpha(alpha)
    lhs, rhs, tail, lmax = _spheroidal_lhs_rhs(alpha, m, theta, theta_p,
                                               sigma_lt, sigma_gt, tol)
    params = {"alpha": alpha, "m": m, "theta": theta, "theta_p": theta_p,
              "sigma_lt": sigma_lt, "sigma_gt": sigma_gt}
    return _make_case("spheroidal_sum", params, tol, lhs, rhs, tail, lmax=lmax)


_AUDIT_POINTS = [
    (0, 0.7, 1.1, 0.8, 1.5), (1, 0.7, 1.1, 0.8, 1.5), (2, 0.9, 1.3, 0.7, 1.4),
    (0, 0.5, 2.1, 0.6, 1.2), (1, 1.2, 1.8, 0.9, 1.7), (0, 1.0, 1.4, 1.0, 1.8),
    (2, 0.8, 2.0, 0.5, 1.1), (1, 0.6, 1.0, 1.1, 2.0), (3, 0.9, 1.5, 0.8, 1.6),
    (0, 1.4, 2.2, 0.7, 1.3),
]


def spheroidal_ratio_audit(alpha: float, tol: float = 1e-8) -> IdentityCase:
    """LHS/RHS of the printed spheroidal identity over 10 parameter points:
    passes when the ratio is constant; flagged when the constant is not 1."""
    check_alpha(alpha)
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    ratios = []
    for (m, th, thp, s1, s2) in _AUDIT_POINTS:
        lhs, rhs, _, _ = _spheroidal_lhs_rhs(alpha, m, th, thp, s1, s2, 1e-10)
        ratios.append(lhs / rhs)
    ratios = np.asarray(ratios)
    mean = float(np.mean(ratios))
    spread = float(np.ptp(ratios) / abs(mean))
    flagged = abs(mean - 1.0) > 1e-6
    note = f"ratio LHS/RHS = {mean:.12g}"
    if flagged:
        note += " [FLAGGED: constant factor differs from 1]"
    return IdentityCase(
        name="spheroidal_ratio_audit", params={"alpha": alpha},
        lmax=None, mmax=None, tol=tol, lhs=mean, rhs=mean,
        residual_abs=spread, residual_rel=spread, residual=spread,
        certified_tail=0.0, passed=bool(spread <= tol), note=note)


def _gauss_gegenbauer(mu: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count-point Gauss rule of the weight (1 - x^2)^mu on [-1, 1] (Golub and
    Welsch 1969); weights 1/sum p_k^2, p_k orthonormal: eigenvectors lose small ones."""
    k = np.arange(1.0, count)
    b = np.sqrt(k * (k + 2.0 * mu) / ((2.0 * (k + mu)) ** 2 - 1.0))
    x = np.linalg.eigvalsh(np.diag(b, -1))
    q_prev, q, total = np.zeros(count), np.ones(count), np.ones(count)
    for b_prev, b_k in zip([0.0] + b.tolist(), b.tolist()):
        q_prev, q = q, (x * q - b_prev * q_prev) / b_k
        total += q * q
    w0 = math.sqrt(math.pi) * math.exp(log_gamma(mu + 1.0) - log_gamma(mu + 1.5))
    return x, w0 / total


def check_norm_integral(alpha: float, m: int, l: int, l_p: int,
                        tol: float = 1e-8) -> IdentityCase:
    """Gauss quadrature of int P_lam^{-mu} P_lam'^{-mu} d(cos th) against
    delta_{l l'} (2/(2 lam + 1)) Gamma(lam-mu+1)/Gamma(lam+mu+1).  It is exact:
    with n = lam - mu the integrand is (1 - x^2)^mu times a polynomial of degree
    n + n' (DLMF 14.3, 18.3), and max(n, n') + 1 nodes of that weight take both
    squares too, so the tail bounds rounding: 2 eps K sqrt(int P^2 int P'^2),
    K = nodes + chain steps + mu ln 2 + |ln G(mu+1)| + |ln G(mu+3/2)|."""
    lam = lambda_of(l, m, alpha)
    lambda_of(l_p, m, alpha)            # checks l' as it checks l
    mu, n, n_p = abs(m) / alpha, int(l) - abs(int(m)), int(l_p) - abs(int(m))
    count, rows, g1 = max(n, n_p) + 1, [], log_gamma(mu + 1.0)  # g1 = ln G(mu+1)
    if count > 4096:        # the rule's dense Jacobi matrix holds count^2 floats
        raise DomainError(f"max(l, l') - |m| must be below 4096, got {count - 1}")
    for x, w in zip(*(a.tolist() for a in _gauss_gegenbauer(mu, count))):
        p, L = specfun._ferrers_chain(mu, mu, x, count, g1)     # both degrees
        half = 0.5 * mu * (math.log1p(-x) + math.log1p(x))  # ln (1-x^2)^(mu/2)
        u, v = p[n] * math.exp(L[n] - half), p[n_p] * math.exp(L[n_p] - half)
        rows.append((w * u * v, w * u * u, w * v * v))
    lhs, norm, norm_p = (math.fsum(c) for c in zip(*rows))
    k = 2 * count + mu * math.log(2.0) + abs(g1) + abs(log_gamma(mu + 1.5))
    tail = 2.0 * k * np.finfo(float).eps * math.sqrt(norm) * math.sqrt(norm_p)
    rhs = 0.0 if l != l_p else (2.0 / (2.0 * lam + 1.0)) * math.exp(
        log_gamma(lam - mu + 1.0) - log_gamma(lam + mu + 1.0))
    params = {"alpha": alpha, "m": m, "l": l, "l_p": l_p}
    return _make_case("norm_integral", params, tol, lhs, rhs, tail)


# ----------------------------------------------------------------------
# manifest runner
# ----------------------------------------------------------------------

CHECKS = {
    "heine_classic": check_heine_classic,
    "heine_generalized": check_heine_generalized,
    "app5": check_app5,
    "linet": check_linet_sum,
    "toroidal_addition": check_toroidal_addition,
    "spheroidal_sum": check_spheroidal_sum,
    "spheroidal_ratio_audit": spheroidal_ratio_audit,
    "norm_integral": check_norm_integral,
}


def run_case(case: dict, tol_override: float | None = None) -> dict:
    """Run one manifest entry; returns the record dict (with an `error`
    field instead of residuals when the check raises)."""
    name = case["check"]
    params = dict(case.get("params", {}))
    if tol_override is not None:
        params["tol"] = tol_override
    try:
        return CHECKS[name](**params).to_record()
    except (StringHorizonError, OverflowError) as exc:
        return {"name": name, "params": params, "passed": False,
                "error": f"{type(exc).__name__}: {exc}"}


def run_cases(cases, tol_override: float | None = None) -> list[dict]:
    """Run manifest entries and return records in manifest order."""
    return [run_case(c, tol_override) for c in cases]
