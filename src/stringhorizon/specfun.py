"""Real-valued Legendre/Ferrers and modified Bessel functions of non-integer
degree and order.

Conventions
-----------
* ``ferrers_P(do, x)`` is the Ferrers function P_nu^{-mu}(x) on the cut
  x in (-1, 1), order taken as -mu with mu >= 0.
* ``legendre_P_axis`` / ``legendre_Q`` are the Legendre functions of the
  first and second kind on (1, oo), order 0.
* ``legendre_Qhat_axis(do, x)`` is Qhat_nu^{-mu} = e^{mu*pi*i} * Q_nu^{-mu},
  real for x > 1.  The phase factor matches the one multiplying Q in the
  toroidal and spheroidal mode sums, so every interface in this package
  stays real-valued.
* ``ferrers_band`` is the gamma-ratio x P x P band shared by every mode sum
  over the angular functions.

All evaluations go through hypergeometric series with certified geometric
tail bounds; a series that cannot certify the requested tolerance within
the iteration budget raises ConvergenceError instead of returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammasgn, iv, ive, kv, kve

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "DegreeOrder",
    "SING_TOL",
    "MAX_SERIES_TERMS",
    "gamma_ratio_signed",
    "ferrers_P",
    "ferrers_P_sequence",
    "ferrers_band",
    "legendre_Q",
    "legendre_Q_sequence",
    "legendre_P_axis",
    "legendre_P_axis_sequence",
    "legendre_Qhat_axis",
    "legendre_Qbar_axis_sequence",
    "bessel_IK",
    "arccosh1p",
]

SING_TOL = 1e-12          # arguments this close to x = +-1 / zeta = 1 are rejected
MAX_SERIES_TERMS = 100_000
_SERIES_TOL = 1e-15       # target relative tail for series evaluation


@dataclass(frozen=True)
class DegreeOrder:
    """Degree nu and (non-negative) order mu of a Legendre-type function.

    The function of interest always carries order -mu; mu itself is kept
    non-negative.  For mode-generated indices nu - mu is a non-negative
    integer, which keeps 1/Gamma(nu - mu + 1) away from poles.
    """

    nu: float
    mu: float

    def __post_init__(self):
        if self.mu < 0:
            raise DomainError(f"order mu must be >= 0, got {self.mu}")

    @property
    def degree_offset(self) -> float:
        """nu - mu; a non-negative integer for mode-generated indices."""
        return self.nu - self.mu


def _as_degree_order(do) -> DegreeOrder:
    if isinstance(do, DegreeOrder):
        return do
    nu, mu = do
    return DegreeOrder(float(nu), float(mu))


# ----------------------------------------------------------------------
# gamma ratios
# ----------------------------------------------------------------------

def _near_nonpositive_integer(a: float, tol: float = 1e-12) -> bool:
    if a > 0.5:
        return False
    return abs(a - round(a)) <= tol


def gamma_ratio_signed(a: float, b: float) -> tuple[float, float]:
    """(log|Gamma(a)/Gamma(b)|, sign); arguments may be negative non-integers."""
    if _near_nonpositive_integer(a) or _near_nonpositive_integer(b):
        raise PoleError(f"gamma pole within tolerance: a={a}, b={b}")
    return gammaln(a) - gammaln(b), gammasgn(a) * gammasgn(b)


# ----------------------------------------------------------------------
# certified Gauss-hypergeometric series
# ----------------------------------------------------------------------

def _hyp_series(a: float, b: float, c: float, w: float, tol: float = _SERIES_TOL):
    """Sum F(a, b; c; w) for 0 <= w < 1, c > 0 with a certified tail bound.

    Returns (value, tail_bound).  The bound uses that for k beyond the
    last sign change the term ratio is at most
    q(K) = w * max(1,(K+a)/(K+1)) * max(1,(K+b)/(K+c)), which decreases to w.
    """
    if not 0.0 <= w < 1.0:
        raise DomainError(f"hypergeometric argument w={w} outside [0, 1)")
    if c <= 0.0:
        raise DomainError(f"hypergeometric parameter c={c} must be positive")
    k_pos = max(0.0, -a, -b)   # beyond this every Pochhammer factor is positive
    term = 1.0
    total = 1.0
    for k in range(MAX_SERIES_TERMS):
        if k >= k_pos:
            K = k + 1.0
            q = w
            if a > 1.0:
                q *= (K + a) / (K + 1.0)
            if b > c:
                q *= (K + b) / (K + c)
            if q < 1.0:
                tail = abs(term) * q / (1.0 - q)
                if tail <= tol * max(1.0, abs(total)):
                    return total, tail
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * w
        if term == 0.0:            # a or b hit a non-positive integer: exact
            return total, 0.0
        total += term
        if not math.isfinite(total):
            raise ConvergenceError(
                f"hypergeometric series overflowed: a={a}, b={b}, c={c}, w={w}")
    raise ConvergenceError(
        f"series tail bound not certified in {MAX_SERIES_TERMS} terms "
        f"(a={a}, b={b}, c={c}, w={w})")


# ----------------------------------------------------------------------
# Ferrers function on the cut
# ----------------------------------------------------------------------

def _ferrers_direct(nu: float, mu: float, x: float) -> float:
    """Series evaluation for nu - mu < 2 (at most one alternating term):
    P_nu^{-mu}(x) = (sin(theta)/2)^mu / Gamma(1+mu) * F(mu-nu, mu+nu+1; 1+mu; (1-x)/2).

    This Euler-transformed form is one-signed for the seed degrees at any
    x in (-1, 1), so there is no cancellation at large order.  Degree
    offsets within 5e-13 of the regular non-negative-integer family are
    snapped onto it, making the series terminate exactly.
    """
    z = 0.5 * (1.0 - x)
    a = mu - nu
    if abs(a - round(a)) < 5e-13 and round(a) <= 0:
        a = float(round(a))
    F, _ = _hyp_series(a, mu + nu + 1.0, 1.0 + mu, z)
    lnpref = (0.5 * mu * (math.log1p(-x) + math.log1p(x)) - mu * math.log(2.0)
              - gammaln(1.0 + mu))
    if F == 0.0:
        return 0.0
    return math.copysign(math.exp(lnpref + math.log(abs(F))), F)


def ferrers_P(do, x: float) -> float:
    """Ferrers function P_nu^{-mu}(x) for x in (-1, 1), mu >= 0.

    Degrees more than one step above mu are reached by the upward degree
    recurrence from two adjacent series seeds (the direct Gauss series
    cancels catastrophically at large degree-order offsets).
    """
    d = _as_degree_order(do)
    if not -1.0 + SING_TOL < x < 1.0 - SING_TOL:
        raise DomainError(
            f"ferrers_P requires |x| < 1 - {SING_TOL}, got {x}")
    nu = max(d.nu, -d.nu - 1.0)    # P_nu = P_{-nu-1}
    mu = d.mu
    n = int(math.floor(nu - mu + 1e-9))
    if n <= 1:
        return _ferrers_direct(nu, mu, x)
    return float(ferrers_P_sequence(nu - n, mu, x, n + 1)[-1])


def ferrers_P_sequence(nu0: float, mu: float, x: float, count: int) -> np.ndarray:
    """[P_{nu0+k}^{-mu}(x) for k = 0..count-1] via two series seeds and the
    upward degree recurrence.

    Stable in the oscillatory regime (nu + 1/2) sin(theta) > mu; inside the
    evanescent region the relative error grows with the dominant/minimal
    ratio, but there P itself is exponentially small by the same factor.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if nu0 - mu >= 2.0:
        raise DomainError("sequence seeds need nu0 - mu < 2")
    out = np.empty(count)
    out[0] = _ferrers_direct(nu0, mu, x)
    if count == 1:
        return out
    out[1] = _ferrers_direct(nu0 + 1.0, mu, x)
    for k in range(2, count):
        nu = nu0 + (k - 1)
        out[k] = ((2.0 * nu + 1.0) * x * out[k - 1] - (nu - mu) * out[k - 2]) / (nu + mu + 1.0)
    return out


def ferrers_band(mu: float, x1: float, x2: float, count: int,
                 log_factor=0.0) -> np.ndarray:
    """[G(lam+mu+1)/G(lam-mu+1) P_lam^{-mu}(x1) P_lam^{-mu}(x2) e^{log_factor}
    for lam = mu + k, k = 0..count-1].

    Assembled in logs, because the gamma ratio alone leaves float range at
    large mu while the product stays small; `log_factor` (a scalar or one
    value per degree) enters the same exponential.  Terms that come out
    non-finite are set to 0.
    """
    p1 = ferrers_P_sequence(mu, mu, x1, count)
    p2 = ferrers_P_sequence(mu, mu, x2, count)
    lam = mu + np.arange(count)
    lgr = gammaln(lam + mu + 1.0) - gammaln(lam - mu + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sign(p1) * np.sign(p2) * np.exp(
            lgr + np.log(np.abs(p1)) + np.log(np.abs(p2)) + log_factor)
    return np.where(np.isfinite(out), out, 0.0)


# ----------------------------------------------------------------------
# Legendre functions on the axis (1, oo)
# ----------------------------------------------------------------------

def _check_axis(x: float):
    if x <= 1.0 + SING_TOL:
        raise DomainError(f"axis argument must exceed 1 + {SING_TOL}, got {x}")


def legendre_Q(lam: float, zeta: float) -> float:
    """Legendre function of the second kind Q_lambda(zeta), zeta > 1, lambda > -1."""
    return legendre_Qhat_axis((lam, 0.0), zeta)


def legendre_P_axis(lam: float, x: float) -> float:
    """Legendre function of the first kind P_lambda(x) on (1, oo), order 0."""
    return math.exp(_axis_P_log((lam, 0.0), x))


def _axis_P_log(do, x: float) -> float:
    """log of P_nu^{-mu}(x) on (1, oo); the function is strictly positive."""
    d = _as_degree_order(do)
    _check_axis(x)
    nu = max(d.nu, -d.nu - 1.0)
    mu = d.mu
    w = (x - 1.0) / (x + 1.0)
    # Pfaff transform of F(nu+1, -nu; 1+mu; (1-x)/2): positive-term series
    F, _ = _hyp_series(nu + 1.0, nu + mu + 1.0, 1.0 + mu, w)
    return (0.5 * mu * (math.log(x - 1.0) - math.log(x + 1.0))
            - gammaln(1.0 + mu)
            - (nu + 1.0) * math.log(0.5 * (x + 1.0))
            + math.log(F))


def _fold_Q_degree(nu: float) -> float:
    """nu folded by Q_{-nu-1} = Q_nu below -1: exact at half-integer degrees,
    the only ones below -1 that the mode sums reach."""
    if nu > -1.0:
        return nu
    if abs(2.0 * nu - round(2.0 * nu)) < 1e-12 and round(2.0 * nu) % 2 != 0:
        return -nu - 1.0
    raise DomainError(f"Q degree {nu} <= -1 supported only at half-integers")


def _axis_Qbar_log(do, x: float) -> tuple[float, float]:
    """(log|Qbar|, sign), Qbar_nu^{-mu} = Qhat_nu^{-mu} Gamma(nu+3/2) / Gamma(nu-mu+1):
    gamma-free, entire in the degree and ~ e^{-nu xi}, so long chains
    neither overflow nor hit order poles.

    Order zero (every Q chain of the mode sums) sums, with x = cosh(xi),
        sqrt(pi) e^{-(nu+1) xi} F(1/2, nu+1; nu+3/2; e^{-2 xi}),
    whose positive terms shrink by at least e^{-2 xi} at any degree; there
    the 1/x^2 series below has c = a + b and needs thousands of terms near
    x = 1.  Order mu > 0 keeps the 1/x^2 series,
        sqrt(pi) 2^{-nu-1} x^{mu-nu-1} (x^2-1)^{-mu/2} F(.; nu+3/2; 1/x^2),
    because at order mu the e^{-2 xi} form alternates and cancels.
    """
    d = _as_degree_order(do)
    _check_axis(x)
    nu, mu = _fold_Q_degree(d.nu), d.mu
    if mu == 0.0:
        xi = math.acosh(x)
        F, _ = _hyp_series(0.5, nu + 1.0, nu + 1.5, math.exp(-2.0 * xi))
        return 0.5 * math.log(math.pi) - (nu + 1.0) * xi + math.log(F), 1.0
    w = 1.0 / (x * x)
    F, _ = _hyp_series(0.5 * (nu - mu) + 1.0, 0.5 * (nu - mu + 1.0), nu + 1.5, w)
    log_abs = (0.5 * math.log(math.pi)
               - (nu + 1.0) * math.log(2.0) + (mu - nu - 1.0) * math.log(x)
               - 0.5 * mu * math.log(x * x - 1.0) + math.log(abs(F)))
    return log_abs, math.copysign(1.0, F)


def legendre_Qhat_axis(do, x: float) -> float:
    """Qhat_nu^{-mu}(x) = e^{mu pi i} Q_nu^{-mu}(x); real for x > 1.

    Qbar times Gamma(nu-mu+1) / Gamma(nu+3/2).  Validity needs lambda > -1
    at order 0 (below that the defining integral representations diverge);
    half-integer degrees below -1/2 are folded with Q_{-nu-1} = Q_nu.
    """
    d = _as_degree_order(do)
    if d.mu == 0.0 and d.nu <= -1.0:
        raise DomainError(f"legendre_Q requires degree > -1, got {d.nu}")
    nu, mu = _fold_Q_degree(d.nu), d.mu
    if _near_nonpositive_integer(nu - mu + 1.0):
        raise PoleError(f"Qhat undefined: nu - mu + 1 = {nu - mu + 1.0} at a gamma pole")
    log_abs, sign = _axis_Qbar_log((nu, mu), x)
    lg, sg = gamma_ratio_signed(nu - mu + 1.0, nu + 1.5)
    return sign * sg * math.exp(log_abs + lg)


def legendre_Q_sequence(lam0: float, zeta: float, count: int) -> np.ndarray:
    """[Q_{lam0+k}(zeta) for k = 0..count-1] via downward recurrence.

    Q is the minimal solution of the degree recurrence on the axis, so this
    is the gamma-free Qbar chain times Gamma(lam+1)/Gamma(lam+3/2).  Every
    lam0 + k + 1 must stay off the gamma poles.
    """
    qb = legendre_Qbar_axis_sequence(lam0, 0.0, zeta, count)
    lam = lam0 + np.arange(count, dtype=float)
    a = lam + 1.0
    if np.any((a < 0.5) & (np.abs(a - np.round(a)) < 1e-12)):
        raise PoleError("Q chain crosses a gamma pole; use the Qbar chain")
    return qb * gammasgn(a) * np.exp(gammaln(a) - gammaln(lam + 1.5))


# Chains with a higher top degree start by Miller, which needs a series
# value at the bottom degree only: near x = 1 the order-mu 1/x^2 series
# grows like 2^nu and needs about (nu - mu) / (2 (x^2 - 1)) terms.  The
# order-zero series needs about 17/xi terms at any degree.
_MILLER_DEGREE = 250.0


def legendre_Qbar_axis_sequence(nu0: float, mu: float, x: float, count: int,
                                log_scale: float = 0.0) -> np.ndarray:
    """[Qbar_{nu0+k}^{-mu}(x) * e^{-k*log_scale} for k = 0..count-1],
    Qbar = Qhat * Gamma(nu+3/2) / Gamma(nu-mu+1) (gamma-free normalization).

    Qbar is the minimal solution of
        (nu+mu+1)(nu-mu+1)/(nu+3/2) Qbar_{nu+1}
            = (2nu+1) x Qbar_nu - (nu+1/2) Qbar_{nu-1},
    computed downward.  Short chains start from two series values at the
    top; long chains, and short ones whose top value underflows, use
    Miller's algorithm (arbitrary seed well above the range, normalized at
    the bottom).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    _check_axis(x)
    e1, e2 = math.exp(log_scale), math.exp(2.0 * log_scale)

    def step_down(nu, g_k, g_k1):
        # g_{k-1} from g_k (degree nu) and g_{k+1} (degree nu+1)
        return ((2.0 * nu + 1.0) * x * g_k * e1
                - (nu + mu + 1.0) * (nu - mu + 1.0) / (nu + 1.5) * g_k1 * e2) \
            / (nu + 0.5)

    top = count - 1
    la, sa = (_axis_Qbar_log((nu0 + top, mu), x) if nu0 + top <= _MILLER_DEGREE
              else (-math.inf, 1.0))
    if la - top * log_scale > -708.0:   # a subnormal start zeroes the chain
        out = np.empty(count)
        out[top] = sa * math.exp(la - top * log_scale)
        if count == 1:
            return out
        lb, sb = _axis_Qbar_log((nu0 + top - 1.0, mu), x)
        out[top - 1] = sb * math.exp(lb - (top - 1) * log_scale)
        if not (np.isfinite(out[top]) and np.isfinite(out[top - 1])):
            raise ConvergenceError("Qbar sequence start values not finite")
        for k in range(top - 1, 0, -1):
            out[k - 1] = step_down(nu0 + k, out[k], out[k + 1])
        return out
    # Miller: the component along the downward-growing solution (Qbar)
    # survives; everything is fixed by one series value at the bottom.
    xi = math.acosh(x)
    buffer = int(math.ceil(17.0 / xi)) + 20
    raw = np.zeros(count + buffer + 1)
    raw[-2] = 1.0
    for k in range(count + buffer - 2, 0, -1):
        raw[k - 1] = step_down(nu0 + k, raw[k], raw[k + 1])
        if abs(raw[k - 1]) > 1e250:   # rescale freely; normalization fixes it
            raw[k - 1:] *= 1e-250
    l0, s0 = _axis_Qbar_log((nu0, mu), x)
    if raw[0] == 0.0 or not math.isfinite(raw[0]):
        raise ConvergenceError("Miller recursion lost the minimal solution")
    # divide first: exp(l0) / raw[0] alone can underflow at large x
    return raw[:count] / raw[0] * (s0 * math.exp(l0))


def legendre_P_axis_sequence(nu0: float, mu: float, x: float, count: int,
                             log_scale: float = 0.0) -> np.ndarray:
    """[P_{nu0+k}^{-mu}(x) * e^{-k*log_scale} for k = 0..count-1] on the axis.

    Upward recurrence (stable: P is the dominant solution).  A positive
    log_scale (typically arccosh(x)) keeps long chains from overflowing.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    out = np.empty(count)
    out[0] = math.exp(_axis_P_log((nu0, mu), x))
    if count == 1:
        return out
    out[1] = math.exp(_axis_P_log((nu0 + 1.0, mu), x) - log_scale)
    e1, e2 = math.exp(-log_scale), math.exp(-2.0 * log_scale)
    for k in range(2, count):
        nu = nu0 + (k - 1)
        out[k] = ((2.0 * nu + 1.0) * x * out[k - 1] * e1
                  - (nu - mu) * out[k - 2] * e2) / (nu + mu + 1.0)
    return out


# ----------------------------------------------------------------------
# modified Bessel functions
# ----------------------------------------------------------------------

_BESSEL_EXP_LIMIT = 690.0   # exp(z) overflows shortly above this


def bessel_IK(order: float, z: float, scaled: bool = False) -> tuple[float, float]:
    """(I_nu(z), K_nu(z)) for z > 0, nu >= 0.

    With scaled=True returns (e^{-z} I_nu(z), e^{z} K_nu(z)), which stays
    finite for large z; otherwise z beyond the exponential range raises
    OverflowError.
    """
    if z <= 0.0:
        raise DomainError(f"bessel_IK requires z > 0, got {z}")
    if order < 0.0:
        raise DomainError(f"bessel_IK requires order >= 0, got {order}")
    if scaled:
        return float(ive(order, z)), float(kve(order, z))
    if z > _BESSEL_EXP_LIMIT:
        raise OverflowError(
            f"z={z} beyond exponential scaling threshold; request scaled evaluation")
    i, k = float(iv(order, z)), float(kv(order, z))
    if not (math.isfinite(i) and math.isfinite(k)):
        raise OverflowError(f"bessel_IK overflowed at order={order}, z={z}")
    return i, k


# ----------------------------------------------------------------------
# small numeric helpers
# ----------------------------------------------------------------------

def arccosh1p(delta: float) -> float:
    """arccosh(1 + delta) computed stably for small delta >= 0."""
    if delta < 0.0:
        raise DomainError(f"arccosh1p requires delta >= 0, got {delta}")
    if delta == 0.0:
        return 0.0
    return math.log1p(delta + math.sqrt(delta * (2.0 + delta)))
