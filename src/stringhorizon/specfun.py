"""Real-valued Legendre/Ferrers and modified Bessel functions of non-integer
degree and order.

Conventions
-----------
* ``ferrers_P(nu, mu, x)`` is the Ferrers function P_nu^{-mu}(x) on the cut
  x in (-1, 1), order taken as -mu with mu >= 0.
* ``legendre_P_axis`` / ``legendre_Q`` are the Legendre functions of the
  first and second kind on (1, oo), order 0.
* ``legendre_Qhat_axis(nu, mu, x)`` is Qhat_nu^{-mu} =
  e^{mu*pi*i} * Q_nu^{-mu}, real for x > 1 and degree nu > -1.  The phase
  factor matches the one multiplying Q in the toroidal and spheroidal mode
  sums, so every interface in this package stays real-valued.
* Every chain over the degree, Ferrers, axis P and Qbar, is a pair (m, L)
  of arrays whose value is m e^L: a mantissa and a log offset, so no value
  leaves float range.  ``ferrers_band``, the gamma-ratio x P x P band of
  every mode sum over the angular functions, adds them in logs and builds
  one chain when theta = theta'.  Given an array of orders it returns a
  band per row from one vectorized degree loop, bit for bit the scalar
  chains' bands; one band keeps the scalar chain, the faster one for a
  single row (the point values of ``ferrers_P`` and the long Wynn-limit
  bands).
* ``axis_band`` is its counterpart on the axis, the gamma-ratio x P x Qbar
  band of the toroidal and spheroidal mode sums, returned as signs and
  logs; it is the one reader of the axis chains at nonzero order.
* ``log_gamma`` is math.lgamma, and ``log_gamma_ratios`` a chain's gamma
  ratio by its recurrence.  Every chain and point value starts with one
  check: a finite degree and an order 0 <= mu < inf.

Every series has a certified geometric tail bound; one that cannot certify
its tolerance within the iteration budget raises ConvergenceError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "SING_TOL",
    "MAX_SERIES_TERMS",
    "log_gamma",
    "log_gamma_ratios",
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
    "axis_band",
    "bessel_IK",
    "arccosh1p",
]

SING_TOL = 1e-12          # arguments this close to x = +-1 / zeta = 1 are rejected
MAX_SERIES_TERMS = 100_000
_SERIES_TOL = 1e-15       # target relative tail for series evaluation


# ----------------------------------------------------------------------
# gamma ratios and the degree/order rule
# ----------------------------------------------------------------------

def log_gamma(x):
    """ln|Gamma(x)| by math.lgamma as a numpy float (inf past float range), or
    of each entry of a small array; a chain of ratios takes `log_gamma_ratios`."""
    if isinstance(x, np.ndarray):
        return np.array(list(map(log_gamma, x.ravel().tolist()))).reshape(x.shape)
    try:
        return np.float64(math.lgamma(x))
    except OverflowError:
        return np.float64(math.inf)


def log_gamma_ratios(a, b, count: int) -> np.ndarray:
    """[ln Gamma(a+k)/Gamma(b+k), k < count], a row per entry of 1-D a, b > 0:
    the running sum of ln((a+j)/(b+j)) (Gamma(z+1) = z Gamma(z), DLMF 5.5.1),
    then one math.lgamma pair per row, added last: no large ln Gamma cancels."""
    a, b = (np.asarray(v, dtype=float)[..., None] for v in (a, b))
    k = np.arange(count - 1.0)
    steps = np.log((a + k) / (b + k))
    out = np.zeros(steps.shape[:-1] + (count,))
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    out += log_gamma(a) - log_gamma(b)
    return out


def gamma_ratio_signed(a: float, b: float) -> tuple[float, float]:
    """(log|Gamma(a)/Gamma(b)|, sign); arguments may be negative non-integers.
    At min(a, b) >= 10 Stirling's series of the difference (DLMF 5.11.1, seven
    terms), a - b formed once: no ln Gamma of size a ln a cancels."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"gamma ratio needs finite arguments, got a={a}, b={b}")
    if any(x <= 0.5 and abs(x - round(x)) <= 1e-12 for x in (a, b)):
        raise PoleError(f"gamma pole within tolerance: a={a}, b={b}")
    flips = sum(math.ceil(-x) for x in (a, b) if x < 0.0)  # sign G(x) = (-1)^ceil(-x)
    if min(a, b) < 10.0:
        return log_gamma(a) - log_gamma(b), (-1.0) ** flips
    d, sa, sb = a - b, 0.0, 0.0
    for c in (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12):
        sa, sb = sa / (a * a) + c, sb / (b * b) + c    # B_2k / (2k (2k-1)), k = 7..1
    return ((a - 0.5) * math.log1p(d / b) + d * (math.log(b) - 1.0) + sa / a - sb / b,
            (-1.0) ** flips)


def _check_degree_order(nu, mu):
    """DomainError unless nu is finite and 0 <= mu < inf; NaN fails both."""
    if not (np.all(np.isfinite(nu) & (0.0 <= mu) & (mu < math.inf))
            if isinstance(mu, np.ndarray)   # a scalar order: no numpy call
            else math.isfinite(nu) and 0.0 <= mu < math.inf):
        raise DomainError(f"need a finite nu and order 0 <= mu < inf, got "
                          f"nu = {nu}, mu = {mu}")


# ----------------------------------------------------------------------
# certified Gauss-hypergeometric series
# ----------------------------------------------------------------------

def _hyp_series(a: float, b: float, c: float, w: float):
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
                if tail <= _SERIES_TOL * max(1.0, abs(total)):
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

def ferrers_P(nu: float, mu: float, x: float) -> float:
    """Ferrers function P_nu^{-mu}(x) for x in (-1, 1), mu >= 0: the last
    element of the Ferrers chain that climbs to degree nu."""
    _check_degree_order(nu, mu)
    nu = max(nu, -nu - 1.0)    # P_nu = P_{-nu-1}
    n = max(0, int(math.floor(nu - mu + 1e-9)))
    m, L = _ferrers_chain(nu - n, mu, x, n + 1)
    return m[-1] * math.exp(L[-1])


_BIG = 2.0 ** 500          # Ferrers mantissas are rescaled by this power of
_TINY = 1.0 / _BIG         # two to stay within [_TINY, _BIG], exactly


def _ferrers_offset(nu0, mu, x: float, count: int):
    """Check nu0, mu, x and count; log of the seeds' (sin(theta)/2)^mu / Gamma(1+mu)."""
    _check_degree_order(nu0, mu)
    if not -1.0 + SING_TOL < x < 1.0 - SING_TOL:
        raise DomainError(
            f"Ferrers functions require |x| < 1 - {SING_TOL}, got {x}")
    if count < 1:
        raise DomainError("count must be >= 1")
    return (0.5 * mu * (math.log1p(-x) + math.log1p(x)) - mu * math.log(2.0)
            - log_gamma(1.0 + mu))


def _ferrers_chain(nu0: float, mu: float, x: float, count: int) -> tuple[list, list]:
    """`ferrers_P_sequence` on Python floats: lists (m, L)."""
    off = float(_ferrers_offset(nu0, mu, x, count))
    if not (-0.5 <= nu0 and nu0 - mu < 2.0):
        raise DomainError(f"sequence seeds need -1/2 <= nu0 < mu + 2 "
                          f"(P_nu = P_(-nu-1)), got nu0 = {nu0}, mu = {mu}")
    m, w = [], 0.5 * (1.0 - x)
    for k in range(min(count, 2)):      # the seeds F(a, b; c; w), a = mu - nu
        a, b, c = (mu - nu0) - k, mu + (nu0 + k) + 1.0, 1.0 + mu
        a = float(round(a)) if abs(a - round(a)) < 5e-13 and a < 0.5 else a
        # at a = 0 or -1 the series ends after its first or second term
        m.append(1.0 if a == 0.0 else 1.0 - b / c * w if a == -1.0
                 else _hyp_series(a, b, c, w)[0])
    return _upward(m, off, nu0, mu, x, count)


def _upward(m: list, off: float, nu0: float, mu: float, x: float,
            count: int) -> tuple[list, list]:
    """Extend the seed mantissas m at nu0 (and nu0 + 1), both over the log
    offset off, to lists (m, L) of count degrees by the upward recurrence
        (nu+mu+1) P_{nu+1}^{-mu} = (2nu+1) x P_nu^{-mu} - (nu-mu) P_{nu-1}^{-mu}
    that the Ferrers and the axis functions share; it moves an exact power
    of two into the offset when the mantissas leave [_TINY, _BIG]."""
    L = [off] * count
    a, b = m[0], m[-1]
    push, big, tiny = m.append, _BIG, _TINY
    for k in range(2, count):
        nu = nu0 + (k - 1)
        a, b = b, ((2.0 * nu + 1.0) * x * b - (nu - mu) * a) / (nu + mu + 1.0)
        # rescale when b is too big, or when both a and b are too small
        if not tiny <= abs(b) <= big and (abs(b) > big or abs(a) < tiny):
            s = tiny if abs(b) > big else big
            a, b = a * s, b * s
            off -= math.log(s)
            L[k:] = [off] * (count - k)
        push(b)
    return m, L


def ferrers_P_sequence(nu0: float, mu: float, x: float,
                       count: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, L) with P_{nu0+k}^{-mu}(x) = m[k] e^{L[k]}, k = 0..count-1: a
    mantissa and a log offset, so no value underflows at large mu.

    The seeds at nu0 and nu0 + 1 (-1/2 <= nu0 < mu + 2) are the
    Euler-transformed series
    (sin(theta)/2)^mu / Gamma(1+mu) * F(mu-nu, mu+nu+1; 1+mu; (1-x)/2),
    one-signed there, with F as the mantissa and the log of the prefactor as
    the offset (degree offsets within 5e-13 of the regular family snap onto
    it); below nu0 = -1/2 the series cancels, and P_nu = P_{-nu-1} applies.
    `_upward` climbs from them, stable where (nu + 1/2) sin(theta) > mu; in
    the evanescent region its relative error grows with the dominant/minimal
    ratio, but there P itself is exponentially small by the same factor.
    """
    m, L = _ferrers_chain(nu0, mu, x, count)
    return np.array(m, dtype=float), np.array(L, dtype=float)


def _ferrers_chains(mu: np.ndarray, x: float,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
    """`ferrers_P_sequence(mu, mu, x, count)`, or a row of it per entry of a
    1-D mu from one loop that repeats its operations (seeds F = 1 and
    1 - (2 mu + 2)/(1 + mu) (1 - x)/2).  No pair max(|m_{k-1}|, |m_k|)
    grows over 3-fold or shrinks by more than c2 / (|c1| + c3) a step, so
    the bands are checked only where that allows a rescaling."""
    if mu.ndim == 0:
        return ferrers_P_sequence(float(mu), float(mu), x, count)
    m, L = np.ones((mu.size, count)), np.empty((mu.size, count))
    L[:] = _ferrers_offset(mu, mu, x, count)[:, None]
    w = 0.5 * (1.0 - x)
    m[:, 1:2] = (1.0 - (mu + (mu + 1.0) + 1.0) / (1.0 + mu) * w)[:, None]
    nu = np.add.outer(np.arange(1.0, count - 1), mu)    # degree nu0 + k - 1
    c1, c2, c3 = (2.0 * nu + 1.0) * x, nu - mu, nu + mu + 1.0
    shrink = 0.5 * (c2 / (np.abs(c1) + c3)).min(axis=1, initial=1.0)
    a, b, t, top, low = m[:, 0], m[:, :2][:, -1], np.empty(mu.size), math.inf, 0.0
    for k, (s1, s2, s3, f) in enumerate(zip(c1, c2, c3, shrink.tolist()), 2):
        np.subtract(np.multiply(s1, b, out=t), s2 * a, out=t)
        a, b, top, low = b, np.divide(t, s3, out=m[:, k]), 4.0 * top, f * low
        if not (top <= _BIG and low >= _TINY):
            big, tiny = np.abs(b) > _BIG, (np.abs(b) < _TINY) & (np.abs(a) < _TINY)
            if big.any() or tiny.any():
                s = np.where(big, _TINY, np.where(tiny, _BIG, 1.0))
                a, b[:] = a * s, b * s
                L[:, k:] -= (big * math.log(_TINY) + tiny * math.log(_BIG))[:, None]
            pair = np.maximum(np.abs(a), np.abs(b))
            top, low = pair.max(initial=0.0), pair.min(initial=math.inf)
    return m, L


def ferrers_band(mu, x1: float, x2: float, count: int,
                 log_factor=0.0) -> np.ndarray:
    """[G(lam+mu+1)/G(lam-mu+1) P_lam^{-mu}(x1) P_lam^{-mu}(x2) e^{log_factor}
    for lam = mu + k, k = 0..count-1], or a row per entry of a 1-D array mu.

    Assembled in logs from the chains' mantissas and offsets, because the
    gamma ratio alone leaves float range at large mu while the product
    stays small; `log_factor` (a scalar or one value per degree) enters the
    same exponential.  With x2 == x1 the one chain serves both factors.
    """
    mu = np.asarray(mu, dtype=float)
    m1, L1 = _ferrers_chains(mu, x1, count)
    m2, L2 = (m1, L1) if x2 == x1 else _ferrers_chains(mu, x2, count)
    lgr = log_gamma_ratios(2.0 * mu + 1.0, 1.0, count)
    with np.errstate(divide="ignore"):     # a zero of P: log 0 = -inf, term 0
        return np.sign(m1) * np.sign(m2) * np.exp(
            lgr + L1 + L2 + np.log(np.abs(m1)) + np.log(np.abs(m2))
            + log_factor)


# ----------------------------------------------------------------------
# Legendre functions on the axis (1, oo)
# ----------------------------------------------------------------------

def _check_axis(nu: float, mu: float, x: float):
    _check_degree_order(nu, mu)
    if x <= 1.0 + SING_TOL:
        raise DomainError(f"axis argument must exceed 1 + {SING_TOL}, got {x}")


def legendre_Q(lam: float, zeta: float) -> float:
    """Legendre function of the second kind Q_lambda(zeta), zeta > 1, lambda > -1."""
    return legendre_Qhat_axis(lam, 0.0, zeta)


def legendre_P_axis(lam: float, x: float) -> float:
    """Legendre function of the first kind P_lambda(x) on (1, oo), order 0."""
    return math.exp(_axis_P_log(lam, 0.0, x))


def _axis_P_log(nu: float, mu: float, x: float) -> float:
    """log of P_nu^{-mu}(x) on (1, oo); the function is strictly positive."""
    _check_axis(nu, mu, x)
    nu = max(nu, -nu - 1.0)
    w = (x - 1.0) / (x + 1.0)
    # Pfaff transform of F(nu+1, -nu; 1+mu; (1-x)/2): positive-term series
    F, _ = _hyp_series(nu + 1.0, nu + mu + 1.0, 1.0 + mu, w)
    return (0.5 * mu * (math.log(x - 1.0) - math.log(x + 1.0))
            - log_gamma(1.0 + mu)
            - (nu + 1.0) * math.log(0.5 * (x + 1.0))
            + math.log(F))


def _axis_Qbar_log(nu: float, mu: float, x: float) -> tuple[float, float]:
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
    _check_axis(nu, mu, x)
    if mu == 0.0:
        xi = math.acosh(x)
        F, _ = _hyp_series(0.5, nu + 1.0, nu + 1.5, math.exp(-2.0 * xi))
        return 0.5 * math.log(math.pi) - (nu + 1.0) * xi + math.log(F), 1.0
    w = 1.0 / (x * x)
    F, _ = _hyp_series(0.5 * (nu - mu) + 1.0, 0.5 * (nu - mu + 1.0), nu + 1.5, w)
    log_abs = (0.5 * math.log(math.pi)
               - (nu + 1.0) * math.log(2.0) + (mu - nu - 1.0) * math.log(x)
               - 0.5 * mu * math.log((x - 1.0) * (x + 1.0)) + math.log(abs(F)))
    return log_abs, math.copysign(1.0, F)


def legendre_Qhat_axis(nu: float, mu: float, x: float) -> float:
    """Qhat_nu^{-mu}(x) = e^{mu pi i} Q_nu^{-mu}(x); real for x > 1, mu >= 0.

    Qbar times Gamma(nu-mu+1) / Gamma(nu+3/2).  Validity needs degree > -1
    at every order (below that the defining integral representations
    diverge).
    """
    if nu <= -1.0:
        raise DomainError(f"Legendre Q requires degree > -1, got {nu}")
    log_abs, sign = _axis_Qbar_log(nu, mu, x)
    lg, sg = gamma_ratio_signed(nu - mu + 1.0, nu + 1.5)
    return sign * sg * math.exp(log_abs + lg)


def legendre_Q_sequence(lam0: float, zeta: float, count: int) -> np.ndarray:
    """[Q_{lam0+k}(zeta) for k = 0..count-1]: the gamma-free Qbar chain
    (one series value times backward ratios) times Gamma(lam+1)/Gamma(lam+3/2),
    for lam0 > -1 as `legendre_Q`, so every gamma argument is positive.
    """
    if lam0 <= -1.0:
        raise DomainError(f"Legendre Q requires degree > -1, got {lam0}")
    m, L = legendre_Qbar_axis_sequence(lam0, 0.0, zeta, count)
    return m * np.exp(L + log_gamma_ratios(lam0 + 1.0, lam0 + 1.5, count))


def legendre_Qbar_axis_sequence(nu0: float, mu: float, x: float,
                                count: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, L) with Qbar_{nu0+k}^{-mu}(x) = m[k] e^{L[k]}, k = 0..count-1,
    Qbar = Qhat * Gamma(nu+3/2) / Gamma(nu-mu+1) (gamma-free normalization).

    Qbar is the minimal solution of
        (nu+mu+1)(nu-mu+1)/(nu+3/2) Qbar_{nu+1}
            = (2nu+1) x Qbar_nu - (nu+1/2) Qbar_{nu-1},
    computed by Miller's algorithm in ratio form (Gautschi, SIAM Rev. 9, 24
    (1967)): the ratios r_k = Qbar_{nu0+k} / Qbar_{nu0+k-1} run downward
    from r = 0, in segments of 2 M degrees, each started M degrees above
    its last one.  The start r = 0 errs by about e^{-2 xi} per step, so
    M = 17/xi + 20 steps (x = cosh xi) leave e^{-34}, and the recurrence
    separates its minimal solution only above nu ~ mu, hence the mu - nu0
    in M.  No start depends on count: chain(n)[:k] is chain(k) bit for bit.
    L is the log of one series value at the bottom plus the running sum of
    log|r_k|, and m the running sign.  Where (2nu+1) x overflows, the ratio
    is exactly 0 (m = 0, L = -inf).  The bottom value comes first, so a
    chain too close to x = 1 raises ConvergenceError before the loop runs.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    log_abs, sign = _axis_Qbar_log(nu0, mu, x)
    ratios = np.ones(count)
    margin = math.ceil(max(0.0, mu - nu0) + 17.0 / math.acosh(x)) + 20
    for start in range(0, count, 2 * margin):
        stop, r = min(count, start + 2 * margin), 0.0
        for k in range(start + 3 * margin - 1, max(start, 1) - 1, -1):
            nu = nu0 + k
            r = (nu + 0.5) / ((2.0 * nu + 1.0) * x - (nu + mu + 1.0)
                              * (nu - mu + 1.0) / (nu + 1.5) * r)
            if k < stop:
                ratios[k] = r
    log_r = np.log(np.abs(ratios), out=np.full(count, -np.inf), where=ratios != 0.0)
    return sign * np.cumprod(np.sign(ratios)), log_abs + np.cumsum(log_r)


def legendre_P_axis_sequence(nu0: float, mu: float, x: float,
                             count: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, L) with P_{nu0+k}^{-mu}(x) = m[k] e^{L[k]} on the axis, k < count:
    the seeds' logs from `_axis_P_log`, then `_upward`, stable here because
    P is the dominant solution."""
    if count < 1:
        raise DomainError("count must be >= 1")
    off = _axis_P_log(nu0, mu, x)
    seeds = [1.0] if count == 1 else [1.0, math.exp(_axis_P_log(nu0 + 1.0, mu, x) - off)]
    m, L = _upward(seeds, off, nu0, mu, x, count)
    return np.array(m, dtype=float), np.array(L, dtype=float)


def axis_band(nu0: float, mu: float, s_lt: float, s_gt: float,
              count: int) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|band|) of [G(nu+mu+1)/G(nu+3/2) P_nu^{-mu}(cosh s<)
    Qbar_nu^{-mu}(cosh s>), nu = nu0 + k, k < count], the axis counterpart
    of `ferrers_band`, added in logs from both chains; degree nu0 > -1."""
    if nu0 <= -1.0:
        raise DomainError(f"Legendre Q requires degree > -1, got {nu0}")
    mp, Lp = legendre_P_axis_sequence(nu0, mu, math.cosh(s_lt), count)
    mq, Lq = legendre_Qbar_axis_sequence(nu0, mu, math.cosh(s_gt), count)
    log_p = np.log(mp) + Lp                # P > 0 on the axis
    # a stand-in for a residual scale that resolves values this small
    # (ROADMAP item 1): a P value below the smallest subnormal is not summed
    if log_p.min() < -1074.0 * math.log(2.0):
        raise ConvergenceError("axis chain underflowed; order too large")
    return mq, log_gamma_ratios(nu0 + mu + 1.0, nu0 + 1.5, count) + log_p + Lq


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
    from scipy.special import iv, ive, kv, kve
    if not z > 0.0:
        raise DomainError(f"bessel_IK requires z > 0, got {z}")
    if not order >= 0.0:
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
    if not delta >= 0.0:
        raise DomainError(f"arccosh1p requires delta >= 0, got {delta}")
    if delta == 0.0:
        return 0.0
    return math.log1p(delta + math.sqrt(delta * (2.0 + delta)))
