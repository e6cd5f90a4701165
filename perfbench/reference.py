"""Reference values computed apart from stringhorizon, in mpmath at 30 digits.

Each function takes the same float inputs the program receives and returns
a float.  Nothing here imports stringhorizon, and no value is stored: the
references are recomputed on every benchmark run.
"""

import mpmath as mp

mp.mp.dps = 30


def _kernel(alpha, theta, theta_p, dphi, chi):
    a, chi = mp.mpf(alpha), mp.mpf(chi)
    ss = mp.sin(mp.mpf(theta)) * mp.sin(mp.mpf(theta_p))
    return mp.sinh(chi / a) / (ss * mp.sinh(chi) * (mp.cosh(chi / a) - mp.cos(mp.mpf(dphi))))


def heine_kernel(alpha, theta, theta_p, dphi, chi):
    """Closed side of the generalized Heine identity,
    sinh(chi/a) / [sin th sin th' sinh chi (cosh(chi/a) - cos dphi)]."""
    return float(_kernel(alpha, theta, theta_p, dphi, chi))


def heine_classic(zeta, psi):
    """sum_l (2l+1) P_l(psi) Q_l(zeta) = 1/(zeta - psi)."""
    return float(1 / (mp.mpf(zeta) - mp.mpf(psi)))


def app5(alpha, m, theta, theta_p):
    """Q_{mu-1/2}(cosh xi) / (pi sqrt(sin th sin th')), mu = |m|/alpha,
    cosh xi = (1 - cos th cos th') / (sin th sin th')."""
    mu = mp.mpf(abs(m)) / mp.mpf(alpha)
    th, tp = mp.mpf(theta), mp.mpf(theta_p)
    ss = mp.sin(th) * mp.sin(tp)
    z = (1 - mp.cos(th) * mp.cos(tp)) / ss
    q = mp.legenq(mu - mp.mpf(1) / 2, 0, z, type=3)
    return float(mp.re(q) / (mp.pi * mp.sqrt(ss)))


def norm_integral(alpha, m, l, l_p):
    """int P_lam^{-mu} P_lam'^{-mu} d(cos th) =
    delta_{l l'} 2/(2 lam + 1) Gamma(lam-mu+1)/Gamma(lam+mu+1)."""
    if l != l_p:
        return 0.0
    mu = mp.mpf(abs(m)) / mp.mpf(alpha)
    lam = l - abs(m) + mu
    return float(2 / (2 * lam + 1)
                 * mp.exp(mp.loggamma(lam - mu + 1) - mp.loggamma(lam + mu + 1)))


def horizon_green(theta, eta, alpha):
    """Horizon Green's function at theta = theta', dphi = 0, M = 1:
    the generalized Heine kernel at cosh chi = 1 + (eta - 1)/sin^2 theta,
    divided by 32 pi^2 alpha."""
    th = mp.mpf(theta)
    chi = mp.acosh(1 + (mp.mpf(eta) - 1) / mp.sin(th) ** 2)
    return float(_kernel(alpha, theta, theta, 0.0, chi) / (32 * mp.pi ** 2 * mp.mpf(alpha)))


def phi2(theta, alpha):
    """[1 + (1 - a^2)/(a^2 sin^2 th)] / (192 pi^2), M = 1; at alpha = 1 this
    is Candelas' horizon value 1/(192 pi^2 M^2)."""
    a = mp.mpf(alpha)
    s2 = mp.sin(mp.mpf(theta)) ** 2
    return float((1 + (1 - a * a) / (a * a * s2)) / (192 * mp.pi ** 2))
