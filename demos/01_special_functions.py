"""Legendre functions of non-integer degree and order.

A conical deficit alpha turns the familiar spherical harmonics into
Ferrers functions P_lambda^{-|m|/alpha}(cos theta) with lambda =
l - |m| + |m|/alpha: non-integer degree AND order, which scipy does not
provide.  This walk-through exercises the evaluators and their defining
properties.
"""

import math

from stringhorizon import (bessel_IK, ferrers_P, lambda_of, legendre_P_axis,
                           legendre_Q)
from stringhorizon.specfun import (gamma_ratio_signed,
                                   legendre_P_axis_sequence,
                                   legendre_Qhat_axis)

# --- mode indices on a cone -------------------------------------------
alpha = 0.75
nu, mu = lambda_of(3, 2, alpha), 2 / alpha
print(f"alpha = {alpha}: mode (l=3, m=2) carries degree nu = {nu:.6f}, "
      f"order -mu = -{mu:.6f}")
print(f"nu - mu = {nu - mu:.1f} (a non-negative integer keeps the "
      "gamma factors regular)")

# --- Ferrers functions on the cut -------------------------------------
print("\nFerrers values across the cut:")
for x in (-0.9, -0.3, 0.0, 0.3, 0.9):
    print(f"  P_nu^(-mu)({x:+.1f}) = {ferrers_P(nu, mu, x): .12e}")

# integer indices collapse to the classical associated Legendre functions
print("\ninteger check: P_2^0(x) vs (3x^2-1)/2")
for x in (-0.5, 0.2, 0.7):
    print(f"  {ferrers_P(2.0, 0.0, x): .12f}  vs  {(3*x*x-1)/2: .12f}")

# --- second kind on the axis, and the Wronskian ------------------------
lam, zeta = 1.3, 1.8
p = legendre_P_axis(lam, zeta)
q = legendre_Q(lam, zeta)
h = 1e-6
dp = (legendre_P_axis(lam, zeta + h) - legendre_P_axis(lam, zeta - h)) / (2 * h)
dq = (legendre_Q(lam, zeta + h) - legendre_Q(lam, zeta - h)) / (2 * h)
print(f"\nP_{lam}({zeta}) = {p:.12f},  Q_{lam}({zeta}) = {q:.12f}")
print(f"Wronskian P Q' - P' Q = {p*dq - dp*q:.12e} "
      f"(target {-1/(zeta**2-1):.12e})")

# the phase-absorbed second kind at fractional order is real; the axis
# chains return a mantissa and a log offset per degree, value m e^L
pm, pL = legendre_P_axis_sequence(0.5, 0.8, 1.5, 1)
pp = pm[0] * math.exp(pL[0])
qq = legendre_Qhat_axis(0.5, 0.8, 1.5)
print(f"\naxis pair at (nu, mu) = (0.5, 0.8): P = {pp:.12f}, Qhat = {qq:.12f}")

# --- normalization of the angular modes --------------------------------
from scipy.integrate import quad

m, l = 1, 2
mu = m / alpha
lam = l - m + mu
val, _ = quad(lambda t: ferrers_P(lam, mu, math.cos(t)) ** 2 * math.sin(t),
              0.0, math.pi)
log_ratio, _ = gamma_ratio_signed(lam - mu + 1.0, lam + mu + 1.0)
target = 2.0 / (2.0 * lam + 1.0) * math.exp(log_ratio)
print(f"\nnormalization integral (l=m'={l}, m={m}): {val:.12e}")
print(f"closed form 2/(2 lam + 1) * gamma ratio:   {target:.12e}")

# --- modified Bessel pair ----------------------------------------------
i, k = bessel_IK(1.7, 2.3)
print(f"\nI_1.7(2.3) = {i:.12f}, K_1.7(2.3) = {k:.12f}, "
      f"product = {i*k:.12f} (decreases with the order)")
for nu in (0.0, 1.0, 2.5):
    i, k = bessel_IK(nu, 2.3)
    print(f"  nu = {nu}: I*K = {i*k:.9f}")
