"""The generalized Heine identity.

The classic Heine identity sums (ised over integer-degree Legendre
functions) collapses a mode sum into 1/(zeta - psi).  On a cone the same
role is played by a double sum over non-integer Legendre functions with a
gamma-ratio weight; it resums into an elementary closed form in the
hyperbolic separation chi.  This script evaluates both sides and watches
the truncated sum converge as the tolerance, which sets every cutoff,
shrinks.
"""

import math

from stringhorizon import heine_double_sum, generalized_heine_rhs
from stringhorizon.identities import check_heine_classic, check_heine_generalized

PI = math.pi

# --- the classic identity first ----------------------------------------
case = check_heine_classic(zeta=1.5, psi=0.3)
print("classic Heine at (zeta, psi) = (1.5, 0.3):")
print(f"  sum = {case.lhs:.15f}")
print(f"  1/(zeta-psi) = {case.rhs:.15f}   residual {case.residual:.2e}")

# --- the cone generalization -------------------------------------------
alpha, theta, dphi, chi = 0.75, PI / 3, 1.0, 0.8
zeta = math.cos(theta) ** 2 + math.sin(theta) ** 2 * math.cosh(chi)
rhs = generalized_heine_rhs(alpha, theta, theta, dphi, chi)
print(f"\ngeneralized identity at alpha={alpha}, theta=theta'={theta:.4f}, "
      f"dphi={dphi}, chi={chi} (zeta={zeta:.6f}):")
print(f"  closed form  = {rhs:.15f}")

for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
    lhs, tail, lmax, mused = heine_double_sum(alpha, theta, theta, dphi, zeta,
                                              tol=tol)
    print(f"  tol={tol:.0e}: double sum = {lhs:.15f}  "
          f"(dev {abs(lhs-rhs):.2e}, lmax {lmax}, m-bands {mused})")

# --- a residual record like the verification suite produces ------------
case = check_heine_generalized(alpha, theta, theta, dphi, chi, tol=1e-8)
print(f"\ncheck record: residual {case.residual:.2e}, certified tail "
      f"{case.certified_tail:.2e}, passed = {case.passed}")

# alpha -> 1 recovers the classic form through the addition theorem
case1 = check_heine_generalized(1.0, theta, theta, dphi, chi, tol=1e-9)
cos_g = math.cos(theta) ** 2 + math.sin(theta) ** 2 * math.cos(dphi)
print(f"\nalpha = 1 reduction: closed form {case1.rhs:.12f} vs "
      f"1/(zeta - cos gamma) = {1.0/(zeta-cos_g):.12f}")
