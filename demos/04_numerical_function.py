"""The numerical function and how much of the field of values it covers.

Normalizing the characteristic polynomial by sum |lam|^(2j) yields a
bounded function F whose values are convex combinations of the eigenvalues
of the coefficient matrix H.  Its range therefore sits inside the field of
values [min eig H, max eig H] -- but typically does not fill it, and the
uncovered margins are computable exactly one ray at a time.
"""

import os

import numpy as np

import rlspec as rl
from rlspec import serialize as ser

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

eps = 0.5
a, b = np.sqrt((1 + eps) / 2), np.sqrt((1 - eps) / 2)
E = rl.RealLinearOperator(np.zeros((2, 2)), [[a, b], [-b, a]])
cm = rl.coeff_matrix(E)

# Pointwise, from the operator: F(0) is the determinant of the
# complexification, the limit at infinity is the monic leading coefficient 1,
# and values on the unit circle average the eigenvalues of H.
print("F(0)          =", rl.numfun_eval(E, 0.0))
print("F(exp(0.3 i)) =", rl.numfun_eval(E, np.exp(0.3j)))
print("F(100)        =", rl.numfun_eval(E, 100.0))

# Convexity made explicit: barycentric weights against the eigenvalues.
sos = rl.sos_decompose(cm)
w = rl.convex_weights(cm, np.exp(0.3j))
print("\neigenvalues of H:", np.round(sos.d, 9))
print("weights at exp(0.3 i):", np.round(w, 9), " -> value", float(np.dot(sos.d, w)))

# Along one ray F is a rational function of the radius; its critical points
# are listed with the endpoint values.  Rays are solved from the operator: on
# the line at angle theta, p is the product of (mu_k - t) over the eigenvalues
# of the line matrix, and F' = 0 is a sum over those poles and the roots of
# the denominator, so they take E, not H.
print("\nray extrema at theta = 0:", rl.ray_extrema(E, 0.0))

# Sweeping rays gives the exact range, compared against the field of values
# of H, which the call extracts from E itself.
rep = rl.range_and_coverage(E, n_rays=128)
print("\nrange of F :", rep.range_est)
print("fov of H   :", rep.fov)
print("uncovered  : low", rep.uncovered_low, " high", rep.uncovered_high)

# Per-ray minima (flat here by radial symmetry) as a CSV artifact.
rows = rl.range_and_coverage(E, n_rays=64).ray_minima
path = os.path.join(OUT, "eps_ray_minima.csv")
ser.write_text(path, ser.ray_minima_csv(rows))
print("\nwrote", path)

# A complex linear contrast: for the identity operator the function does
# reach the top of the field of values (at lam = -1), so only one side can
# stay uncovered in general.
rep = rl.range_and_coverage(rl.identity(1), n_rays=128)
print("\nidentity operator: range", rep.range_est, " fov", rep.fov,
      " uncovered high", rep.uncovered_high)
