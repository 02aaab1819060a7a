"""Spectra as plane curves: ray sweeps, eigenvectors, eigenvalue-free tests.

A line through the origin meets the spectrum in finitely many points, and
one eigenvalue solve of the rotated complexification finds all of them.
Sweeping the angle samples the whole spectral curve; the script also shows
the certificate that rules out eigenvalues entirely and the objects
controlling invariant lines.
"""

import os

import numpy as np

import rlspec as rl
from rlspec import serialize as ser

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# Conjugation on C^1: every point of the unit circle is spectral.
tau = rl.conjugation(1)
cloud = rl.spectrum_sweep(tau, 64)
print("conjugation: points =", len(cloud.points),
      " max |r - 1| =", max(abs(p.r - 1) for p in cloud.points))

# A generic antilinear operator keeps the circle structure (radii do not
# depend on the angle) but with several radii.
rng = np.random.default_rng(2)
A = rl.RealLinearOperator(np.zeros((4, 4)), (rng.standard_normal((4, 4))) / 3.0)
cloud = rl.spectrum_sweep(A, 96)
radii = sorted({round(p.r, 9) for p in cloud.points})
print("antilinear spectral radii:", radii)
csv_path = os.path.join(OUT, "antilinear_spectrum.csv")
ser.write_text(csv_path, ser.spectrum_csv(cloud))
svg_path = os.path.join(OUT, "antilinear_spectrum.svg")
ser.write_text(svg_path, ser.spectrum_svg(cloud, cloud.norm))
print("wrote", csv_path, "and", svg_path)

# A complex linear operator is the classical case: aim rays at the
# eigenvalue arguments and the sweep recovers exactly eig(C).
C = np.diag([1.0 + 0j, 2j, -0.5 - 0.5j])
R = rl.RealLinearOperator(C, np.zeros((3, 3)))
eigs = np.linalg.eigvals(C)
cloud = rl.spectrum_sweep(R, thetas=np.angle(eigs))
print("\nrecovered:", np.round(np.sort_complex(cloud.lambdas()), 9))
print("expected :", np.round(np.sort_complex(eigs), 9))

# Spectral points come with eigenvectors; antilinearity turns a single
# eigenvalue into a whole circle of them with rotating eigenvectors.
x = rl.eigenvector(tau, np.exp(0.6j))
print("\neigenvector at exp(0.6 i):", x, " residual:",
      np.linalg.norm(rl.apply(tau, x) - np.exp(0.6j) * x))

# Skew-dominated antilinear parts admit no eigenvalues at all: T x is
# orthogonal to x, so a Pythagorean margin forbids R x = lam x.
skew = rl.RealLinearOperator(np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]])
res = rl.no_eigenvalue_certificate(skew)
print("\nno-eigenvalue certificate:", res.certified, " margin:", res.margin)
print("sweep of the certified operator:", rl.spectrum_sweep(skew, 32).points)

# A complex line is invariant exactly when an eigenvector x of C spans it and
# B conj(x) = beta x (a coneigenvector of B).  This operator has none: C's one
# eigenvector e1 is sent to e2 by the antilinear part.
none_example = rl.RealLinearOperator([[1.0, 1.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])
inv = rl.common_invariant_1d(none_example)
print("\ninvariant lines of the stubborn example:", len(inv.lines), inv.flags)

# Inside an eigenspace of C the search keeps the largest subspace that
# B conj(.) maps into itself, then solves for its coneigenvectors.  In the
# 3-dimensional eigenspace of diag(1, 1, 1, 2), B sends e2 out to e4, which
# leaves e1 (beta = 1) and e3 (beta = 0); e4 is the other eigenspace.
B3 = np.zeros((4, 4))
B3[0, 0] = B3[3, 1] = 1.0
inv3 = rl.common_invariant_1d(rl.RealLinearOperator(np.diag([1.0, 1.0, 1.0, 2.0]), B3))
print("invariant lines of diag(1, 1, 1, 2) with B e1 = e1, B e2 = e4:",
      [f"e{int(np.argmax(np.abs(x))) + 1}" for x in inv3.lines])

# The complex span of antilinear powers is always invariant: residuals
# vanish, giving a constructive invariant subspace.
span = rl.krylov_cspan(A, rng.standard_normal(4))
print("krylov span dimension:", span.basis.shape[1], " residuals:", np.round(span.residuals, 14))
