"""Characteristic polynomials, coefficient matrices, and sums of squares.

The determinant of the shifted complexification is a real-valued bivariate
polynomial p(lam, conj(lam)) whose zero set is the spectrum.  Packing its
coefficients into a Hermitian matrix H makes spectral emptiness questions
linear-algebraic: positive definite H certifies an empty spectrum, while a
nonpositive determinant certifies a spectral point on the real axis.
"""

import numpy as np

import rlspec as rl

# A scalar operator alpha + beta conj on C^1 has an explicit 2 x 2
# coefficient matrix; compare it with the extracted one.
alpha, beta = 1.2 - 0.4j, 0.8j
R = rl.scalar_operator(alpha, beta)
cm = rl.coeff_matrix(R)
print("extracted H:\n", np.round(cm.H, 10))
print("expected  H:\n", np.array([[abs(alpha) ** 2 - abs(beta) ** 2, -np.conj(alpha)], [-alpha, 1.0]]))

# A two-parameter rotation-like antilinear family: its polynomial depends
# only on |lam|, with an indefinite diagonal coefficient matrix even though
# the spectrum is empty (indefiniteness is necessary, not sufficient).
eps = 0.5
a, b = np.sqrt((1 + eps) / 2), np.sqrt((1 - eps) / 2)
E = rl.RealLinearOperator(np.zeros((2, 2)), [[a, b], [-b, a]])
cme = rl.coeff_matrix(E)
print("\nH of the indefinite example:\n", np.round(cme.H.real, 9))
print("p(lam) on the unit circle:", rl.charpoly_eval(E, np.exp(0.7j)))
print("certificates:", rl.emptiness_certificates(E).verdict)

# The torus-grid extraction (one 2-D DFT of Schur-complement samples) agrees
# with the exact minor-expansion oracle.
rng = np.random.default_rng(1)
W = rl.RealLinearOperator(
    (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 5.0,
    (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 5.0,
)
Hi = rl.coeff_matrix(W, mode="interpolation").H
Hx = rl.coeff_matrix(W, mode="exact").H
print("\ninterpolation vs exact oracle:", np.max(np.abs(Hi - Hx)))

# Eigendecomposing H gives a weighted sum of squares of analytic
# polynomials reproducing p everywhere.
sos = rl.sos_decompose(cme)
lam = 1.3 * np.exp(0.4j)
print("\nSOS weights:", np.round(sos.d, 9))
print("reconstruction residual:", abs(rl.sos_eval(sos, lam) - rl.charpoly_eval(E, lam)))

# A positive definite H admits a unit-weight Cholesky SOS with polynomial
# degrees 0, 1, ..., n: a proof that p > 0 and the spectrum is empty.  The
# certificate and cholesky_sos decide definiteness by one scale-free test, on
# the torus matrix G of H.
skew = rl.RealLinearOperator(np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]])
cert = rl.emptiness_certificates(skew)
print("\nskew operator verdict:", cert.verdict)
print("cholesky polynomial rows:\n", np.round(cert.pd_certificate.U.real, 9))

# Conjugation has determinant -1 <= 0, so p(r, r) has a nonnegative root:
# the smallest nonnegative real eigenvalue of realify(tau), r = 1.
tau = rl.conjugation(1)
cert = rl.emptiness_certificates(tau)
print("\nconjugation verdict:", cert.verdict, " real-axis zero:", cert.real_axis_zero)
