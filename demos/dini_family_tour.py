"""Tour of the Dini pair: structure tensor, Killing family, conservation.

Run:  python3 demos/dini_family_tour.py
"""

import numpy as np

from benenti import (
    PhaseSpacePoint,
    check_killing_tensor,
    check_projective_equivalence,
    geodesic_drift,
    get_entry,
    integral_value,
    poisson_bracket,
    t_grid,
)

pair = get_entry("dini").pair
print("pair:", pair.name)
print("coordinates:", pair.coordinates)
print("domain:", pair.domain)

# The structure tensor of this classical pair is diag(x, y), so its
# eigenvalues at a point are just the coordinates.
point = (2.0, 0.5)
frame = pair.frame(point, 2)
L = frame.L.value()
print("\nL at", point, "=")
print(np.array_str(L, precision=6, suppress_small=True))
print("eigenvalues:", np.linalg.eigvals(L))

# First-order identity linking nabla L to the trace gradient.
print("\nprojective equivalence residual:",
      f"{check_projective_equivalence(pair, point):.3e}")

# Every member of the comatrix family is a Killing tensor for g.
print("\nKilling residuals over the eigenvalue-filtered t grid:")
for t in t_grid(pair, point):
    print(f"  t = {t:+.2f}: {check_killing_tensor(pair, t, point):.3e}")

# Quadratic integrals Poisson-commute...
phi = PhaseSpacePoint(point, (0.8, -0.4))
print("\nintegral values and brackets at", point, "p =", phi.p)
for t in (-1.0, 0.0, 2.0):
    print(f"  I_{t:+.1f} = {integral_value(pair, t, phi):+.6f}")
print("  {I_0, I_2} =", f"{poisson_bracket(pair, 0.0, 2.0, phi):.3e}")

# ... and are conserved along geodesics.  The integrator controls its own
# step to a local error tolerance: a tighter tolerance takes more steps, and
# the drift stays within the tolerance as it falls.
x0 = (1.6, 0.75)
p0 = tuple(pair.g.values(x0) @ np.array([0.55, -0.5]))
phi0 = PhaseSpacePoint(x0, p0)
print("\nconservation of I_0 along a geodesic from", x0)
print(f"  {'tolerance':>9s} {'steps':>5s} {'max drift':>12s}")
for tol in (1e-5, 1e-7, 1e-9, 1e-11):
    result = geodesic_drift(pair, 0.0, phi0, 1.0, tol)
    print(f"  {tol:9.0e} {result.steps:5d} {result.max_drift:12.3e}")
