"""Structure-matrix curves living inside matrix Lie groups.

One-parameter subgroups t -> exp(tX) give algebras whose structure
matrices never leave the group generated by X, and whose determinant sign
never changes.  Starting the curve at A0 instead of the identity moves
the whole curve into A0's connected component.
"""

import numpy as np

from evolflow import (
    AffineLine,
    ExpLine,
    Group,
    Lorentz11,
    So2,
    check_ode,
    check_one_parameter_subgroup,
    connected_component_sign,
    in_group,
    nonsingularity_interval,
    perfectness_profile,
)

grid = np.linspace(-2.0, 2.0, 41)

# The rotation curve: every slice is an SO(2) matrix.
so2 = So2()
print("SO(2) curve at t = pi/2:")
print(so2.value(np.pi / 2))
print("velocity at the origin (a skew-symmetric matrix):")
print(so2.velocity_at_origin())
rep = check_one_parameter_subgroup(so2, [-2.0, -1.0, 0.5, 1.0, 2.0])
print("one-parameter subgroup:", rep.passed,
      f"(homomorphism residual {rep.homomorphism_residual:.2e})")

# The Lorentz boost curve solves A' = A X for X = [[0,1],[1,0]].
boost = Lorentz11(1)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
print("\nLorentz boost solves its ODE:",
      check_ode(boost, X, grid).passed)
print("membership at t=2:", in_group(boost.value(2.0), Group.lorentz11()))

# The four O(1,1) curves fill the four connected components.
for i in (1, 2, 3, 4):
    c = Lorentz11(i)
    A = c.value(1.0)
    print(f"component curve {i}: sign det = {connected_component_sign(A):+d}, "
          f"A11 = {A[0, 0]:+.3f}")

# Determinant signs are constant along exponential curves; a singular
# start stays singular forever (the algebra is never perfect).
rng = np.random.default_rng(0)
A0 = rng.normal(size=(3, 3))
gen = 0.5 * rng.normal(size=(3, 3))
prof = perfectness_profile(ExpLine(A0, gen), grid)
print("\nrandom exp line: sign constant =", prof.sign_constant,
      "all perfect =", prof.all_perfect)

A0[2] = A0[0]  # force rank deficiency
flat = perfectness_profile(ExpLine(A0, gen), grid)
print("singular start : max scaled |det| =", f"{max(s.scaled_abs_det for s in flat.samples):.2e}",
      "all perfect =", flat.all_perfect)

# The affine line I + tA is only a curve of perfect algebras while
# |t| < 1 / spectral_radius(A).
A = np.diag([2.0, -1.0])
line = AffineLine(A)
radius = nonsingularity_interval(line)
print("\naffine line safe radius for diag(2,-1):", radius)
print("det at the edge t=0.5:", np.linalg.det(line.value(0.5)))
