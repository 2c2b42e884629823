"""The hybrid viral replication benchmark.

Template and genome counts stay small and jump stochastically; the
structural protein is three orders of magnitude faster and runs inside
the drift.  The rescaled version puts all three components on the O(1)
scale so endpoint errors are comparable across components.  Without a
closed-form flow the reference is a fine-step run (h=1/320) on the same
epoch streams, mirroring how the convergence experiment is wired.
"""

import numpy as np

import rtesim as rs

scaled = rs.builtin_bacteriophage_scaled()
spec = rs.bacteriophage_scaling()
x0 = np.array([2.0, 2.0, 1.0])          # scaled deterministic equilibrium
print("unscaled equilibrium:", spec.unscale_state(x0))

bundle = rs.PathBundle(7, 0, scaled.jump_count)
ref = rs.solve_trajectory(scaled, rs.SolverConfig(theta=0.0, h=1 / 320),
                         bundle, x0, 10.0)
print(f"reference (h=1/320): X(10) = {np.array2string(ref.endpoint, precision=5)}")
print(f"jumps per reaction channel: {ref.meta['jump_counts']}")

print("\ncoupled endpoint gaps against the reference:")
for theta, rule in [(0.0, "euler"), (0.5, "trapezoidal"),
                    (0.5, "improved-trapezoidal")]:
    for h in (1 / 20, 1 / 80):
        cfg = rs.SolverConfig(theta=theta, h=h, quadrature=rule)
        traj = rs.solve_trajectory(scaled, cfg, bundle, x0, 10.0)
        gap = np.linalg.norm(traj.endpoint - ref.endpoint)
        print(f"  {cfg.variant():34s} h=1/{round(1/h):<4d} |gap| = {gap:.3e}")

# population counts must stay nonnegative: the default policy projects any
# undershoot back to zero after the step (a rare event -- the margin below
# shows how close a coarse run actually gets to the boundary)
cfg = rs.SolverConfig(theta=0.0, h=1 / 10, negativity="reset-to-zero")
traj = rs.solve_trajectory(scaled, cfg, bundle, x0, 10.0)
print(f"\ncoarse-run distance to the nonnegativity boundary: "
      f"min component = {traj.states.min():.4f}")
