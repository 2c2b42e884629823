"""Generator and martingale diagnostics on exact paths.

The compensated observable F(X(t)) - F(X(0)) - integral of the generator
along the path is a martingale, so its Monte Carlo mean must vanish and
its second moment must match the integrated predictable variation.  Both
are computed here from exact trajectories, giving a model-level self-test
that is independent of any fixed-step solver.
"""

import numpy as np

import rtesim as rs

model = rs.builtin_linear_scalar(alpha=1.5, lam=200.0, eps=0.007)
F = lambda xs: xs[..., 0]
gradF = lambda xs: np.ones_like(xs)

val = rs.generator_apply(model, F, gradF, np.array([10.0]))
print(f"generator at x=10 for F(x)=x: {val:+.6f}   (drift -15 plus jump flux +14)")

chk = rs.martingale_check(model, F, gradF, [10.0], 1.0, 2000, 31, threads=2)
print(f"\nM = {chk.M} exact paths on [0, 1]:")
print(f"  mean compensated value : {chk.mean:+.5f}  (|z| = {chk.abs_z:.2f})")
print(f"  E |M_T|^2              : {chk.second_moment_lhs:.5f} +- {chk.se_lhs:.5f}")
print(f"  predictable variation  : {chk.second_moment_rhs:.5f} +- {chk.se_rhs:.5f}")
gap = abs(chk.second_moment_lhs - chk.second_moment_rhs)
print(f"  identity gap           : {gap:.5f}  ({gap / chk.combined_se():.2f} combined SE)")

# sampling the one-step quadrature errors on the exact path
traj = rs.exact_trajectory(model, rs.PathBundle(31, 0, 1), [10.0], 1.0)
rules = ("euler", "trapezoidal")
cfgs = [rs.SolverConfig(theta=0.5, h=0.1, quadrature=rule) for rule in rules]
for rule, errs in zip(rules, rs.local_errors(model, traj, cfgs)):  # (L_abs, K_abs)
    print(f"\nmean one-step clock error |K|, {rule:12s}: {np.mean(errs[:, 1]):.3e}")
