"""Independent numerical verification: Gram ranks, collocation, identities.

Run: python demos/oracle_checks.py
"""

import numpy as np

from tfcert import (PointSet, collocation_rank, default_collocation_points,
                    dependence_residual_er, er_lattice, gram_matrix,
                    make_gaussian, make_singular_cos, metaplectic_residual,
                    stft_identity_residual)

g = make_gaussian(1)

print("Gram verdicts (smallest vs largest eigenvalue of the shift Gram matrix):")
for rows in ([[0, 0], [1, 0]], [[0, 0], [0.1, 0]], [[0, 0], [1e-9, 0]]):
    lam = PointSet.from_rows(rows)
    rep = gram_matrix(g, lam)
    print(f"  shifts {rows}: {rep.verdict:12s} relative gap {rep.relative_gap:.3e}")

print("\nCollocation rank test handles the non-L2 singular family:")
fsc = make_singular_cos(1.0)
lam = PointSet.from_rows([[0, 0], [3, 0], [6, 0], [9, 1]])
pts = default_collocation_points(fsc, lam)
rep = collocation_rank(fsc, lam, pts)
print(f"  cos(t)/|t| on 4 shifts, {len(pts)} samples: {rep.verdict} "
      f"(gap {rep.relative_gap:.3e})")

print("\nFive-term dependence of the 2-d oscillatory family "
      "(an exact linear dependence of TF translates):")
rep = dependence_residual_er(er_lattice(3.0, 0.25), quad_tol=1e-9)
print(f"  max |2f(a,b) - f(a+1,b) - f(a-1,b) - f(a,b+1) - f(a,b-1)| "
      f"= {rep.max_abs_residual:.3e} over 625 lattice points")

print("\nSTFT covariance identity residual (exact identity, quadrature noise only):")
rep = stft_identity_residual(g, g, 1.0, 0.5)
print(f"  residual {rep.max_abs_residual:.3e} on a 33x33 lattice")

print("\nMetaplectic covariance identities at their closed-form phases")
print("(no phase fitted; quadrature noise only):")
for kind, params in (("dilation", (2.0, 1.0, 1.0)),
                     ("chirp", (0.5, 1.0, 1.0)),
                     ("fourier_multiplier", (0.25, 0.5, 0.5))):
    rep = metaplectic_residual(kind, params, g)
    phase = rep.best_phase
    print(f"  {kind:18s} residual {rep.max_abs_residual:.2e}, "
          f"phase {phase.real:+.4f}{phase.imag:+.4f}i")
