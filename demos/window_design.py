"""Search for windows concentrating the STFT of a target function.

The goal: given f, a radius R and a count N, find a window g with
|V_g f| < |<f, g>| / N everywhere outside the R-ball. A configuration that
achieves the target yields a full time-frequency separation certificate for
any N-point set with pairwise distances above R.

Run: python demos/window_design.py
"""

import numpy as np

from tfcert import (PointSet, WindowParams, check_theorem3, make_example1,
                    make_gaussian, realize_window, search, tail_ratio)

f = make_gaussian(1)
print("Tail ratio of the Gaussian against itself (closed form e^(-pi R^2/2)):")
for R in (0.5, 1.0, 2.0):
    ratio = tail_ratio(f, WindowParams(1.0, np.array([1.0])), R)
    print(f"  R = {R}: ratio = {ratio:.6f}  target 1/2 -> "
          f"{'achieved' if ratio < 0.5 else 'not achieved'}")

print("\nWidth search over dilated Gaussian-Hermite windows, c solved per width,"
      " f = slow-decay family:")
target_f = make_example1(4.0, 2.0)
result = search(target_f, R=1.5, N=3, d=3, budget=90)
print(f"  target 1/N = {result.target:.4f}, best ratio = {result.ratio:.4f}, "
      f"achieved = {result.achieved}, evaluations = {result.evaluations}")
print("  incumbent trace (nonincreasing):")
for i, (params, ratio) in enumerate(result.trace):
    coeffs = ", ".join(f"{c:+.3f}" for c in params.hermite_coeffs)
    print(f"    {i:2d}: ratio {ratio:.5f}  width {params.width:.3f}  [{coeffs}]")

if result.achieved:
    print("\nAchieved: upgrade to a full TF-separation certificate")
    g = realize_window(result.best_params)
    lam = PointSet.from_rows([[0, 0], [2, 0], [0, 2]])
    cert = check_theorem3(target_f, g, lam)
    print(f"  three points with pairwise distance 2 > R: {cert.verdict}")
else:
    print("\nTarget not reached within budget; the trace records the attempt.")
