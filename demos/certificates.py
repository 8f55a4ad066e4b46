"""Independence certificates for separated point sets.

Run: python demos/certificates.py
"""

import json
import math

import numpy as np

from tfcert import (PointSet, check_theorem1, check_theorem2, check_theorem3,
                    decay_radius, dilation_threshold, make_example1,
                    make_example2, make_gaussian, report_json, stretch)

print("Decay radii (smallest R with sup outside < peak/(N-1)):")
g = make_gaussian(1)
for n in (2, 3, 4, 6):
    print(f"  gaussian, N={n}: R = {decay_radius(g, n):.6f}")
f = make_example1(8.0, 5.0)
print(f"  slow-decay family C=8, N=4: R = {decay_radius(f, 4):.6f} (= 3/8)")

print("\nTime-separation certificate on times {0, 1, 2, 3}:")
lam = PointSet.from_rows([[0, 0], [1, 1], [2, 2], [3, 3]])
for C in (2.0, 3.01, 8.0):
    cert = check_theorem1(make_example1(C, 5.0), lam)
    print(f"  C = {C:5.2f}: {cert.verdict:13s} (R = {cert.R:.4f}, M = {cert.M})")
print("  the verdict flips exactly at C = N - 1 = 3")

print("\nThe four-point set {(0,0), (1,0), (0,1), (s,s)} with s = sqrt(2):")
s2 = math.sqrt(2.0)
lam4 = PointSet.from_rows([[0, 0], [1, 0], [0, 1], [s2, s2]])
cert = check_theorem1(make_example1(8.0, 5.0), lam4)
print(f"  time-separation check: {cert.verdict} (M = {cert.M}; two points share x = 0)")
cert = check_theorem3(g, g, lam4, stft_envelope=lambda r: math.exp(-math.pi * r * r / 2))
print(f"  full TF-separation check (Gaussian window): {cert.verdict} "
      f"(R = {cert.R:.5f} < M = {cert.M})")

print("\nDilation threshold: how far can the function be stretched?")
lam3 = PointSet.from_rows([[0, 0], [1, 0], [2, 0]])
thr = dilation_threshold(g, lam3)
print(f"  gaussian, N=3, M=1: threshold = {thr:.4f}")
for r in (0.5 * thr, 0.99 * thr, 1.01 * thr):
    cert = check_theorem1(stretch(g, r), lam3)
    print(f"  stretch r = {r:6.4f}: {cert.verdict}")

print("\nSingular functions certify at every separation (translate toward the blow-up):")
f2 = make_example2(0.0)
lam_t2 = PointSet.from_rows([[0, 0], [2, 0], [4, 0], [6, 1]])
cert = check_theorem2(f2, lam_t2)
print(f"  {cert.verdict}, translate x = {cert.translate_x[0]:.6f} "
      f"(needs |x| < 1/81 = {1 / 81:.6f})")

print("\nCertificates serialize to JSON:")
print(json.dumps(report_json(cert), indent=2)[:400], "...")
