"""
Spectrum predictions and the numerical evidence behind them
===========================================================

The spectrum of the averaging operator is decided by which growth regime
the exponent sequence falls in.  The package turns the classifier profile
into set descriptors, then corroborates them with resolvent computations.
"""

from cesarospec import (
    boun_bounds_fit,
    classify_space,
    disc_report,
    eigenvector_membership,
    parse_alpha,
    predict_spectra,
    resolvent_point_profile,
    verify_resolvent_point,
)

# nuclear with positive gap infimum: spectrum is the reciprocals 1/m,
# point spectrum the same, and 0 joins the closure
linear = parse_alpha("linear")
report = predict_spectra(classify_space(linear))
print("linear:")
print("  sigma      :", report.sigma.kind)
print("  sigma_point:", report.sigma_pt.kind)
print("  sigma_star :", report.sigma_star.kind)
for z in (0.5, 0.3, 1.0, 2.0):
    print(f"  {z} in sigma?", report.sigma.contains(z))

# slow logarithmic growth: the spectrum is sandwiched between the union of
# level discs and the closed disc D(1); each level contributes a certified
# disc through its convergence exponent
log2 = parse_alpha("log:beta=2")
report = predict_spectra(classify_space(log2))
print("\nlog:beta=2:")
print("  sigma kind :", report.sigma.kind)
print("  outer disc : center", report.sigma.center, "radius", report.sigma.radius)
# s0(k) = 1 + 2/k, bracketed from alpha at each level
for entry in disc_report(log2, kmax=3).entries:
    print(f"  level {entry.k}: s0 in [{entry.s0_lo:.6f}, {entry.s0_hi:.6f}],"
          f" disc radius ~ {entry.radius:.4f}")

# resolvent evidence: scaled tail row sums stabilize at resolvent points
# and grow inside the predicted spectrum (witnessed at some weight level)
print("\nrow-sum evidence:")
for lam in (2.0, 0.4 + 0.3j):
    v = verify_resolvent_point(linear, lam, k=1)
    print(f"  linear, lambda={lam}: {v.outcome}")
v = resolvent_point_profile(log2, 0.4)
print(f"  log:beta=2, lambda=0.4: {v.outcome}, witness {v.witness}")

# eigenvector membership: the m-th eigenvector lives in the space exactly
# when the space is nuclear (for m >= 2); for log growth it escapes
for spec, m in (("linear", 3), ("log:beta=2", 2)):
    v = eigenvector_membership(parse_alpha(spec), m, K=4)
    print(f"  delta e_{m} in space({spec})? {v.outcome}")

# the tail-entry envelope n^(1-a) m^a |e_nm| is bounded above and below,
# which is the quantitative hook behind the resolvent formulas
print("\nenvelope constants:")
for lam in (2.0, -1.0):
    low, high, v = boun_bounds_fit(lam, N=1000)
    print(f"  lambda={lam}: {low:.3f} <= envelope <= {high:.3f}  [{v.outcome}]")
