"""
Iterating the averaging operator: contraction, limits, ergodic splitting
========================================================================

Powers of the running-mean map wash a vector out to its first coordinate.
The package tracks iterates exactly, compares them against a closed-form
kernel, and verifies the mean-ergodic decomposition.
"""

from fractions import Fraction

import numpy as np

from cesarospec import (
    CoordinateVector,
    basis_vector,
    cesaro_means,
    ergodic_decomposition_check,
    gm_sup,
    iterate_limit_check,
    iterate_via_kernel,
    parse_alpha,
    power_bound_check,
    power_iterate,
    seminorm,
)

linear = parse_alpha("linear")

# exact iterates of the first basis vector: each pass is a running mean
trace = power_iterate(basis_vector(1, 6), 3)
for m, values in trace.iterates:
    print(f"C^{m} e_1 =", [str(v) for v in values])

# every coordinate converges to x_1; the check scans m up to a cap
v = iterate_limit_check(basis_vector(1, 30), tol=1e-6)
print("\niterates settle at x_1 within 1e-6:", v.outcome,
      f"(steps used: {v.params['max_steps']}, cap {v.params['m_cap']})")

# the decay rate is governed by a_m, the sup of t log^(m-1)(1/t)/(m-1)!;
# closed form and direct maximization agree to 1e-10
print("\na_m:", ", ".join(f"{gm_sup(m):.6f}" for m in range(1, 8)))

# the m-th power of the operator equals an explicit kernel matrix
x = CoordinateVector(np.linspace(-1.0, 1.0, 20))
gap = np.max(np.abs(iterate_via_kernel(x, 4).as_float()
                    - power_iterate(x, 4).final().as_float()))
print(f"kernel route vs iterated means, m=4: max gap {gap:.2e}")

# seminorm contraction: p_k(C^m x) <= p_k(x), checked in exact arithmetic
x = CoordinateVector([Fraction(5), Fraction(-3), Fraction(7, 2), Fraction(1)])
print("power bound (exact):", power_bound_check(linear, x, K=3, M=20,
                                                mode="rational").outcome)

# Cesaro means of the iterates converge too (mean ergodicity): the p_1
# distance of the first and the last mean to the predicted limit x_1
means = cesaro_means(basis_vector(1, 8), 30)
first, last = (seminorm(linear, 1, np.array(mean, dtype=float)
                        - float(means.limit_prediction))
               for mean in (means.means[0][1], means.final().values))
print(f"mean distance to limit: {first:.4f} -> {last:.4f}")

# the space splits into fixed vectors plus the closure of the range of
# (I - C); the decomposition is computed and re-summed exactly
x = CoordinateVector([Fraction(3), Fraction(1), Fraction(4), Fraction(1)])
print("ergodic splitting:", ergodic_decomposition_check(linear, x).outcome)
