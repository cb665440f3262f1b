"""
Exact matrix algebra for the averaging operator
===============================================

Truncations of the running-mean matrix and its relatives are computed in
rational arithmetic, so the classical identities hold with zero tolerance.
"""

import math
from fractions import Fraction

from cesarospec import (
    a_matrix,
    b_matrix,
    basis_vector,
    cesaro,
    cesaro_apply,
    cesaro_inverse_apply,
    delta,
    delta_eigenvector,
    identity,
    ops_equal_exact,
    resolvent,
)
from cesarospec.operators import logbinom

N = 24

# the signed-binomial matrix is an involution: composing it with itself
# gives the identity, entry by entry, as exact rationals
d = delta(N)
print("delta . delta == I:", ops_equal_exact(d @ d, identity(N)))

# the same matrix diagonalizes the averaging operator: its m-th column is
# an eigenvector with eigenvalue 1/m
for m in (1, 2, 5):
    v = delta_eigenvector(m, N)
    image = cesaro_apply(v)
    exact = all(image.values[i] == v.values[i] / m for i in range(N))
    print(f"C (delta e_{m}) == (1/{m}) delta e_{m}:", exact)

# the running-mean map and its explicit inverse undo each other
x = [Fraction(3), Fraction(-1, 2), Fraction(22, 7), Fraction(0), Fraction(5)]
round_trip = cesaro_inverse_apply(cesaro_apply(x))
print("inverse(mean(x)) == x:", list(round_trip.values) == x)

# the averaging matrix factors against its companion pair exactly
print("A . B == I:", ops_equal_exact(a_matrix(N) @ b_matrix(N), identity(N)))

# the resolvent truncation at a rational point inverts C - lambda I with
# zero error; its entries are the closed diagonal-plus-tail formula
lam = Fraction(2)
r = resolvent(lam, N, mode="rational")
rows = [[Fraction(1) if i == j else Fraction(0) for j in range(N)]
        for i in range(N)]
shifted = cesaro(N)
ok = True
for n in range(1, N + 1):
    for m in range(1, N + 1):
        s = sum(shifted.entry(n, j) * r.entry(j, m) for j in range(1, n + 1))
        s -= lam * r.entry(n, m)
        ok = ok and s == rows[n - 1][m - 1]
print(f"(C - {lam}) R({lam}) == I:", ok)

print("R(2) entries, top corner:")
for n in (1, 2, 3):
    print("  ", [r.entry(n, m) for m in range(1, 4)])

# binomials overflow floats near N = 1030, so large ones are read in log
# scale; the signed entry (-1)^(m-1) C(n-1, m-1) is rebuilt from its log
print("C(299, 149) via log scale:", (-1) ** 149 * math.exp(logbinom(299, 149)))
