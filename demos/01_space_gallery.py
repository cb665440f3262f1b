"""
A gallery of exponent sequences and what the classifier says about each
=======================================================================

Every space in this package is built from one increasing exponent sequence.
The classifier runs all the finitely checkable growth criteria and returns a
profile of three-state verdicts (holds / fails / inconclusive), never bare
booleans, so the evidence is inspectable when a call is not clear-cut.
"""

from cesarospec import GALLERY_SPECS, classify_space, parse_alpha

# the eight stock generators: linear and power growth, square root,
# logarithmic, partial harmonic sums, the tower, a two-track staircase,
# and a block construction whose convergence exponents are all infinite
print(f"{'generator':14} {'nuclear':13} {'shift':13} {'S1 nonempty':13} "
      f"{'inv cont':13} {'D cont':13} {'delta cont':13}")
for spec in GALLERY_SPECS:
    p = classify_space(parse_alpha(spec))
    row = [p.nuclear, p.shift_stable, p.s1_nonempty,
           p.inverse_continuous, p.d_continuous, p.delta_continuous]
    print(f"{spec:14} " + " ".join(f"{v.outcome:13}" for v in row))

# the gap infimum v(alpha) separates two nuclearity mechanisms: a positive
# value forces nuclearity on its own, while sqrt is nuclear with gaps -> 0
print()
for spec in ("linear", "tower", "rsw_b", "sqrt"):
    p = classify_space(parse_alpha(spec))
    print(f"v({spec}) = {p.v_alpha_value:.4f}  [{p.v_alpha.outcome}, "
          f"trend {p.v_alpha.trend}]")

# for the log generator the convergence-exponent set S_1 is a half line
# (1 + beta, infinity).  Its left end s0(1) is bracketed from alpha alone,
# between 1 + limsup alpha_ceil(n/2) / log n and 1 + limsup alpha_n / log n,
# so a large scale costs no more than a small one
from cesarospec import s0_estimate

for beta in (1, 2, 1000):
    est = s0_estimate(parse_alpha(f"log:beta={beta}"), k=1)
    print(f"log:beta={beta}: s0(1) in [{est.lo:.6f}, {est.hi:.6f}], "
          f"expected {1 + beta}")

# a verdict is deliberately not a boolean; asking for its truth value raises
p = classify_space(parse_alpha("linear"))
try:
    bool(p.nuclear)
except TypeError as err:
    print(f"\nbool(verdict) -> TypeError: {err}")
