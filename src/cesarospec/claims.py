"""The claims ledger: every implication a run checks, one data row each.

A row forbids one combination of facts: decisive verdict outcomes, a
predicted spectrum membership, or whether an exact identity held.  Its
premises come first and its negated conclusion last.  `check` returns the
message of each row the facts match, in row order; a run with any exits 1.
An inconclusive outcome matches no row, so it never makes a mismatch.
"""

from __future__ import annotations

from typing import NamedTuple

from .trend import FAILS, HOLDS


class Claim(NamedTuple):
    id: str
    source: str      # the PAPER.md sentence or docstring the row rests on
    forbids: tuple   # (fact, value) pairs, premises first, conclusion last
    message: str     # str.format template over the facts and the row's id


def check(rows, facts: dict, prefix: str = "") -> list:
    """prefix + message of each row whose forbidden combination the facts
    show, in row order, formatted with the facts and the row's id."""
    return [(prefix + row.message).format(id=row.id, **facts)
            for row in rows if all(facts[f] == v for f, v in row.forbids)]


_SPECTRUM = "PAPER.md: nuclearity is characterized via the spectrum of C"
_POWER_BOUNDED = ("PAPER.md: C is always power bounded; proof in "
                  "dynamics.power_bound_check")
_MEAN_ERGODIC = "PAPER.md: C is uniformly mean ergodic"
_INVERSE = "criteria.SpaceProfile: inverse continuity <=> nuclear"
_SHIFT = "criteria.d_continuity_check: <=> nuclear and shift-stable"
_DELTA = "criteria.delta_continuity_check: the two tracks are equivalent"
_SHIFT_MESSAGE = ("the basis-shift operator's continuity verdict "
                  "({d_continuous}) disagrees with nuclear+shift-stable "
                  "({nuclear_and_shift})")
_DELTA_MESSAGE = ("alternating-transform evidence tracks disagree: row sums "
                  "say {delta_rowsum}, the scalar limit says {delta_scalar}")
_SPOT = "expected holds, got fails"

# One space profile (criteria.classify_space).
SPACE = (
    Claim("gap_forces_nuclear", "sequences.v_alpha",
          (("v_alpha", HOLDS), ("nuclear", FAILS)),
          "v(alpha) > 0 forces log(n)/alpha_n -> 0, but the nuclearity "
          "verdict failed"),
    Claim("nuclear_excludes_s1", "spectral.predict_spectra: two regimes",
          (("nuclear", HOLDS), ("s1_nonempty", HOLDS)),
          "nuclearity and a nonempty S_1 are mutually exclusive, yet both "
          "verdicts hold"),
    Claim("inverse_implies_nuclear", _INVERSE,
          (("inverse_continuous", HOLDS), ("nuclear", FAILS)),
          "inverse continuity holds but nuclearity fails; the two are "
          "provably equivalent"),
    Claim("nuclear_implies_inverse", _INVERSE,
          (("nuclear", HOLDS), ("inverse_continuous", FAILS)),
          "inverse continuity fails but nuclearity holds; the two are "
          "provably equivalent"),
    Claim("shift_continuity_implies_both", _SHIFT,
          (("d_continuous", HOLDS), ("nuclear_and_shift", FAILS)),
          _SHIFT_MESSAGE),
    Claim("both_imply_shift_continuity", _SHIFT,
          (("nuclear_and_shift", HOLDS), ("d_continuous", FAILS)),
          _SHIFT_MESSAGE),
    Claim("rowsum_track_implies_scalar", _DELTA,
          (("delta_rowsum", HOLDS), ("delta_scalar", FAILS)), _DELTA_MESSAGE),
    Claim("scalar_track_implies_rowsum", _DELTA,
          (("delta_scalar", HOLDS), ("delta_rowsum", FAILS)), _DELTA_MESSAGE),
)

# One resolvent point; "in" and "out" are spectral.IN and spectral.OUT.
RESOLVENT = (
    Claim("tail_holds_outside_spectrum", "spectral.verify_resolvent_point",
          (("tail", HOLDS), ("predicted", "in")),
          "tail criterion holds but the point is predicted inside the "
          "spectrum"),
    Claim("tail_fails_inside_spectrum", "spectral.verify_resolvent_point",
          (("tail", FAILS), ("predicted", "out")),
          "tail criterion fails but the point is predicted outside the "
          "spectrum"),
    Claim("envelope_two_sided", "spectral.boun_bounds_fit",
          (("envelope", FAILS),), "two-sided envelope bound violated"),
)

# One eigenpair index m.
EIGENPAIR = (
    Claim("eigenvector_exact", "operators.delta_eigenvector",
          (("residual_zero", False),),
          "exact eigenvalue relation violated at N={N}"),
    Claim("nuclear_keeps_eigenvectors", _SPECTRUM,
          (("nuclear", HOLDS), ("membership", FAILS)),
          "eigenvector escapes a space whose point spectrum should contain "
          "1/m"),
    Claim("non_nuclear_point_spectrum_one", _SPECTRUM,
          (("nuclear", FAILS), ("eigenvalue_one", False),
           ("membership", HOLDS)),
          "eigenvector lies in a space whose point spectrum should be {{1}}"),
)

# One dynamics run; KERNEL is checked once per step count m.
KERNEL = (
    Claim("kernel_route", "dynamics.kernel_matrix",
          (("kernel_agrees", False),),
          "kernel and iterated-mean routes disagree by {diff:.3e}"),
)
DYNAMICS = (
    Claim("power_bounded", _POWER_BOUNDED, (("contraction", FAILS),),
          "seminorm contraction under averaging violated"),
    Claim("iterates_settle", "dynamics.gm_sup", (("pointwise_limit", FAILS),),
          "iterates failed to settle at the first coordinate"),
    Claim("mean_ergodic", _MEAN_ERGODIC, (("ergodic", FAILS),),
          "mean-ergodic splitting failed to reconstruct"),
)

# The suite's checks in report order; the fact of an algebra or spot row is
# named by its id.
SUITE_ALGEBRA = (
    Claim("difference_involution", "operators.delta",
          (("difference_involution", False),),
          "double forward difference is not the identity"),
    Claim("ab_inverse_pair", "operators.b_matrix",
          (("ab_inverse_pair", False),),
          "shifted-difference pair is not mutually inverse"),
    Claim("mean_roundtrip", "operators.cesaro_inverse_apply",
          (("mean_roundtrip", False),), "inverse mean does not undo the mean"),
    Claim("eigenpair_m3", "operators.delta_eigenvector",
          (("eigenpair_m3", False),), "m=3 eigenvector relation broken"),
    Claim("resolvent_identity", "operators.resolvent",
          (("resolvent_identity", False),),
          "two-sided inverse defect {resolvent_defect:.3e} at lambda=2"),
)
SUITE_SPOTS = (
    Claim("noncompact_linear", "criteria.noncompactness_witness (nuclear)",
          (("noncompact_linear", FAILS),), _SPOT),
    Claim("banach_step_psum", "criteria.banach_step_compactness",
          (("banach_step_psum", FAILS),), _SPOT),
    Claim("resolvent_point_linear_2", "spectral.predict_spectra: 2 is out",
          (("resolvent_point_linear_2", FAILS),), _SPOT),
    Claim("resolvent_scan_log2_04", "spectral.predict_spectra: 0.4 is in",
          (("resolvent_scan_log2_04", HOLDS),), "expected fails, got holds"),
    Claim("envelope_lambda_2", "spectral.boun_bounds_fit",
          (("envelope_lambda_2", FAILS),), _SPOT),
)
SUITE_ITERATE_ALGEBRA = (
    Claim("kernel_route_m2", "dynamics.kernel_matrix",
          (("kernel_route_m2", False),),
          "kernel and mean routes differ by {kernel_m2_diff:.3e}"),
    Claim("density_sups_decreasing", "dynamics.gm_sup",
          (("density_sups_decreasing", False),),
          "density sup sequence is not strictly decreasing"),
)
SUITE_DYNAMICS = (
    Claim("exact_contraction", _POWER_BOUNDED, (("exact_contraction", FAILS),),
          "exact seminorm contraction violated"),
    Claim("float_ergodic", _MEAN_ERGODIC, (("float_ergodic", FAILS),),
          "mean-ergodic splitting failed on float input"),
)

LEDGER = (SPACE + RESOLVENT + EIGENPAIR + KERNEL + DYNAMICS + SUITE_ALGEBRA
          + SUITE_SPOTS + SUITE_ITERATE_ALGEBRA + SUITE_DYNAMICS)
