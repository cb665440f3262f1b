"""Spectrum predictions, resolvent tail behavior, and envelope bounds."""

import math

import numpy as np
import pytest

from cesarospec import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    PreconditionError,
    SkEmptyError,
    boun_bounds_fit,
    classify_space,
    disc_report,
    eigenvector_membership,
    parse_alpha,
    predict_spectra,
    resolvent_point_profile,
    resolvent_tail_logs,
    s0_estimate,
    verify_resolvent_point,
)
from cesarospec.spectral import (
    BOUNDARY,
    CLOSED_DISC,
    IN,
    OUT,
    POINT_ONE,
    RECIPROCALS,
    RECIPROCALS_WITH_ZERO,
    SANDWICH,
    SIGMA_GAP,
    SetDescriptor,
    UNDETERMINED,
    UNKNOWN,
)


class TestSetDescriptors:
    def test_reciprocals_membership(self):
        d = SetDescriptor(RECIPROCALS)
        assert d.contains(1.0) == IN
        assert d.contains(1 / 3) == IN
        assert d.contains(0.4) == OUT
        assert d.contains(2.0) == OUT
        # reciprocals accumulate at zero, so membership there sits below
        # any numeric tolerance
        assert d.contains(0.0) == BOUNDARY

    def test_reciprocals_with_zero(self):
        d = SetDescriptor(RECIPROCALS_WITH_ZERO)
        assert d.contains(0.0) == IN
        assert d.contains(0.25) == IN
        assert d.contains(0.3) == OUT

    def test_complex_points_never_reciprocal(self):
        d = SetDescriptor(RECIPROCALS)
        assert d.contains(0.5 + 0.2j) == OUT

    def test_point_one(self):
        d = SetDescriptor(POINT_ONE)
        assert d.contains(1.0) == IN
        assert d.contains(0.5) == OUT

    def test_closed_disc(self):
        # the closed disc of diameter [0, 1]
        d = SetDescriptor(CLOSED_DISC)
        assert d.contains(0.2) == IN
        assert d.contains(0.5 + 0.3j) == IN
        assert d.contains(-0.2) == OUT
        assert d.contains(1.2) == OUT
        # rim membership sits below numeric resolution
        assert d.contains(1.0) == BOUNDARY

    def test_sandwich_three_states(self):
        # known: open disc and 1 inside, exterior of the closure outside,
        # rim undetermined
        d = SetDescriptor(SANDWICH)
        assert d.contains(0.2) == IN
        assert d.contains(1.0) == IN           # 1 is certified separately
        assert d.contains(1.3) == OUT
        assert d.contains(0.5 + 0.5j) in (BOUNDARY, UNKNOWN)

    def test_sigma_gap_three_states(self):
        # only the reciprocals are certainly in; the rest of the disc is open
        d = SetDescriptor(SIGMA_GAP, center=0.5, radius=0.5)
        assert d.contains(0.25) == IN
        assert d.contains(1.0) == IN
        assert d.contains(0.3 + 0.1j) == UNKNOWN
        assert d.contains(2.0) == OUT

    def test_undetermined_kind(self):
        d = SetDescriptor(UNDETERMINED)
        assert d.contains(0.7) == UNKNOWN


class TestPredictions:
    def test_nuclear_with_positive_gaps(self, linear):
        rep = predict_spectra(classify_space(linear))
        assert rep.sigma_pt.kind == RECIPROCALS
        assert rep.sigma.kind == RECIPROCALS
        assert rep.sigma_star.kind == RECIPROCALS_WITH_ZERO

    def test_nuclear_with_vanishing_gaps(self):
        rep = predict_spectra(classify_space(parse_alpha("sqrt")))
        assert rep.sigma.kind == RECIPROCALS
        # closure control needs a positive gap infimum; without it the
        # extended spectrum stays open
        assert rep.sigma_star.kind == UNDETERMINED

    def test_log_sandwich(self, log2):
        rep = predict_spectra(classify_space(log2))
        assert rep.sigma_pt.kind == POINT_ONE
        assert rep.sigma.kind == SANDWICH
        assert rep.sigma_star.kind == CLOSED_DISC
        # the sandwich closes up to the unit-diameter disc; the level-1
        # certificate disc (exponent near 3) rides along as data
        assert rep.sigma.center == pytest.approx(0.5)
        assert rep.sigma.radius == pytest.approx(0.5)
        (level, lo, hi), = rep.disc_params
        assert level == 1
        assert lo <= 3.0 <= hi

    def test_sparse_blocks_gap_report(self):
        rep = predict_spectra(classify_space(parse_alpha("s1_empty")))
        assert rep.sigma_pt.kind == POINT_ONE
        assert rep.sigma.kind == SIGMA_GAP
        assert rep.sigma_star.kind == UNDETERMINED

    def test_hypotheses_recorded(self, linear):
        rep = predict_spectra(classify_space(linear))
        names = [name for name, _ in rep.hypotheses]
        assert "nuclear" in names
        assert all(hasattr(v, "outcome") for _, v in rep.hypotheses)


class TestEigenvectorMembership:
    def test_nuclear_space_admits_all(self, linear):
        for m in (1, 2, 5):
            assert eigenvector_membership(linear, m, K=6).outcome == HOLDS

    def test_log_space_rejects_higher_modes(self, log2):
        v = eigenvector_membership(log2, 2, K=4)
        assert v.outcome == FAILS
        assert v.witness["k"] == 2

    def test_log_space_at_low_resolution_fails_at_level_three(self, log2):
        v = eigenvector_membership(log2, 2, K=4, N=300)
        assert v.outcome == FAILS
        assert v.witness == {"k": 3}

    def test_constant_direction_always_inside(self, log2):
        # mode 1 decays under every weight: it is the constant vector
        assert eigenvector_membership(log2, 1, K=4).outcome == HOLDS

    def test_tower_space(self, tower):
        assert eigenvector_membership(tower, 3, K=4).outcome == HOLDS


class TestResolventPoints:
    def test_linear_at_two_holds(self, linear):
        assert verify_resolvent_point(linear, 2.0).outcome == HOLDS

    def test_linear_at_complex_point(self, linear):
        assert verify_resolvent_point(linear, 0.4 + 0.3j).outcome == HOLDS

    def test_log_level_one_row_sums_decay(self, log2):
        # at the base level the scaled rows still decay like n^{-1/2}
        assert verify_resolvent_point(log2, 0.4, k=1).outcome == HOLDS

    def test_log_level_two_row_sums_grow(self, log2):
        v = verify_resolvent_point(log2, 0.4, k=2)
        assert v.outcome == FAILS
        assert v.witness["condition"] == "row_sums"

    def test_log_profile_pins_failing_level(self, log2):
        v = resolvent_point_profile(log2, 0.4)
        assert v.outcome == FAILS
        assert v.witness["k"] == 2

    def test_log_profile_lists_every_step(self, log2):
        v = resolvent_point_profile(log2, 0.4, kmax=4, N=400)
        assert v.outcome == FAILS
        assert v.witness == {"k": 2, "condition": "row_sums", "at": 400}
        assert v.params["per_step"] == {1: HOLDS, 2: FAILS, 3: FAILS, 4: FAILS}

    def test_sparse_blocks_profile_column_witness(self):
        seq = parse_alpha("s1_empty")
        v = resolvent_point_profile(seq, 0.4, kmax=4, N=400)
        assert v.outcome == FAILS
        assert v.witness == {"k": 1, "condition": "column", "m": 1}
        v = resolvent_point_profile(seq, 2, kmax=4, N=400)
        assert v.outcome == INCONCLUSIVE
        assert v.reason.startswith("step k=1: ")
        assert v.params["per_step"] == {k: INCONCLUSIVE for k in range(1, 5)}

    def test_linear_profile_holds(self, linear):
        assert resolvent_point_profile(linear, 2.0).outcome == HOLDS

    def test_pole_rejected(self, linear):
        with pytest.raises(PreconditionError):
            verify_resolvent_point(linear, 0.5)

    @pytest.mark.parametrize("spec,lam", [("log:beta=2", 0.4),
                                          ("s1_empty", 2), ("linear", 0.4 + 0.3j)])
    def test_profile_steps_are_the_point_checks(self, spec, lam):
        # the profile computes the tail logs once for all steps
        seq = parse_alpha(spec)
        v = resolvent_point_profile(seq, lam, kmax=4, N=400)
        for k in range(1, 5):
            step = verify_resolvent_point(seq, lam, k, 400)
            assert v.params["per_step"][k] == step.outcome
            if v.witness is not None and v.witness["k"] == k:
                assert v.evidence == step.evidence

    @pytest.mark.parametrize("lam", [0.5, 0, 1 / 3 + 1e-12])
    def test_profile_refuses_poles_as_the_point_check(self, linear, lam):
        errors = []
        for check in (verify_resolvent_point, resolvent_point_profile):
            with pytest.raises(PreconditionError) as err:
                check(linear, lam)
            errors.append(str(err.value))
        assert errors[0] == errors[1]


class TestEnvelope:
    @pytest.mark.parametrize("lam", [2.0, -1.0])
    def test_two_sided_bounds_hold(self, lam):
        low, high, v = boun_bounds_fit(lam, N=1000)
        assert v.outcome == HOLDS
        assert 0 < low <= high

    def test_constants_match_direct_scan(self):
        lam = 2.0
        n = 1000
        low, high, v = boun_bounds_fit(lam, N=n)
        assert v.outcome == HOLDS
        a = (1 / lam)
        L, logn = resolvent_tail_logs(lam, n)
        ns = np.arange(1, n + 1)
        vals = []
        for i in range(10, n + 1):
            for j in (1, i // 2, i - 1):
                if j < 1 or j >= i:
                    continue
                log_e = L[j - 1] - logn[i - 1] - L[i]
                vals.append((1 - a) * math.log(i) + a * math.log(j) + log_e)
        assert min(vals) >= math.log(low) - 1e-9
        assert max(vals) <= math.log(high) + 1e-9

    def test_complex_point(self):
        low, high, v = boun_bounds_fit(0.4 + 0.3j, N=600)
        assert v.outcome == HOLDS
        assert low <= high


class TestDiscReport:
    def test_log_levels_shrink(self, log2):
        rep = disc_report(log2, kmax=4)
        estimates = [e.s0_estimate for e in rep.entries]
        assert abs(estimates[0] - 3.0) <= 0.05
        assert all(a >= b - 0.05 for a, b in zip(estimates, estimates[1:]))
        assert rep.nonincreasing

    def test_disc_geometry(self, log2):
        rep = disc_report(log2, kmax=2)
        for e in rep.entries:
            assert e.center == pytest.approx(1 / (2 * e.s0_estimate))
            assert e.radius == e.center

    def test_linear_has_no_discs(self, linear):
        with pytest.raises(SkEmptyError):
            disc_report(linear, kmax=2)

    def test_failed_s1_verdict_still_raises(self, linear):
        # the profile's failing S_1 verdict and disc_report read the same
        # lower end, which is unbounded
        s1 = classify_space(linear, N=200).s1_nonempty
        assert s1.outcome == FAILS
        with pytest.raises(SkEmptyError) as info:
            disc_report(linear, kmax=2)
        assert info.value.verdict == s1

    def test_open_bracket_raises_naming_its_level(self):
        # alpha saturates at n = 2, so the upper end of s0(1) stays open
        seq = parse_alpha("log:beta=1e300")
        assert math.isinf(s0_estimate(seq, 1).hi)
        with pytest.raises(PreconditionError, match=r"the s0\(1\) bracket "
                           r"of alpha=log:beta=1e\+300 has no upper end"):
            disc_report(seq, kmax=2)

    def test_levels_compare_brackets(self, log2):
        rep = disc_report(log2, kmax=4)
        for e in rep.entries:
            assert e.s0_lo <= 1 + 2 / e.k <= e.s0_hi
        assert all(b.s0_lo <= a.s0_hi
                   for a, b in zip(rep.entries, rep.entries[1:]))
