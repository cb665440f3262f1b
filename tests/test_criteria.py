"""Continuity, compactness, and classification criteria over the gallery."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import cesarospec.criteria as criteria_module

from cesarospec import (
    AlphaSequence,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    PreconditionError,
    banach_step_compactness,
    classify_space,
    d_continuity_check,
    delta_continuity_check,
    echelon_weights,
    inverse_continuity_check,
    koethe_continuity_check,
    noncompactness_witness,
    parse_alpha,
)
from cesarospec.criteria import (
    GALLERY_SPECS,
    _ROWSUM_N_CAP,
    _log_pascal,
    _log_rowsums,
    _pascal_tables,
    _window_scan,
    default_lmax,
    gallery,
    geometric_weights,
    power_weights,
)
from cesarospec.operators import logbinom
from cesarospec.sequences import ALPHA_SATURATION
from cesarospec.trend import Verdict

ALL_PROFILES = {spec: classify_space(parse_alpha(spec))
                for spec in GALLERY_SPECS}


def koethe_outcomes(fam, k):
    """koethe_continuity_check outcome for every l in (k, default_lmax(k)]."""
    return {l: koethe_continuity_check(fam, k, l).outcome
            for l in range(k + 1, default_lmax(k) + 1)}


class TestKoetheScan:
    def test_power_family_holds_at_base_level(self):
        # a_k(n) = n^k: (n^1/n) sum m^{-2} is a bounded partial zeta sum
        assert koethe_continuity_check(power_weights, 1, 2).outcome == HOLDS

    def test_power_family_fails_above_base(self):
        # (n^2/n) sum m^{-l} >= n for every l, so no dominating level exists
        assert set(koethe_outcomes(power_weights, 2).values()) == {FAILS}

    def test_geometric_family_holds_at_base(self):
        assert HOLDS in koethe_outcomes(geometric_weights, 1).values()

    def test_geometric_family_fails_above_base(self):
        # (2^n/n) sum l^{-m} grows like 2^n/n for every fixed l
        assert set(koethe_outcomes(geometric_weights, 2).values()) == {FAILS}

    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_defining_weights_always_admit_domination(self, spec):
        # the averaging map is continuous on every one of these spaces, and
        # the matrix condition sees it through the defining weights: some l
        # holds, or at least one l is inconclusive at this resolution
        outcomes = koethe_outcomes(echelon_weights(parse_alpha(spec)), 1)
        assert set(outcomes.values()) != {FAILS}

    def test_linear_weights_hold_with_next_level(self, linear):
        v = koethe_continuity_check(echelon_weights(linear), 1, 2)
        assert v.outcome == HOLDS

    def test_quantity_shrinks_as_l_grows(self, linear):
        # summing 1/a_l termwise shrinks when l rises, so the criterion
        # quantity is pointwise monotone in l
        fam = echelon_weights(linear)
        v2 = koethe_continuity_check(fam, 1, 2)
        v3 = koethe_continuity_check(fam, 1, 3)
        q2 = dict(v2.evidence)
        q3 = dict(v3.evidence)
        assert all(q3[n] <= q2[n] + 1e-12 for n in q2)

    @given(vals=st.lists(
        st.integers(min_value=1, max_value=60), min_size=3, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_monotone_l_on_tables(self, vals):
        cum = np.cumsum(vals)
        seq = AlphaSequence.table([Fraction(int(v)) for v in cum])
        fam = echelon_weights(seq)
        v2 = koethe_continuity_check(fam, 1, 2, N=500)
        v3 = koethe_continuity_check(fam, 1, 3, N=500)
        q2, q3 = dict(v2.evidence), dict(v3.evidence)
        assert all(q3[n] <= q2[n] + 1e-12 for n in q2)

    def test_lmax_default_window(self):
        assert default_lmax(1) == 12
        assert default_lmax(3) == 20


def _spy_pairs(monkeypatch):
    """Record the (k', l) pair of every per-pair sup verdict the scans make."""
    pairs = []
    real = criteria_module.sup_verdict_bounded

    def spy(ns, q, quantity, trend_params, extra=None):
        pairs.append((extra["k"], extra["l"]))
        return real(ns, q, quantity, trend_params, extra=extra)

    monkeypatch.setattr(criteria_module, "sup_verdict_bounded", spy)
    return pairs


class TestWindowScan:
    def test_stops_at_first_holding_l_and_first_failing_k(self):
        # k'=1 holds at l=3, k'=2 at l=4, k'=3 fails for every l
        calls = []

        def per_pair(kp, l):
            calls.append((kp, l))
            if kp < 3 and l == kp + 2:
                return Verdict(HOLDS, "bounded")
            return Verdict(FAILS, "unbounded", witness=l)

        v = _window_scan(1, None, per_pair, "q")
        assert v.outcome == FAILS
        assert v.witness == {"k": 3, "l_range": (4, default_lmax(3))}
        assert v.params["chosen_l_by_k"] == {1: 3, 2: 4}
        assert calls == [(1, 2), (1, 3), (2, 3), (2, 4)] + [
            (3, l) for l in range(4, default_lmax(3) + 1)]

    def test_inconclusive_step_reads_the_whole_window(self):
        calls = []

        def per_pair(kp, l):
            calls.append((kp, l))
            if kp == 2:
                return Verdict(INCONCLUSIVE, "undecided", reason="flat")
            return Verdict(HOLDS, "bounded")

        v = _window_scan(1, 3, per_pair, "q")
        assert v.outcome == INCONCLUSIVE
        assert v.reason.startswith("growth at k'=2 ")
        assert v.params["chosen_l_by_k"] == {1: 2, 3: 4, 4: 5}
        assert calls == [(1, 2)] + [(2, l) for l in range(3, 17)] \
            + [(3, 4), (4, 5)]

    def test_log_inverse_scan_pairs(self, log2, monkeypatch):
        pairs = _spy_pairs(monkeypatch)
        v = inverse_continuity_check(log2, N=500)
        assert v.outcome == FAILS
        assert v.witness == {"k": 2, "l_range": (3, 16)}
        assert v.params["chosen_l_by_k"] == {1: 2}
        assert pairs == [(1, 2)] + [(2, l) for l in range(3, 17)]

    def test_tower_d_scan_pairs(self, tower, monkeypatch):
        pairs = _spy_pairs(monkeypatch)
        v = d_continuity_check(tower, N=500)
        assert v.outcome == FAILS
        assert v.witness == {"k": 1, "l_range": (2, 12)}
        assert v.params["chosen_l_by_k"] == {}
        assert pairs == [(1, l) for l in range(2, 13)]

    def test_sparse_blocks_inverse_inconclusive_at_base(self):
        v = inverse_continuity_check(parse_alpha("s1_empty"), N=500)
        assert v.outcome == INCONCLUSIVE
        assert v.reason.startswith("growth at k'=1 ")
        assert v.params["chosen_l_by_k"] == {}


class TestInverseContinuity:
    def test_linear_holds(self, linear):
        v = inverse_continuity_check(linear)
        assert v.outcome == HOLDS
        assert set(v.params["chosen_l_by_k"]) >= {1, 2}

    def test_log_fails(self, log2):
        v = inverse_continuity_check(log2)
        assert v.outcome == FAILS
        assert v.witness is not None

    def test_equivalence_with_nuclearity(self):
        # P-K2: the inverse map is continuous exactly on the nuclear spaces
        for spec, prof in ALL_PROFILES.items():
            inv, nuc = prof.inverse_continuous, prof.nuclear
            if INCONCLUSIVE in (inv.outcome, nuc.outcome):
                continue
            assert inv.outcome == nuc.outcome, spec

    def test_sparse_block_failure_carries_witness(self):
        v = inverse_continuity_check(parse_alpha("s1_empty"))
        assert v.outcome == FAILS
        assert v.witness


class TestNoncompactness:
    def test_linear_witnesses_unboundedness(self, linear):
        v = noncompactness_witness(linear)
        assert v.outcome == HOLDS

    def test_requires_nuclearity(self, log2):
        with pytest.raises(PreconditionError):
            noncompactness_witness(log2)

    def test_power_two(self):
        assert noncompactness_witness(parse_alpha("power:beta=2")).outcome \
            == HOLDS


class TestBanachStep:
    def test_linear_step_maps_vanish(self, linear):
        # (w_k(n)/n) sum 1/w_k(m) behaves like (e - e^{1-n})/((e-1) n) -> 0
        assert banach_step_compactness(linear).outcome == HOLDS

    def test_partial_sum_generator(self):
        assert banach_step_compactness(
            parse_alpha("psum:beta=1/2")).outcome == HOLDS

    def test_log_has_positive_limit(self, log2):
        v = banach_step_compactness(log2)
        assert v.outcome == FAILS


class TestDContinuity:
    def test_equivalence_with_nuclear_and_shift(self):
        for spec, prof in ALL_PROFILES.items():
            d = prof.d_continuous
            if d.outcome == INCONCLUSIVE:
                continue
            nuc, sh = prof.nuclear, prof.shift_stable
            if INCONCLUSIVE in (nuc.outcome, sh.outcome):
                continue
            both = HOLDS if (nuc.outcome == HOLDS and sh.outcome == HOLDS) \
                else FAILS
            assert d.outcome == both, spec

    def test_tower_fails_on_shift(self, tower):
        assert d_continuity_check(tower).outcome == FAILS

    def test_linear_holds(self, linear):
        assert d_continuity_check(linear).outcome == HOLDS


class TestDeltaContinuity:
    def test_power_two_holds(self):
        assert delta_continuity_check(
            parse_alpha("power:beta=2")).outcome == HOLDS

    def test_power_one_fails(self, linear):
        v = delta_continuity_check(linear)
        assert v.outcome == FAILS

    def test_tower_holds(self, tower):
        assert delta_continuity_check(tower).outcome == HOLDS

    def test_tracks_agree_across_gallery(self):
        # the matrix condition and the density condition decide together
        for spec, prof in ALL_PROFILES.items():
            dv, noa = prof.delta_continuous, prof.n_over_alpha_zero
            if INCONCLUSIVE in (dv.outcome, noa.outcome):
                continue
            assert dv.outcome == noa.outcome, spec

    def test_non_nuclear_scope_note(self, log2):
        v = delta_continuity_check(log2)
        assert v.outcome == FAILS
        notes = str(v.params)
        assert "scope" in notes or "nuclear" in notes



def _reference_rowsums(logc, a):
    # the full-table route the blocked kernel replaces
    with np.errstate(invalid="ignore"):
        return logsumexp(logc + a[None, :], axis=1)


def _reference_columns(logc, A):
    # the reference route, one column of A at a time
    return np.column_stack([_reference_rowsums(logc, a) for a in A.T])


class TestRowSumKernel:
    @pytest.mark.parametrize("N", [1, 2, 127, 128, 129, 1024])
    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_matches_full_table_logsumexp(self, spec, N):
        alpha = parse_alpha(spec).values_saturated(N)
        logc = _log_pascal(N)
        for l in (2, 5, 20):
            a = alpha / l
            ref = _reference_rowsums(logc, a)
            got = _log_rowsums(logc, a)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("N", [1, 2, 127, 128, 129, 1024])
    @pytest.mark.parametrize("l", [2, 5, 20])
    def test_saturated_alpha(self, N, l):
        a = np.full(N, ALPHA_SATURATION / l)
        logc = _log_pascal(N)
        got = _log_rowsums(logc, a)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, _reference_rowsums(logc, a),
                                   rtol=1e-12, atol=0)

    def test_delta_verdicts_match_reference_kernel(self, monkeypatch):
        new = {spec: delta_continuity_check(parse_alpha(spec))
               for spec in GALLERY_SPECS}
        monkeypatch.setattr(criteria_module, "_log_rowsums",
                            _reference_columns)
        for spec in GALLERY_SPECS:
            ref = delta_continuity_check(parse_alpha(spec))
            got = new[spec]
            assert got.outcome == ref.outcome, spec
            assert got.witness == ref.witness, spec
            assert (got.params["rowsum_params"].get("chosen_l_by_k")
                    == ref.params["rowsum_params"].get("chosen_l_by_k")), spec


class TestRowSumRoutes:
    def test_scaled_table_is_normal_at_the_cap(self, monkeypatch):
        # the mat-vec route's floor argument needs every lower-triangle entry
        # of exp(logc - rowmax) to be a normal float; this fails if the cap
        # is raised past log binom(N-1, (N-1)/2) ~ 708
        monkeypatch.setattr(criteria_module, "_logc_cache", {})
        scaled = _pascal_tables(_ROWSUM_N_CAP).scaled
        lower = scaled[np.tril_indices(_ROWSUM_N_CAP)]
        assert np.all(lower >= np.finfo(float).tiny)
        assert np.all(lower <= 1.0)
        assert not np.any(np.triu(scaled, 1))

    @staticmethod
    def _fallback_blocks(monkeypatch, logc, a):
        """Start rows of the blocks that took the max-shift route."""
        starts = []
        inner = criteria_module._max_shift_rows

        def spy(logc, a, s, e):
            starts.append(s)
            return inner(logc, a, s, e)

        monkeypatch.setattr(criteria_module, "_max_shift_rows", spy)
        np.testing.assert_allclose(_log_rowsums(logc, a),
                                   _reference_rowsums(logc, a),
                                   rtol=1e-12, atol=0)
        return starts

    @pytest.mark.parametrize("l", [2, 5, 20])
    def test_fast_growth_falls_back_past_the_first_block(self, monkeypatch, l):
        a = parse_alpha("power:beta=2").values_saturated(_ROWSUM_N_CAP) / l
        starts = self._fallback_blocks(monkeypatch, _log_pascal(_ROWSUM_N_CAP),
                                       a)
        assert starts[0] == 0 and len(starts) > 1

    @pytest.mark.parametrize("l", [2, 5, 20])
    def test_linear_takes_the_matvec_after_the_first_block(self, monkeypatch,
                                                           l):
        a = parse_alpha("linear").values_saturated(_ROWSUM_N_CAP) / l
        assert self._fallback_blocks(
            monkeypatch, _log_pascal(_ROWSUM_N_CAP), a) == [0]

    def test_other_tables_take_the_max_shift_route(self, monkeypatch):
        # the mat-vec reads the cached table, so only a view of it may use it
        a = parse_alpha("linear").values_saturated(300) / 3
        starts = self._fallback_blocks(monkeypatch,
                                       np.array(_log_pascal(300)), a)
        assert starts == list(range(0, 300, criteria_module._ROWSUM_BLOCK))

    @settings(max_examples=60, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(st.integers(1, 400), st.floats(0.0, 1e4)),
            min_size=1, max_size=6),
        saturate_at=st.one_of(st.none(), st.integers(0, _ROWSUM_N_CAP - 1)),
        l=st.integers(1, 40),
    )
    def test_random_growth_matches_full_table(self, segments, saturate_at,
                                              l):
        lengths, steps = zip(*segments)
        alpha = np.cumsum(np.repeat(steps, lengths))[:_ROWSUM_N_CAP]
        if saturate_at is not None:
            alpha[saturate_at:] = ALPHA_SATURATION
        a = alpha / l
        logc = _log_pascal(len(a))
        np.testing.assert_allclose(_log_rowsums(logc, a),
                                   _reference_rowsums(logc, a),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_one_rowsum_per_l(self, monkeypatch, spec):
        ls, sums = [], []
        inner_sums = criteria_module._log_rowsums
        inner_sup = criteria_module.sup_verdict_bounded

        def rowsums(logc, A):
            sums.extend(a.tobytes() for a in A.T)
            return inner_sums(logc, A)

        def sup(ns, q, label, params, extra):
            ls.append(extra["l"])
            return inner_sup(ns, q, label, params, extra=extra)

        monkeypatch.setattr(criteria_module, "_log_rowsums", rowsums)
        monkeypatch.setattr(criteria_module, "sup_verdict_bounded", sup)
        delta_continuity_check(parse_alpha(spec))
        assert len(set(ls)) > 0
        assert len(set(sums)) == len(sums)
        # every probed l is among the summed columns alpha/l
        alpha = parse_alpha(spec).values_saturated(len(np.frombuffer(sums[0])))
        assert {(alpha / l).tobytes() for l in ls} <= set(sums)

    def test_the_window_revisits_l(self, monkeypatch):
        # rsw_b scans l = 3..14 at k' = 2 without a decision, then l = 4..20
        # at k' = 3; the l they share are summed once
        seen = []
        inner = criteria_module.sup_verdict_bounded
        monkeypatch.setattr(
            criteria_module, "sup_verdict_bounded",
            lambda ns, q, label, params, extra: seen.append(extra["l"])
            or inner(ns, q, label, params, extra=extra))
        delta_continuity_check(parse_alpha("rsw_b"))
        assert len(seen) > len(set(seen))

    @pytest.mark.parametrize("N", [200, 1024])
    @pytest.mark.parametrize("spec", [
        "log:beta=1", "power:beta=1", "table:[1,3,4]:step=2"])
    def test_more_delta_verdicts_match_reference_kernel(self, monkeypatch,
                                                        spec, N):
        got = delta_continuity_check(parse_alpha(spec), N=N)
        monkeypatch.setattr(criteria_module, "_log_rowsums",
                            _reference_columns)
        ref = delta_continuity_check(parse_alpha(spec), N=N)
        assert got.outcome == ref.outcome
        assert got.witness == ref.witness
        assert got.params == ref.params
        assert [n for n, _ in got.evidence] == [n for n, _ in ref.evidence]
        # evidence is row sum minus alpha/k, so it can sit near 0
        np.testing.assert_allclose([q for _, q in got.evidence],
                                   [q for _, q in ref.evidence],
                                   rtol=1e-12, atol=1e-13)


def _growth_column(N, kind, segments, beta, saturate_at, l):
    """alpha / l for a piecewise-constant-step or power-growth alpha of
    length N, optionally saturated from saturate_at on."""
    if kind == "steps":
        lengths, steps = zip(*segments)
        alpha = np.cumsum(np.resize(np.repeat(steps, lengths), N))
    else:
        alpha = np.arange(1, N + 1, dtype=float) ** beta
    if saturate_at is not None:
        alpha[saturate_at:] = ALPHA_SATURATION
    return alpha / l


_COLUMNS = st.tuples(
    st.sampled_from(["steps", "power"]),
    st.lists(st.tuples(st.integers(1, 400), st.floats(0.0, 1e4)),
             min_size=1, max_size=6),
    st.floats(0.1, 4.0),
    st.one_of(st.none(), st.integers(0, _ROWSUM_N_CAP - 1)),
    st.integers(1, 40),
)


class TestBatchedRowSums:
    @settings(max_examples=30, deadline=None)
    @given(N=st.one_of(st.sampled_from([1, 64, 65, 200, _ROWSUM_N_CAP]),
                       st.integers(1, _ROWSUM_N_CAP)),
           columns=st.lists(_COLUMNS, min_size=1, max_size=23))
    def test_each_column_matches_full_table_and_one_column_call(self, N,
                                                                columns):
        A = np.column_stack([_growth_column(N, *c) for c in columns])
        logc = _log_pascal(N)
        got = _log_rowsums(logc, A)
        assert got.shape == A.shape
        for j, a in enumerate(A.T):
            np.testing.assert_allclose(got[:, j], _reference_rowsums(logc, a),
                                       rtol=1e-12, atol=0)
            # a row sum can sit near 0
            np.testing.assert_allclose(got[:, j], _log_rowsums(logc, a.copy()),
                                       rtol=1e-14, atol=1e-14)

    def test_matvecs_take_the_columns_that_pass_gap_and_floor(self,
                                                               monkeypatch):
        # columns: linear (a mat-vec in every later block), power:beta=2
        # over 2 (every later block past the gap) and over 190 (late blocks
        # pass the gap, then fail the floor: their sums underflow)
        matvecs = Counter()

        class Spy(np.ndarray):
            def __matmul__(self, other):
                matvecs[self.shape[1]] += 1
                return np.asarray(self) @ other

        entry = _pascal_tables(_ROWSUM_N_CAP)
        monkeypatch.setattr(criteria_module, "_logc_cache", {
            _ROWSUM_N_CAP: entry._replace(scaled=entry.scaled.view(Spy))})
        ns = np.arange(1, _ROWSUM_N_CAP + 1, dtype=float)
        A = np.column_stack((ns / 3, ns ** 2 / 2, ns ** 2 / 190))
        logc = _log_pascal(_ROWSUM_N_CAP)
        got = _log_rowsums(logc, A)
        for j, a in enumerate(A.T):
            np.testing.assert_allclose(got[:, j], _reference_rowsums(logc, a),
                                       rtol=1e-12, atol=0)
        # one entry per block after the first, keyed by its last column
        assert matvecs == {e: 2 for e in range(128, _ROWSUM_N_CAP + 1, 64)}

    def test_band_keeps_every_term_that_counts(self):
        # on a table that is not the cached one every block takes the
        # max-shift route, and at slopes 1 to 3 the columns just below a cut
        # without its 746 margin still carry terms above the last bit
        logc = np.array(_log_pascal(_ROWSUM_N_CAP))
        ns = np.arange(1, _ROWSUM_N_CAP + 1, dtype=float)
        for a in (ns, 2 * ns, 3 * ns, ns ** 2 / 24):
            np.testing.assert_allclose(_log_rowsums(logc, a),
                                       _reference_rowsums(logc, a),
                                       rtol=1e-12, atol=0)

    def test_band_reads_few_columns_of_fast_growth(self, monkeypatch):
        # power:beta=2 takes the max-shift route in most blocks; the band
        # reads the columns near the diagonal and skips the rest
        reads = []
        inner = criteria_module._band_start

        def spy(logc, a, s, e):
            m = inner(logc, a, s, e)
            if s:
                reads.append((e - s, e - m, e))
            return m

        monkeypatch.setattr(criteria_module, "_band_start", spy)
        alpha = parse_alpha("power:beta=2").values_saturated(_ROWSUM_N_CAP)
        logc = _log_pascal(_ROWSUM_N_CAP)
        for l in range(2, 25):
            reads.clear()
            a = alpha / l
            np.testing.assert_allclose(_log_rowsums(logc, a),
                                       _reference_rowsums(logc, a),
                                       rtol=1e-12, atol=0)
            assert reads, l
            if l in (2, 5, 12):
                assert max(width for _, width, _ in reads) <= 128, l
            banded = sum(rows * width for rows, width, _ in reads)
            unbanded = sum(rows * e for rows, _, e in reads)
            assert 5 * banded < unbanded, l

    @pytest.mark.parametrize("spec,lmax", [
        *((spec, None) for spec in GALLERY_SPECS), ("log:beta=1", None),
        ("rsw_b", 5)])
    def test_summed_l_are_the_k_ranges_reached(self, monkeypatch, spec, lmax):
        # the first miss at k' sums the rest of k''s l range, so a k' whose
        # probes were all summed earlier adds nothing
        seq = parse_alpha(spec)
        columns, pairs = [], []
        inner_sums = criteria_module._log_rowsums
        inner_sup = criteria_module.sup_verdict_bounded

        def rowsums(logc, A):
            columns.extend(a.tobytes() for a in A.T)
            return inner_sums(logc, A)

        def sup(ns, q, label, params, extra):
            pairs.append((extra["k"], extra["l"]))
            return inner_sup(ns, q, label, params, extra=extra)

        monkeypatch.setattr(criteria_module, "_log_rowsums", rowsums)
        monkeypatch.setattr(criteria_module, "sup_verdict_bounded", sup)
        delta_continuity_check(seq, lmax=lmax)
        alpha = seq.values_saturated(len(np.frombuffer(columns[0])))
        l_of = {(alpha / l).tobytes(): l for l in range(2, 200)}
        summed = [l_of[c] for c in columns]
        assert len(summed) == len(set(summed))
        reached = set()
        for kp, l in pairs:
            if l not in reached:
                hi = lmax if (kp == 1 and lmax) else default_lmax(kp)
                reached.update(range(kp + 1, hi + 1))
        assert set(summed) == reached

    @pytest.mark.parametrize("N", [200, _ROWSUM_N_CAP])
    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_gallery_verdicts_match_reference_kernel(self, monkeypatch, spec,
                                                     N):
        got = delta_continuity_check(parse_alpha(spec), N=N)
        monkeypatch.setattr(criteria_module, "_log_rowsums",
                            _reference_columns)
        ref = delta_continuity_check(parse_alpha(spec), N=N)
        assert got.outcome == ref.outcome
        assert got.witness == ref.witness
        assert got.params == ref.params


class TestLogPascalCache:
    def test_one_table_sliced_bit_identically(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(criteria_module, "_logc_cache", cache)
        for N in (5, 300, 17, 1, _ROWSUM_N_CAP, 64, 300):
            got = _log_pascal(N)
            assert len(cache) <= 1
            idx = np.arange(N, dtype=float)
            fresh = logbinom(idx[:, None], idx[None, :])
            assert got.shape == (N, N)
            assert np.ascontiguousarray(got).tobytes() == fresh.tobytes()

    def test_smaller_sizes_reuse_the_table(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(criteria_module, "_logc_cache", cache)
        big = _log_pascal(200)
        small = _log_pascal(50)
        assert np.shares_memory(big, small)
        assert list(cache) == [200]
        _log_pascal(201)
        assert list(cache) == [201]

    def test_size_above_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(criteria_module, "_logc_cache", {})
        with pytest.raises(ValueError):
            _log_pascal(_ROWSUM_N_CAP + 1)


GOLDEN = {
    "linear": dict(nuclear=HOLDS, shift=HOLDS, d=HOLDS, delta=FAILS,
                   inverse=HOLDS, s1=FAILS),
    "power:beta=2": dict(nuclear=HOLDS, shift=HOLDS, d=HOLDS, delta=HOLDS,
                         inverse=HOLDS, s1=FAILS),
    "sqrt": dict(nuclear=HOLDS, shift=HOLDS, d=HOLDS, delta=FAILS,
                 inverse=HOLDS, s1=FAILS),
    "log:beta=2": dict(nuclear=FAILS, shift=HOLDS, d=FAILS, delta=FAILS,
                       inverse=FAILS, s1=HOLDS),
    "psum:beta=1/2": dict(nuclear=HOLDS, shift=HOLDS, d=HOLDS, delta=FAILS,
                          inverse=HOLDS, s1=FAILS),
    "tower": dict(nuclear=HOLDS, shift=FAILS, d=FAILS, delta=HOLDS,
                  inverse=HOLDS, s1=FAILS),
    "rsw_b": dict(nuclear=HOLDS, shift=HOLDS, d=HOLDS, delta=FAILS,
                  inverse=HOLDS, s1=FAILS),
    "s1_empty": dict(nuclear=FAILS, shift=FAILS, d=FAILS, delta=FAILS,
                     inverse=FAILS, s1=FAILS),
}


class TestClassify:
    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_golden_outcomes(self, spec):
        prof = ALL_PROFILES[spec]
        want = GOLDEN[spec]
        assert prof.nuclear.outcome == want["nuclear"]
        assert prof.shift_stable.outcome == want["shift"]
        assert prof.d_continuous.outcome == want["d"]
        assert prof.delta_continuous.outcome == want["delta"]
        assert prof.inverse_continuous.outcome == want["inverse"]
        assert prof.s1_nonempty.outcome == want["s1"]

    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_no_cross_consistency_warnings(self, spec):
        assert ALL_PROFILES[spec].warnings == ()

    def test_gap_values(self):
        assert ALL_PROFILES["linear"].v_alpha_value == 1.0
        assert ALL_PROFILES["rsw_b"].v_alpha_value == 1.0
        assert ALL_PROFILES["tower"].v_alpha_value == 3.0
        assert ALL_PROFILES["sqrt"].v_alpha_value < 0.05

    def test_log_exponent_interval(self):
        params = ALL_PROFILES["log:beta=2"].s1_nonempty.params
        lo, hi = params["s0_interval"]
        assert lo <= 3.0 <= hi
        assert abs(params["s0_estimate"] - 3.0) <= 0.05

    def test_gallery_constructor(self):
        seqs = gallery()
        assert len(seqs) == len(GALLERY_SPECS)
        # canonical text may normalize fractions ("1/2" -> "0.5"); the
        # parsed descriptors must match exactly
        assert all(s == parse_alpha(spec)
                   for s, spec in zip(seqs, GALLERY_SPECS))

    def test_profile_carries_resolution(self, linear):
        prof = classify_space(linear, N=2000)
        assert prof.N == 2000
        assert prof.alpha == "linear"
