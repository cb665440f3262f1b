"""Continuity, compactness, and classification criteria over the gallery."""

import functools
import math
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
    inverse_continuity_check,
    koethe_continuity_check,
    noncompactness_witness,
    parse_alpha,
)
from cesarospec.criteria import (
    GALLERY_SPECS,
    K_WINDOW,
    _ROWSUM_BLOCK,
    _ROWSUM_N_CAP,
    _log_pascal,
    _log_rowsums,
    _window_scan,
    default_lmax,
    gallery,
)
from cesarospec.operators import logbinom
from cesarospec.sequences import ALPHA_SATURATION
from cesarospec.trend import Verdict, first_deciding

ALL_PROFILES = {spec: classify_space(parse_alpha(spec))
                for spec in GALLERY_SPECS}


def power_weights(k: int, ns: np.ndarray) -> np.ndarray:
    """log of a_k(n) = n^k, the matrix of the space of rapidly decreasing sequences."""
    return k * np.log(np.asarray(ns, dtype=float))


def geometric_weights(k: int, ns: np.ndarray) -> np.ndarray:
    """log of a_k(n) = k^n."""
    return np.asarray(ns, dtype=float) * math.log(k)


def echelon_weights(seq):
    """log of the defining weights w_k(n) = exp(-alpha_n / k); the averaging
    map is continuous on every space, so the (k, l) condition holds for
    them."""

    def family(k, ns):
        ns = np.asarray(ns, dtype=np.int64)
        return -seq.values_saturated(int(ns[-1]))[ns - 1] / k

    return family


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


def _spy_pairs(monkeypatch, qs=None):
    """Record the (k', l) pair of every per-pair sup verdict the scans make,
    and its quantity under that pair in qs when given."""
    pairs = []
    real = criteria_module.sup_verdict_bounded

    def spy(ns, q, quantity, extra=None):
        pairs.append((extra["k"], extra["l"]))
        if qs is not None:
            qs[pairs[-1]] = np.array(q)
        return real(ns, q, quantity, extra=extra)

    monkeypatch.setattr(criteria_module, "sup_verdict_bounded", spy)
    return pairs


def _scan_closures(seq, N=None):
    """The per_pair closures the inverse and shift scans hand _window_scan."""
    closures = []
    real = criteria_module._window_scan

    def record(per_pair, *args, **kwargs):
        closures.append(per_pair)
        return real(per_pair, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria_module, "_window_scan", record)
        scans = (inverse_continuity_check(seq, N=N),
                 d_continuity_check(seq, N=N))
    return tuple(zip(closures, scans))


def searched_scan(per_pair):
    """A window scan that searches l: at each k' the first l in
    (k', default_lmax(k')] that holds, else the first inconclusive one,
    else the failure.  Returns the deciding (k', verdict)."""

    def some_l(kp):
        pending = last = None
        for l in range(kp + 1, default_lmax(kp) + 1):
            v = per_pair(kp, l)
            if v.outcome == HOLDS:
                return v
            if pending is None and v.outcome == INCONCLUSIVE:
                pending = v
            last = v
        return last if pending is None else pending

    i, v = first_deciding(map(some_l, range(1, K_WINDOW + 1)))
    return 1 + i, v


class TestWindowScan:
    def test_stops_at_first_failing_k(self):
        # k'=1 and 2 hold at their l, k'=3 fails there, k'=4 is not read
        calls = []

        def per_pair(kp, l):
            calls.append((kp, l))
            if kp < 3:
                return Verdict(HOLDS, "bounded")
            return Verdict(FAILS, "unbounded", witness=l)

        v = _window_scan(per_pair, "q")
        assert v.outcome == FAILS
        assert v.witness == {"k": 3, "l_range": (20, 20)}
        assert v.params["chosen_l_by_k"] == {1: 12, 2: 16}
        assert calls == [(kp, default_lmax(kp)) for kp in (1, 2, 3)]

    def test_inconclusive_step_reads_the_whole_window(self):
        calls = []

        def per_pair(kp, l):
            calls.append((kp, l))
            if kp == 2:
                return Verdict(INCONCLUSIVE, "undecided", reason="flat")
            return Verdict(HOLDS, "bounded")

        v = _window_scan(per_pair, "q")
        assert v.outcome == INCONCLUSIVE
        assert v.reason.startswith("growth at k'=2 ")
        assert v.params["chosen_l_by_k"] == {1: 12, 3: 20, 4: 24}
        assert calls == [(kp, default_lmax(kp)) for kp in range(1, 5)]

    def test_l_candidates_per_level_are_an_argument(self):
        calls = []

        def per_pair(kp, l):
            calls.append((kp, l))
            if kp < 3:
                return Verdict(HOLDS, "bounded")
            return Verdict(FAILS, "unbounded", witness=l)

        v = _window_scan(per_pair, "q", l_of=lambda kp: 2 * kp)
        assert v.outcome == FAILS
        assert v.witness == {"k": 3, "l_range": (6, 6)}
        assert v.params["chosen_l_by_k"] == {1: 2, 2: 4}
        assert calls == [(1, 2), (2, 4), (3, 6)]

    def test_holding_scan_carries_the_first_level(self):
        v = _window_scan(
            lambda kp, l: Verdict(HOLDS, "bounded", ((l, float(kp)),)), "q",
            l_of=lambda kp: 2 * kp)
        assert v.outcome == HOLDS
        assert v.evidence == ((2, 1.0),)
        assert v.params["chosen_l"] == 2
        assert v.params["chosen_l_by_k"] == {1: 2, 2: 4, 3: 6, 4: 8}

    def test_log_inverse_scan_pairs(self, log2, monkeypatch):
        pairs = _spy_pairs(monkeypatch)
        v = inverse_continuity_check(log2, N=500)
        assert v.outcome == FAILS
        assert v.witness == {"k": 2, "l_range": (16, 16)}
        assert v.params["chosen_l_by_k"] == {1: 12}
        assert pairs == [(1, 12), (2, 16)]

    def test_tower_d_scan_pairs(self, tower, monkeypatch):
        pairs = _spy_pairs(monkeypatch)
        v = d_continuity_check(tower, N=500)
        assert v.outcome == FAILS
        assert v.witness == {"k": 1, "l_range": (12, 12)}
        assert v.params["chosen_l_by_k"] == {}
        assert pairs == [(1, 12)]

    @pytest.mark.parametrize("spec, N", [
        *((spec, N) for spec in GALLERY_SPECS for N in (50, 200, 2000)),
        *((spec, None) for spec in (
            "log:beta=1", "log:beta=10", "log:beta=1000", "power:beta=1",
            "power:beta=8", "power:beta=20", "table:[10]:step=10")),
    ])
    def test_searching_l_decides_as_the_top_l(self, spec, N):
        # both quantities fall as l grows, so the search over the window
        # reaches the outcome, at the same k', that its top l reaches
        for per_pair, v in _scan_closures(parse_alpha(spec), N):
            kp, searched = searched_scan(per_pair)
            assert searched.outcome == v.outcome
            if v.outcome == FAILS:
                assert v.witness["k"] == kp
            elif v.outcome == INCONCLUSIVE:
                assert v.reason.startswith(f"growth at k'={kp} ")

    @given(steps=st.lists(st.integers(min_value=1, max_value=60),
                          min_size=1, max_size=10),
           scale=st.integers(min_value=1, max_value=1000),
           kp=st.integers(min_value=1, max_value=K_WINDOW),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_scan_quantities_fall_as_l_grows(self, steps, scale, kp, data):
        seq = AlphaSequence.table(
            [Fraction(int(v), scale) for v in np.cumsum(steps)])
        l = data.draw(st.integers(min_value=kp + 1,
                                  max_value=default_lmax(kp) - 1))
        for per_pair, _ in _scan_closures(seq, 100):
            with pytest.MonkeyPatch.context() as mp:
                qs = {}
                _spy_pairs(mp, qs)
                per_pair(kp, l)
                per_pair(kp, l + 1)
            assert np.all(qs[kp, l + 1] <= qs[kp, l])

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


_F, _H, _I = FAILS, HOLDS, INCONCLUSIVE
# spec: ((outcome, rowsum, scalar) at the default N, the same at N = 200)
DELTA_OUTCOMES = {
    "linear": ((_F, _F, _F), (_F, _F, _F)),
    "power:beta=2": ((_H, _H, _H), (_H, _H, _H)),
    "sqrt": ((_F, _F, _F), (_F, _F, _F)),
    "log:beta=2": ((_F, _F, _F), (_F, _F, _F)),
    "psum:beta=1/2": ((_F, _F, _F), (_F, _F, _F)),
    "tower": ((_H, _H, _H), (_H, _H, _H)),
    "rsw_b": ((_F, _F, _F), (_F, _F, _F)),
    "s1_empty": ((_F, _F, _F), (_F, _F, _F)),
    "log:beta=1": ((_F, _F, _F), (_F, _F, _F)),
    "power:beta=1": ((_F, _F, _F), (_F, _F, _F)),
    "table:[1,3,4]:step=2": ((_F, _F, _F), (_F, _F, _I)),
    "log:beta=1000": ((_F, _I, _F), (_I, _H, _F)),
    "table:[10]:step=10": ((_I, _H, _F), (_I, _H, _F)),
    "table:[1]:step=1000": ((_I, _H, _F), (_H, _H, _I)),
    "power:beta=8": ((_H, _H, _H), (_H, _H, _H)),
}


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

    def test_no_delta_verdict_carries_a_scope_note(self):
        # the two bounds make the tracks equivalent for every positive
        # nondecreasing alpha, nuclear or not, so no verdict is annotated
        for spec in DELTA_OUTCOMES:   # the gallery and seven more
            for N in (None, 200):
                v = delta_continuity_check(parse_alpha(spec), N=N)
                assert "scope_note" not in v.params, spec
        for spec, prof in ALL_PROFILES.items():
            assert not any("nuclear spaces" in n for n in prof.notes), spec

    def test_a_growing_row_sum_fails_a_level_only_with_its_envelope(self):
        # alpha_n = 4n/5: at k'=1 the row sum at l=2 grows, since
        # log(1 + e**0.4) > 0.8, but (n-1) log 2 - 0.8n does not, so k'=1 is
        # inconclusive; at k'=2 the envelope grows and the level fails
        v = delta_continuity_check(parse_alpha("table:[4/5]:step=4/5"))
        assert v.outcome == FAILS
        assert v.witness == {"k": 2, "l_range": (4, 4)}
        assert v.params["rowsum_params"]["chosen_l_by_k"] == {}
        # alpha_n = 3n: at k'=4 every l > 27 bounds the row sums, l = 8 does
        # not, and the envelope is bounded, so the track is inconclusive;
        # the first failing level is 5
        v = delta_continuity_check(parse_alpha("table:[3]:step=3"))
        assert v.params["rowsum_outcome"] == INCONCLUSIVE
        assert v.params["rowsum_params"]["chosen_l_by_k"] == {1: 2, 2: 4,
                                                               3: 6}

    @pytest.mark.parametrize("N", [None, 200])
    @pytest.mark.parametrize("spec", list(DELTA_OUTCOMES))
    def test_outcome_table(self, spec, N):
        # (outcome, rowsum_outcome, scalar_outcome) at the default N and at
        # N = 200, the same as when every l in (k', 4k'+8] was searched
        v = delta_continuity_check(parse_alpha(spec), N=N)
        got = (v.outcome, v.params["rowsum_outcome"],
               v.params["scalar_outcome"])
        assert got == DELTA_OUTCOMES[spec][N is not None]



@functools.cache
def _dense_logc_at_cap():
    idx = np.arange(_ROWSUM_N_CAP, dtype=float)
    return logbinom(idx[:, None], idx[None, :])


def _dense_logc(N):
    # entry (n, m) of the N x N table is log binom(n, m), -inf above the
    # diagonal; each entry is the same at every N
    return _dense_logc_at_cap()[:N, :N]


def _reference_rowsums(a):
    # the full-table route the blocked kernel replaces
    with np.errstate(invalid="ignore"):
        return logsumexp(_dense_logc(len(a)) + a[None, :], axis=1)


class TestRowSumKernel:
    @pytest.mark.parametrize("N", [1, 2, 127, 128, 129, 1024])
    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_matches_full_table_logsumexp(self, spec, N):
        alpha = parse_alpha(spec).values_saturated(N)
        for l in (2, 5, 20):
            a = alpha / l
            ref = _reference_rowsums(a)
            got = _log_rowsums(a)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("N", [1, 2, 127, 128, 129, 1024])
    @pytest.mark.parametrize("l", [2, 5, 20])
    def test_saturated_alpha(self, N, l):
        a = np.full(N, ALPHA_SATURATION / l)
        got = _log_rowsums(a)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, _reference_rowsums(a),
                                   rtol=1e-12, atol=0)

    def test_delta_verdicts_match_reference_kernel(self, monkeypatch):
        new = {spec: delta_continuity_check(parse_alpha(spec))
               for spec in GALLERY_SPECS}
        monkeypatch.setattr(criteria_module, "_log_rowsums",
                            _reference_rowsums)
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
        blocks = _log_pascal(_ROWSUM_N_CAP).blocks
        assert len(blocks) * _ROWSUM_BLOCK == _ROWSUM_N_CAP
        for i, block in enumerate(blocks):
            s = i * _ROWSUM_BLOCK
            lower = block[np.tril_indices(_ROWSUM_BLOCK, s, s + _ROWSUM_BLOCK)]
            assert np.all(lower >= np.finfo(float).tiny)
            assert np.all(lower <= 1.0)
            assert not np.any(np.triu(block, s + 1))

    @staticmethod
    def _fallback_blocks(monkeypatch, a):
        """Start rows of the blocks that took the max-shift route."""
        starts = []
        inner = criteria_module._max_shift_rows

        def spy(table, a, s, e):
            starts.append(s)
            return inner(table, a, s, e)

        monkeypatch.setattr(criteria_module, "_max_shift_rows", spy)
        np.testing.assert_allclose(_log_rowsums(a), _reference_rowsums(a),
                                   rtol=1e-12, atol=0)
        return starts

    @pytest.mark.parametrize("l", [2, 5, 20])
    def test_fast_growth_falls_back_past_the_first_block(self, monkeypatch, l):
        a = parse_alpha("power:beta=2").values_saturated(_ROWSUM_N_CAP) / l
        starts = self._fallback_blocks(monkeypatch, a)
        assert starts[0] == 0 and len(starts) > 1

    @pytest.mark.parametrize("l", [2, 5, 20])
    def test_linear_takes_the_matvec_after_the_first_block(self, monkeypatch,
                                                           l):
        a = parse_alpha("linear").values_saturated(_ROWSUM_N_CAP) / l
        assert self._fallback_blocks(monkeypatch, a) == [0]

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
        np.testing.assert_allclose(_log_rowsums(a), _reference_rowsums(a),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_one_rowsum_per_l(self, monkeypatch, spec):
        # at most one `_log_rowsums` call per level k' reached, each on the
        # one column alpha/(2k') that the level is probed at
        sums, levels = [], []
        inner_sums = criteria_module._log_rowsums
        inner_sup = criteria_module.sup_verdict_bounded

        def rowsums(a):
            sums.append(a.tobytes())
            return inner_sums(a)

        def sup(ns, q, label, extra):
            if "l" in extra:
                assert extra["l"] == 2 * extra["k"]
                levels.append(extra["k"])
            return inner_sup(ns, q, label, extra=extra)

        monkeypatch.setattr(criteria_module, "_log_rowsums", rowsums)
        monkeypatch.setattr(criteria_module, "sup_verdict_bounded", sup)
        v = delta_continuity_check(parse_alpha(spec))
        alpha = parse_alpha(spec).values_saturated(v.params["N_rowsum"])
        assert 1 <= len(sums) <= criteria_module.K_WINDOW
        assert levels == list(range(1, len(sums) + 1))
        assert sums == [(alpha / (2 * kp)).tobytes() for kp in levels]

    @pytest.mark.parametrize("N", [200, 1024])
    @pytest.mark.parametrize("spec", [
        "log:beta=1", "power:beta=1", "table:[1,3,4]:step=2"])
    def test_more_delta_verdicts_match_reference_kernel(self, monkeypatch,
                                                        spec, N):
        got = delta_continuity_check(parse_alpha(spec), N=N)
        monkeypatch.setattr(criteria_module, "_log_rowsums",
                            _reference_rowsums)
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
    @settings(max_examples=40, deadline=None)
    @given(N=st.one_of(st.sampled_from([1, 64, 65, 200, _ROWSUM_N_CAP]),
                       st.integers(1, _ROWSUM_N_CAP)),
           column=_COLUMNS, kp=st.integers(1, 20), dl=st.integers(1, 20))
    def test_quantity_between_the_bounds_and_monotone_in_l(self, N, column,
                                                           kp, dl):
        # for alpha >= 0 nondecreasing and l > k':
        #   (n-1) log 2 - alpha_n/k' <= log rowsum(alpha/l) - alpha_n/k'
        #                            <= (n-1) log 2 + alpha_n/l - alpha_n/k',
        # and the quantity does not increase with l
        kind, segments, beta, saturate_at, l = column
        l = max(l, kp + 1)
        alpha = _growth_column(N, kind, segments, beta, saturate_at, 1)
        log2n = np.arange(N) * math.log(2)
        q = _log_rowsums(alpha / l) - alpha / kp
        q_next = _log_rowsums(alpha / (l + dl)) - alpha / kp
        slack = 1e-12 * (1 + np.abs(alpha / l) + log2n)
        assert np.all(log2n - alpha / kp <= q + slack)
        assert np.all(q <= log2n + alpha / l - alpha / kp + slack)
        assert np.all(q_next <= q + slack)

    @pytest.mark.parametrize("spec", [*GALLERY_SPECS, "log:beta=1"])
    def test_summed_l_are_the_k_ranges_reached(self, monkeypatch, spec):
        # each level k' reached sums its range, the one l = 2k'; the scan
        # reaches every level up to a failing one, else the whole window
        seq = parse_alpha(spec)
        columns = []
        inner_sums = criteria_module._log_rowsums

        def rowsums(a):
            columns.append(a.tobytes())
            return inner_sums(a)

        monkeypatch.setattr(criteria_module, "_log_rowsums", rowsums)
        v = delta_continuity_check(seq)
        alpha = seq.values_saturated(v.params["N_rowsum"])
        l_of = {(alpha / l).tobytes(): l for l in range(2, 200)}
        last = (v.witness["k"] if v.params["rowsum_outcome"] == FAILS
                else criteria_module.K_WINDOW)
        assert [l_of[c] for c in columns] == [2 * kp
                                               for kp in range(1, last + 1)]

    def test_matvecs_take_the_columns_that_pass_gap_and_floor(self,
                                                               monkeypatch):
        # linear takes the mat-vec in every block after the first;
        # power:beta=2 over 2 is past the gap in every later block and takes
        # the max-shift route; over 190 the late blocks pass the gap, then
        # fail the floor (their sums underflow) and fall back
        matvecs, fallbacks = [], []

        class Spy(np.ndarray):
            def __matmul__(self, other):
                matvecs.append(self.shape[1])
                return np.asarray(self) @ other

        inner = criteria_module._max_shift_rows

        def max_shift(table, a, s, e):
            fallbacks.append(e)
            return inner(table, a, s, e)

        entry = _log_pascal(_ROWSUM_N_CAP)
        monkeypatch.setattr(criteria_module, "_logc_cache", {
            _ROWSUM_N_CAP: entry._replace(
                blocks=tuple(b.view(Spy) for b in entry.blocks))})
        monkeypatch.setattr(criteria_module, "_max_shift_rows", max_shift)
        ns = np.arange(1, _ROWSUM_N_CAP + 1, dtype=float)
        later = list(range(128, _ROWSUM_N_CAP + 1, 64))
        routes = {}
        for name, a in (("linear", ns / 3), ("over 2", ns ** 2 / 2),
                        ("over 190", ns ** 2 / 190)):
            matvecs.clear()
            fallbacks.clear()
            np.testing.assert_allclose(_log_rowsums(a), _reference_rowsums(a),
                                       rtol=1e-12, atol=0)
            routes[name] = (list(matvecs), list(fallbacks))
        assert routes["linear"] == (later, [64])
        assert routes["over 2"] == ([], [64, *later])
        matvec, fallback = routes["over 190"]
        assert matvec == later
        assert fallback[0] == 64 and set(fallback[1:]) < set(later)
        assert fallback[1:]

    def test_band_keeps_every_term_that_counts(self, monkeypatch):
        # with no mat-vec sum passing the floor every block takes the
        # max-shift route, and at slopes 1 to 3 the columns just below a cut
        # without its 746 margin still carry terms above the last bit
        monkeypatch.setattr(criteria_module, "_MATVEC_FLOOR", math.inf)
        ns = np.arange(1, _ROWSUM_N_CAP + 1, dtype=float)
        for a in (ns, 2 * ns, 3 * ns, ns ** 2 / 24):
            np.testing.assert_allclose(_log_rowsums(a), _reference_rowsums(a),
                                       rtol=1e-12, atol=0)

    def test_band_reads_few_columns_of_fast_growth(self, monkeypatch):
        # power:beta=2 takes the max-shift route in most blocks; the band
        # reads the columns near the diagonal and skips the rest
        reads = []
        inner = criteria_module._band_start

        def spy(table, a, s, e):
            m = inner(table, a, s, e)
            if s:
                reads.append((e - s, e - m, e))
            return m

        monkeypatch.setattr(criteria_module, "_band_start", spy)
        alpha = parse_alpha("power:beta=2").values_saturated(_ROWSUM_N_CAP)
        for l in range(2, 25):
            reads.clear()
            a = alpha / l
            np.testing.assert_allclose(_log_rowsums(a), _reference_rowsums(a),
                                       rtol=1e-12, atol=0)
            assert reads, l
            if l in (2, 5, 12):
                assert max(width for _, width, _ in reads) <= 128, l
            banded = sum(rows * width for rows, width, _ in reads)
            unbanded = sum(rows * e for rows, _, e in reads)
            assert 5 * banded < unbanded, l

    @pytest.mark.parametrize("N", [200, _ROWSUM_N_CAP])
    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_gallery_verdicts_match_reference_kernel(self, monkeypatch, spec,
                                                     N):
        got = delta_continuity_check(parse_alpha(spec), N=N)
        monkeypatch.setattr(criteria_module, "_log_rowsums",
                            _reference_rowsums)
        ref = delta_continuity_check(parse_alpha(spec), N=N)
        assert got.outcome == ref.outcome
        assert got.witness == ref.witness
        assert got.params == ref.params


class TestLogPascalCache:
    def test_one_table_sliced_bit_identically(self, monkeypatch):
        # the bands, row maxima and blocks hold the bytes of logbinom
        cache = {}
        monkeypatch.setattr(criteria_module, "_logc_cache", cache)
        for N in (5, 300, 17, 1, _ROWSUM_N_CAP, 64, 300):
            table = _log_pascal(N)
            assert len(cache) == 1
            rows = len(table.lf)
            assert rows >= N and rows % _ROWSUM_BLOCK == 0
            dense = _dense_logc(rows)
            assert table.logc(0, N, 0).tobytes() == dense[:N, :N].tobytes()
            band = dense[N // 2:N, N // 3:N]
            assert table.logc(N // 2, N, N // 3).tobytes() == band.tobytes()
            assert table.rowmax.tobytes() == dense.max(axis=1).tobytes()
            assert len(table.blocks) * _ROWSUM_BLOCK == rows
            for i, block in enumerate(table.blocks):
                s, e = i * _ROWSUM_BLOCK, (i + 1) * _ROWSUM_BLOCK
                assert block.flags.c_contiguous and block.shape == (e - s, e)
                scaled = np.exp(dense[s:e, :e] - table.rowmax[s:e, None])
                assert block.tobytes() == scaled.tobytes()

    def test_smaller_sizes_reuse_the_table(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(criteria_module, "_logc_cache", cache)
        big = _log_pascal(200)
        assert _log_pascal(50) is big and _log_pascal(256) is big
        assert list(cache) == [256]
        _log_pascal(257)
        assert list(cache) == [320]

    def test_growth_appends_blocks(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(criteria_module, "_logc_cache", cache)
        tables = [_log_pascal(N) for N in (40, 116, _ROWSUM_N_CAP)]
        for small, large in zip(tables, tables[1:]):
            assert len(small.blocks) < len(large.blocks)
            assert all(a is b for a, b in zip(small.blocks, large.blocks))
        monkeypatch.setattr(criteria_module, "_logc_cache", {})
        fresh = _log_pascal(_ROWSUM_N_CAP)
        assert len(fresh.blocks) == len(tables[-1].blocks)
        for grown, built in zip(tables[-1].blocks, fresh.blocks):
            assert grown.tobytes() == built.tobytes()
        assert tables[-1].rowmax.tobytes() == fresh.rowmax.tobytes()

    def test_memory_at_the_cap(self, monkeypatch):
        # the blocks hold the lower triangle in 64-row steps; everything
        # else is O(N), and no cached array spans N x N entries
        monkeypatch.setattr(criteria_module, "_logc_cache", {})
        N = _ROWSUM_N_CAP
        table = _log_pascal(N)
        assert sum(b.nbytes for b in table.blocks) == 8 * 64 * 64 * 136

        def span(a):
            # bytes from an array's first entry to its last, views included
            return a.itemsize + sum((n - 1) * abs(step)
                                    for n, step in zip(a.shape, a.strides))

        assert max(map(span, table.blocks)) < 8 * N * N // 4
        # lf and rowmax hold N entries, the window under toeplitz 2N - 1
        assert span(table.lf) == span(table.rowmax) == 8 * N
        assert span(table.toeplitz) == 8 * (2 * N - 1)

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
