"""Ladder sampling and three-state verdict core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarospec.trend import (
    BOUNDED,
    DEFAULT_PARAMS,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    LOG_OVERFLOW,
    OSCILLATING,
    POSITIVE_LIMIT,
    RISING,
    TO_ZERO,
    UNBOUNDED,
    UNDECIDED,
    TrendParams,
    Verdict,
    classify_limit,
    classify_sup,
    first_deciding,
    ladder,
    limit_verdict_positive,
    limit_verdict_zero,
    sup_verdict_bounded,
)


class TestLadder:
    def test_small_sizes(self):
        assert list(ladder(2)) == [2]
        assert list(ladder(3)) == [2, 3]
        assert list(ladder(10)) == [2, 3, 4, 6, 8, 10]

    @given(st.integers(min_value=2, max_value=200_000))
    def test_strictly_increasing_and_capped(self, n):
        lad = ladder(n)
        assert lad[0] >= 2
        assert lad[-1] == n
        assert np.all(np.diff(lad) > 0)

    @given(st.integers(min_value=4, max_value=200_000))
    def test_geometric_density(self, n):
        # consecutive samples never more than a factor 2 apart, so no scale
        # window of the data is skipped entirely
        lad = ladder(n).astype(float)
        assert np.all(lad[1:] / lad[:-1] <= 2.0 + 1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ladder(0)


class TestVerdictInvariants:
    def test_bool_is_forbidden(self):
        v = Verdict(HOLDS, "bounded")
        with pytest.raises(TypeError):
            bool(v)
        with pytest.raises(TypeError):
            if v:  # pragma: no cover
                pass

    def test_fails_requires_witness(self):
        with pytest.raises(ValueError):
            Verdict(FAILS, "rising")
        v = Verdict(FAILS, "rising", witness=17)
        assert v.witness == 17

    def test_inconclusive_requires_reason(self):
        with pytest.raises(ValueError):
            Verdict(INCONCLUSIVE, "undecided")
        v = Verdict(INCONCLUSIVE, "undecided", reason="tail too short")
        assert v.reason

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            Verdict("maybe", "bounded")


def _verdicts(*outcomes):
    return [Verdict(o, "t", witness=i if o == FAILS else None,
                    reason="r" if o == INCONCLUSIVE else "")
            for i, o in enumerate(outcomes)]


class TestFirstDeciding:
    @pytest.mark.parametrize("outcomes,index", [
        ((HOLDS, HOLDS, HOLDS), 2),
        ((HOLDS, FAILS, FAILS), 1),
        ((INCONCLUSIVE, FAILS, INCONCLUSIVE), 1),
        ((HOLDS, INCONCLUSIVE, INCONCLUSIVE), 1),
        ((INCONCLUSIVE, HOLDS, INCONCLUSIVE), 0),
        ((FAILS,), 0),
    ])
    def test_every_item_rule_follows_input_order(self, outcomes, index):
        vs = _verdicts(*outcomes)
        i, v = first_deciding(vs)
        assert i == index
        assert v is vs[index]

    @pytest.mark.parametrize("outcomes,index", [
        ((FAILS, FAILS, FAILS), 2),
        ((FAILS, HOLDS, HOLDS), 1),
        ((INCONCLUSIVE, HOLDS), 1),
        ((FAILS, INCONCLUSIVE, INCONCLUSIVE, FAILS), 1),
    ])
    def test_some_item_dual(self, outcomes, index):
        vs = _verdicts(*outcomes)
        assert first_deciding(vs, stop=HOLDS) == (index, vs[index])

    @pytest.mark.parametrize("stop", [FAILS, HOLDS])
    def test_reads_nothing_past_the_stop_verdict(self, stop):
        read = []

        def stream():
            for i, v in enumerate(_verdicts(INCONCLUSIVE, stop)):
                read.append(i)
                yield v
            raise AssertionError("read past the deciding verdict")

        i, v = first_deciding(stream(), stop=stop)
        assert (i, v.outcome, read) == (1, stop, [0, 1])

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="no verdicts"):
            first_deciding(iter(()))


def _on_ladder(n, f):
    lad = ladder(n)
    return lad, np.array([f(v) for v in lad], dtype=float)


class TestLimitVerdicts:
    def test_clean_decay_to_zero_holds(self):
        lad, logs = _on_ladder(100_000, lambda n: -np.log(n))
        v = limit_verdict_zero(lad, logs, "1/n")
        assert v.outcome == HOLDS

    def test_positive_limit_fails_zero(self):
        lad, logs = _on_ladder(100_000, lambda n: np.log(3.0 + 1.0 / n))
        v = limit_verdict_zero(lad, logs, "3 + 1/n")
        assert v.outcome == FAILS
        assert v.witness is not None

    def test_positive_limit_holds_positive(self):
        lad, logs = _on_ladder(100_000, lambda n: np.log(3.0 + 1.0 / n))
        v = limit_verdict_positive(lad, logs, "3 + 1/n")
        assert v.outcome == HOLDS

    def test_decay_fails_positive(self):
        lad, logs = _on_ladder(100_000, lambda n: -np.log(n))
        v = limit_verdict_positive(lad, logs, "1/n")
        assert v.outcome == FAILS

    @given(st.floats(min_value=0.08, max_value=5.0),
           st.floats(min_value=0.1, max_value=100.0))
    def test_power_decay_reaches_zero(self, p, c):
        # below p ~ 0.06 the per-sample drop sinks under the decay threshold
        # and the classifier honestly reports inconclusive instead
        lad, logs = _on_ladder(100_000, lambda n: np.log(c) - p * np.log(n))
        v = limit_verdict_zero(lad, logs, "c/n^p")
        assert v.outcome == HOLDS

    def test_positive_limit_past_float_range_saturates(self):
        # a flat tail at log 720 is a positive limit above the largest float
        lad, logs = _on_ladder(100_000, lambda n: 720.0)
        assert classify_limit(lad, logs) == (POSITIVE_LIMIT, math.inf)
        assert limit_verdict_positive(lad, logs, "e^720").outcome == HOLDS
        assert limit_verdict_zero(lad, logs, "e^720").outcome == FAILS

    def test_near_flat_decay_is_inconclusive_not_wrong(self):
        lad, logs = _on_ladder(100_000, lambda n: -0.03 * np.log(n))
        v = limit_verdict_zero(lad, logs, "n^-0.03")
        assert v.outcome == INCONCLUSIVE
        assert v.reason


class TestSupVerdicts:
    def test_bounded_oscillation_holds(self):
        lad, logs = _on_ladder(100_000,
                               lambda n: np.log(2.0 + np.sin(float(n))))
        v = sup_verdict_bounded(lad, logs, "2 + sin n")
        assert v.outcome == HOLDS

    def test_logarithmic_growth_fails(self):
        lad, logs = _on_ladder(100_000, lambda n: np.log(np.log(n + 1.0)))
        v = sup_verdict_bounded(lad, logs, "log log n scale")
        assert v.outcome == FAILS
        assert v.witness is not None

    def test_linear_log_growth_fails(self):
        lad, logs = _on_ladder(100_000, lambda n: np.log(n) * 0.5)
        v = sup_verdict_bounded(lad, logs, "sqrt n")
        assert v.outcome == FAILS

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_constant_is_bounded(self, c):
        lad = ladder(100_000)
        logs = np.full(len(lad), c)
        v = sup_verdict_bounded(lad, logs, "constant")
        assert v.outcome == HOLDS

    def test_decaying_is_bounded(self):
        lad, logs = _on_ladder(100_000, lambda n: -0.3 * np.log(n))
        v = sup_verdict_bounded(lad, logs, "decaying")
        assert v.outcome == HOLDS


class TestTrendParamsValidation:
    """Values that would make a tail rule read the wrong samples, or none."""

    @pytest.mark.parametrize("window", [1, 0, -1, -5, 2.0, 5.5, "5", None])
    def test_window(self, window):
        with pytest.raises(ValueError, match="window"):
            TrendParams(window=window)

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-3, 2.0, math.nan, math.inf])
    def test_zero_rel_tol(self, tol):
        with pytest.raises(ValueError, match="zero_rel_tol"):
            TrendParams(zero_rel_tol=tol)

    @pytest.mark.parametrize("value", [0.0, -0.01, math.nan, math.inf, -math.inf])
    def test_flat_band(self, value):
        with pytest.raises(ValueError, match="flat_band"):
            TrendParams(flat_band=value)

    @pytest.mark.parametrize("value", [0.0, -0.02, math.nan, math.inf])
    def test_decay_step(self, value):
        with pytest.raises(ValueError, match="decay_step"):
            TrendParams(decay_step=value)

    @pytest.mark.parametrize("value", [0.0, -0.1, math.nan, math.inf])
    def test_rise_total(self, value):
        with pytest.raises(ValueError, match="rise_total"):
            TrendParams(rise_total=value)

    def test_smallest_valid_values(self):
        p = TrendParams(window=2, zero_rel_tol=1e-300, flat_band=1e-300,
                        decay_step=5e-324, rise_total=1e-300)
        assert p.window == 2
        # the window=1 reading of 1/n as a positive limit cannot be built
        lad, logs = _on_ladder(1000, lambda n: -np.log(n))
        assert classify_limit(lad, logs, TrendParams(window=2))[0] == TO_ZERO


# -- the rules as they stood before they moved to Python floats -------------------
# A standalone copy of the array-based classifiers: the rewrite must return
# equal results, equal verdicts and the same evidence element types.


def _ref_tail(a, window):
    return a[-min(window, len(a)):]


def _ref_spread(a):
    return float(np.max(a) - np.min(a))


def ref_classify_limit(ns, logs, params=DEFAULT_PARAMS):
    ns = np.asarray(ns)
    logs = np.asarray(logs, dtype=float)
    if len(ns) != len(logs) or len(ns) == 0:
        raise ValueError("need matching nonempty samples")
    if np.any(np.isnan(logs)) or np.any(logs == np.inf):
        raise ValueError("limit samples must be finite or -inf")
    finite = logs[np.isfinite(logs)]
    if len(finite) == 0:
        return TO_ZERO, None
    peak = float(np.max(finite))
    w = params.window
    tail = _ref_tail(logs, w)
    tail_ns = _ref_tail(ns, w)
    if np.max(tail) <= peak + math.log(params.zero_rel_tol) \
            and tail[-1] <= tail[0]:
        return TO_ZERO, None
    if not np.all(np.isfinite(tail)):
        return UNDECIDED, None
    if _ref_spread(tail) <= params.flat_band:
        try:
            return POSITIVE_LIMIT, math.exp(np.mean(tail))
        except OverflowError:
            return POSITIVE_LIMIT, math.inf
    steps = np.diff(tail)
    if np.all(steps < 0) and -float(np.mean(steps)) >= params.decay_step:
        return TO_ZERO, None
    if np.all(steps >= 0) and float(tail[-1] - tail[0]) >= params.rise_total:
        return RISING, int(tail_ns[-1])
    if _ref_spread(tail) >= params.rise_total:
        return OSCILLATING, int(tail_ns[int(np.argmax(tail))])
    return UNDECIDED, None


def ref_limit_verdict(claim, reason, ns, logs, quantity, params, extra):
    trend, detail = ref_classify_limit(ns, logs, params)
    ev = tuple((int(n), float(v)) for n, v in zip(ns, logs))
    info = {"quantity": quantity, "scale": "log"}
    if extra:
        info.update(extra)
    if trend == POSITIVE_LIMIT:
        info["limit_estimate"] = detail
    if trend == claim:
        return Verdict(HOLDS, trend, ev, params=info)
    if trend in (TO_ZERO, POSITIVE_LIMIT):
        return Verdict(FAILS, trend, ev, witness=int(ns[-1]), params=info)
    if trend in (RISING, OSCILLATING):
        return Verdict(FAILS, trend, ev, witness=detail, params=info)
    return Verdict(INCONCLUSIVE, UNDECIDED, ev, reason=reason, params=info)


def ref_classify_sup(ns, logs, params=DEFAULT_PARAMS):
    ns = np.asarray(ns)
    logs = np.asarray(logs, dtype=float)
    if len(ns) != len(logs) or len(ns) == 0:
        raise ValueError("need matching nonempty samples")
    if np.any(np.isnan(logs)):
        raise ValueError("sup samples must not be NaN")
    if np.any(logs >= LOG_OVERFLOW):
        return UNBOUNDED, int(ns[int(np.argmax(logs >= LOG_OVERFLOW))])
    lad = ladder(int(ns[-1]), start=int(ns[0]))
    lad = lad[lad >= ns[0]]
    running = np.maximum.accumulate(logs)
    pos = np.searchsorted(ns, lad, side="right") - 1
    checkpoints = running[pos]
    w = params.window
    tail = _ref_tail(checkpoints, w)
    if len(tail) >= 2:
        steps = np.diff(tail)
        if np.all(steps > 0) and float(tail[-1] - tail[0]) >= params.rise_total:
            return UNBOUNDED, int(ns[int(np.argmax(logs))])
    wb = max(w, len(checkpoints) // 4)
    tail_b = _ref_tail(checkpoints, wb)
    if _ref_spread(tail_b) <= params.flat_band:
        pw_tail = _ref_tail(logs[pos], w)
        pw_steps = np.diff(pw_tail)
        climbing = (
            len(pw_tail) >= 2
            and np.all(pw_steps >= 0)
            and float(pw_tail[-1] - pw_tail[0]) >= params.rise_total
        )
        if climbing:
            return UNDECIDED, None
        return BOUNDED, float(checkpoints[-1])
    return UNDECIDED, None


def ref_sup_verdict_bounded(ns, logs, quantity, params=DEFAULT_PARAMS,
                            extra=None):
    trend, detail = ref_classify_sup(ns, logs, params)
    lad = ladder(int(ns[-1]), start=int(ns[0]))
    running = np.maximum.accumulate(np.asarray(logs, dtype=float))
    pos = np.searchsorted(ns, lad, side="right") - 1
    pos = pos[pos >= 0]
    ev = tuple((int(n), float(v)) for n, v in zip(lad[-len(pos):], running[pos]))
    info = {"quantity": quantity, "scale": "log", "evidence_kind": "running_sup"}
    if extra:
        info.update(extra)
    if trend == BOUNDED:
        info["sup_log"] = detail
        return Verdict(HOLDS, trend, ev, params=info)
    if trend == UNBOUNDED:
        return Verdict(FAILS, trend, ev, witness=detail, params=info)
    return Verdict(
        INCONCLUSIVE, UNDECIDED, ev,
        reason="running sup neither stabilizes nor grows cleanly at this "
               "resolution",
        params=info,
    )


_ZERO_REASON = ("tail neither vanishes, stabilizes, nor grows cleanly at this "
                "resolution")
_POSITIVE_REASON = "tail does not stabilize at this resolution"


def ref_limit_verdict_zero(ns, logs, quantity, params=DEFAULT_PARAMS,
                           extra=None):
    return ref_limit_verdict(TO_ZERO, _ZERO_REASON, ns, logs, quantity,
                             params, extra)


def ref_limit_verdict_positive(ns, logs, quantity, params=DEFAULT_PARAMS,
                               extra=None):
    return ref_limit_verdict(POSITIVE_LIMIT, _POSITIVE_REASON, ns, logs,
                             quantity, params, extra)


# -- sample generators --------------------------------------------------------------

_PARAMS = st.one_of(
    st.just(DEFAULT_PARAMS),
    st.builds(
        TrendParams,
        window=st.integers(2, 12),
        zero_rel_tol=st.sampled_from([1e-3, 0.1, 0.5]),
        flat_band=st.sampled_from([0.01, 0.05, 0.5]),
        decay_step=st.sampled_from([0.02, 0.001, 0.3]),
        rise_total=st.sampled_from([0.1, 0.01, 1.0]),
    ),
)

# step sizes that hit equal neighbours and the edges of the default bands
_STEPS = (0.0, 0.0, 0.005, -0.005, 0.01, -0.01, 0.02, -0.02, 0.1, -0.1, 0.5,
          -0.5, 3.0, -3.0)
_LEVELS = (0.0, -2.0, 5.0, LOG_OVERFLOW - 0.01, LOG_OVERFLOW, LOG_OVERFLOW + 30,
           -700.0)


@st.composite
def _logs(draw, ns):
    """Log samples over ns: walks, power laws and plateaus, with -inf runs
    and values at LOG_OVERFLOW mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(ns)
    kind = draw(st.sampled_from(["walk", "power", "plateau"]))
    level = draw(st.sampled_from(_LEVELS))
    if kind == "walk":
        logs = level + np.cumsum(rng.choice(_STEPS, n))
    elif kind == "power":
        p = draw(st.sampled_from([-1.0, -0.3, -0.03, 0.0, 0.02, 0.5]))
        logs = level + p * np.log(np.asarray(ns, dtype=float))
    else:
        noise = draw(st.sampled_from([0.0, 1e-4, 0.004, 0.005, 0.02]))
        logs = level + rng.uniform(-noise, noise, n)
    if draw(st.booleans()):
        a = rng.integers(0, n)
        logs[a:a + rng.integers(1, n + 1)] = -np.inf
    if draw(st.booleans()):
        logs[rng.integers(0, n)] = LOG_OVERFLOW
    if draw(st.integers(0, 9)) == 0:
        logs[:] = -np.inf
    return logs


def _as_given(draw, ns, logs):
    """The same samples as int arrays, float arrays or lists."""
    form = draw(st.sampled_from(["array", "float_ns", "lists"]))
    if form == "float_ns":
        return np.asarray(ns, dtype=float), logs
    if form == "lists":
        return [int(n) for n in ns], [float(v) for v in logs]
    return ns, logs


@st.composite
def ladder_samples(draw):
    N = draw(st.integers(2, 200_000))
    ns = ladder(N)
    return _as_given(draw, ns, draw(_logs(ns)))


@st.composite
def dense_samples(draw):
    start = draw(st.integers(1, 40))
    N = draw(st.integers(start, 3000))
    ns = np.arange(start, N + 1, dtype=np.int64)
    return _as_given(draw, ns, draw(_logs(ns)))


def _same(got, want):
    """Equal values of equal types, element by element for evidence."""
    assert type(got) is type(want)
    if isinstance(want, Verdict):
        assert got == want
        assert [tuple(map(type, p)) for p in got.evidence] \
            == [tuple(map(type, p)) for p in want.evidence]
        assert type(got.witness) is type(want.witness)
        for key, value in want.params.items():
            assert type(got.params[key]) is type(value), key
    else:
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return ValueError(str(err))


class TestRewriteMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(ladder_samples(), _PARAMS)
    def test_classify_limit(self, samples, params):
        ns, logs = samples
        _same(classify_limit(ns, logs, params),
              ref_classify_limit(ns, logs, params))

    @settings(max_examples=300, deadline=None)
    @given(ladder_samples(), _PARAMS, st.booleans())
    def test_limit_verdicts(self, samples, params, zero):
        ns, logs = samples
        new, ref = ((limit_verdict_zero, ref_limit_verdict_zero) if zero else
                    (limit_verdict_positive, ref_limit_verdict_positive))
        extra = {"N": 7} if zero else None
        _same(new(ns, logs, "q", params, extra),
              ref(ns, logs, "q", params, extra))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(dense_samples(), ladder_samples()), _PARAMS)
    def test_classify_sup(self, samples, params):
        ns, logs = samples
        _same(classify_sup(ns, logs, params), ref_classify_sup(ns, logs, params))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(dense_samples(), ladder_samples()), _PARAMS)
    def test_sup_verdict(self, samples, params):
        ns, logs = samples
        _same(sup_verdict_bounded(ns, logs, "q", params, {"k": 1}),
              ref_sup_verdict_bounded(ns, logs, "q", params, {"k": 1}))

    def test_equal_minus_inf_neighbours_do_not_climb(self):
        # the running sup is flat at 10 while the pointwise tail climbs out
        # of two -inf samples: np.diff gives NaN there, so it does not count
        # as climbing, where b >= a would have read -inf >= -inf as a rise
        ns = np.arange(1, 1001)
        logs = np.full(1000, -np.inf)
        logs[0] = 10.0
        lad = ladder(1000)
        logs[lad[-3:] - 1] = [0.0, 2.0, 5.0]
        assert ref_classify_sup(ns, logs)[0] == BOUNDED
        _same(classify_sup(ns, logs), ref_classify_sup(ns, logs))
        _same(sup_verdict_bounded(ns, logs, "q"),
              ref_sup_verdict_bounded(ns, logs, "q"))

    @pytest.mark.parametrize("edge", [0.0, 0.01, 0.01 + 1e-12])
    def test_plateau_at_the_flat_band_edge(self, edge):
        lad = ladder(10_000)
        logs = np.zeros(len(lad))
        logs[-1] = edge
        for fn, ref in ((classify_limit, ref_classify_limit),
                        (classify_sup, ref_classify_sup)):
            _same(fn(lad, logs), ref(lad, logs))
        _same(limit_verdict_positive(lad, logs, "q"),
              ref_limit_verdict_positive(lad, logs, "q"))

    @pytest.mark.parametrize("value", [LOG_OVERFLOW, np.nextafter(LOG_OVERFLOW, 0),
                                       np.inf])
    def test_values_at_log_overflow(self, value):
        ns = np.arange(1, 501)
        logs = np.zeros(500)
        logs[137] = value
        _same(classify_sup(ns, logs), ref_classify_sup(ns, logs))
        _same(sup_verdict_bounded(ns, logs, "q"),
              ref_sup_verdict_bounded(ns, logs, "q"))

    @pytest.mark.parametrize("window", [2, 5, 8, 9, 12, 40])
    def test_tail_means(self, window):
        # np.mean sums eight or more values pairwise; the estimate must keep
        # every bit of it, in both the positive-limit and the decay rules
        params = TrendParams(window=window, flat_band=0.05)
        lad = ladder(10**6)
        level = np.log(3.0) + 0.01 * np.sin(np.arange(len(lad)) * 1.7)
        decay = -0.1 * np.log(lad.astype(float)) + 1e-3 * np.cos(lad)
        for logs in (level, decay):
            _same(classify_limit(lad, logs, params),
                  ref_classify_limit(lad, logs, params))
            _same(limit_verdict_positive(lad, logs, "q", params),
                  ref_limit_verdict_positive(lad, logs, "q", params))

    def test_float_indices_and_lists(self):
        ns = [2.0, 3.0, 4.0, 6.0, 8.0, 10.0]
        logs = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        for fn, ref in ((limit_verdict_zero, ref_limit_verdict_zero),
                        (sup_verdict_bounded, ref_sup_verdict_bounded)):
            for n_form in (ns, np.array(ns)):
                got = fn(n_form, logs, "q")
                _same(got, ref(n_form, logs, "q"))
                assert all(type(n) is int and type(v) is float
                           for n, v in got.evidence)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bad_samples_raise_the_same_errors(self, bad):
        lad = ladder(1000)
        logs = np.zeros(len(lad))
        logs[4] = bad
        for fn, ref in ((classify_limit, ref_classify_limit),
                        (classify_sup, ref_classify_sup)):
            got, want = _outcome(fn, lad, logs), _outcome(ref, lad, logs)
            assert type(got) is type(want) and str(got) == str(want)
        with pytest.raises(ValueError, match="finite or -inf"):
            limit_verdict_zero(lad, logs, "q")
        if bad != bad:
            with pytest.raises(ValueError, match="must not be NaN"):
                sup_verdict_bounded(lad, logs, "q")

    @pytest.mark.parametrize("fn", [classify_limit, classify_sup])
    def test_mismatched_or_empty_samples_raise(self, fn):
        for ns, logs in (([], []), ([1, 2], [0.0])):
            with pytest.raises(ValueError, match="matching nonempty"):
                fn(ns, logs)
