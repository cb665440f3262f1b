"""Ladder sampling and three-state verdict core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarospec.trend import (
    BOUNDED,
    DECAY_STEP,
    FAILS,
    FLAT_BAND,
    HOLDS,
    INCONCLUSIVE,
    LOG_OVERFLOW,
    OSCILLATING,
    POSITIVE_LIMIT,
    RISE_TOTAL,
    RISING,
    TO_ZERO,
    UNBOUNDED,
    UNDECIDED,
    WINDOW,
    ZERO_REL_TOL,
    Verdict,
    _running_extreme,
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
        # "some item holds" is the rule on the swapped outcomes: the first
        # holds decides, else the first inconclusive, else the last
        swap = {HOLDS: FAILS, FAILS: HOLDS, INCONCLUSIVE: INCONCLUSIVE}
        vs = _verdicts(*(swap[o] for o in outcomes))
        assert first_deciding(vs) == (index, vs[index])

    @pytest.mark.parametrize("first", [FAILS, HOLDS])
    def test_reads_nothing_past_the_stop_verdict(self, first):
        read = []

        def stream():
            for i, v in enumerate(_verdicts(first, INCONCLUSIVE, FAILS)):
                read.append(i)
                yield v
                if v.outcome == FAILS:
                    raise AssertionError("read past the deciding verdict")

        i, v = first_deciding(stream())
        want = 0 if first == FAILS else 2
        assert (i, v.outcome, read) == (want, FAILS, [*range(want + 1)])

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


# -- the rules as they stood before they moved to Python floats -------------------
# A standalone copy of the array-based classifiers: the rewrite must return
# equal results, equal verdicts and the same evidence element types.


def _ref_tail(a, window):
    return a[-min(window, len(a)):]


def _ref_spread(a):
    # an all -inf tail has spread NaN, which passes no threshold
    with np.errstate(invalid="ignore"):
        return float(np.max(a) - np.min(a))


def ref_classify_limit(ns, logs):
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
    tail = _ref_tail(logs, WINDOW)
    tail_ns = _ref_tail(ns, WINDOW)
    if np.max(tail) <= peak + math.log(ZERO_REL_TOL) \
            and tail[-1] <= tail[0]:
        return TO_ZERO, None
    if not np.all(np.isfinite(tail)):
        return UNDECIDED, None
    if _ref_spread(tail) <= FLAT_BAND:
        try:
            return POSITIVE_LIMIT, math.exp(np.mean(tail))
        except OverflowError:
            return POSITIVE_LIMIT, math.inf
    steps = np.diff(tail)
    if np.all(steps < 0) and -float(np.mean(steps)) >= DECAY_STEP:
        return TO_ZERO, None
    if np.all(steps >= 0) and float(tail[-1] - tail[0]) >= RISE_TOTAL:
        return RISING, int(tail_ns[-1])
    if _ref_spread(tail) >= RISE_TOTAL:
        return OSCILLATING, int(tail_ns[int(np.argmax(tail))])
    return UNDECIDED, None


def ref_limit_verdict(claim, reason, ns, logs, quantity, extra):
    trend, detail = ref_classify_limit(ns, logs)
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


def ref_classify_sup(ns, logs):
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
    tail = _ref_tail(checkpoints, WINDOW)
    if len(tail) >= 2:
        # the step between two -inf is NaN, which is no step either way
        with np.errstate(invalid="ignore"):
            steps = np.diff(tail)
        if np.all(steps > 0) and float(tail[-1] - tail[0]) >= RISE_TOTAL:
            return UNBOUNDED, int(ns[int(np.argmax(logs))])
    wb = max(WINDOW, len(checkpoints) // 4)
    tail_b = _ref_tail(checkpoints, wb)
    if _ref_spread(tail_b) <= FLAT_BAND:
        pw_tail = _ref_tail(logs[pos], WINDOW)
        with np.errstate(invalid="ignore"):
            pw_steps = np.diff(pw_tail)
        climbing = (
            len(pw_tail) >= 2
            and np.all(pw_steps >= 0)
            and float(pw_tail[-1] - pw_tail[0]) >= RISE_TOTAL
        )
        if climbing:
            return UNDECIDED, None
        return BOUNDED, float(checkpoints[-1])
    return UNDECIDED, None


def ref_sup_verdict_bounded(ns, logs, quantity, extra=None):
    trend, detail = ref_classify_sup(ns, logs)
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


def ref_limit_verdict_zero(ns, logs, quantity, extra=None):
    return ref_limit_verdict(TO_ZERO, _ZERO_REASON, ns, logs, quantity, extra)


def ref_limit_verdict_positive(ns, logs, quantity, extra=None):
    return ref_limit_verdict(POSITIVE_LIMIT, _POSITIVE_REASON, ns, logs,
                             quantity, extra)


# -- sample generators --------------------------------------------------------------

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


@st.composite
def sparse_samples(draw):
    """Strictly increasing grids with gaps, where several ladder checkpoints
    fall between two grid points and share one position.  Where a drawn
    flag says so, the grid holds a ladder point v >= 8 whose next ladder
    point lies before the next grid point, right after a grid point v - 1
    that no checkpoint reads, with a new running maximum planted at v: only
    there does a checkpoint read that stops short of its own position's
    entry differ from the accumulate."""
    ns = draw(st.sets(st.integers(1, 5000), min_size=1, max_size=60))
    plant = draw(st.booleans())
    if plant:
        lad = ladder(5000)
        k = draw(st.integers(4, len(lad) - 3))
        v, nxt = int(lad[k]), int(lad[k + 1])
        ns = {n for n in ns if not v - 1 <= n <= nxt}
        ns |= {draw(st.integers(1, v - 2)), v - 1, v,
               draw(st.integers(nxt + 1, 5000))}
    ns = np.array(sorted(ns), dtype=np.int64)
    logs = draw(_logs(ns))
    if plant:
        p = int(np.searchsorted(ns, v))
        prior = logs[:p][np.isfinite(logs[:p])]
        logs[p] = max(prior, default=0.0) + draw(st.sampled_from([0.005, 3.0]))
    return _as_given(draw, ns, logs)


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
    @given(ladder_samples())
    def test_classify_limit(self, samples):
        ns, logs = samples
        _same(classify_limit(ns, logs), ref_classify_limit(ns, logs))

    @settings(max_examples=300, deadline=None)
    @given(ladder_samples(), st.booleans())
    def test_limit_verdicts(self, samples, zero):
        ns, logs = samples
        new, ref = ((limit_verdict_zero, ref_limit_verdict_zero) if zero else
                    (limit_verdict_positive, ref_limit_verdict_positive))
        extra = {"N": 7} if zero else None
        _same(new(ns, logs, "q", extra), ref(ns, logs, "q", extra))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(dense_samples(), ladder_samples(), sparse_samples()))
    def test_classify_sup(self, samples):
        ns, logs = samples
        _same(classify_sup(ns, logs), ref_classify_sup(ns, logs))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(dense_samples(), ladder_samples(), sparse_samples()))
    def test_sup_verdict(self, samples):
        ns, logs = samples
        _same(sup_verdict_bounded(ns, logs, "q", {"k": 1}),
              ref_sup_verdict_bounded(ns, logs, "q", {"k": 1}))

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

    @pytest.mark.parametrize("phase", [2, 5, 8, 9, 12, 40])
    def test_tail_means(self, phase):
        # the estimate must keep every bit of np.mean, in both the
        # positive-limit and the decay rules: a plateau that wobbles inside
        # FLAT_BAND, and a decay whose every step drops by more than
        # DECAY_STEP; each phase puts other values in the tail being averaged
        lad = ladder(10**6)
        level = np.log(3.0) + 0.002 * np.sin((np.arange(len(lad)) + phase) * 1.7)
        decay = -0.1 * np.log(lad.astype(float)) + 1e-3 * np.cos(lad + phase)
        assert classify_limit(lad, level)[0] == POSITIVE_LIMIT
        assert classify_limit(lad, decay)[0] == TO_ZERO
        for logs in (level, decay):
            _same(classify_limit(lad, logs), ref_classify_limit(lad, logs))
            _same(limit_verdict_positive(lad, logs, "q"),
                  ref_limit_verdict_positive(lad, logs, "q"))

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


# -- the running extreme at checkpoints ------------------------------------------

# values that tie (both zeros), sit at the ends, or are -inf
_POOL = np.array([0.0, -0.0, 1.0, -1.0, -np.inf, LOG_OVERFLOW, 1e308])


@st.composite
def checkpointed(draw):
    """(values, nondecreasing positions): a contiguous grid's ladder
    positions, a sparse grid's (with repeats), or positions drawn directly,
    with length-1 cases among each."""
    kind = draw(st.sampled_from(["contiguous", "sparse", "direct"]))
    if kind == "contiguous":
        start = draw(st.integers(1, 40))
        ns = np.arange(start, draw(st.integers(start, 3000)) + 1)
    elif kind == "sparse":
        ns = np.array(sorted(draw(st.sets(st.integers(1, 5000), min_size=1,
                                          max_size=60))))
    else:
        ns = np.arange(draw(st.integers(1, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(ns)
    values = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])),
                      rng.choice(_POOL, n), rng.uniform(-5.0, 5.0, n))
    if kind == "direct":
        pos = np.sort(rng.integers(0, n, draw(st.integers(1, 40))))
    else:
        lad = ladder(int(ns[-1]), start=int(ns[0]))
        pos = np.searchsorted(ns, lad, side="right") - 1
    return values, pos


def _accumulated(ufunc, values, pos):
    full = ufunc.accumulate(values)
    return full[pos], full[-1]


class TestRunningExtreme:
    """The checkpoint reads equal the full accumulate's.  np.testing's
    equality is exact for every nonzero value and NaN, and reads 0.0 and
    -0.0 as equal: reduce and accumulate pick different members of a tie."""

    @settings(max_examples=500, deadline=None)
    @given(checkpointed(), st.sampled_from([np.maximum, np.minimum]))
    def test_matches_accumulate(self, case, ufunc):
        values, pos = case
        got, top = _running_extreme(ufunc, values, pos)
        want, want_top = _accumulated(ufunc, values, pos)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(top, want_top)

    @pytest.mark.parametrize("ufunc", [np.maximum, np.minimum])
    def test_nan_is_carried_forward(self, ufunc):
        values = np.array([0.0, 2.0, np.nan, 1.0, -np.inf, 5.0])
        for pos in ([0, 1, 2, 5], [1, 1, 3, 3, 3], [4], [0, 0]):
            pos = np.array(pos, dtype=np.intp)
            got, top = _running_extreme(ufunc, values, pos)
            want, want_top = _accumulated(ufunc, values, pos)
            np.testing.assert_array_equal(got, want)
            assert math.isnan(top) and math.isnan(want_top)

    def test_single_entry(self):
        for ufunc in (np.maximum, np.minimum):
            got, top = _running_extreme(ufunc, np.array([-np.inf]),
                                        np.array([0, 0], dtype=np.intp))
            assert got.tolist() == [-np.inf, -np.inf] and top == -np.inf

    def test_shared_checkpoint_position_reads_the_whole_prefix(self):
        # the ladder checkpoints 64 to 724 all map to ns = 51, so the running
        # sup there is max(0, 1, 3); a segment start clipped to the repeated
        # position reads 1.0 at 64, missing logs[2]
        ns, logs = [2, 50, 51, 1000], [0.0, 1.0, 3.0, 0.2]
        v = sup_verdict_bounded(ns, logs, "q")
        ev = dict(v.evidence)
        assert ev[46] == 0.0
        assert all(ev[n] == 3.0 for n in ev if n >= 64)
        _same(v, ref_sup_verdict_bounded(ns, logs, "q"))
        _same(classify_sup(ns, logs), ref_classify_sup(ns, logs))

    def test_nan_on_a_sparse_grid_raises(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            sup_verdict_bounded([2, 50, 51, 1000], [0.0, np.nan, 3.0, 0.2],
                                "q")
        with pytest.raises(ValueError, match="must not be NaN"):
            classify_sup([3], [np.nan])
