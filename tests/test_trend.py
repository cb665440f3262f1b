"""Ladder sampling and three-state verdict core."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cesarospec.trend import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    POSITIVE_LIMIT,
    Verdict,
    classify_limit,
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
