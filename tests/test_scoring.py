import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from washseg.scoring import (
    PROFESSIONAL_DURATIONS,
    score,
    score_error,
    trimmed_average,
)

# the per-video recommendation rows behind the professional durations
VIDEO_ROWS = {
    1: [3, 4, 4, 4, 5, 6, 4, 5, 3, 9, 7, 7],
    2: [1.5, 3.5, 3, 4.5, 3, 3.5, 4.5, 3.5, 3.5, 6.5, 4.5, 3],
    3: [1.5, 3.5, 3, 4.5, 3, 3.5, 4.5, 3.5, 3.5, 6.5, 4.5, 3],
    4: [4, 4, 3, 5, 6, 5, 6, 6, 11, 10, 5, 2],
    5: [2, 4, 3, 5, 5.5, 3.5, 5, 3.5, 3.5, 8.5, 4, 3],
    6: [2, 3, 2, 5.5, 4.5, 2.5, 4, 3.5, 3.5, 4, 5, 2.5],
    7: [2, 3, 2, 5.5, 4.5, 2.5, 4, 3.5, 3.5, 4, 5, 2.5],
    8: [3, 3, 2.5, 4.5, 5.5, 3.5, 6.5, 3, 4, 6, 5, 3.5],
    9: [3, 3, 2.5, 4.5, 5.5, 3.5, 6.5, 3, 4, 6, 5, 3.5],
}


class TestTrimmedAverage:
    def test_reproduces_published_averages(self):
        for g, row in VIDEO_ROWS.items():
            assert trimmed_average(row) == pytest.approx(
                PROFESSIONAL_DURATIONS[g - 1], abs=1e-9
            ), f"gesture {g}"

    def test_three_values(self):
        assert trimmed_average([1, 2, 3]) == 2

    def test_removes_one_occurrence_each(self):
        # duplicated extremes: only one max and one min dropped
        assert trimmed_average([5, 5, 1, 1]) == 3.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            trimmed_average([1, 2])


class TestScore:
    def test_professional_durations_give_100(self):
        assert score(PROFESSIONAL_DURATIONS).total == pytest.approx(100.0, abs=1e-9)

    def test_zero_durations_give_0(self):
        assert score(np.zeros(9)).total == 0.0

    def test_half_first_gesture(self):
        est = PROFESSIONAL_DURATIONS.copy()
        est[0] = 2.45
        assert score(est).total == pytest.approx((100.0 / 9.0) * 8.5, abs=1e-9)

    def test_negative_duration_rejected(self):
        est = PROFESSIONAL_DURATIONS.copy()
        est[3] = -0.1
        with pytest.raises(ValueError):
            score(est)

    @pytest.mark.parametrize("est, message", [
        ([np.nan] * 9, "gesture 1 duration nan"),
        ([1.0] * 4 + [np.nan] + [1.0] * 4, "gesture 5 duration nan"),
        ([1.0] * 4 + [np.inf] + [1.0] * 4, "gesture 5 duration inf"),
        ([1.0] * 8 + [-np.inf], "gesture 9 duration -inf"),
    ])
    def test_non_finite_duration_rejected_naming_the_gesture(self, est, message):
        with pytest.raises(ValueError, match=f"^{message} is not finite$"):
            score(est)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            score(np.ones(8))

    @given(
        st.lists(st.floats(min_value=0, max_value=30), min_size=9, max_size=9),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0, max_value=5),
    )
    def test_monotone_and_saturating(self, durations, idx, bump):
        base = score(durations).total
        more = list(durations)
        more[idx] += bump
        assert score(more).total >= base - 1e-9
        capped = list(durations)
        capped[idx] = max(capped[idx], PROFESSIONAL_DURATIONS[idx])
        extra = list(capped)
        extra[idx] += 10
        assert score(extra).total == pytest.approx(score(capped).total)

    def test_100_iff_all_durations_meet_targets(self, rng):
        for _ in range(20):
            est = PROFESSIONAL_DURATIONS * rng.uniform(0.5, 1.5, size=9)
            total = score(est).total
            if (est >= PROFESSIONAL_DURATIONS - 1e-12).all():
                assert total == pytest.approx(100.0)
            else:
                assert total < 100.0 - 1e-9

    def test_json_round_trip(self):
        rep = score(PROFESSIONAL_DURATIONS)
        data = json.loads(rep.to_json())
        assert data["total"] == pytest.approx(100.0)
        assert len(data["per_gesture_score"]) == 9


class TestScoreError:
    def test_identical_reports(self):
        rep = score(PROFESSIONAL_DURATIONS)
        assert score_error(rep, rep) == 0.0

    def test_simple_difference(self):
        est = PROFESSIONAL_DURATIONS.copy()
        est[0] = 2.45
        err = score_error(score(est), score(PROFESSIONAL_DURATIONS))
        assert err == pytest.approx(100.0 - (100.0 / 9.0) * 8.5, abs=1e-9)

    def test_perfect_segmentation_zero_error(self, rng):
        est = PROFESSIONAL_DURATIONS * rng.uniform(0.3, 1.2, size=9)
        assert score_error(score(est), score(est)) == 0.0
