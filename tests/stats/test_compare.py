"""Tests for the two-proportion z-test the scheme-comparison tests use
(``tests/helpers.py``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import ComparisonResult, two_proportion_z


class TestTwoProportionZ:
    def test_clearly_different_rates(self):
        result = two_proportion_z(90, 100, 50, 100)
        assert result.significant()
        assert result.statistic > 0

    def test_identical_rates_not_significant(self):
        result = two_proportion_z(50, 100, 50, 100)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0)
        assert not result.significant()

    def test_degenerate_pooled_rate(self):
        assert two_proportion_z(0, 10, 0, 20).p_value == 1.0
        assert two_proportion_z(10, 10, 20, 20).p_value == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            two_proportion_z(1, 0, 1, 2)
        with pytest.raises(ValueError):
            two_proportion_z(5, 3, 1, 2)

    def test_small_samples_not_significant(self):
        assert not two_proportion_z(2, 3, 1, 3).significant()

    @given(
        hits_a=st.integers(0, 200),
        extra_a=st.integers(1, 200),
        hits_b=st.integers(0, 200),
        extra_b=st.integers(1, 200),
    )
    @settings(max_examples=50)
    def test_property_pvalue_in_unit_interval(self, hits_a, extra_a, hits_b, extra_b):
        result = two_proportion_z(
            hits_a, hits_a + extra_a, hits_b, hits_b + extra_b
        )
        assert 0.0 <= result.p_value <= 1.0

    def test_symmetry(self):
        ab = two_proportion_z(30, 100, 60, 100)
        ba = two_proportion_z(60, 100, 30, 100)
        assert ab.p_value == pytest.approx(ba.p_value)
        assert ab.statistic == pytest.approx(-ba.statistic)


def test_comparison_result_alpha():
    result = ComparisonResult(statistic=2.0, p_value=0.04)
    assert result.significant(alpha=0.05)
    assert not result.significant(alpha=0.01)
