import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ccsl import (WHITE, NoiseSpec, ValidationError, WhiteKernelNotPointwise,
                  exponential, spectrum, time_correlation)
from fixtures import CANTILEVER_SPECTRUM, EXP_MINUS_1


def test_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec("exponential")          # missing cutoff
    with pytest.raises(ValidationError):
        exponential(-3.0)
    with pytest.raises(ValidationError):
        exponential(float("inf"))
    with pytest.raises(ValidationError):
        NoiseSpec("white", omega_c=1.0)
    with pytest.raises(ValidationError):
        NoiseSpec("pink")


def test_kernel_at_zero_lag():
    assert time_correlation(exponential(2.0), 0.0) == pytest.approx(1.0, abs=0)


def test_kernel_half_second_lag():
    n = exponential(2.0)
    assert time_correlation(n, 0.5) == pytest.approx(EXP_MINUS_1, rel=1e-15)
    assert time_correlation(n, -0.5) == pytest.approx(EXP_MINUS_1, rel=1e-15)


def test_kernel_unit_time_integral():
    n = exponential(37.0)
    val, _ = quad(lambda t: time_correlation(n, t), -80.0 / 37.0, 80.0 / 37.0,
                  epsabs=1e-13, epsrel=1e-13)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_white_kernel_has_no_pointwise_value():
    with pytest.raises(WhiteKernelNotPointwise):
        time_correlation(WHITE, 0.0)


def test_white_spectrum_exactly_one():
    for w in (0.0, 1.0, -3e7, 1e18):
        assert type(spectrum(WHITE, w)) is float and spectrum(WHITE, w) == 1.0
    grid = np.array([[0.0, 2.0], [3e5, 1e18]])
    assert np.array_equal(spectrum(WHITE, grid), np.ones((2, 2)))


def test_spectrum_half_at_cutoff():
    assert spectrum(exponential(123.0), 123.0) == pytest.approx(0.5, rel=0)


def test_spectrum_at_cantilever_frequency():
    n = exponential(1e4)
    got = spectrum(n, 2 * math.pi * 8174.01)
    assert got == pytest.approx(CANTILEVER_SPECTRUM, rel=1e-14)


def test_spectrum_white_limit_recovery():
    # omega_c >= 1e6 |w| keeps the deviation from 1 at 1e-12 (the bound is
    # exact in real arithmetic; allow one part in 1e3 of it for rounding)
    for w in (1e-3, 1.0, 1e6):
        assert abs(spectrum(exponential(1e6 * w), w) - 1.0) <= 1.001e-12


@given(st.floats(min_value=1e-6, max_value=1e12),
       st.floats(min_value=-1e12, max_value=1e12),
       st.floats(min_value=-1e12, max_value=1e12))
@settings(max_examples=200, deadline=None)
def test_spectrum_monotone_in_abs_omega(wc, w1, w2):
    n = exponential(wc)
    lo, hi = sorted((abs(w1), abs(w2)))
    assert spectrum(n, hi) <= spectrum(n, lo) + 1e-15


@given(st.floats(min_value=1e-6, max_value=1e12),
       st.floats(min_value=1e-6, max_value=1e12),
       st.floats(min_value=-1e9, max_value=1e9))
@settings(max_examples=200, deadline=None)
def test_spectrum_monotone_in_cutoff(wc1, wc2, w):
    lo, hi = sorted((wc1, wc2))
    assert spectrum(exponential(hi), w) >= spectrum(exponential(lo), w) - 1e-15


@given(st.floats(min_value=1e-6, max_value=1e15),
       st.floats(min_value=-1e18, max_value=1e18))
@settings(max_examples=200, deadline=None)
def test_spectrum_in_unit_interval_and_even(wc, w):
    n = exponential(wc)
    v = spectrum(n, w)
    assert 0.0 < v <= 1.0
    assert v == spectrum(n, -w)


def test_fourier_transform_of_kernel_matches_spectrum():
    # f~(w) = Int e^{-i w t} f(t) dt = 2 Int_0^T f(t) cos(w t) dt, window
    # T = 40/omega_c (truncation error ~ e^-40)
    wc = 3.7e3
    n = exponential(wc)
    T = 40.0 / wc
    for w in np.geomspace(wc / 100.0, 100.0 * wc, 15):
        val, _ = quad(lambda t: time_correlation(n, t), 0.0, T,
                      weight="cos", wvar=w, epsabs=1e-14, epsrel=1e-12, limit=400)
        assert 2 * val == pytest.approx(spectrum(n, w), rel=1e-6)


def test_spectrum_vectorized():
    n = exponential(10.0)
    w = np.array([0.0, 10.0, 20.0])
    np.testing.assert_allclose(spectrum(n, w), [1.0, 0.5, 0.2], rtol=1e-14)


def test_spectrum_overflowing_ratio_is_zero_without_warnings():
    n = exponential(1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectrum(n, 5.1e4) == 0.0
        assert spectrum(n, 1e-150) == pytest.approx(1e-300, rel=1e-15)
        np.testing.assert_array_equal(spectrum(n, np.array([0.0, 5.1e4, 1e19])),
                                      [1.0, 0.0, 0.0])
