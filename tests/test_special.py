"""Special-function accuracy against frozen high-precision references."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special as _sp

from kaarbench.special import bessel_k, gamma

FIXTURES = Path(__file__).parent / "fixtures" / "special_reference.json"


@pytest.fixture(scope="module")
def reference():
    with open(FIXTURES) as fh:
        return json.load(fh)


def test_gamma_exact_integers():
    assert gamma(1.0) == 1.0
    assert gamma(5.0) == 24.0


def test_gamma_sqrt_pi():
    # Gamma(1/2) = sqrt(pi), closed form
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_gamma_against_reference(reference):
    for entry in reference["gamma"]:
        assert gamma(entry["x"]) == pytest.approx(entry["g"], rel=1e-12)


def test_gamma_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gamma(bad)


def test_gamma_vectorized():
    out = gamma(np.array([1.0, 5.0]))
    assert np.allclose(out, [1.0, 24.0])


def test_bessel_k_half_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    assert bessel_k(0.5, 1.0) == pytest.approx(0.46106850444789450, rel=1e-12)
    assert bessel_k(0.5, 2.0) == pytest.approx(0.11993777196806141, rel=1e-12)


def test_bessel_k_three_half_closed_form():
    # K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x); at x=1 this is 2 K_{1/2}(1)
    assert bessel_k(1.5, 1.0) == pytest.approx(0.92213700889578900, rel=1e-12)
    assert bessel_k(1.5, 1.0) == pytest.approx(2.0 * bessel_k(0.5, 1.0), rel=1e-13)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 5.5, 9.5])
def test_bessel_half_integer_grid(nu):
    xs = np.linspace(0.05, 20.0, 20)
    m = int(nu - 0.5)
    poly = sum(
        math.factorial(m + k) / (math.factorial(k) * math.factorial(m - k) * 2.0**k) / xs**k
        for k in range(m + 1)
    )
    expected = np.sqrt(np.pi / (2 * xs)) * np.exp(-xs) * poly
    assert np.max(np.abs(bessel_k(nu, xs) - expected) / expected) <= 1e-10


def test_bessel_against_reference_table(reference):
    worst = 0.0
    for entry in reference["bessel_k"]:
        got = bessel_k(entry["nu"], entry["x"])
        worst = max(worst, abs(got - entry["k"]) / abs(entry["k"]))
    assert worst <= 1e-10, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize("nu", [1.0, 2.3, 4.7])
def test_bessel_recurrence(nu):
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
    xs = np.concatenate([np.linspace(0.1, 20.0, 40), [0.17, 3.33, 15.9]])
    lhs = bessel_k(nu + 1, xs)
    resid = np.abs(lhs - bessel_k(nu - 1, xs) - (2 * nu / xs) * bessel_k(nu, xs))
    assert np.max(resid / lhs) <= 1e-8


def test_bessel_monotone_decreasing_in_x():
    xs = np.linspace(0.05, 30.0, 300)
    for nu in (0.0, 0.5, 1.0, 3.3, 9.5):
        vals = bessel_k(nu, xs)
        assert np.all(np.diff(vals) < 0)


def test_bessel_positive():
    rng = np.random.default_rng(0)
    nus = rng.uniform(0, 10, 30)
    xs = rng.uniform(1e-6, 50, 30)
    for nu in nus:
        assert np.all(bessel_k(nu, xs) > 0)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel_k(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_k(math.nan, 1.0)


def test_bessel_overflow_signal():
    # tiny argument with large order exceeds double range
    with pytest.raises(OverflowError):
        bessel_k(10.0, 1e-40)


@pytest.mark.parametrize("nu", [0.05, 1.3])
def test_bessel_general_order_repeated_arguments_match_kv(nu):
    # kv runs once per distinct argument; the scattered values keep kv's bits
    rng = np.random.default_rng(1)
    distinct = np.concatenate([rng.uniform(1e-3, 5.0, 40), [1e-12, 0.25, 2.0, 30.0]])
    x = rng.choice(distinct, size=(37, 19))
    got = bessel_k(nu, x)
    expected = np.array([[_sp.kv(nu, float(v)) for v in row] for row in x])
    assert np.array_equal(got, expected)
    assert np.array_equal(bessel_k(nu, x.ravel()), expected.ravel())


@pytest.mark.parametrize("nu", [0.05, 1.3, 0.5])
def test_bessel_returns_the_argument_shape(nu):
    assert isinstance(bessel_k(nu, 0.7), float)
    assert isinstance(bessel_k(nu, np.array(0.7)), float)
    assert bessel_k(nu, np.array(0.7)) == bessel_k(nu, 0.7)
    assert bessel_k(nu, np.array([0.7])).shape == (1,)
    assert bessel_k(nu, np.array([0.7, 0.2, 0.7])).shape == (3,)
    grid = np.array([[0.7, 0.2, 0.7], [0.2, 0.2, 1.1]])
    assert bessel_k(nu, grid).shape == (2, 3)
    assert bessel_k(nu, grid.T).shape == (3, 2)
    assert np.array_equal(bessel_k(nu, grid.T), bessel_k(nu, grid).T)


def test_bessel_overflow_repeated_in_2d_names_smallest_argument():
    x = np.array([[1e-40, 1.0, 1e-45], [1e-45, 1e-40, 2.0]])
    with pytest.raises(OverflowError, match=r"x=1e-45$"):
        bessel_k(10.0, x)


def test_bessel_near_integer_order_continuous():
    # orders within 1e-6 of an integer evaluate continuously, no special casing
    base = bessel_k(2.0, 1.3)
    for delta in (1e-7, -1e-7, 1e-9):
        assert bessel_k(2.0 + delta, 1.3) == pytest.approx(base, rel=1e-5)


def test_bessel_near_half_integer_order_at_tiny_argument():
    # K_nu(x) -> Gamma(nu) / 2 (2 / x)^nu as x -> 0; the closed form of the
    # nearest half-integer order is off by (2 / x)^{nu - 1/2}, 7e-11 here
    nu, x = 0.5 + 1e-13, 1e-300
    expected = 0.5 * math.exp(math.lgamma(nu) + nu * math.log(2.0 / x))
    assert bessel_k(nu, x) == pytest.approx(expected, rel=1e-12)
