"""Special functions backing the Sobolev kernel.

Two functions are exposed: the gamma function and the modified Bessel
function of the second kind K_nu for real nonnegative order.  Half-integer
orders (nu = m + 1/2) admit an exact closed form

    K_{m+1/2}(x) = sqrt(pi / (2 x)) * exp(-x) * sum_{k=0}^{m} a_k x^{-k},
    a_k = (m + k)! / (k! (m - k)! 2^k),

which is used when the order is exactly m + 1/2; this is the common case
for the kernels in this package (order |d/2 - s| with half-integer
s - d/2).  General real order is delegated to scipy's K_nu routine, which
was validated against an arbitrary-precision oracle to ~1e-14 relative
error on the supported domain (see tests/fixtures).  That routine costs
about 20 closed-form evaluations per argument, so it is called once per
distinct argument and the values are scattered back: distances between
lattice points repeat (431 distinct ones among the 1,048,576 pairs of a
32 x 32 grid), while the sort costs about a tenth of kv's time where
nothing repeats (BENCH_replay.json).  Symmetry K_{-nu} = K_nu must be applied by callers; orders
passed here are nonnegative.

Both functions accept scalars or numpy arrays and apply elementwise; the
result has the argument's shape, a float for a scalar.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

__all__ = ["gamma", "bessel_k"]


def gamma(x):
    """Gamma function for positive real arguments.

    Raises ValueError for x <= 0 or non-finite x.  Relative accuracy is at
    machine-epsilon level throughout (0, 50], far inside the 1e-12 target.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("gamma: argument must be finite")
    if np.any(arr <= 0.0):
        raise ValueError("gamma: argument must be positive")
    out = _sp.gamma(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _half_integer_m(nu: float) -> int | None:
    """Return m if nu is exactly m + 1/2 with m >= 0, else None.

    An order merely near m + 1/2 goes to scipy: K_{m+1/2} differs from K_nu
    by a factor near (2 / x)^{nu - m - 1/2}, which grows without bound as x
    shrinks, while scipy stays within 3e-14 relative down to x = 1e-300.
    """
    m = round(nu - 0.5)
    if m >= 0 and nu == m + 0.5:
        return m
    return None


def _bessel_k_half(m: int, x: np.ndarray) -> np.ndarray:
    # Horner evaluation of sum_k a_k / x^k, a_k = (m+k)!/(k!(m-k)!2^k)
    coeffs = [
        math.factorial(m + k) / (math.factorial(k) * math.factorial(m - k) * 2.0**k)
        for k in range(m + 1)
    ]
    acc = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc / x + c
    return np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) * acc


def bessel_k(nu: float, x):
    """Modified Bessel function of the second kind, K_nu(x).

    Parameters
    ----------
    nu : float
        Order, must be nonnegative (reduce negative orders via K_{-nu} = K_nu
        before calling).
    x : float or ndarray
        Argument(s), strictly positive.

    Returns
    -------
    float or ndarray
        K_nu evaluated elementwise, in the shape of x (a float for a scalar
        or 0-d x).  Relative error <= 1e-10 for nu in [0, 10] and
        x in (1e-8, 50].  At an order that is not an exact half-integer,
        scipy's kv runs once per distinct value of x; being elementwise,
        it gives the same bits as a call per element.

    Raises
    ------
    ValueError
        If x <= 0 anywhere, or nu is negative / non-finite.
    OverflowError
        If the result exceeds the double-precision range (small x with
        large nu); the message names the smallest such x.
    """
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"bessel_k: order must be finite and >= 0, got {nu}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("bessel_k: argument must be finite and > 0")

    m = _half_integer_m(nu)
    if m is not None:
        out = _bessel_k_half(m, arr)
    else:
        # kv costs about 20 closed-form evaluations, and lattice inputs
        # repeat their distances: evaluate each distinct argument once
        args, inverse = np.unique(arr, return_inverse=True)
        with np.errstate(over="ignore"):
            out = _sp.kv(nu, args)[inverse].reshape(arr.shape)
    if np.any(np.isinf(out)):
        raise OverflowError(
            f"bessel_k: K_{nu} overflows double precision at x={arr[np.isinf(out)].min() if arr.ndim else float(arr)}"
        )
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out
