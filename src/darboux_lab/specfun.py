"""Special functions for the closed-form seed solutions.

Everything here is a direct power-series or recurrence evaluation with
explicit convergence accounting. The series evaluators work elementwise on
whole grids and return the values together with how many terms were consumed
and whether the tail dropped below the stopping threshold.

Design constraints observed throughout:

* series are truncated at MAX_TERMS = 500 terms and report non-convergence
  instead of silently returning a partial sum;
* a terminating (polynomial) hypergeometric series is detected from an exact
  nonpositive-integer numerator parameter and summed exactly, never routed
  through an asymptotic or connection formula;
* the Gauss series near the right endpoint of its convergence disk is
  replaced by the two-term 1-z connection formula, with Gamma-function poles
  in the connection coefficients treated as exact zeros.
"""

from __future__ import annotations

import math

import numpy as np

MAX_TERMS = 500
_TERM_STOP = 1e-17
_GAUSS_DIRECT_LIMIT = 0.75

# Lanczos approximation, g = 7, 9 coefficients. Classic double-precision set;
# relative error below 1e-13 on the positive axis.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == round(x)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0 (Lanczos approximation).

    Args:
        x: strictly positive argument.

    Returns:
        ln Gamma(x).

    Raises:
        ValueError: if x <= 0.
    """
    if not x > 0.0:
        raise ValueError("log_gamma requires x > 0")
    if x < 0.5:
        # shift into the Lanczos sweet spot; Gamma(x) = Gamma(x + 1)/x
        return log_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, coef in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coef / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _sin_pi(x: float) -> float:
    """sin(pi x) without catastrophic loss for large arguments."""
    n = math.floor(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if (n % 2) else s


def _gamma_sign_log(x: float):
    """(sign, ln|Gamma(x)|) for real non-pole x; None at poles.

    Negative arguments go through the reflection formula, so the only inputs
    rejected are the nonpositive integers.
    """
    if _is_nonpositive_integer(x):
        return None
    if x > 0.0:
        return 1.0, log_gamma(x)
    s = _sin_pi(x)
    sign = 1.0 if s > 0.0 else -1.0
    return sign, math.log(math.pi) - math.log(abs(s)) - log_gamma(1.0 - x)


def _poch_ratio_term_count(*numerators: float):
    """Exact truncation degree if any numerator parameter terminates the series."""
    degree = None
    for p in numerators:
        if _is_nonpositive_integer(p):
            n = int(-p)
            degree = n if degree is None else min(degree, n)
    return degree


def _kummer_vec(a: float, c: float, z: np.ndarray):
    """Confluent series 1F1(a; c; z) elementwise.

    A nonpositive-integer a terminates the series exactly after |a| + 1
    terms. Returns (values, terms_used, converged_mask); terms_used is the
    maximum over elements.

    Raises:
        ValueError: if c is a nonpositive integer.
    """
    if _is_nonpositive_integer(c):
        raise ValueError("1F1 undefined for nonpositive-integer denominator parameter")
    z = np.asarray(z, dtype=float)
    term = np.ones_like(z)
    total = np.ones_like(z)
    converged = np.zeros(z.shape, dtype=bool)
    degree = _poch_ratio_term_count(a)
    terms = 1
    prev_small = np.zeros(z.shape, dtype=bool)
    for k in range(MAX_TERMS - 1):
        if degree is not None and k >= degree:
            converged[:] = True
            break
        term = term * ((a + k) / (c + k)) * z / (k + 1.0)
        total = total + term
        terms = k + 2
        small = np.abs(term) <= _TERM_STOP * np.abs(total)
        converged |= small & prev_small
        prev_small = small
        if converged.all():
            break
    if degree is not None and degree == 0:
        converged[:] = True
    return total, terms, converged


def _gauss_series_vec(a: float, b: float, c: float, z: np.ndarray):
    """Direct Gauss series on |z| < 1 elementwise; same contract as _kummer_vec."""
    if _is_nonpositive_integer(c):
        raise ValueError("2F1 undefined for nonpositive-integer denominator parameter")
    z = np.asarray(z, dtype=float)
    term = np.ones_like(z)
    total = np.ones_like(z)
    converged = np.zeros(z.shape, dtype=bool)
    degree = _poch_ratio_term_count(a, b)
    terms = 1
    prev_small = np.zeros(z.shape, dtype=bool)
    for k in range(MAX_TERMS - 1):
        if degree is not None and k >= degree:
            converged[:] = True
            break
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0))) * z
        total = total + term
        terms = k + 2
        small = np.abs(term) <= _TERM_STOP * np.abs(total)
        converged |= small & prev_small
        prev_small = small
        if converged.all():
            break
    if degree is not None and degree == 0:
        converged[:] = True
    return total, terms, converged


def _connection_coefficient(num1, num2, den1, den2):
    """Gamma(num1)Gamma(num2) / (Gamma(den1)Gamma(den2)) with pole-aware zeros."""
    top1 = _gamma_sign_log(num1)
    top2 = _gamma_sign_log(num2)
    if top1 is None or top2 is None:
        raise ValueError("connection coefficient has a pole in the numerator")
    bot1 = _gamma_sign_log(den1)
    bot2 = _gamma_sign_log(den2)
    if bot1 is None or bot2 is None:
        # reciprocal of a Gamma pole: the whole coefficient vanishes
        return 0.0
    sign = top1[0] * top2[0] * bot1[0] * bot2[0]
    return sign * math.exp(top1[1] + top2[1] - bot1[1] - bot2[1])


def _gauss_vec(a: float, b: float, c: float, z: np.ndarray):
    """2F1(a, b; c; z) for 0 <= z < 1 elementwise.

    Direct series for z <= 0.75 or for terminating parameter sets; otherwise
    the linear 1-z connection formula with two fast inner series. Same
    return contract as _kummer_vec.

    Raises:
        ValueError: z outside [0, 1), c a nonpositive integer, or integer
            c - a - b with z beyond the direct-series range.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise ValueError("2F1 backend requires 0 <= z < 1")
    terminating = _poch_ratio_term_count(a, b) is not None
    near = (z > _GAUSS_DIRECT_LIMIT) & (not terminating)
    out = np.empty_like(z)
    terms_total = 1
    converged = np.ones(z.shape, dtype=bool)
    if (~near).any():
        val, terms, conv = _gauss_series_vec(a, b, c, z[~near])
        out[~near] = val
        converged[~near] = conv
        terms_total = max(terms_total, terms)
    if near.any():
        cab = c - a - b
        if cab == round(cab):
            raise ValueError(
                "degenerate 2F1 connection (c - a - b integer); "
                "use the numeric seed backend for this parameter set"
            )
        w = 1.0 - z[near]
        t1 = _connection_coefficient(c, cab, c - a, c - b)
        t2 = _connection_coefficient(c, -cab, a, b)
        f1 = np.zeros_like(w)
        f2 = np.zeros_like(w)
        conv_near = np.ones(w.shape, dtype=bool)
        if t1 != 0.0:
            f1, terms1, conv1 = _gauss_series_vec(a, b, a + b - c + 1.0, w)
            conv_near &= conv1
            terms_total = max(terms_total, terms1)
        if t2 != 0.0:
            f2, terms2, conv2 = _gauss_series_vec(c - a, c - b, cab + 1.0, w)
            conv_near &= conv2
            terms_total = max(terms_total, terms2)
        out[near] = t1 * f1 + t2 * np.power(w, cab) * f2
        converged[near] = conv_near
    return out, terms_total, converged


def _laguerre_vec(n: int, alpha: float, y: np.ndarray):
    """Generalized Laguerre polynomial and derivative by three-term recurrence.

    Returns (L_n^{(alpha)}(y), d/dy L_n^{(alpha)}(y)) elementwise.
    """
    if n != int(n) or n < 0:
        raise ValueError("polynomial degree must be a nonnegative integer")
    n = int(n)
    y = np.asarray(y, dtype=float)
    if n == 0:
        return np.ones_like(y), np.zeros_like(y)
    l_prev = np.ones_like(y)
    l_cur = 1.0 + alpha - y
    d_prev = np.zeros_like(y)
    d_cur = -np.ones_like(y)
    for k in range(1, n):
        l_next = ((2.0 * k + 1.0 + alpha - y) * l_cur - (k + alpha) * l_prev) / (k + 1.0)
        d_next = ((2.0 * k + 1.0 + alpha - y) * d_cur - l_cur - (k + alpha) * d_prev) / (k + 1.0)
        l_prev, l_cur = l_cur, l_next
        d_prev, d_cur = d_cur, d_next
    return l_cur, d_cur
