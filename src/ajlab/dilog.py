"""Complex dilogarithm to double precision.

Principal branch, analytic on the plane cut along [1, oo).  The cut is
approached C99-style: a complex argument with a signed-zero imaginary part
selects the side, a plain real argument on the cut is refused.
"""

import cmath
import math

from .errors import BranchCutError, ConvergenceError, DomainError

_PI = math.pi
_PI2_6 = _PI * _PI / 6
_EPS = 1e-16
_MAX_TERMS = 300


# B_n / (n+1)! for n = 0..64 (B_1 = -1/2; odd n > 1 give zero), the
# coefficients of the series  Li2(1 - e^-w) = sum B_n w^(n+1) / (n+1)!
_BERN_COEFF = [
    1.0, -0.25, 0.027777777777777776, 0.0, -0.0002777777777777778, 0.0,
    4.72411186696901e-06, 0.0, -9.185773074661964e-08, 0.0,
    1.8978869988971e-09, 0.0, -4.0647616451442256e-11, 0.0,
    8.921691020456452e-13, 0.0, -1.9939295860721074e-14, 0.0,
    4.518980029619918e-16, 0.0, -1.0356517612181247e-17, 0.0,
    2.395218621026187e-19, 0.0, -5.581785874325009e-21, 0.0,
    1.3091507554183213e-22, 0.0, -3.0874198024267403e-24, 0.0,
    7.315975652702203e-26, 0.0, -1.740845657234001e-27, 0.0,
    4.1576356446139e-29, 0.0, -9.962148488284622e-31, 0.0,
    2.3940344248961652e-32, 0.0, -5.76834735536739e-34, 0.0,
    1.393179479647008e-35, 0.0, -3.3721219654850894e-37, 0.0,
    8.178208777562102e-39, 0.0, -1.987010831152386e-40, 0.0,
    4.8357785180405507e-42, 0.0, -1.1786937248718384e-43, 0.0,
    2.877096408117257e-45, 0.0, -7.032059098156028e-47, 0.0,
    1.7208603145033145e-48, 0.0, -4.2160723905604456e-50, 0.0,
    1.0340406405133039e-51, 0.0, -2.538663062599465e-53,
]


def _taylor(z: complex) -> complex:
    # sum z^k / k^2, compensated; usable for |z| <= 0.55 or so
    total = 0j
    comp = 0j
    power = 1 + 0j
    for k in range(1, _MAX_TERMS):
        power *= z
        term = power / (k * k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < _EPS * (abs(total) + _EPS):
            return total
    raise ConvergenceError("dilogarithm power series did not settle")


def _bernoulli_series(w: complex) -> complex:
    # sum B_n w^(n+1) / (n+1)!; odd coefficients beyond the first vanish
    total = _BERN_COEFF[0] * w
    w2 = w * w
    y = _BERN_COEFF[1] * w2  # compensated step from comp = 0: y = term
    t = total + y
    comp = (t - total) - y
    total = t
    wp = w  # w^(2k-1)
    for n in range(2, len(_BERN_COEFF), 2):
        wp *= w2
        term = _BERN_COEFF[n] * wp
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < _EPS * (abs(total) + _EPS):
            return total
    raise ConvergenceError("dilogarithm log series did not settle")


def _route(z: complex) -> complex:
    """Value off the cut, choosing the expansion by region."""
    r = abs(z)
    if r <= 0.5:
        return _taylor(z)
    if abs(1 - z) <= 0.5:
        if z == 1:
            return complex(_PI2_6, 0.0)
        return (_PI2_6 - cmath.log(z) * cmath.log(1 - z)
                - _taylor(1 - z))
    if r >= 2.0:
        lg = cmath.log(-z)
        return -_taylor(1 / z) - _PI2_6 - 0.5 * lg * lg
    # annulus around the unit circle: series in w = -log(1-z), which the
    # nearby cases above keep well inside its |w| < 2 pi disk
    return _bernoulli_series(-cmath.log(1 - z))


def _cut_upper(x: float) -> complex:
    """Limit from the upper half-plane at real x >= 1."""
    if x == 1.0:
        return complex(_PI2_6, 0.0)
    lx = math.log(x)
    if x >= 2.0:
        re = -_taylor(1 / x).real + _PI * _PI / 3 - 0.5 * lx * lx
    else:
        # reflection through 1-x < 0, whose logarithm is real
        re = (_PI2_6 - lx * math.log(x - 1) - _route(complex(1 - x)).real)
    return complex(re, _PI * lx)


def li2(z) -> complex:
    """Dilogarithm of a number; complex, with the cut along [1, oo).

    Real arguments below 1 give a real result (as a complex with zero
    imaginary part).  On the cut the two one-sided limits differ; they
    are selected by the sign of a zero imaginary part, and a plain real
    argument there raises instead of guessing.
    """
    if isinstance(z, complex):
        zc = z
        from_real = False
    else:
        zc = complex(float(z))
        from_real = True
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
        raise DomainError("dilogarithm of a non-finite number")
    if zc.imag == 0.0:
        x = zc.real
        if x > 1.0:
            if from_real:
                raise BranchCutError(
                    "dilogarithm on the cut (1, oo): pass complex(x, 0.0) "
                    "or complex(x, -0.0) to choose a side")
            up = _cut_upper(x)
            return up if math.copysign(1.0, zc.imag) > 0 else up.conjugate()
        if x == 1.0:
            return complex(_PI2_6, 0.0)
        return complex(_route(zc).real, 0.0)
    return _route(zc)
