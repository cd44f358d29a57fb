"""Complex dilogarithm to double precision.

Principal branch, analytic on the plane cut along [1, oo).  The cut is
approached C99-style: a complex argument with a signed-zero imaginary part
selects the side, a plain real argument on the cut is refused.

Every argument is mapped into |z| <= 1, Re z <= 1/2 ('t Hooft and Veltman,
Nucl. Phys. B153, 1979) by one of three maps: none there, the reflection
z -> 1 - z where |1 - z| <= 1 and Re z > 1/2, and the inversion z -> 1/z
elsewhere.  In that region u = -log(1 - z) has |u| <= pi/3, and a fixed
Bernoulli polynomial in u of degree 21 gives Li2 with a truncation error
below 1e-18.  Rounding dominates: against mpmath at 40 digits the largest
relative error seen is 9.6e-16, where the inversion meets the corners
e^(+-i pi/3).  Nothing iterates to a tolerance.
"""

import cmath
import math
from fractions import Fraction

from .errors import BranchCutError, DomainError

_PI = math.pi
_PI2_6 = _PI * _PI / 6
_NUMBER = (complex, float, int, Fraction)  # what the float path takes


def _number(v, what: str) -> complex:
    """v as a complex; else (a bool too) a DomainError naming `what`."""
    if isinstance(v, _NUMBER) and type(v) is not bool:
        try:
            return complex(v)
        except OverflowError:
            raise DomainError(f"{what} does not fit a float") from None
    raise DomainError(f"{what} = {v!r} is not a number")


# B_n / (n+1)! for n = 0..20 (B_1 = -1/2; odd n > 1 give zero), the
# coefficients of the series  Li2(1 - e^-u) = sum B_n u^(n+1) / (n+1)!
_BERN_COEFF = [
    1.0, -0.25, 0.027777777777777776, 0.0, -0.0002777777777777778, 0.0,
    4.72411186696901e-06, 0.0, -9.185773074661964e-08, 0.0,
    1.8978869988971e-09, 0.0, -4.0647616451442256e-11, 0.0,
    8.921691020456452e-13, 0.0, -1.9939295860721074e-14, 0.0,
    4.518980029619918e-16, 0.0, -1.0356517612181247e-17,
]
_HORNER = _BERN_COEFF[18:1:-2]  # n = 18, 16, .., 2


def _series(u: complex) -> complex:
    # u + B_1 u^2/2! + sum_{k=1..10} B_2k u^(2k+1)/(2k+1)!, Horner in u^2
    u2 = u * u
    p = _BERN_COEFF[20]
    for c in _HORNER:
        p = p * u2 + c
    return u + u2 * (u * p - 0.25)


def _log1m(z: complex) -> complex:
    # log(1 - z), keeping relative accuracy as z -> 0
    x, y = z.real, z.imag
    return complex(0.5 * math.log1p(x * (x - 2) + y * y),
                   math.atan2(-y, 1 - x))


def _route(z: complex) -> complex:
    """Value off the cut: map z into |z| <= 1, Re z <= 1/2 and sum there."""
    x, y = z.real, z.imag
    if x <= 0.5:
        if x * x + y * y <= 1:
            return _series(-_log1m(z))
    elif (1 - x) * (1 - x) + y * y <= 1:
        # reflection: 1 - z lies in the region, and -log z is its u
        lz = cmath.log(z)
        return _PI2_6 - lz * cmath.log(1 - z) - _series(-lz)
    # inversion: 1/z lies in the region
    lg = cmath.log(-z)
    return -_series(-_log1m(1 / z)) - _PI2_6 - 0.5 * lg * lg


def _cut_upper(x: float) -> complex:
    """Limit from the upper half-plane at real x >= 1."""
    if x == 1.0:
        return complex(_PI2_6, 0.0)
    lx = math.log(x)
    if x >= 2.0:
        # inversion through 1/x <= 1/2
        re = -_route(complex(1 / x)).real + _PI * _PI / 3 - 0.5 * lx * lx
    else:
        # reflection through 1-x < 0, whose logarithm is real
        re = (_PI2_6 - lx * math.log(x - 1) - _route(complex(1 - x)).real)
    return complex(re, _PI * lx)


def li2(z) -> complex:
    """Dilogarithm of a complex, float, int or `Fraction` (anything else, a
    bool included, is a DomainError), with the cut along [1, oo).

    Real arguments below 1 give a real result (as a complex with zero
    imaginary part).  On the cut the two one-sided limits differ; they
    are selected by the sign of a zero imaginary part, and a plain real
    argument there raises instead of guessing.

    The argument goes through one of three maps (none, z -> 1 - z or
    z -> 1/z) into |z| <= 1, Re z <= 1/2, where one fixed polynomial in
    -log(1 - z) is summed: no loop runs to a tolerance, and the largest
    relative error seen against mpmath is below 1e-15.
    """
    from_real = not isinstance(z, complex)
    zc = _number(z, "dilogarithm argument") if from_real else z
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
