"""Fixtures shared by the test modules."""

import itertools
from fractions import Fraction

import pytest

from ajlab.errors import DomainError, PoleError
from ajlab.laurent import format_poly
from ajlab.ore import OreOperator, ore_apply


# -- the float oracle ---------------------------------------------------------
# `ajlab.potential` evaluates polynomials in floats only through its compiled
# kernels.  These walk the terms instead, with the same float operations in
# the same order, so the kernels are checked against them bit for bit; the
# tests import them with `from conftest import ...`.

def eval_complex(p, point):
    """The LaurentMPoly p at a point given by name: from 0j, add the terms
    in insertion order, each its complex coefficient times its variables'
    powers left to right.  0 to a negative power is a PoleError."""
    for v in p.vars:
        if v not in point:
            raise DomainError(f"no value supplied for variable {v}")
    total = 0j
    for e, c in p.terms.items():
        t = complex(c)
        for v, k in zip(p.vars, e):
            if k:
                try:
                    t *= complex(point[v]) ** k
                except ZeroDivisionError:
                    raise PoleError(
                        f"negative power of {v} at {v} = 0") from None
        total += t
    return total


def eval_ratfun_complex(r, point):
    """The RationalFunction r at the point; a zero denominator, seen
    before the numerator is walked, is a PoleError."""
    d = eval_complex(r.den, point)
    if d == 0:
        raise PoleError(f"denominator {format_poly(r.den)} vanishes at the "
                        "evaluation point")
    return eval_complex(r.num, point) / d


def system_residual(system, point):
    """Largest absolute value of any equation of the EquationSystem."""
    return max(abs(eval_complex(p, point)) for p in system.equations())


def _telescoped_residual(p0, rs, f, n, bounds, qval):
    """Residual of the telescoped sum over a box.

    With G(n) the box sum of the sequence f(n, .), returns

        (p0 . G)(n)  +  sum_i  sum over the top face (ki = hi_i + 1)
                              of (r_i . f)(n, k)

    which collapses to the bottom-face contribution when the certificate
    is exact and the top face leaves the support.
    """
    if len(bounds) != p0.nu or p0.nu == 0:
        raise DomainError("bounds must give (lo, hi) per lattice direction")
    qval = Fraction(qval)

    def g(pt, qv):
        (m,) = pt
        box = itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
        return sum((f((m,) + k, qv) for k in box), Fraction(0))

    p0_seq = OreOperator(0, {(e[0],): c for e, c in p0.terms.items()})
    total = ore_apply(p0_seq, g, (n,), qval)
    for i, r in enumerate(rs, start=1):
        face = [range(lo, hi + 1) for lo, hi in bounds]
        face[i - 1] = (bounds[i - 1][1] + 1,)
        for k in itertools.product(*face):
            total += ore_apply(r, f, (n,) + k, qval)
    return total


@pytest.fixture()
def telescope_sum_check():
    """The telescoped-sum residual, shared by the certificate tests of
    test_ore and criterion 9 of test_acceptance:
    telescope_sum_check(p0, rs, f, n, bounds, qval)."""
    return _telescoped_residual
