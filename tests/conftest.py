"""Fixtures shared by the test modules."""

import itertools
from fractions import Fraction

import pytest

from ajlab.errors import DomainError
from ajlab.ore import OreOperator, ore_apply


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
