"""Dilogarithm numerics: closed forms, oracle grid, cut handling."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from ajlab import dilog
from ajlab.dilog import _BERN_COEFF, _MAX_TERMS, li2
from ajlab.errors import BranchCutError, DomainError

CATALAN = 0.915965594177219015054603514932


def ref(z):
    mpmath.mp.dps = 40
    v = mpmath.polylog(2, mpmath.mpc(z))
    return complex(float(v.real), float(v.imag))


def _bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n with B_1 = -1/2, by the defining recurrence."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        c = 1  # binomial(m+1, k), updated incrementally
        for k in range(m):
            acc += c * b[k]
            c = c * (m + 1 - k) // (k + 1)
        b.append(-acc / (m + 1))
    return b


def test_bernoulli_table_matches_the_recurrence():
    # the series coefficients B_n / (n+1)! are a literal table; each must
    # be the correctly rounded float of the exact value
    b = _bernoulli_numbers(64)
    assert b[:5] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    want = [float(b[n] / math.factorial(n + 1)) for n in range(65)]
    assert len(_BERN_COEFF) == 65
    assert all(type(x) is float for x in _BERN_COEFF)
    assert _BERN_COEFF == want


class TestClosedForms:
    def test_pinned_values(self):
        pi = math.pi
        assert li2(0) == 0
        assert abs(li2(1.0) - pi**2 / 6) < 1e-15
        assert abs(li2(-1) + pi**2 / 12) < 1e-15
        assert abs(li2(0.5) - (pi**2 / 12 - math.log(2)**2 / 2)) < 1e-15
        assert abs(li2(1j) - complex(-pi**2 / 48, CATALAN)) < 1e-15
        assert abs(li2(Fraction(1, 2)) - li2(0.5)) == 0

    def test_sixth_root_of_unity(self):
        z = cmath.exp(1j * math.pi / 3)
        got = li2(z)
        assert abs(got.real - math.pi**2 / 36) < 1e-15
        assert abs(got.imag - 1.0149416064096537) < 1e-15

    def test_real_arguments_stay_real(self):
        for x in (-7.5, -2.0, -0.3, 0.0, 0.25, 0.9, 0.999):
            assert li2(x).imag == 0.0

    def test_landen_identity(self):
        # Li2(z) + Li2(z/(z-1)) = -log(1-z)^2 / 2 left of the cut
        for z in (-0.7 + 0.2j, 0.3 - 0.4j, -2.5 + 1j, 0.1 + 0j):
            lhs = li2(z) + li2(z / (z - 1))
            rhs = -cmath.log(1 - z) ** 2 / 2
            assert abs(lhs - rhs) < 1e-14

    def test_inversion_identity(self):
        for z in (-3 + 1j, 0.2 + 2j, -0.4 - 0.9j):
            lhs = li2(z) + li2(1 / z)
            rhs = -math.pi**2 / 6 - cmath.log(-z) ** 2 / 2
            assert abs(lhs - rhs) < 1e-14

    def test_conjugate_symmetry(self):
        for z in (0.3 + 0.7j, -1.2 + 0.4j, 2.5 + 0.1j, 0.9 - 1.3j):
            assert li2(z.conjugate()) == li2(z).conjugate()

    def test_derivative(self):
        # d/dz Li2 = -log(1-z)/z, via central differences
        h = 1e-5
        for z in (0.4 + 0.3j, -1.5 + 1j, 1.3 + 0.8j):
            num = (li2(z + h) - li2(z - h)) / (2 * h)
            assert abs(num + cmath.log(1 - z) / z) < 1e-8


class TestOracleGrid:
    def test_rectangle(self):
        worst = 0.0
        for re in range(-30, 31, 3):
            for im in range(-30, 31, 3):
                z = complex(re / 10, im / 10)
                if z.imag == 0.0 and z.real >= 1.0:
                    continue
                err = abs(li2(z) - ref(z)) / max(1.0, abs(ref(z)))
                worst = max(worst, err)
        assert worst < 1e-14

    def test_near_boundaries(self):
        # points straddling the internal routing radii
        pts = [0.499 + 0.01j, 0.501 + 0.01j, 1.999j, 2.001j,
               0.52 + 0.01j, 1.45 + 0.02j, -1.999 + 0j, -2.001 + 0j,
               0.999 + 0.445j, 1.001 + 0.447j]
        for z in pts:
            assert abs(li2(z) - ref(z)) < 1e-14


class TestCut:
    def test_plain_real_refused(self):
        for x in (1.5, 2, Fraction(7, 2), 100.0):
            with pytest.raises(BranchCutError):
                li2(x)

    def test_endpoint_is_fine(self):
        assert abs(li2(1.0) - math.pi**2 / 6) < 1e-15
        assert li2(complex(1.0, 0.0)) == li2(complex(1.0, -0.0))

    def test_signed_zero_selects_side(self):
        for x in (1.5, 2.0, 3.7, 20.0):
            up = li2(complex(x, 0.0))
            dn = li2(complex(x, -0.0))
            assert up == dn.conjugate()
            assert up.imag == pytest.approx(math.pi * math.log(x), rel=1e-14)
            # the upper limit continues the upper half-plane values
            assert abs(up - ref(complex(x, 1e-200))) < 1e-13
            assert abs(dn - ref(x)) < 1e-13  # oracle continues from below

    def test_sides_continue_halfplane_values(self):
        x = 2.5
        seq = [li2(complex(x, 10.0 ** -k)) for k in range(3, 14, 2)]
        lim = li2(complex(x, 0.0))
        gaps = [abs(v - lim) for v in seq]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-11

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            li2(float("inf"))
        with pytest.raises(DomainError):
            li2(complex(0, float("nan")))


# -- bit-identity of the compensated series ----------------------------------
# The oracles sum through a separate Kahan step function, as the series were
# first written; the inlined sums must give the same bits.

def _kahan_add(total, comp, term):
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _oracle_taylor(z):
    total = 0j
    comp = 0j
    power = 1 + 0j
    for k in range(1, _MAX_TERMS):
        power *= z
        term = power / (k * k)
        total, comp = _kahan_add(total, comp, term)
        if abs(term) < 1e-16 * (abs(total) + 1e-16):
            return total
    raise AssertionError("oracle power series did not settle")


def _oracle_bernoulli_series(w):
    total = _BERN_COEFF[0] * w
    comp = 0j
    w2 = w * w
    total, comp = _kahan_add(total, comp, _BERN_COEFF[1] * w2)
    wp = w
    for n in range(2, len(_BERN_COEFF), 2):
        wp *= w2
        term = _BERN_COEFF[n] * wp
        total, comp = _kahan_add(total, comp, term)
        if abs(term) < 1e-16 * (abs(total) + 1e-16):
            return total
    raise AssertionError("oracle log series did not settle")


def _seeded_points(region, count=150, seed=0):
    rng = random.Random(f"{region}-{seed}")

    def polar(lo, hi, centre=0):
        return centre + cmath.rect(rng.uniform(lo, hi),
                                   rng.uniform(0, 2 * math.pi))

    return [{
        "inside": lambda: polar(0.0, 0.5),
        "near_circle": lambda: polar(0.95, 1.05),
        "outside": lambda: polar(2.0, 60.0),
        "reflection": lambda: polar(0.0, 0.5, centre=1),
        "cut_upper": lambda: complex(rng.uniform(1.0, 10.0), 0.0),
        "cut_lower": lambda: complex(rng.uniform(1.0, 10.0), -0.0),
    }[region]() for _ in range(count)]


@pytest.mark.parametrize("region", ["inside", "near_circle", "outside",
                                    "reflection", "cut_upper", "cut_lower"])
def test_li2_is_bit_identical_to_the_kahan_oracle(monkeypatch, region):
    zs = _seeded_points(region)
    got = [repr(li2(z)) for z in zs]
    monkeypatch.setattr(dilog, "_taylor", _oracle_taylor)
    monkeypatch.setattr(dilog, "_bernoulli_series", _oracle_bernoulli_series)
    assert got == [repr(li2(z)) for z in zs]


def test_series_are_bit_identical_to_the_kahan_oracle():
    for z in _seeded_points("inside", 300, seed=1) + [0j, -0j, 0.5 + 0j]:
        assert repr(dilog._taylor(z)) == repr(_oracle_taylor(z))
    # the log series runs on w = -log(1 - z) for the annulus points away
    # from the reflection disk
    for z in _seeded_points("near_circle", 300, seed=1):
        if abs(1 - z) <= 0.5:
            continue
        w = -cmath.log(1 - z)
        assert (repr(dilog._bernoulli_series(w))
                == repr(_oracle_bernoulli_series(w)))
