"""Dilogarithm numerics: closed forms, oracle grid, cut handling."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from ajlab import dilog
from ajlab.dilog import _BERN_COEFF, li2
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
    b = _bernoulli_numbers(22)
    assert b[:5] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    want = [float(b[n] / math.factorial(n + 1)) for n in range(21)]
    assert len(_BERN_COEFF) == 21
    assert all(type(x) is float for x in _BERN_COEFF)
    assert _BERN_COEFF == want
    # the first term left out, at the largest |u| = pi/3 the maps allow
    assert abs(float(b[22] / math.factorial(23))) * (math.pi / 3) ** 23 < 1e-17


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
        # points straddling the routing boundaries: |z| = 1 (Re z <= 1/2),
        # |1 - z| = 1 (Re z > 1/2), Re z = 1/2, and the corner e^(i pi/3)
        c, s = 0.5, math.sqrt(3) / 2
        pts = [0.999j, 1.001j, -0.999 + 0j, -1.001 + 0j,
               -0.6 + 0.799j, -0.6 + 0.801j,
               1 + 0.999j, 1 + 1.001j, 1.999 + 0.01j, 2.001 + 0.01j,
               1.6 - 0.799j, 1.6 - 0.801j,
               0.499 + 0.3j, 0.501 + 0.3j, 0.499 - 0.9j, 0.501 - 0.9j,
               complex(c, s), complex(c - 1e-9, s), complex(c + 1e-9, s),
               complex(c, s + 1e-9), complex(c, s - 1e-9),
               complex(c, -s), complex(c + 1e-9, -s - 1e-9)]
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


# -- seeded battery against mpmath -------------------------------------------
# Every branch of `_route` and `_cut_upper`, both sides of every boundary
# between them, and the ends of the exponent range.

def _cut_ref(x, side):
    # the limit from the upper (side = 1) or lower (side = -1) half-plane
    mpmath.mp.dps = 40
    v = mpmath.polylog(2, mpmath.mpc(x, side * mpmath.mpf("1e-300")))
    return complex(float(v.real), float(v.imag))


def _battery(region, count=100):
    rng = random.Random(f"li2-{region}")

    def sign():
        return rng.choice((1, -1))

    def scale(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    def straddle():
        # an offset of 0 to 1e-3, either sign: both sides of a boundary
        return sign() * rng.choice((0.0, 1e-15, 1e-12, 1e-9, 1e-6,
                                    1e-3)) * rng.random()

    def arc():
        # the arguments where |z| = 1 has Re z <= 1/2
        return sign() * rng.uniform(math.pi / 3, math.pi)

    def corner():
        z = cmath.exp(1j * math.pi / 3) * complex(1 + straddle(), straddle())
        return z if sign() > 0 else z.conjugate()

    def outside():
        while True:
            z = cmath.rect(scale(0, 2), rng.uniform(-math.pi, math.pi))
            if abs(1 - z) > 1:
                return z

    def edge():
        # x < 2 and x >= 2 take the two branches of `_cut_upper`
        return rng.choice((1 + scale(-16, 0), 2 + straddle(),
                           scale(0, 300)))

    draw = {
        # |z| <= 1, Re z <= 1/2: the series in -log(1 - z) directly
        "inside": lambda: cmath.rect(rng.random() ** 0.5, arc()),
        # |1 - z| <= 1, Re z > 1/2: reflection
        "reflection": lambda: 1 - cmath.rect(rng.random() ** 0.5, arc()),
        # everything else: inversion
        "outside": outside,
        # both sides of |z| = 1, of |1 - z| = 1 and of Re z = 1/2
        "near_circle": lambda: cmath.rect(1 + straddle(), arc()),
        "reflection_circle": lambda: 1 - cmath.rect(1 + straddle(), arc()),
        "half_line": lambda: complex(0.5 + straddle(), rng.uniform(-1.5, 1.5)),
        # the corners e^(+-i pi/3), where the three regions meet
        "corner": corner,
        "tiny": lambda: cmath.rect(scale(-300, -1), rng.uniform(-3.2, 3.2)),
        "huge": lambda: cmath.rect(scale(1, 300), rng.uniform(-3.2, 3.2)),
        # within 1e-12 of 1, off the real axis
        "near_one": lambda: 1 + cmath.rect(scale(-16, -12),
                                           sign() * rng.uniform(1e-3, 3.14)),
        # plain floats below 1 take the real path
        "real": lambda: rng.choice((-scale(0, 300), rng.uniform(-1, 1),
                                    1 - scale(-16, 0), -scale(-300, 0))),
        "cut_upper": lambda: complex(edge(), 0.0),
        "cut_lower": lambda: complex(edge(), -0.0),
    }[region]
    return [draw() for _ in range(count)]


REGIONS = ["inside", "reflection", "outside", "near_circle",
           "reflection_circle", "half_line", "corner", "tiny", "huge",
           "near_one", "real", "cut_upper", "cut_lower"]


def _branch(z):
    """The map `li2` takes for z, worked out apart from `dilog`."""
    z = complex(z)
    if z.imag == 0.0 and z.real > 1.0:
        return "cut, x < 2" if z.real < 2.0 else "cut, x >= 2"
    if abs(z) <= 1 and z.real <= 0.5:
        return "direct"
    return "reflection" if abs(1 - z) <= 1 else "inversion"


def test_battery_reaches_every_branch_from_both_sides():
    hit = {r: {_branch(z) for z in _battery(r)} for r in REGIONS}
    assert hit["inside"] == {"direct"}
    assert hit["reflection"] == {"reflection"}
    assert hit["outside"] == {"inversion"}
    assert hit["near_circle"] == {"direct", "inversion"}
    assert hit["reflection_circle"] == {"reflection", "inversion"}
    assert hit["half_line"] == {"direct", "reflection", "inversion"}
    assert hit["corner"] == {"direct", "reflection", "inversion"}
    assert hit["cut_upper"] == hit["cut_lower"] == {"cut, x < 2",
                                                    "cut, x >= 2"}
    tiny = [abs(z) for z in _battery("tiny")]
    huge = [abs(z) for z in _battery("huge")]
    assert min(tiny) < 1e-290 and max(huge) > 1e290


@pytest.mark.parametrize("region", REGIONS)
def test_li2_matches_mpmath(region):
    worst = 0.0
    for z in _battery(region):
        got = li2(z)
        if isinstance(z, complex) and z.imag == 0.0:
            want = _cut_ref(z.real, math.copysign(1.0, z.imag))
        else:
            want = ref(z)
        worst = max(worst, abs(got - want) / abs(want))
        # conjugate symmetry is exact, the cut edges included
        assert li2(z.conjugate()) == got.conjugate(), z
    assert worst <= 1e-15, (region, worst)


def test_series_matches_mpmath_on_the_u_disk():
    # the polynomial alone on |u| <= pi/3, the image of the region
    mpmath.mp.dps = 40
    rng = random.Random("li2-series")
    worst = 0.0
    for _ in range(100):
        u = cmath.rect(math.pi / 3 * rng.random() ** 0.5,
                       rng.uniform(-math.pi, math.pi))
        want = mpmath.polylog(2, 1 - mpmath.exp(-mpmath.mpc(u)))
        want = complex(float(want.real), float(want.imag))
        worst = max(worst, abs(dilog._series(u) - want) / abs(want))
    assert worst <= 1e-15
