"""Ratio systems, resultant elimination, operator-curve comparison."""

import cmath

import pytest
from conftest import system_residual

from ajlab.elim import (
    APolyCandidate,
    EquationSystem,
    _coordinates,
    aj_compare,
    eliminate,
    ratio_system,
)
from ajlab.errors import DegeneracyError, DomainError
from ajlab.figure8 import (
    a_polynomial_nonabelian,
    cubic_operator,
    p0_operator,
)
from ajlab.poly import LaurentMPoly, exact_divide, parse_poly
from ajlab.qhg import (
    LinearForm,
    PochFactor,
    ProperQHTerm,
    QuadForm,
    build_crossing,
    habiro_figure_eight,
)
from ajlab.ratfun import RationalFunction

P = parse_poly


def rf(num, den="1"):
    return RationalFunction(P(num), P(den))


def pm(got, want):
    """Equations are defined up to sign."""
    return got == want or got == -want


class TestRenaming:
    FULL = _coordinates(("n",), 1)[1]

    def test_exponent_scaling(self):
        assert P("Q^2 - Q^-1").subst_monomials(self.FULL) == \
            P("alpha^4 - alpha^-2")
        assert P("q*Qt1 + E").subst_monomials(self.FULL) == \
            P("q*x + l")

    def test_ratfun(self):
        r = rf("1 - Q*Qt1", "Qt1 - Q").subst(self.FULL)
        assert r == rf("1 - alpha^2*x", "x - alpha^2")

    @pytest.mark.parametrize("colors, nu, coords", [
        (("n",), 0, ()),
        (("n",), 1, ("x",)),
        (("n",), 2, ("x1", "x2")),
        (("m",), 4, ("w1", "w2", "w3", "w4")),
    ])
    def test_coordinates(self, colors, nu, coords):
        got, images = _coordinates(colors, nu)
        assert got == coords
        meridian = {"Q": P("alpha^2")} if colors == ("n",) else {
            "Qm": P("alpha")}
        assert dict(images) == {
            **meridian, **{f"Qt{i}": P(c) for i, c in enumerate(coords, 1)},
            "E": P("l")}
        # built once and read-only, since every caller shares it
        assert _coordinates(colors, nu)[1] is images
        with pytest.raises(TypeError):
            images["E"] = P("x")


class TestRatioSystems:
    def test_full_meridian_linear(self):
        sys_ = ratio_system(habiro_figure_eight(), "linear")
        assert sys_.coordinates == ("x",)
        assert len(sys_.gluing) == 1
        glue = P("alpha^2*x^2 - (1 - alpha^2 + alpha^4)*x + alpha^2")
        assert pm(sys_.gluing[0], glue)
        lon = P("(alpha^2 + l)*x - (1 + l*alpha^2)")
        assert pm(sys_.longitude, lon)

    def test_full_meridian_squared(self):
        sys_ = ratio_system(habiro_figure_eight(), "squared")
        lon = P("(1 - alpha^2*x)^2 - l^2*(x - alpha^2)^2")
        assert pm(sys_.longitude, lon)
        # same gluing either way
        assert sys_.gluing == ratio_system(habiro_figure_eight(),
                                           "linear").gluing

    def test_point_on_curve_has_small_residual(self):
        sys_ = ratio_system(habiro_figure_eight(), "linear")
        a = 0.93
        a2 = a * a
        # solve the gluing quadratic for x, then read l off the longitude
        b = -(1 - a2 + a2 * a2)
        disc = cmath.sqrt(b * b - 4 * a2 * a2)
        x = (-b + disc) / (2 * a2)
        l = (1 - a2 * x) / (x - a2)
        assert system_residual(sys_, {"alpha": a, "x": x, "l": l}) < 1e-12
        assert system_residual(sys_, {"alpha": a, "x": x + 0.1, "l": l}) > 1e-3

    def test_half_meridian_shape(self):
        sys_ = ratio_system(build_crossing(True), "squared")
        assert sys_.coordinates == ("w1", "w2", "w3", "w4")
        assert len(sys_.gluing) == 4
        names = set()
        for g in sys_.gluing:
            names.update(g.vars)
        assert "alpha" in names and "Qm" not in names

    def test_half_meridian_names_every_lattice_coordinate(self):
        # (q)_(m - k_i) / (q)_(k_i) for i = 1..10: past nine coordinates
        nu = 10
        poch = []
        for i in range(1, nu + 1):
            poch += [PochFactor(LinearForm.make({"m": 1, f"k{i}": -1})),
                     PochFactor(LinearForm.make({f"k{i}": 1}), denom=True)]
        term = ProperQHTerm(("m",), nu, tuple(poch), QuadForm.make({}))
        sys_ = ratio_system(term, "squared")
        ws = [f"w{i}" for i in range(1, nu + 1)]
        assert sys_.coordinates == tuple(ws)
        for i, g in enumerate(sys_.gluing):
            assert set(g.vars) == {"alpha", ws[i]}
        assert set(sys_.longitude.vars) == {"alpha", "l", *ws}

    def test_half_meridian_refuses_linear(self):
        with pytest.raises(DomainError):
            ratio_system(build_crossing(True), "linear")

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            ratio_system(habiro_figure_eight(), "cubed")


class TestEliminate:
    def test_linear_longitude_recovers_curve(self):
        cand = eliminate(ratio_system(habiro_figure_eight(), "linear"))
        assert cand.poly == a_polynomial_nonabelian()
        assert cand.dropped == ()

    def test_squared_longitude_gives_mirror_product(self):
        cand = eliminate(ratio_system(habiro_figure_eight(), "squared"))
        a41 = a_polynomial_nonabelian()
        li = a41.vars.index("l")
        mirror = LaurentMPoly(a41.vars, {
            e: -c if e[li] % 2 else c for e, c in a41.terms.items()})
        assert cand.poly == a41 * mirror

    def test_bad_order_refused(self):
        sys_ = ratio_system(habiro_figure_eight(), "linear")
        with pytest.raises(DomainError):
            eliminate(sys_, order=("y",))

    def test_shared_factor_degenerates(self):
        sys_ = EquationSystem(
            gluing=(P("x^2 - alpha^2"),),
            longitude=P("(x - alpha)*(l - 1)"),
            coordinates=("x",), longitude_kind="linear")
        with pytest.raises(DegeneracyError):
            eliminate(sys_)

    def test_lonely_coordinate_degenerates(self):
        sys_ = EquationSystem(
            gluing=(P("alpha - 2"),),
            longitude=P("x*l - 1"),
            coordinates=("x",), longitude_kind="linear")
        with pytest.raises(DegeneracyError):
            eliminate(sys_)

    def test_unit_factors_recorded(self):
        sys_ = EquationSystem(
            gluing=(P("alpha*x - alpha"),),
            longitude=P("x*l - alpha"),
            coordinates=("x",), longitude_kind="linear")
        cand = eliminate(sys_)
        assert cand.poly == P("l - alpha")
        assert any("alpha" in d for d in cand.dropped)

    def test_multiplicity_reduced_and_recorded(self):
        sys_ = EquationSystem(
            gluing=(P("x - alpha"),),
            longitude=P("(x*l - alpha)^2"),
            coordinates=("x",), longitude_kind="squared")
        cand = eliminate(sys_)
        assert cand.poly == P("l - 1")
        assert any("repeated" in d for d in cand.dropped)


class TestOperatorComparison:
    def test_inhomogeneous_part_matches_curve(self):
        cand = eliminate(ratio_system(habiro_figure_eight(), "linear"))
        cmp_ = aj_compare(p0_operator(), cand)
        assert cmp_.match
        assert cmp_.operator_poly == a_polynomial_nonabelian()
        assert cmp_.unit == rf("-alpha^-2", "alpha^2 + 1")
        assert not cmp_.unit.is_zero()

    def test_homogeneous_operator_carries_trivial_factor(self):
        full = P("l - 1") * a_polynomial_nonabelian()
        cmp_ = aj_compare(cubic_operator(), full)
        assert cmp_.match
        assert cmp_.unit == rf("-alpha^-2", "alpha^4 + 2*alpha^2 + 1")

    def test_mismatch_reported(self):
        cand = eliminate(ratio_system(habiro_figure_eight(), "squared"))
        cmp_ = aj_compare(p0_operator(), cand)
        assert not cmp_.match

    def test_divide_abelian(self):
        a41 = a_polynomial_nonabelian()
        # the abelian factor l - 1 divides off exactly, and only where
        # it is a factor
        assert exact_divide(P("l - 1") * a41, P("l - 1")) == a41
        with pytest.raises(DomainError):
            exact_divide(a41, P("l - 1"))
