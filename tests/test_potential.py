"""Potential values, exact derivative forms, saddle points, asymptotics."""

import cmath
import math
import random
import re

import pytest

from ajlab import potential
from ajlab.dilog import li2
from ajlab.elim import ratio_system
from ajlab.errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    SingularityError,
)
from ajlab.potential import (
    PotentialSpec,
    _rf_at_unit_root,
    asymptotic_check,
    builtin_potential,
    coordinate_names,
    crossing_potential,
    derivative_forms,
    phi_eval,
    prop_comp_check,
    saddle_system,
    solve_saddle,
    volume,
)
from ajlab.poly import parse_poly
from ajlab.qhg import habiro_figure_eight
from ajlab.ratfun import RationalFunction


W_GENERIC = (1.1 + 0.2j, 0.8 - 0.3j, 1.3 + 0.1j, 0.7 + 0.45j)


def test_symmetric_point_vanishes():
    for positive in (True, False):
        v = phi_eval(crossing_potential(positive), 1.0, (1, 1, 1, 1))
        assert abs(v) < 1e-14
    assert phi_eval(builtin_potential(), 1.0, 1.0) == 0


def test_builtin_value_at_the_saddle():
    x = cmath.exp(-1j * math.pi / 3)
    v = phi_eval(builtin_potential(), -1.0, x)
    expect = complex(-2 * math.pi ** 2 / 3,
                     2 * li2(cmath.exp(1j * math.pi / 3)).imag)
    assert abs(v - expect) < 1e-13
    assert abs(phi_eval(builtin_potential(mirror=True), -1.0, x) + v) < 1e-15


def _check_gradients(spec, alpha, coords):
    """exp of a central-difference derivative in each log coordinate must
    reproduce the exact rational form."""
    forms = derivative_forms(spec)
    names = coordinate_names(spec)
    env = {**dict(zip(names, map(complex, coords))), "alpha": complex(alpha)}
    h = 1e-6
    for var in names + ("alpha",):
        def at(eps):
            shifted = dict(env)
            shifted[var] = shifted[var] * cmath.exp(eps)
            a = shifted.pop("alpha")
            return phi_eval(spec, a, shifted)
        numeric = cmath.exp((at(h) - at(-h)) / (2 * h))
        exact = (forms[var].num.eval_complex(env)
                 / forms[var].den.eval_complex(env))
        assert abs(numeric - exact) <= 1e-6 * abs(exact), (var, numeric, exact)


def test_gradients_builtin():
    _check_gradients(builtin_potential(), 0.7 + 0.4j, (0.9 + 0.55j,))


def test_gradients_builtin_mirror():
    _check_gradients(builtin_potential(mirror=True), 0.7 + 0.4j,
                     (0.9 + 0.55j,))


def test_gradients_crossing_both_signs():
    _check_gradients(crossing_potential(True), 0.65 + 0.3j, W_GENERIC)
    _check_gradients(crossing_potential(False), 0.65 + 0.3j, W_GENERIC)
    _check_gradients(crossing_potential(True, mirror=True), 0.65 + 0.3j,
                     W_GENERIC)


def test_ratio_limits_match_derivative_forms_exactly():
    for positive in (True, False):
        rows = prop_comp_check(positive)
        assert len(rows) == 5
        for row in rows:
            assert row["pass"], row
            assert row["unit"] == "1"


def test_saddle_system_equals_summand_ratio_system():
    term = habiro_figure_eight()
    for kind in ("squared", "linear"):
        from_potential = saddle_system(builtin_potential(), kind)
        from_summand = ratio_system(term, kind)
        assert from_potential.gluing == from_summand.gluing
        assert from_potential.longitude == from_summand.longitude
        assert from_potential.coordinates == from_summand.coordinates


def test_mirror_has_the_same_gluing_equations():
    # inverting a form swaps numerator and denominator; clearing the
    # equation f = 1 gives the same polynomial either way
    plain = saddle_system(builtin_potential())
    mirrored = saddle_system(builtin_potential(mirror=True))
    assert plain.gluing == mirrored.gluing
    plainc = saddle_system(crossing_potential(True))
    mirroredc = saddle_system(crossing_potential(True, mirror=True))
    assert plainc.gluing == mirroredc.gluing


def test_longitude_and_kind_validation():
    with pytest.raises(DomainError, match="linear longitude"):
        saddle_system(crossing_potential(True), "linear")
    with pytest.raises(DomainError, match="longitude kind"):
        saddle_system(builtin_potential(), "cubed")
    with pytest.raises(DomainError, match="builtin potential"):
        builtin_potential("trefoil")


def test_specs_are_validated_at_construction():
    # these used to fall through to the crossing forms and the figure-eight
    # volume respectively
    with pytest.raises(DomainError, match="potential kind 'foo'"):
        PotentialSpec("foo")
    with pytest.raises(DomainError, match="builtin potential 'trefoil'"):
        PotentialSpec("builtin", name="trefoil")


# -- the per-spec caches ---------------------------------------------------

ALL_SPECS = ([builtin_potential(mirror=m) for m in (False, True)]
             + [crossing_potential(p, mirror=m)
                for p in (False, True) for m in (False, True)])


@pytest.fixture()
def uncached(monkeypatch):
    """Make every cached builder in the module rebuild on each call."""
    def go():
        for name in ("_forms", "_newton_system", "_discrete_em_ratio"):
            monkeypatch.setattr(potential, name,
                                getattr(potential, name).__wrapped__)
    return go


def test_cached_forms_and_newton_system_equal_fresh_builds():
    for spec in ALL_SPECS:
        assert derivative_forms(spec) == dict(
            potential._forms.__wrapped__(spec))
        assert (potential._newton_system(spec)
                == potential._newton_system.__wrapped__(spec))
    assert (potential._discrete_em_ratio()
            == potential._discrete_em_ratio.__wrapped__())


def test_saddles_are_identical_cold_warm_and_uncached(uncached):
    rng = random.Random(11)
    alphas = [cmath.rect(rng.uniform(0.9, 1.1), rng.uniform(2.2, 4.0))
              for _ in range(4)]
    potential._forms.cache_clear()
    potential._newton_system.cache_clear()
    cold = [solve_saddle(builtin_potential(mirror=m), a, 0.5 + 0.8j)
            for m in (False, True) for a in alphas]
    warm = [solve_saddle(builtin_potential(mirror=m), a, 0.5 + 0.8j)
            for m in (False, True) for a in alphas]
    uncached()
    fresh = [solve_saddle(builtin_potential(mirror=m), a, 0.5 + 0.8j)
             for m in (False, True) for a in alphas]
    assert cold == warm == fresh


def test_derivative_forms_hands_out_a_copy():
    spec = crossing_potential(True)
    first = derivative_forms(spec)
    expected = dict(first)
    first["w1"] = RationalFunction.one()
    del first["alpha"]
    assert derivative_forms(spec) == expected
    assert derivative_forms(spec) is not derivative_forms(spec)


def test_asymptotic_rows_are_unchanged_by_the_caches(uncached):
    warm = asymptotic_check(big_ns=(100, 300))
    uncached()
    assert asymptotic_check(big_ns=(100, 300)) == warm


def test_saddle_selection_prefers_positive_imaginary_part():
    # Newton from this start lands on the conjugate saddle; the result
    # must come back on the positive-imaginary-part side
    r = solve_saddle(builtin_potential(), -1.0 + 0j, 0.5 + 0.8j)
    assert abs(r.coords["x"] - cmath.exp(-1j * math.pi / 3)) < 1e-12
    assert r.residual < 1e-12
    assert abs(r.l_squared - 1) < 1e-10
    assert r.im_phi > 0
    # seeding on the other side of the axis reaches the same point
    r2 = solve_saddle(builtin_potential(), -1.0 + 0j, 0.5 - 0.8j)
    assert abs(r2.coords["x"] - r.coords["x"]) < 1e-12


def test_volume_of_the_builtin():
    v = volume()
    assert abs(v - 2.029883212819307) < 1e-9
    assert abs(v - 2 * li2(cmath.exp(1j * math.pi / 3)).imag) < 1e-12
    assert abs(volume(builtin_potential(mirror=True)) - v) < 1e-9


def test_singular_jacobian_is_reported():
    # the cleared gluing equation is quadratic in x with critical point
    # x = 1/2 at alpha = -1
    with pytest.raises(DegeneracyError, match="Jacobian"):
        solve_saddle(builtin_potential(), -1.0 + 0j, 0.5 + 0j)


def test_newton_iteration_budget():
    with pytest.raises(ConvergenceError, match="did not settle"):
        solve_saddle(builtin_potential(), -1.0 + 0j, 100.0 + 100.0j,
                     max_iter=2)


@pytest.mark.parametrize("spec, alpha, start, named", [
    (builtin_potential(), math.nan, 0.5 + 0.8j, "alpha = (nan+0j)"),
    (builtin_potential(), complex(1, math.inf), 0.5 + 0.8j,
     "alpha = (1+infj)"),
    (builtin_potential(), -math.inf, 0.5 + 0.8j, "alpha = (-inf+0j)"),
    (builtin_potential(), -1.0, complex(math.nan, 1), "start x = (nan+1j)"),
    (builtin_potential(), -1.0, math.inf, "start x = (inf+0j)"),
    (crossing_potential(True), 1.0,
     W_GENERIC[:2] + (complex(0, -math.inf),) + W_GENERIC[3:],
     "start w3 = -infj"),
])
def test_non_finite_inputs_are_refused_before_newton(monkeypatch, spec,
                                                     alpha, start, named):
    def refuse(*args):
        raise AssertionError("Newton started")

    monkeypatch.setattr(potential, "_newton_saddle", refuse)
    with pytest.raises(DomainError, match=re.escape(named)):
        solve_saddle(spec, alpha, start)


@pytest.mark.parametrize("alpha", [1e78, 1e308, -1e200j])
def test_overflow_in_newton_is_a_convergence_error(alpha):
    with pytest.raises(ConvergenceError, match="overflowed"):
        solve_saddle(builtin_potential(), alpha, 0.5 + 0.8j)


def test_result_serialization():
    r = solve_saddle(builtin_potential(), -1.0 + 0j, 0.5 + 0.8j)
    doc = r.to_json()
    assert set(doc) == {"alpha", "coords", "residual", "phi", "im_phi",
                        "l_squared", "iterations"}
    assert doc["coords"]["x"]["re"] == "0.5"
    assert float(doc["im_phi"]) == r.im_phi
    assert doc["iterations"] == r.iterations


def test_volume_needs_a_start_for_crossings():
    with pytest.raises(DomainError, match="explicit start"):
        volume(crossing_potential(True))


def test_coordinate_validation():
    with pytest.raises(DomainError, match="exactly"):
        phi_eval(builtin_potential(), 1.0, {"y": 2.0})
    with pytest.raises(DomainError, match="expected 4"):
        phi_eval(crossing_potential(True), 1.0, (1.0, 2.0))
    with pytest.raises(SingularityError):
        phi_eval(builtin_potential(), 1.0, 0.0)
    with pytest.raises(SingularityError):
        phi_eval(crossing_potential(False), 1.0, (1.0, 0.0, 1.0, 1.0))


def test_form_pole_is_a_singularity():
    # the alpha form's denominator alpha^4 - 2 alpha^2 x + x^2 vanishes
    # at alpha = x = 1
    forms = potential._forms(builtin_potential())
    with pytest.raises(SingularityError, match="alpha form undefined"):
        potential._forms_residual(forms, ["alpha"], {"alpha": 1, "x": 1})
    assert potential._forms_residual(forms, ["x"],
                                     {"alpha": 1, "x": 1}) == 1.0


def test_asymptotic_gap_shrinks_like_one_over_n():
    rows = asymptotic_check()
    assert [row["N"] for row in rows] == [100, 200, 400, 800]
    for row in rows:
        assert set(row) == {"N", "n", "i", "discrete", "continuous",
                            "rel_err"}
        assert row["n"] == 3 * row["N"] // 10
        assert row["i"] == row["N"] // 5
    errs = [row["rel_err"] for row in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.5


def test_unit_root_evaluation_folds_exponents():
    q = RationalFunction(parse_poly("q"), parse_poly("1"))
    z1 = _rf_at_unit_root(q, 4, {"q": 1})
    assert abs(z1 - 1j) < 1e-15
    # exponents live in Z/N: 5 = 1 (mod 4)
    assert _rf_at_unit_root(q, 4, {"q": 5}) == z1
    with pytest.raises(DomainError, match="no exponent"):
        _rf_at_unit_root(q, 4, {})
    with pytest.raises(DomainError, match="out of range"):
        asymptotic_check(big_ns=(2,))
