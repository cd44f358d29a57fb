"""Potential values, exact derivative forms, saddle points, asymptotics."""

import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from ajlab import potential
from ajlab.dilog import li2
from ajlab.elim import _coordinates, cleared_equation, ratio_system
from ajlab.errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    PoleError,
    SingularityError,
)
from ajlab.potential import (
    PotentialSpec,
    _rf_at_unit_root,
    asymptotic_check,
    builtin_names,
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
from ajlab.poly import LaurentMPoly, parse_poly
from ajlab.qhg import (build_crossing, epsilon_ratio, habiro_figure_eight,
                       shift_ratio)
from ajlab.ratfun import RationalFunction, format_ratfun, parse_ratfun


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


@pytest.mark.parametrize("name", list(potential._KNOTS))
def test_knot_table_names_the_summand_coordinates(name):
    # the saddle side reads its names from the table without building a
    # summand; they are the ones the summand's ratios are renamed to
    term = potential._KNOTS[name][0]()
    assert coordinate_names(PotentialSpec(name)) == _coordinates(
        term.colors, term.nu)[0]


def _always_divide_rows(positive, forms):
    """`prop_comp_check`'s rows with every quotient a division."""
    term = build_crossing(positive)
    rows, images = [], _coordinates(term.colors, term.nu)[1]
    for which, key in (("Et1", "w1"), ("Et2", "w2"), ("Et3", "w3"),
                       ("Et4", "w4"), ("Em", "alpha")):
        lhs = epsilon_ratio(term, which).subst(images)
        quot = lhs / forms[key]
        rows.append({
            "identity": f"limit of {which} ratio vs {key} form",
            "pass": quot.is_one(),
            "lhs": format_ratfun(lhs),
            "rhs": format_ratfun(forms[key]),
            "unit": format_ratfun(quot),
        })
    return rows


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("positive", [True, False])
def test_prop_comp_rows_equal_the_always_divide_rows(monkeypatch, positive,
                                                     mirror):
    # against a mirror's forms, the inverted ones, the sides differ and
    # the quotient is a real division
    forms = potential._forms(crossing_potential(positive, mirror))
    monkeypatch.setattr(potential, "_forms", lambda spec: forms)
    rows = prop_comp_check(positive)
    assert rows == _always_divide_rows(positive, forms)
    assert all(row["pass"] != mirror for row in rows)


def test_saddle_system_equals_summand_ratio_system():
    # each knot row's potential and summand give one system; a crossing's
    # alpha form has no rational square root, so both sides refuse linear
    for name in potential._KNOTS:
        spec = PotentialSpec(name)
        for kind in ("squared", "linear"):
            if kind == "linear" and name != "figure8":
                with pytest.raises(DomainError, match="linear longitude"):
                    saddle_system(spec, kind)
                with pytest.raises(DomainError, match="linear longitude"):
                    ratio_system(spec.summand(), kind)
                continue
            from_potential = saddle_system(spec, kind)
            from_summand = ratio_system(spec.summand(), kind)
            assert from_potential.gluing == from_summand.gluing
            assert from_potential.longitude == from_summand.longitude
            assert from_potential.coordinates == from_summand.coordinates


def test_each_knot_row_gives_its_summand():
    builders = {"figure8": habiro_figure_eight,
                "crossing+": lambda: build_crossing(True),
                "crossing-": lambda: build_crossing(False)}
    assert set(builders) == set(potential._KNOTS)
    for name, build in builders.items():
        assert PotentialSpec(name).summand() == build()


def test_a_mirrored_spec_has_no_summand():
    for spec in ALL_SPECS:
        if spec.mirror:
            with pytest.raises(DomainError) as info:
                spec.summand()
            assert str(info.value) == (
                "'mirror' applies only to volume and saddle; the summand "
                "commands have no mirrored summand")


def test_the_builtins_are_the_rows_with_a_start():
    assert builtin_names() == ("figure8",)


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
    # a crossing's alpha form has an odd power of w1*w3/(w2*w4), from its
    # c*log(alpha)*log(w1*w3/(w2*w4)) term, so no rational square root
    for positive in (True, False):
        for mirror in (False, True):
            with pytest.raises(DomainError, match="linear longitude"):
                saddle_system(crossing_potential(positive, mirror), "linear")
    with pytest.raises(DomainError, match="longitude kind"):
        saddle_system(builtin_potential(), "cubed")
    with pytest.raises(DomainError, match="builtin potential"):
        builtin_potential("trefoil")


def test_specs_are_validated_at_construction():
    # a spec names a term table; any other name is refused when built
    with pytest.raises(DomainError, match="unknown potential 'foo'"):
        PotentialSpec("foo")
    with pytest.raises(DomainError, match="unknown potential 'trefoil'"):
        PotentialSpec("trefoil", mirror=True)
    for name in ("crossing+", "crossing-"):
        with pytest.raises(DomainError, match="unknown builtin potential"):
            builtin_potential(name)


def test_one_spec_per_potential():
    # the spec is (name, mirror), so each potential has exactly one spec
    for mirror in (False, True):
        pairs = [(PotentialSpec("figure8", mirror),
                  builtin_potential(mirror=mirror))]
        pairs += [(PotentialSpec(name, mirror),
                   crossing_potential(positive, mirror))
                  for name, positive in (("crossing+", True),
                                         ("crossing-", False))]
        for spec, made in pairs:
            assert spec == made and hash(spec) == hash(made)
    assert len(set(ALL_SPECS)) == 6


# -- the per-spec caches ---------------------------------------------------

ALL_SPECS = ([builtin_potential(mirror=m) for m in (False, True)]
             + [crossing_potential(p, mirror=m)
                for p in (False, True) for m in (False, True)])


@pytest.fixture()
def uncached(monkeypatch):
    """Make every cached builder in the module rebuild on each call."""
    def go():
        for name in ("_forms", "_newton_system", "_newton_kernel",
                     "_form_kernels", "_em_kernel"):
            monkeypatch.setattr(potential, name,
                                getattr(potential, name).__wrapped__)
    return go


def test_cached_forms_and_newton_system_equal_fresh_builds():
    for spec in ALL_SPECS:
        assert derivative_forms(spec) == dict(
            potential._forms.__wrapped__(spec))
        assert (potential._newton_system(spec)
                == potential._newton_system.__wrapped__(spec))
    # the root-of-unity kernel compares by its values
    em, fresh = potential._em_kernel(), potential._em_kernel.__wrapped__()
    for big_n, n, i in ((3, 1, 1), (100, 30, 20), (997, -5, 2000)):
        env = {"N": big_n, "q": 1, "Q": n, "Qt1": i}
        assert repr(em(**env)) == repr(fresh(**env))


def test_a_mirror_builds_only_the_plain_forms(monkeypatch):
    # a mirrored spec's forms are the plain ones inverted, so the exact
    # build (`_form`) runs once per knot, for its unmirrored row
    built = []
    inner = potential._form

    def recorded(spec, y, root=1):
        built.append((spec, y))
        return inner(spec, y, root)

    monkeypatch.setattr(potential, "_form", recorded)
    potential._forms.cache_clear()
    for spec in ALL_SPECS:
        potential._forms(spec)
    assert built and not any(spec.mirror for spec, _ in built)
    assert len(built) == len(set(built)) == 2 + 2 * 5
    # so is a mirror's linear root: the plain one inverted
    built.clear()
    saddle_system(builtin_potential(mirror=True), "linear")
    assert built == [(builtin_potential(), "alpha")]


def test_the_form_cache_holds_one_entry_per_spec():
    potential._forms.cache_clear()
    for spec in ALL_SPECS:
        saddle_system(spec)
    saddle_system(PotentialSpec("figure8"), "linear")
    saddle_system(crossing_potential(1))
    assert potential._forms.cache_info().currsize == 6


def test_saddles_are_identical_cold_warm_and_uncached(uncached):
    rng = random.Random(11)
    alphas = [cmath.rect(rng.uniform(0.9, 1.1), rng.uniform(2.2, 4.0))
              for _ in range(4)]
    for cached in (potential._forms, potential._newton_system,
                   potential._newton_kernel, potential._form_kernels):
        cached.cache_clear()
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


def _value_or_error(f, *args, **kw):
    try:
        return repr(f(*args, **kw))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("index", range(len(ALL_SPECS)))
def test_kernels_are_bit_identical_to_eval_complex(index):
    # every Newton polynomial, Jacobian entry and form side, compiled,
    # against `eval_complex` at the same point, zero coordinates included
    spec = ALL_SPECS[index]
    names = coordinate_names(spec)
    polys, jac = potential._newton_system(spec)
    step = potential._newton_kernel(spec)
    forms, kernels = potential._forms(spec), potential._form_kernels(spec)
    rng = random.Random(2600 + index)
    poles = 0
    for k in range(300):
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                for _ in range(len(names) + 1)]
        if k % 3 == 0:  # alpha or one coordinate a signed zero
            vals[rng.randrange(len(vals))] = complex(
                rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
        if k % 10 == 1:  # every variable 1: a pole of some form of each
            vals = [1 + 0j] * len(vals)
        a, *z = vals
        env = {**dict(zip(names, z)), "alpha": a}
        want = _value_or_error(
            lambda: ([p.eval_complex(env) for p in polys],
                     [[p.eval_complex(env) for p in row] for row in jac]))
        assert _value_or_error(lambda: step(a)(*z)) == want, env
        for y, form in forms.items():
            what = f"{y} form undefined at the point"
            got = _value_or_error(potential._form_at, kernels[y], env, what)
            assert got == _value_or_error(_oracle_form, form, env, what), env
            poles += got == (SingularityError, what)
            if isinstance(got, str):
                assert repr(kernels[y](**env)) == repr(
                    (form.den.eval_complex(env), form.num.eval_complex(env)))
    assert poles >= 30


def test_the_exact_commands_build_no_kernel(monkeypatch):
    # certify runs saddle_system and prop_comp_check; neither compiles
    potential._newton_kernel.cache_clear()
    potential._form_kernels.cache_clear()
    potential._em_kernel.cache_clear()

    def refuse(*args):
        raise AssertionError("a float kernel was compiled")

    monkeypatch.setattr(potential, "_compile", refuse)
    monkeypatch.setattr(potential, "_rf_at_unit_root", refuse)
    for spec in ALL_SPECS:
        saddle_system(spec)
    saddle_system(builtin_potential(), "linear")
    prop_comp_check(True)
    prop_comp_check(False)
    assert potential._newton_kernel.cache_info().currsize == 0
    assert potential._form_kernels.cache_info().currsize == 0
    assert potential._em_kernel.cache_info().currsize == 0


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


@pytest.fixture()
def no_newton(monkeypatch):
    def refuse(*args):
        raise AssertionError("Newton started")

    monkeypatch.setattr(potential, "_newton_saddle", refuse)


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
def test_non_finite_inputs_are_refused_before_newton(no_newton, spec,
                                                     alpha, start, named):
    with pytest.raises(DomainError, match=re.escape(named)):
        solve_saddle(spec, alpha, start)


@pytest.mark.parametrize("kw, named", [
    ({"tol": math.nan}, "tol = nan is not positive and finite"),
    ({"tol": math.inf}, "tol = inf is not positive and finite"),
    ({"tol": 0.0}, "tol = 0.0 is not positive and finite"),
    ({"tol": -1e-12}, "tol = -1e-12 is not positive and finite"),
    ({"max_iter": 0}, "max_iter = 0 is below 1"),
    ({"max_iter": -5}, "max_iter = -5 is below 1"),
    # a budget past the cap would run for hours before giving up
    ({"max_iter": 10001}, "max_iter = 10001 is below 1, above 10000"),
    ({"max_iter": 10 ** 9}, "max_iter = 1000000000 is below 1, above 10000"),
    ({"max_iter": 2.5},
     "max_iter = 2.5 is below 1, above 10000 or not an int"),
    ({"max_iter": 100.0}, "max_iter = 100.0 is below 1, above 10000"),
    ({"max_iter": "100"}, "max_iter = '100' is below 1, above 10000"),
])
def test_bad_newton_settings_are_refused_before_newton(no_newton, kw, named):
    # the same refusal as a non-finite alpha or start: a tol of nan or 0
    # used to run out the iterations, and inf stopped after one step
    for spec, start in ((builtin_potential(), None),
                        (crossing_potential(False, True), W_GENERIC)):
        with pytest.raises(DomainError, match=re.escape(named)):
            solve_saddle(spec, -1.0, start, **kw)


@pytest.mark.parametrize("max_iter", [1, potential._MAX_ITER])
def test_newton_budget_bounds_are_accepted(no_newton, max_iter):
    with pytest.raises(AssertionError, match="Newton started"):
        solve_saddle(builtin_potential(), -1.0, max_iter=max_iter)


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
    # solve_saddle owns the default start: a builtin's, and none for a
    # crossing, with one message for every caller
    for positive in (True, False):
        with pytest.raises(DomainError, match="explicit start"):
            volume(crossing_potential(positive))
        with pytest.raises(DomainError, match="explicit start"):
            solve_saddle(crossing_potential(positive), -1.0)
    spec = builtin_potential()
    assert (solve_saddle(spec, -1.0 + 0j)
            == solve_saddle(spec, -1.0 + 0j, 0.5 + 0.8j))


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
    forms = potential._form_kernels(builtin_potential())
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
    z1 = _at_unit_root(q, ("q",), 4, (1,))
    assert abs(z1 - 1j) < 1e-15
    # exponents live in Z/N: 5 = 1 (mod 4)
    assert _at_unit_root(q, ("q",), 4, (5,)) == z1
    with pytest.raises(DomainError, match="no exponent assigned to q"):
        _rf_at_unit_root(q, ())
    with pytest.raises(DomainError, match="out of range"):
        asymptotic_check(big_ns=(2,))
    # at N = 3 the discrete side's denominator vanishes
    with pytest.raises(SingularityError, match="denominator vanishes"):
        asymptotic_check(big_ns=(3,))


# -- the root-of-unity kernel against the term walk ---------------------------
# The oracle is the evaluation as first written: walk each side's terms,
# fold the integer exponent mod N, add float(c) * exp(2 pi i (k mod N) / N)
# from 0j, and check the denominator before the numerator is walked.

def _at_unit_root(r, names, big_n, exps):
    """r through its compiled kernel, as `asymptotic_check` evaluates it."""
    return potential._form_at(
        _rf_at_unit_root(r, names), {"N": big_n, **dict(zip(names, exps))},
        "denominator vanishes at the root of unity")


def _oracle_unit_root(r, big_n, exps):
    def ev(p):
        tot = 0j
        for e, c in p.terms.items():
            k = 0
            for v, m in zip(p.vars, e):
                if m:
                    if v not in exps:
                        raise DomainError(f"no exponent assigned to {v}")
                    k += m * exps[v]
            tot += float(c) * cmath.exp(2j * math.pi * ((k % big_n) / big_n))
        return tot
    den = ev(r.den)
    if den == 0:
        raise SingularityError("denominator vanishes at the root of unity")
    return ev(r.num) / den


UNIT_ROOT_VARS = ("q", "Q", "Qt1")


def _unit_root_exponents(rng, big_n):
    # negative, at least N, and small, so exponents fold and terms cancel
    return [rng.choice((rng.randint(-3 * big_n, -1),
                        rng.randint(big_n, 3 * big_n), rng.randint(0, 2),
                        rng.randint(-2, 0)))
            for _ in UNIT_ROOT_VARS]


def _assert_kernel_is_the_walk(r, names, big_n, exps):
    at = dict(zip(names, exps))
    want = _value_or_error(_oracle_unit_root, r, big_n, at)
    got = _value_or_error(_at_unit_root, r, names, big_n, exps)
    if got[0] is DomainError and want[0] is SingularityError:
        # the kernel refuses a missing exponent when it is compiled; the
        # walk meets the zero denominator before the numerator's variable
        want = _value_or_error(_oracle_unit_root, RationalFunction(
            r.num, LaurentMPoly.const(1)), big_n, at)
    assert got == want, (r, big_n, exps)
    return want


def test_the_em_kernel_is_the_term_walk():
    em = shift_ratio(habiro_figure_eight(), "Em")
    rng = random.Random(2701)
    outcomes = set()
    for k in range(600):
        big_n = rng.choice((3, 4, 5, 10**4, rng.randint(3, 10**4)))
        exps = _unit_root_exponents(rng, big_n)
        if k % 5 == 0:  # every exponent 0: the denominator vanishes
            exps = [0, 0, 0]
        want = _assert_kernel_is_the_walk(em, UNIT_ROOT_VARS, big_n, exps)
        outcomes.add(type(want))
    assert outcomes == {str, tuple}
    # the cached kernel is the same function of (N, q, Q, Qt1)
    for big_n, n, i in ((3, 1, 1), (100, 30, 20), (7, -9, 15)):
        env = {"q": 1, "Q": n, "Qt1": i}
        assert (_value_or_error(potential._form_at, potential._em_kernel(),
                                {"N": big_n, **env}, "denominator vanishes "
                                "at the root of unity")
                == _value_or_error(_oracle_unit_root, em, big_n, env))


def _random_poly(rng):
    vs = UNIT_ROOT_VARS
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(-3, 3) for _ in vs)
        terms[e] = terms.get(e, 0) + rng.choice(
            (1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 7)))
    poly = LaurentMPoly.const(0)
    for e, c in terms.items():
        poly = poly + LaurentMPoly.monomial(c, dict(zip(vs, e)))
    return poly


def test_random_ratios_at_unit_roots_are_the_term_walk():
    rng = random.Random(2702)
    seen = {"value": 0, "pole": 0, "no exponent": 0}
    for k in range(400):
        num, den = _random_poly(rng), _random_poly(rng)
        if den.is_zero() or num.is_zero():
            continue
        if k % 4 == 0:  # 1 - q^a Q^b: a pole wherever a e_q + b e_Q = 0 mod N
            den = LaurentMPoly.const(1) - LaurentMPoly.monomial(
                1, {"q": rng.randint(-2, 2), "Q": rng.randint(-2, 2)})
            if den.is_zero():
                continue
        r = RationalFunction(num, den)
        names = UNIT_ROOT_VARS
        if k % 7 == 0:  # one variable without an exponent
            names = tuple(v for v in names if v != rng.choice(names))
        big_n = rng.choice((3, 4, 6, rng.randint(3, 10**4)))
        exps = _unit_root_exponents(rng, big_n)[:len(names)]
        if k % 3 == 0:
            exps = [0] * len(names)
        want = _assert_kernel_is_the_walk(r, names, big_n, exps)
        seen["value" if isinstance(want, str)
             else "pole" if want[0] is SingularityError
             else "no exponent"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("p, d", [(1, 2), (3, 2), (-1, 2), (-3, 2), (5, 2),
                                  (0, 1), (-7, 3), (7, 3), (8, 3), (-8, 3)])
def test_nearest_is_round_of_the_fraction(p, d):
    assert potential._nearest(p, d) == int(round(Fraction(p, d)))


def test_nearest_matches_round_on_seeded_fractions():
    rng = random.Random(2703)
    for _ in range(3000):
        d = rng.randint(1, 400)
        p = rng.randint(-10**6, 10**6)
        if rng.random() < 0.3:  # an exact half
            d = 2 * rng.randint(1, 200)
            p = d // 2 * (2 * rng.randint(-1000, 1000) + 1)
        assert potential._nearest(p, d) == int(round(Fraction(p, d)))


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(3, 2),
                               Fraction(-1, 2), Fraction(-37, 100),
                               Fraction(3, 10), 0.3, "0.3", "-3/7", 1, 0])
def test_asymptotic_rows_round_as_fractions_do(a):
    # odd N puts a = 1/2 and 3/2 on exact ties
    em = shift_ratio(habiro_figure_eight(), "Em")
    for big_n in (3, 5, 7, 99, 101, 1001):
        n = int(round(Fraction(a) * big_n))
        i = int(round(Fraction(1, 5) * big_n))
        want = _value_or_error(_oracle_unit_root, em, big_n,
                               {"q": 1, "Q": n, "Qt1": i})
        try:
            (row,) = asymptotic_check(a, Fraction(1, 5), (big_n,))
        except SingularityError as exc:  # e.g. a = 3/2 at N = 3
            assert want == (SingularityError, str(exc))
            continue
        assert (row["n"], row["i"]) == (n, i)
        assert repr(row["discrete"]) == want


def test_asymptotic_rows_on_seeded_fractions_are_the_term_walk():
    em = shift_ratio(habiro_figure_eight(), "Em")
    rng = random.Random(2704)
    for _ in range(60):
        a = Fraction(rng.randint(-300, 300), rng.randint(1, 200))
        u = Fraction(rng.randint(-300, 300), rng.randint(1, 200))
        big_n = rng.randint(3, 10**4)
        n, i = int(round(a * big_n)), int(round(u * big_n))
        want = _value_or_error(_oracle_unit_root, em, big_n,
                               {"q": 1, "Q": n, "Qt1": i})
        rows = _value_or_error(asymptotic_check, a, u, (big_n,))
        if isinstance(want, tuple):
            assert rows == want
            continue
        row = asymptotic_check(a, u, (big_n,))[0]
        assert (row["n"], row["i"]) == (n, i)
        assert repr(row["discrete"]) == want


@pytest.mark.parametrize("bad", [float("nan"), None, float("inf"), "abc",
                                 "1/0", 1j])
def test_a_non_rational_exponent_fraction_is_a_domain_error(bad):
    for kw in ({"a": bad}, {"u": bad}):
        with pytest.raises(DomainError, match="not both rational"):
            asymptotic_check(**kw)


def test_every_root_order_is_checked_before_the_first_row(monkeypatch):
    def refuse():
        raise AssertionError("a row was computed")

    monkeypatch.setattr(potential, "_em_kernel", refuse)
    with pytest.raises(DomainError, match="root order 2 out of range"):
        asymptotic_check(big_ns=(100, 200, 2))
    with pytest.raises(DomainError, match="root order 200.0 out of range"):
        asymptotic_check(big_ns=iter((100, 200.0)))


# -- non-finite Newton steps -------------------------------------------------

def _count_linear_solves(monkeypatch, replace=None):
    calls = []
    inner = replace or potential._solve_linear

    def counted(mat, rhs):
        calls.append(len(rhs))
        return inner(mat, rhs)

    monkeypatch.setattr(potential, "_solve_linear", counted)
    return calls


def test_non_finite_step_ends_the_solve_at_once(monkeypatch):
    # from this finite start the first step is already (nan+nanj)
    calls = _count_linear_solves(monkeypatch)
    with pytest.raises(ConvergenceError,
                       match=re.escape("Newton step x = (nan+nanj) is not "
                                       "finite at iteration 1")):
        solve_saddle(builtin_potential(), -1.0, 1e300 + 1e300j)
    assert calls == [1]


def test_a_nan_after_a_finite_entry_is_seen(monkeypatch):
    # max(1.0, nan) is 1.0: the check must not go through max(abs(d))
    def nan_second(mat, rhs):
        return [0.25 + 0j, complex(math.nan, 0.0), 0j, 0j]

    calls = _count_linear_solves(monkeypatch, nan_second)
    with pytest.raises(ConvergenceError,
                       match=re.escape("Newton step w2 = (nan+0j) is not "
                                       "finite at iteration 1")):
        solve_saddle(crossing_potential(True), 1.0, W_GENERIC)
    assert calls == [4]


# -- bit-identity of the saddle path -----------------------------------------
# The oracle is the Newton loop as first written: every iteration evaluates
# the cached polynomials with `LaurentMPoly.eval_complex` at {**w, "alpha":
# a} and solves the step by general elimination.  The production loop puts
# alpha in once per solve and solves a 1x1 step by one division; both must
# give the same bits, iteration counts and error messages included.

def _general_solve_linear(mat, rhs):
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-300:
            raise DegeneracyError("singular Jacobian in the Newton step")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for k in range(col, n + 1):
                    a[r][k] -= f * a[col][k]
    out = [0j] * n
    for r in range(n - 1, -1, -1):
        s = a[r][n] - sum(a[r][k] * out[k] for k in range(r + 1, n))
        out[r] = s / a[r][r]
    return out


def _oracle_form(form, env, what):
    """The form by `RationalFunction.eval_complex`; a pole raises
    SingularityError(what)."""
    try:
        return form.eval_complex(env)
    except PoleError:
        raise SingularityError(what) from None


def _oracle_residual(forms, coords, env):
    worst = 0.0
    for c in coords:
        v = _oracle_form(forms[c], env, f"{c} form undefined at the point")
        worst = max(worst, abs(v - 1))
    return worst


def _oracle_newton(spec, a, w, tol, max_iter):
    forms = potential._forms(spec)
    coords = coordinate_names(spec)
    polys, jac = potential._newton_system(spec)
    names = list(coords)
    it = 0
    for it in range(1, max_iter + 1):
        env = {**w, "alpha": a}
        fv = [p.eval_complex(env) for p in polys]
        jm = [[jac[i][j].eval_complex(env) for j in range(len(names))]
              for i in range(len(polys))]
        delta = _general_solve_linear(jm, fv)
        scale = max(1.0, max(abs(w[k]) for k in names))
        w = {k: w[k] - d for k, d in zip(names, delta)}
        if max(abs(d) for d in delta) < tol * scale:
            break
    else:
        raise ConvergenceError(
            f"Newton did not settle in {max_iter} iterations")
    env = {**w, "alpha": a}
    res = _oracle_residual(forms, coords, env)
    if res > 1e-6:
        raise ConvergenceError(
            f"Newton landed on a spurious zero of the cleared system "
            f"(form residual {res:.2e})")
    phi = phi_eval(spec, a, w)
    wc = {k: v.conjugate() for k, v in w.items()}
    try:
        resc = _oracle_residual(forms, coords, {**wc, "alpha": a})
    except SingularityError:
        resc = math.inf
    if resc <= max(10 * res, tol):
        phic = phi_eval(spec, a, wc)
        take = phic.imag > phi.imag
        if phic.imag == phi.imag:
            first = names[0]
            take = wc[first].imag > w[first].imag
        if take:
            w, res, phi = wc, resc, phic
            env = {**w, "alpha": a}
    l2 = _oracle_form(forms["alpha"], env,
                      "alpha form undefined at the saddle")
    return potential.SaddleResult(a, w, res, phi, phi.imag, l2, it)


def _oracle_solve(spec, alpha, start, tol=1e-12, max_iter=100):
    a = complex(alpha)
    try:
        return _oracle_newton(spec, a, potential._coerce_coords(spec, start),
                              tol, max_iter)
    except OverflowError:
        raise ConvergenceError(
            f"Newton overflowed the range of floats at alpha = {a}") from None


def _outcome(monkeypatch, solve, spec, alpha, start, **kw):
    """The result or (exception type, message), and the repr of every
    point whose forms were checked (the Newton end point even when it is
    a spurious zero)."""
    seen = []

    def recorded(inner):
        def residual(forms, coords, env):
            seen.append(repr(env))
            return inner(forms, coords, env)
        return residual

    with monkeypatch.context() as m:
        m.setattr(potential, "_forms_residual",
                  recorded(potential._forms_residual))
        m.setitem(globals(), "_oracle_residual", recorded(_oracle_residual))
        try:
            out = solve(spec, alpha, start, **kw)
        except Exception as exc:  # compared by type and message below
            out = (type(exc), str(exc))
    return out, seen


def _annulus_alphas(seed, count):
    rng = random.Random(seed)
    return [cmath.rect(rng.uniform(0.85, 1.15), rng.uniform(0, 2 * math.pi))
            for _ in range(count)]


def _assert_same_outcome(monkeypatch, spec, alpha, start, **kw):
    got, got_seen = _outcome(monkeypatch, solve_saddle, spec, alpha, start,
                             **kw)
    want, want_seen = _outcome(monkeypatch, _oracle_solve, spec, alpha,
                               start, **kw)
    assert got == want
    assert repr(got) == repr(want)
    assert got_seen == want_seen
    return got


@pytest.mark.parametrize("mirror", [False, True])
def test_builtin_saddles_are_bit_identical_to_the_oracle(monkeypatch, mirror):
    spec = builtin_potential(mirror=mirror)
    rng = random.Random(29 + mirror)
    solved = 0
    for alpha in _annulus_alphas(17 + mirror, 60):
        start = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for st in (0.5 + 0.8j, start):
            got = _assert_same_outcome(monkeypatch, spec, alpha, st)
            solved += isinstance(got, potential.SaddleResult)
    assert solved >= 60


@pytest.mark.parametrize("positive", [True, False])
def test_crossing_solves_are_bit_identical_to_the_oracle(monkeypatch,
                                                         positive):
    rng = random.Random(41 + positive)
    for mirror in (False, True):
        spec = crossing_potential(positive, mirror)
        for alpha in _annulus_alphas(43 + positive + 2 * mirror, 8):
            start = tuple(w * (1 + complex(rng.gauss(0, 0.2),
                                           rng.gauss(0, 0.2)))
                          for w in W_GENERIC)
            _assert_same_outcome(monkeypatch, spec, alpha, start)
            _assert_same_outcome(monkeypatch, spec, alpha, start,
                                 max_iter=3)


@pytest.mark.parametrize("alpha, start, kw, error", [
    (-1.0, 0.5, {}, DegeneracyError),
    (-1.0, 0.5 + 0j, {}, DegeneracyError),
    (1e78, 0.5 + 0.8j, {}, ConvergenceError),
    (1e308, 0.5 + 0.8j, {}, ConvergenceError),
    (-1e200j, 0.5 + 0.8j, {}, ConvergenceError),
    (-1.0, 100.0 + 100.0j, {"max_iter": 2}, ConvergenceError),
    (1.0, 1.0, {}, ConvergenceError),
    (0.0, 0.5, {}, SingularityError),
])
def test_edge_solves_are_bit_identical_to_the_oracle(monkeypatch, alpha,
                                                     start, kw, error):
    for mirror in (False, True):
        spec = builtin_potential(mirror=mirror)
        got = _assert_same_outcome(monkeypatch, spec, alpha, start, **kw)
        assert got[0] is error


def test_one_by_one_solve_is_the_general_path():
    zeros = [complex(s * 0.0, t * 0.0) for s in (1, -1) for t in (1, -1)]
    rng = random.Random(5)
    values = zeros + [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                      for _ in range(40)]
    values += [complex(math.inf, 0.0), complex(math.nan, 1.0), 1e-300 + 0j,
               complex(0.0, -1e-290), 1e300 - 1e300j]
    for m in values:
        for r in values[:12]:
            try:
                want = repr(_general_solve_linear([[m]], [r]))
            except DegeneracyError as exc:
                with pytest.raises(DegeneracyError, match=str(exc)):
                    potential._solve_linear([[m]], [r])
                continue
            assert repr(potential._solve_linear([[m]], [r])) == want


# -- the potentials written out by hand --------------------------------------
# phi, its forms and the linear longitude all come from one term table per
# potential.  These oracles are the same potentials transcribed by hand:
# phi as one formula each, every form as literal text, and the builtin's
# linear root (1 - alpha^2 x)/(x - alpha^2).

LITERAL_FORMS = {
    "figure8": {
        "x": ("alpha^-2*(1 - alpha^2*x)*(1 - alpha^2*x^-1)",),
        "alpha": ("(1 - alpha^2*x)^2", "(x - alpha^2)^2"),
    },
    "crossing+": {
        "w1": ("1 - w1*w3*w2^-1*w4^-1",
               "(1 - alpha*w1*w2^-1)*(1 - alpha^-1*w1*w4^-1)"),
        "w2": ("alpha*(1 - alpha^-1*w2*w1^-1)*(1 - alpha^-1*w2*w3^-1)",
               "1 - w2*w4*w1^-1*w3^-1"),
        "w3": ("1 - w1*w3*w2^-1*w4^-1",
               "(1 - alpha^-1*w3*w4^-1)*(1 - alpha*w3*w2^-1)"),
        "w4": ("alpha^-1*(1 - alpha*w4*w3^-1)*(1 - alpha*w4*w1^-1)",
               "1 - w2*w4*w1^-1*w3^-1"),
        "alpha": ("alpha^2*(1 - alpha^-1*w3*w4^-1)*(1 - alpha*w4*w1^-1)",
                  "(1 - alpha^-1*w2*w1^-1)*(1 - alpha*w3*w2^-1)"),
    },
    "crossing-": {
        "w1": ("-alpha^-1*w4*w3^-1*(1 - alpha*w1*w4^-1)"
               "*(1 - alpha*w2*w1^-1)",
               "1 - w1*w3*w2^-1*w4^-1"),
        "w2": ("-alpha*(1 - w1*w3*w2^-1*w4^-1)",
               "(1 - alpha*w2*w3^-1)*(1 - alpha*w2*w1^-1)"),
        "w3": ("-alpha^-1*w4*w1^-1*(1 - alpha*w3*w4^-1)"
               "*(1 - alpha*w2*w3^-1)",
               "1 - w1*w3*w2^-1*w4^-1"),
        "w4": ("-alpha*w1*w3*w4^-2*(1 - w1*w3*w2^-1*w4^-1)",
               "(1 - alpha*w1*w4^-1)*(1 - alpha*w3*w4^-1)"),
        "alpha": ("alpha^-2*w2*w4*w1^-1*w3^-1*(1 - alpha*w1*w4^-1)"
                  "*(1 - alpha*w3*w4^-1)",
                  "(1 - alpha*w2*w3^-1)*(1 - alpha*w2*w1^-1)"),
    },
}


def _literal_forms(spec):
    forms = {k: parse_ratfun(*t) for k, t in LITERAL_FORMS[spec.name].items()}
    if spec.mirror:
        forms = {k: f.inverse() for k, f in forms.items()}
    return forms


def _log(z, what):
    if z == 0:
        raise SingularityError(f"logarithm of zero: {what}")
    return cmath.log(z)


def _hand_phi(spec, alpha, coords):
    w = potential._coerce_coords(spec, coords)
    a = complex(alpha)
    pi = math.pi
    if spec.name == "figure8":
        x = w["x"]
        if x == 0 or a == 0:
            raise SingularityError("potential needs alpha, x nonzero")
        a2 = a * a
        val = (-2 * _log(a, "alpha") * _log(x, "x")
               - li2(a2 * x) + li2(a2 / x))
    else:
        w1, w2, w3, w4 = (w["w1"], w["w2"], w["w3"], w["w4"])
        if a == 0 or 0 in (w1, w2, w3, w4):
            raise SingularityError("potential needs alpha, w1..w4 nonzero")
        la = _log(a, "alpha")
        v = w1 * w3 / (w2 * w4)
        if spec.name == "crossing+":
            val = (la * la + la * _log(v, "w1*w3/(w2*w4)")
                   - _log(w2 / w1, "w2/w1") * _log(w3 / w2, "w3/w2")
                   - pi * pi / 6
                   - li2(a * w4 / w3) - li2(a * w4 / w1)
                   + li2(w2 * w4 / (w1 * w3))
                   + li2(a * w1 / w2) + li2(a * w3 / w2))
        else:
            lv = _log(v, "w1*w3/(w2*w4)")
            val = (-la * la - la * lv
                   + _log(w3 / w4, "w3/w4") * _log(w4 / w1, "w4/w1")
                   - pi * pi / 6
                   + li2(v) + 1j * pi * lv
                   - li2(a * w1 / w4) - li2(a * w3 / w4)
                   + li2(a * w2 / w3) + li2(a * w2 / w1))
    return -val if spec.mirror else val


def _sample(rng):
    """A nonzero complex value, often on or just off the negative real
    axis, where log and Li2 of a monomial meet their cuts, or real with a
    signed zero imaginary part."""
    pick = rng.random()
    if pick < 0.15:
        return complex(-rng.uniform(0.2, 3), rng.choice((0.0, -0.0)))
    if pick < 0.3:
        return complex(-rng.uniform(0.2, 3),
                       rng.choice((1e-15, -1e-15, 1e-300, -1e-300)))
    if pick < 0.4:
        return complex(rng.choice((1.0, -1.0, 0.5, 2.0)),
                       rng.choice((0.0, -0.0)))
    return cmath.rect(rng.uniform(0.3, 2.5), rng.uniform(-math.pi, math.pi))


def _assert_same_term_order(forms, other):
    for k, f in forms.items():
        for side in ("num", "den"):
            assert (list(getattr(f, side).terms.items())
                    == list(getattr(other[k], side).terms.items()))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
def test_derived_forms_equal_the_literal_tables(spec):
    assert derivative_forms(spec) == _literal_forms(spec)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
def test_mirror_forms_are_the_inverted_forms_term_for_term(spec):
    # a mirror negates every term of the table; its forms, gluing
    # polynomials and linear root are then the inverted unmirrored ones
    # in the same term order, so a mirrored solve adds the same floats in
    # the same order as one on the inverted forms
    plain = derivative_forms(PotentialSpec(spec.name))
    inverted = {k: f.inverse() if spec.mirror else f
                for k, f in plain.items()}
    _assert_same_term_order(derivative_forms(spec), inverted)
    one = RationalFunction.one()
    for c, p in zip(coordinate_names(spec),
                    potential._newton_system(spec)[0]):
        assert (list(p.terms.items())
                == list(cleared_equation(inverted[c], one).terms.items()))
    root = potential._form(PotentialSpec(spec.name), "alpha", 2)
    if root is not None:
        if spec.mirror:
            root = root.inverse()
        assert (list(saddle_system(spec, "linear").longitude.terms.items())
                == list(cleared_equation(
                    root, RationalFunction.var("l")).terms.items()))


@pytest.mark.parametrize("index", range(len(ALL_SPECS)))
def test_phi_matches_the_hand_written_potential(index):
    spec = ALL_SPECS[index]
    rng = random.Random(1600 + index)
    n = len(coordinate_names(spec))
    near_cut = zero_parts = 0
    for k in range(2000):
        if k % 4:
            alpha, coords = _sample(rng), tuple(_sample(rng) for _ in range(n))
        else:
            # a small alpha and coordinates near 1, all real: every log
            # and Li2 argument is real, so phi can have a signed zero part
            alpha = complex(rng.uniform(0.1, 0.6), rng.choice((0.0, -0.0)))
            coords = tuple(complex(rng.choice((1.0, rng.uniform(0.9, 1.1))),
                                   rng.choice((0.0, -0.0)))
                           for _ in range(n))
        near_cut += any(z.real < 0 and abs(z.imag) < 1e-12
                        for z in (alpha,) + coords)
        outcomes = []
        for phi in (phi_eval, _hand_phi):
            try:
                outcomes.append(repr(phi(spec, alpha, coords)))
            except Exception as exc:  # compared by type and message
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (alpha, coords)
        zero_parts += "0j" in outcomes[0]
    assert near_cut > 500
    assert zero_parts > 50


@pytest.mark.parametrize("mirror", [False, True])
def test_builtin_systems_equal_the_literal_ones(mirror):
    spec = builtin_potential(mirror=mirror)
    forms = _literal_forms(spec)
    root = parse_ratfun("1 - alpha^2*x", "x - alpha^2")
    if mirror:
        root = root.inverse()
    lv = RationalFunction.var("l")
    one = RationalFunction.one()
    for kind, form, rhs in (("squared", forms["alpha"], lv * lv),
                            ("linear", root, lv)):
        system = saddle_system(spec, kind)
        assert system.gluing == (cleared_equation(forms["x"], one),)
        assert system.longitude == cleared_equation(form, rhs)
    # in the same term order too, so Newton, the form residuals and l^2
    # add up the same floats in the same order as with the literal forms
    _assert_same_term_order(derivative_forms(spec), forms)
    assert (list(potential._newton_system(spec)[0][0].terms.items())
            == list(cleared_equation(forms["x"], one).terms.items()))
