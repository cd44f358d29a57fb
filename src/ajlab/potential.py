"""Dilogarithm potentials, their exact derivative forms, and saddle points.

Each knot is one row of the knot table: its summand, its potential as
terms in (alpha, coordinates) (Li2 of a monomial, products of two
logarithms, i*pi times a logarithm, constants) and its default Newton
start.  The potential's value is the sum of its terms, compiled once into
the expression one writes by hand.  Its forms, the exponentiated
logarithmic derivatives, come exactly from the same terms, so they are
rational functions.  The coordinate forms set to 1 are the gluing
equations; the alpha form is the squared longitude eigenvalue, whose square
root, when its exponents are all even, is the linear one.  A mirror negates
every term, so it negates the potential and inverts its forms.  Saddle
points are found by Newton iteration on the cleared gluing polynomials;
Im(potential) at the selected saddle is the volume.

The exact objects of a potential (its forms, the cleared gluing polynomials
and their Jacobian) depend only on the `PotentialSpec`, so each is built
once per spec and process, on first use (a mirror's forms by inverting the
plain ones); `derivative_forms` hands out a copy of the cached forms.  One
compiler turns phi, the whole Newton loop (alpha put in once per solve) and
each form into cached float kernels, called by position in (alpha,
coordinates), and one the Em ratio into a root-of-unity kernel.
"""

import cmath
import math
from fractions import Fraction
from functools import cache, partial
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .dilog import _NUMBER, _number, li2
from .elim import EquationSystem, _gluing, curve_system, ratio_forms
from .errors import (ConvergenceError, DegeneracyError, DomainError,
                     SingularityError)
from .laurent import Immutable, LaurentMPoly
from .qhg import (ProperQHTerm, build_crossing, habiro_figure_eight,
                  shift_ratio)
from .ratfun import RationalFunction, format_ratfun

_PI = math.pi


class PotentialSpec(Immutable):
    """Selects a knot by its name in the knot table, optionally mirrored
    (which negates every term of its potential)."""

    __slots__ = ("name", "mirror")

    def __init__(self, name: str, mirror: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "mirror", mirror)
        if name not in _KNOTS:
            raise DomainError(f"unknown potential {name!r}: one of "
                              f"{', '.join(_KNOTS)}")

    def summand(self) -> ProperQHTerm:
        """The knot's summand.  Every summand is unmirrored, so a mirrored
        spec is refused rather than answered for its mirror image."""
        if self.mirror:
            raise DomainError("'mirror' applies only to volume and saddle; "
                              "the summand commands have no mirrored summand")
        return _KNOTS[self.name][0]()


def builtin_names() -> tuple[str, ...]:
    """The knots with a default Newton start, which --knot takes by name."""
    return tuple(k for k, row in _KNOTS.items() if row[3] is not None)


def builtin_potential(name: str = "figure8",
                      mirror: bool = False) -> PotentialSpec:
    if name not in _KNOTS or _KNOTS[name][3] is None:
        raise DomainError(f"unknown builtin potential {name!r}")
    return PotentialSpec(name, mirror)


def crossing_potential(positive: bool,
                       mirror: bool = False) -> PotentialSpec:
    return PotentialSpec("crossing+" if positive else "crossing-", mirror)


# -- the knot table --------------------------------------------------------
# name -> (summand builder, variables with alpha first, terms summed in
# order, default Newton start or None).  ("li2", s, M) is s*Li2(M),
# ("log", c, M1, M2) c*log(M1)*log(M2), ("ipi", k, M) k*i*pi*log(M) and
# ("const", c, x) c*x, where a monomial M is a product of variables over
# another.

_CROSSING = ("alpha", "w1", "w2", "w3", "w4")
_KNOTS = {
    "figure8": (habiro_figure_eight, ("alpha", "x"), [
        ("log", -2, "alpha", "x"), ("li2", -1, "alpha*alpha*x"),
        ("li2", 1, "alpha*alpha/x")], 0.5 + 0.8j),
    "crossing+": (partial(build_crossing, True), _CROSSING, [
        ("log", 1, "alpha", "alpha"), ("log", 1, "alpha", "w1*w3/(w2*w4)"),
        ("log", -1, "w2/w1", "w3/w2"), ("const", -1, "_PI * _PI / 6"),
        ("li2", -1, "alpha*w4/w3"), ("li2", -1, "alpha*w4/w1"),
        ("li2", 1, "w2*w4/(w1*w3)"), ("li2", 1, "alpha*w1/w2"),
        ("li2", 1, "alpha*w3/w2")], None),
    "crossing-": (partial(build_crossing, False), _CROSSING, [
        ("log", -1, "alpha", "alpha"),
        ("log", -1, "alpha", "w1*w3/(w2*w4)"),
        ("log", 1, "w3/w4", "w4/w1"), ("const", -1, "_PI * _PI / 6"),
        ("li2", 1, "w1*w3/(w2*w4)"), ("ipi", 1, "w1*w3/(w2*w4)"),
        ("li2", -1, "alpha*w1/w4"), ("li2", -1, "alpha*w3/w4"),
        ("li2", 1, "alpha*w2/w3"), ("li2", 1, "alpha*w2/w1")], None),
}
_MAX_ITER = 10000  # most Newton iterations a solve may ask for


def _log(z: complex, what: str) -> complex:
    if z == 0:
        raise SingularityError(f"logarithm of zero: {what}")
    return cmath.log(z)


def coordinate_names(spec: PotentialSpec) -> tuple[str, ...]:
    return _KNOTS[spec.name][1][1:]


@cache
def _phi_kernel(spec: PotentialSpec):
    """The potential as f(alpha, coordinates), compiled once per spec from
    its terms (module data only) into the sum as written by hand, negated
    for a mirror: each monomial its own text, the leading coefficient on
    the first factor.  A zero variable is a SingularityError."""
    names, terms = _KNOTS[spec.name][1:3]
    parts = []
    for kind, c, *ms in terms:
        if kind == "li2":
            body = f"li2({ms[0]})"
        elif kind == "const":
            body = ms[0]
        else:
            body = " * ".join(["1j * _PI"] * (kind == "ipi")
                              + [f"_log({m}, {m!r})" for m in ms])
        k = abs(c) if parts else c
        parts.append(("+ " if c > 0 else "- ") * bool(parts)
                     + {1: "", -1: "-"}.get(k, f"{k} * ") + body)
    expr, args = " ".join(parts), ", ".join(names)
    return _compile((), f"if 0 in ({args},): raise SingularityError("
                    f"'potential needs {args} nonzero')\nreturn "
                    + (f"-({expr})" if spec.mirror else expr), names)()


# -- evaluation ------------------------------------------------------------

def _coerce_coords(spec: PotentialSpec, coords,
                   what: str = "coords") -> tuple[complex, ...]:
    names = coordinate_names(spec)
    if isinstance(coords, Mapping):
        if set(coords) != set(names):
            raise DomainError(
                f"coordinates must be exactly {names}, got {tuple(coords)}")
        coords = [coords[k] for k in names]
    elif isinstance(coords, (*_NUMBER, str, bytes)) or not isinstance(
            coords, Iterable):  # one value: a str is not its characters
        coords = (coords,)
    if len(vals := tuple(coords)) != len(names):
        raise DomainError(f"{what}: expected {len(names)} coordinates "
                          f"{names}, got {len(vals)}")
    return tuple(_number(v, f"{what} {k}") for k, v in zip(names, vals))


def phi_eval(spec: PotentialSpec, alpha: complex, coords) -> complex:
    """Value of the potential, principal branches throughout."""
    w = _coerce_coords(spec, coords)
    return _phi_kernel(spec)(_number(alpha, "alpha"), *w)


# -- exact derivative forms ------------------------------------------------

def _form(spec: PotentialSpec, y: str,
          root: int = 1) -> Optional[RationalFunction]:
    """exp(y * dphi/dy)^(1/root), term by term with e the exponent of y
    in M: s*Li2(M) gives (1 - M)^(-s*e), c*log(M1)*log(M2) the monomial
    M2^(c*e1) * M1^(c*e2), k*i*pi*log(M) the sign (-1)^(k*e); None when
    an exponent is not divisible by root.  Unmirrored specs only."""
    names, terms = _KNOTS[spec.name][1:3]
    j = names.index(y)

    def exponents(m):
        num, _, den = m.partition("/")
        num, den = num.split("*"), den.strip("()").split("*")
        return [num.count(x) - den.count(x) for x in names]

    sign, mono, ones = 0, [0] * len(names), {}
    for kind, c, *ms in terms:
        es = [exponents(m) for m in ms] if kind != "const" else ()
        if kind == "li2":
            key = tuple(es[0])
            ones[key] = ones.get(key, 0) - c * es[0][j]
        elif kind == "log":
            mono = [x + c * (es[0][j] * b + es[1][j] * a)
                    for x, a, b in zip(mono, *es)]
        elif kind == "ipi":
            sign += c * es[0][j]
    if any(p % root for p in (sign, *mono, *ones.values())):
        return None
    num = LaurentMPoly.monomial(-1 if sign // root % 2 else 1,
                                {x: e // root for x, e in zip(names, mono)})
    den = one = LaurentMPoly.const(1)
    for key, p in ones.items():
        f = one - LaurentMPoly.monomial(1, dict(zip(names, key)))
        if p > 0:
            num = num * f ** (p // root)
        elif p < 0:
            den = den * f ** (-p // root)
    return RationalFunction(num, den)


@cache
def _forms(spec: PotentialSpec) -> Mapping[str, RationalFunction]:
    if spec.mirror:  # inverting a reduced pair needs no gcd
        return MappingProxyType({y: f.inverse() for y, f in
                                 _forms(PotentialSpec(spec.name)).items()})
    return MappingProxyType(
        {y: _form(spec, y) for y in coordinate_names(spec) + ("alpha",)})


def derivative_forms(spec: PotentialSpec) -> dict[str, RationalFunction]:
    """exp of each logarithmic derivative of the potential, as an exact
    rational function of (alpha, coordinates)."""
    return dict(_forms(spec))


@cache
def _newton_system(spec: PotentialSpec) -> tuple[
        tuple[LaurentMPoly, ...], tuple[tuple[LaurentMPoly, ...], ...]]:
    """The cleared gluing polynomials (coordinate form = 1, as
    `curve_system` clears them) and their Jacobian in the coordinates."""
    coords = coordinate_names(spec)
    polys = _gluing(coords, _forms(spec))
    jac = tuple(tuple(p.derivative(c2) for c2 in coords) for p in polys)
    return polys, jac


def _compile(polys, body: str, names, outer=()):
    """The function body `body`, its {}s filled by the values of polys, as
    f(*outer)(*names).  Each value takes these float operations in order:
    from 0j, add the terms in insertion order, each its complex coefficient
    times its variables' powers left to right.  A term's leading powers of
    `outer` variables go into its coefficient once per call of f."""
    consts, params, values = [], [], []
    for p in polys:
        values.append("0j")
        for e, c in p.terms.items():
            i = len(consts)
            consts.append(complex(c))
            pw = [(v in outer, f"*{v}**{k}") for v, k in zip(p.vars, e) if k]
            n = next((j for j, (o, _) in enumerate(pw) if not o), len(pw))
            params.append(f"_{i}=K[{i}]" + "".join(f for _, f in pw[:n]))
            values[-1] += f" + _{i}" + "".join(f for _, f in pw[n:])
    exec(f"def f({', '.join([*outer, 'K=K'])}):\n def g("
         f"{', '.join([*names, *params])}):\n  "
         + body.format(*values).replace("\n", "\n  ") + "\n return g",
         globals(), ns := {"K": consts})
    return ns["f"]


@cache
def _newton_kernel(spec: PotentialSpec):
    """Newton on the cleared gluing polynomials as f(alpha)(tol, max_iter,
    *coordinates) = (coordinates, iterations).  A step d takes the values,
    the Jacobian, then one division or `_solve_linear`; d not finite (seen
    in coordinate order) ends it, max|d| < tol * max(1, max|z|) settles."""
    polys, jac = _newton_system(spec)
    zs = coordinate_names(spec)
    ds = ["_d%d" % i for i in range(len(zs))]
    row = "[%s]" % ", ".join(["{}"] * len(zs))
    step = ("_f = {}\n_j = {}\nif abs(_j) < 1e-300: raise DegeneracyError("
            "'singular Jacobian in the Newton step')\n_d0 = _f / _j"
            if len(zs) == 1 else "_f = %s\n%s, = _solve_linear([%s], _f)"
            % (row, ", ".join(ds), ", ".join([row] * len(zs))))
    # max|z| (z before the step) and max|d|, compared as max(map(abs, .))
    zmax, dmax = (("max(%s)" if xs[1:] else "%s") % ", ".join(
        map("abs({})".format, xs)) for xs in (zs, ds))
    loop = "\n".join([step, *map(
        "if not cmath.isfinite({1}): raise ConvergenceError('Newton step {0}"
        " = %s is not finite at iteration %d' % ({1}, _it))".format, zs, ds),
        "_s = " + zmax, "if not _s > 1.0: _s = 1.0",
        *map("{0} = {0} - {1}".format, zs, ds),
        "if %s < tol * _s: return (%s,), _it" % (dmax, ", ".join(zs))])
    return _compile(polys + sum(jac, ()), (
        "for _it in range(1, max_iter + 1):\n " + loop.replace("\n", "\n ")
        + "\nraise ConvergenceError('Newton did not settle in %d iterations'"
        " % max_iter)"), ("tol", "max_iter", *zs), ("alpha",))


@cache
def _form_kernels(spec: PotentialSpec) -> Mapping:
    """Each form as f(alpha, coordinates) = (denominator, numerator); a
    zero denominator skips the numerator."""
    names = ("alpha",) + coordinate_names(spec)
    return MappingProxyType({
        y: _compile((f.den, f.num), "return (_d := {}, _d and {})", names)()
        for y, f in _forms(spec).items()})


def saddle_system(spec: PotentialSpec,
                  longitude: str = "squared") -> EquationSystem:
    """Cleared polynomial system: coordinate forms equal 1, the alpha form
    equals l^2 (or, when the alpha form has a rational square root, that
    root equals l)."""
    forms = _forms(spec)
    if longitude == "linear":
        root = _form(PotentialSpec(spec.name), "alpha", 2)
        if root is None:
            raise DomainError(
                "a linear longitude is only defined for the builtin "
                "potential, whose alpha form has a rational square root")
        if spec.mirror:  # as in `_forms`
            root = root.inverse()
        forms = {**forms, "alpha": root}
    elif longitude != "squared":
        raise DomainError(f"unknown longitude kind {longitude!r}")
    return curve_system(coordinate_names(spec), forms, longitude)


# -- identity table between summand ratios and potential forms -------------

def prop_comp_check(positive: bool = True) -> list[dict]:
    """Compare the q = 1 limits of the crossing summand's shift ratios
    against the potential derivative forms, coordinate by coordinate.

    Returns one row per identity with the two sides, their quotient, and
    whether they agree exactly.
    """
    spec = crossing_potential(positive)
    limits = ratio_forms(spec.summand())[1]
    forms = _forms(spec)
    rows = []
    for i, (key, lhs) in enumerate(limits.items(), 1):
        which = f"Et{i}" if key != "alpha" else "Em"
        rhs = forms[key]
        # both sides are canonical, so equal sides are exactly equal
        quot = RationalFunction.one() if lhs == rhs else lhs / rhs
        rows.append({"identity": f"limit of {which} ratio vs {key} form",
                     "pass": quot.is_one(), "lhs": format_ratfun(lhs),
                     "rhs": format_ratfun(rhs), "unit": format_ratfun(quot)})
    return rows


# -- saddle points ---------------------------------------------------------

class SaddleResult(Immutable):
    __slots__ = ("alpha", "coords", "residual", "phi", "im_phi",
                 "l_squared", "iterations")

    def __init__(self, alpha: complex, coords: dict[str, complex],
                 residual: float, phi: complex, im_phi: float,
                 l_squared: complex, iterations: int):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "coords", coords)
        # max |form - 1| over the coordinate forms
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "im_phi", im_phi)
        object.__setattr__(self, "l_squared", l_squared)
        object.__setattr__(self, "iterations", iterations)

    def to_json(self) -> dict:
        def c(z):
            return {"re": f"{z.real:.17g}", "im": f"{z.imag:.17g}"}
        return {"alpha": c(self.alpha),
                "coords": {k: c(v) for k, v in self.coords.items()},
                "residual": f"{self.residual:.17g}", "phi": c(self.phi),
                "im_phi": f"{self.im_phi:.17g}",
                "l_squared": c(self.l_squared), "iterations": self.iterations}


def _solve_linear(mat, rhs):
    """Gaussian elimination with partial pivoting over complex numbers."""
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


def _form_at(kernel, point, what: str) -> complex:
    """The kernel's form at point; a pole raises SingularityError(what)."""
    try:  # 0 to a negative power, or a zero denominator, raises
        den, num = kernel(*point)
        return num / den
    except ZeroDivisionError:
        raise SingularityError(what) from None


def _forms_residual(kernels, coords, point) -> float:
    """max |form - 1| over the forms of coords; NaN if one of them is."""
    worst = 0.0
    for c in coords:
        d = abs(_form_at(kernels[c], point,
                         f"{c} form undefined at the point") - 1)
        if d > worst or d != d:  # max(worst, nan) would drop the NaN
            worst = d
    return worst


def solve_saddle(spec: PotentialSpec, alpha: complex, start=None,
                 tol: float = 1e-12, max_iter: int = 100) -> SaddleResult:
    """Newton iteration for a saddle of the potential at fixed alpha.

    Without a start, Newton starts at the knot row's default (x = 0.5 +
    0.8i for the figure-eight); a crossing row has none.  An alpha or
    start that is no number or not finite, a tol not positive and finite,
    or a max_iter not an int in 1.._MAX_ITER is a DomainError before
    Newton; leaving the range of floats on the way is a ConvergenceError.

    Runs the spec's compiled Newton loop on the cleared gluing polynomials
    with their exact Jacobian, then re-checks the rational forms themselves
    (clearing can introduce spurious zeros).  Of the converged point and
    its coordinate-wise conjugate, the one with the larger imaginary part
    of the potential is returned, provided it too satisfies the forms.

    Known limitation: every crossing form has degree 0 in (w1..w4), so a
    crossing's saddles are not isolated and Newton slides towards w = 0,
    where the forms are undefined; a crossing solve does not return a
    saddle, and the runs seen end in the spurious-zero ConvergenceError.
    """
    if start is None:
        start = _KNOTS[spec.name][3]
        if start is None:
            raise DomainError("crossing potentials need an explicit start")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol = {tol} is not positive and finite")
    if type(max_iter) is not int or not 1 <= max_iter <= _MAX_ITER:
        raise DomainError(f"max_iter = {max_iter!r} is below 1, above "
                          f"{_MAX_ITER} or not an int")
    a = _number(alpha, "alpha")
    z = _coerce_coords(spec, start, "start")
    if not cmath.isfinite(a):
        raise DomainError(f"alpha = {a} is not finite")
    for k, v in zip(coordinate_names(spec), z):
        if not cmath.isfinite(v):
            raise DomainError(f"start {k} = {v} is not finite")
    try:
        return _newton_saddle(spec, a, z, tol, max_iter)
    except OverflowError:
        raise ConvergenceError(
            f"Newton overflowed the range of floats at alpha = {a}") from None


def _newton_saddle(spec: PotentialSpec, a: complex, z: tuple[complex, ...],
                   tol: float, max_iter: int) -> SaddleResult:
    names = coordinate_names(spec)
    z, it = _newton_kernel(spec)(a)(tol, max_iter, *z)
    forms = _form_kernels(spec)
    p = (a, *z)
    res = _forms_residual(forms, names, p)
    if not res <= 1e-6:  # a NaN residual is refused too
        raise ConvergenceError(
            f"Newton landed on a spurious zero of the cleared system "
            f"(form residual {res:.2e})")
    phi_at = _phi_kernel(spec)
    phi = phi_at(*p)
    # candidate with every coordinate conjugated: for symmetric alpha it
    # solves the same system and may carry the opposite sign of Im(phi)
    pc = (a, *map(complex.conjugate, z))
    try:
        resc = _forms_residual(forms, names, pc)
    except SingularityError:
        resc = math.inf
    if resc <= max(10 * res, tol):
        phic = phi_at(*pc)
        take = phic.imag > phi.imag
        if phic.imag == phi.imag:
            # exact tie: settle deterministically on the branch whose
            # first coordinate sits in the upper half plane
            take = pc[1].imag > p[1].imag
        if take:
            p, res, phi = pc, resc, phic
    l2 = _form_at(forms["alpha"], p, "alpha form undefined at the saddle")
    return SaddleResult(a, dict(zip(names, p[1:])), res, phi, phi.imag,
                        l2, it)


def volume(spec: Optional[PotentialSpec] = None, alpha: complex = -1.0 + 0j,
           start=None) -> float:
    """Im of the potential at the selected saddle (default: the builtin
    at alpha = -1, from `solve_saddle`'s default start)."""
    return solve_saddle(spec or builtin_potential(), alpha, start).im_phi


# -- discrete-to-continuous asymptotics ------------------------------------

def _rf_at_unit_root(r: RationalFunction, names: Sequence[str]):
    """r at each variable v in names = zeta^v, zeta = exp(2 pi i / N), as
    f(N, *names) = (denominator, numerator); as in `_form_kernels`, a
    zero denominator skips the numerator.  Each side adds, from 0j in term
    order, float(c) * exp(2 pi i ((k mod N) / N)) with k the term's
    exponents dotted with the v in integers.  A variable of r not in names
    is a DomainError."""
    sides = []
    for p in (r.den, r.num):
        terms = ["0j"]
        for e, c in p.terms.items():
            for v, m in zip(p.vars, e):
                if m and v not in names:
                    raise DomainError(f"no exponent assigned to {v}")
            ks = [f"{m} * {v}" for v, m in zip(p.vars, e) if m]
            terms.append(f"{float(c)!r} * _exp(_T * (({' + '.join(ks) or 0})"
                         " % N / N))")
        sides.append(" + ".join(terms))
    return eval(f"lambda N, {', '.join(names)}: (_d := {sides[0]}, "
                f"_d and {sides[1]})", {"_exp": cmath.exp, "_T": 2j * _PI})


@cache
def _em_kernel():
    """The builtin summand's Em ratio at roots of unity, in (N, q, Q, Qt1)."""
    return _rf_at_unit_root(shift_ratio(habiro_figure_eight(), "Em"),
                            ("q", "Q", "Qt1"))


def _nearest(p: int, d: int) -> int:
    """round(Fraction(p, d)) for d > 0, ties to even, in integers."""
    n, r = divmod(2 * p + d, 2 * d)
    return n - (not r and n & 1)


def asymptotic_check(a=Fraction(3, 10), u=Fraction(1, 5),
                     big_ns: Sequence[int] = (100, 200, 400, 800)) -> list[dict]:
    """Compare the discrete two-step ratio of the builtin summand at a
    primitive root of unity against the continuous alpha form at the
    matching point on the curve, for a ladder of root orders.

    The discrete side is evaluated at q = zeta_N, meridian zeta_N^n,
    coordinate zeta_N^i with n = round(aN), i = round(uN) (ties to even);
    the continuous side at alpha^2 = zeta_N^n, x = zeta_N^i.  The relative
    gap shrinks like 1/N.  A root order outside [3, 10^4], or an a or u that
    is not a finite `Fraction` or whose angle pi n / N or 2 pi i / N does
    not fit a float, is a DomainError before any row.
    """
    big_ns = tuple(big_ns)
    for big_n in big_ns:
        if not isinstance(big_n, int) or not 3 <= big_n <= 10**4:
            raise DomainError(f"root order {big_n} out of range [3, 10^4]")
    try:
        (ap, ad), (up, ud) = (Fraction(x).as_integer_ratio() for x in (a, u))
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"a = {a!r}, u = {u!r}: not both rational") from None
    points = []
    for big_n in big_ns:
        n, i = _nearest(ap * big_n, ad), _nearest(up * big_n, ud)
        try:  # an int past the floats overflows, a large one gives inf
            t = (1j * _PI * n / big_n, 2j * _PI * i / big_n)
        except OverflowError:
            t = (math.inf,)
        if not all(map(cmath.isfinite, t)):
            raise DomainError(f"a or u too large: an angle at N = {big_n} "
                              "does not fit a float")
        points.append((big_n, n, i, *t))
    em_at, alpha_at = _em_kernel(), _form_kernels(builtin_potential())["alpha"]
    rows = []
    for big_n, n, i, t_a, t_u in points:
        disc = _form_at(em_at, (big_n, 1, n, i),
                        "denominator vanishes at the root of unity")
        cont = _form_at(alpha_at, (cmath.exp(t_a), cmath.exp(t_u)),
                        "alpha form undefined at the point")
        rows.append({"N": big_n, "n": n, "i": i, "discrete": disc,
                     "continuous": cont,
                     "rel_err": abs(disc - cont) / abs(cont)})
    return rows
