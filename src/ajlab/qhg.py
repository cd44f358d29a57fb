"""Proper q-hypergeometric summands, their exact shift ratios and sums.

A summand is a sign times a q-power of a quadratic form in the integer
arguments times finite q-Pochhammer factors (q)_L = (1-q)...(1-q^L) whose
lengths L are integer linear forms.  The arguments are one color (``n`` or
``m``) plus lattice indices ``k1..k_nu``.  Form coefficients are
int-or-Fraction canonical (`laurent._coeff`) and may be half-integers, but the
q-exponent must be an integer wherever it is evaluated (else DomainError).
Each summand is compiled once, when built, into integer rows (`_Plan`).

A summand's value at a point is one start (`ProperQHTerm._start`): each
form is the dot product of its row with the point, and a run that holds
its ring's 1 (`_ExactRun`: ints at q = a/b; `_SymbolicRun`: dense lists in
q) steps once by the sign, q^e and the net power of each (1 - q^j),
#{numerator lengths >= j} - #{denominator lengths >= j}.
``eval_exact``/``eval_symbolic`` are that start and the run's value.

``shift_ratio`` is the exact ratio of the shifted summand to the summand,
a rational function of q and of n -> Q, m -> Qm, ki -> Qt_i, read off the
same rows: the sign's, the exponent's step along the axis (`_Plan.step`)
and the lengths'; ``epsilon_ratio`` is its q -> 1 limit, the value at q = 1.

``lattice_sum`` adds a summand up over its support, at a rational q or in
q.  Each lattice axis is bounded from the axes before it by its rows in
`_Plan.bounds` (the support rows, projected by Fourier-Motzkin), so the
heads cover the support polytope.  Each row of the last axis starts a run
at its first point and walks it: each later point is the one before times
a sign, a q-power and a few (1 - q^j), stepped in the run's ring.  A walk
restarts with a new start where the term is zero, or where a step changes
the q-exponent by a half-integer or has a zero factor (q in {0, +-1}); so
every value and every error is the point-by-point sum's.  A symbolic run
divides each down factor (1 - q^j) out of its sum at the end; only one that
does not divide leaves a denominator, so a polynomial sum needs no gcd.

The module imports only `laurent`; what builds a rational function imports
`ratfun` when called, so the colored Jones values compile neither `ratfun`
nor `poly`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate
from operator import add, index, mul, neg, sub
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from .errors import DomainError, PoleError, SupportError
from .laurent import Immutable, LaurentMPoly, _coeff

if TYPE_CHECKING:
    from .ratfun import RationalFunction

Scalar = Union[int, Fraction]

_COLOR_SETS = (("n",), ("m",))
_EXP_VAR = {"n": "Q", "m": "Qm"}


def _sym_exp_var(sym: str) -> str:
    if sym in _EXP_VAR:
        return _EXP_VAR[sym]
    if sym.startswith("k") and sym[1:].isdigit():
        return f"Qt{sym[1:]}"
    raise DomainError(f"unknown argument symbol {sym!r}")


class LinearForm(Immutable):
    """sum coeffs[sym] * sym + const, each coefficient in the canonical
    form of `laurent._coeff`: an int when integral, else a Fraction."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: tuple[tuple[str, Scalar], ...],
                 const: Scalar = 0):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", const)

    @staticmethod
    def make(coeffs: Mapping[str, Scalar], const: Scalar = 0) -> "LinearForm":
        items = tuple(sorted((s, _coeff(c)) for s, c in coeffs.items() if c))
        return LinearForm(items, _coeff(const))

    def is_integral(self) -> bool:
        return (self.const.denominator == 1
                and all(c.denominator == 1 for _, c in self.coeffs))


def _int_exponent(e: Scalar, var: str = "q") -> int:
    """e as an exponent of var: a DomainError unless e is an integer."""
    if e.denominator != 1:
        raise DomainError(f"exponent {e} of {var} is not an integer")
    return int(e)


def _int_point(point: Sequence[int]) -> tuple[int, ...]:
    """The point as ints; 2.5, and also 2.0 or Fraction(4), is refused."""
    try:
        return tuple(map(index, point))
    except TypeError:
        raise DomainError(
            f"point {tuple(point)} has a non-integer entry") from None


def _rational_q(qval: Scalar) -> Fraction:
    """qval as a Fraction: an int or a Fraction, else a DomainError (0.5,
    '5/2', nan and None are refused, not read as some q)."""
    if type(qval) is Fraction:
        return qval
    try:
        return Fraction(index(qval))
    except TypeError:
        raise DomainError(
            f"q = {qval!r} is not an int or a Fraction") from None


def _project(rows: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Fourier-Motzkin: rows for the projection of where every row is >= 0
    along the last axis: the rows without it, and each pair with opposite
    slopes combined to cancel it, over their gcd; duplicates dropped."""
    out = [r[:-1] for r in rows if not r[-1]]
    for p in rows:
        for n in rows:
            if p[-1] > 0 > n[-1]:
                c = [x * -n[-1] + y * p[-1] for x, y in zip(p[:-1], n[:-1])]
                g = math.gcd(*c) or 1
                out.append(tuple(x // g for x in c))
    return tuple(dict.fromkeys(out))


def _monomial(row: Sequence[int], den: int, names: Sequence[str],
              q_extra: int = 0) -> LaurentMPoly:
    """The monomial prod names[i]^(row[i] / den), names[0] = "q", times
    q^q_extra; a DomainError names the first exponent that is not an int."""
    powers = {}
    for var, c in zip(names, (row[0] + q_extra * den, *row[1:])):
        if c:
            powers[var] = (_int_exponent(Fraction(c, den), var) if c % den
                           else c // den)
    return LaurentMPoly.monomial(1, powers)


def _dense_q(coeffs: Sequence[int], low: int = 0) -> LaurentMPoly:
    """sum coeffs[k] * q^(low + k)."""
    return LaurentMPoly._build(("q",),
                               {(low + k,): c for k, c in enumerate(coeffs)})


def _times_one_minus(side: list, j: int) -> None:
    """side *= 1 - q^j in place, on a dense coefficient list (j >= 1); the
    empty list is 0 and stays empty."""
    if side:
        side.extend([0] * j)
        side[j:] = map(sub, side[j:], side[:-j])


def _over_one_minus(side: list, j: int) -> Optional[list]:
    """side / (1 - q^j) on a dense coefficient list (j >= 1) when it
    divides, else None: u_i = side_i + u_(i-j), the top j entries zero."""
    u = list(side)
    for r in range(min(j, len(u))):
        u[r::j] = accumulate(u[r::j])
    cut = max(len(u) - j, 0)
    return None if any(u[cut:]) else u[:cut]


class QuadForm(Immutable):
    """Quadratic + linear + constant exponent of q.

    ``quad`` maps unordered symbol pairs (stored sorted) to coefficients:
    {(s,s): a} contributes a*s^2, {(s,t): b} contributes b*s*t.
    """

    __slots__ = ("quad", "lin")

    def __init__(self, quad: tuple[tuple[tuple[str, str], Scalar], ...],
                 lin: LinearForm):
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)

    @staticmethod
    def make(quad: Mapping[tuple[str, str], Scalar],
             lin: Optional[Mapping[str, Scalar]] = None,
             const: Scalar = 0) -> "QuadForm":
        items: dict[tuple[str, str], Scalar] = {}
        for (a, b), c in quad.items():
            key = (a, b) if a <= b else (b, a)
            items[key] = items.get(key, 0) + c
        qt = tuple(sorted((k, _coeff(v)) for k, v in items.items() if v))
        return QuadForm(qt, LinearForm.make(lin or {}, const))


class PochFactor(Immutable):
    """(q)_L = prod_{j=1..L} (1 - q^j), with L an integer linear form;
    ``denom`` marks factors sitting under the fraction bar."""

    __slots__ = ("length", "denom")

    def __init__(self, length: LinearForm, denom: bool = False):
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "denom", denom)
        if not length.is_integral():
            raise DomainError(
                "Pochhammer length must have integer coefficients")


def _row(form: LinearForm, ix: Mapping[str, int], what: str,
         den: Optional[int] = None) -> tuple[int, ...]:
    """den * form as ints r, the map x -> r . (1, *x), by default with the
    least den that makes it integral."""
    den = den or math.lcm(form.const.denominator,
                          *(c.denominator for _, c in form.coeffs))
    r = [int(form.const * den)] + [0] * len(ix)
    for sym, c in form.coeffs:
        if sym not in ix:
            raise DomainError(f"{what} uses unknown symbol {sym}")
        r[1 + ix[sym]] = int(c * den)
    return tuple(r)


class _Plan:
    """A summand as int rows (`_row`): ``support`` (lengths, constraints),
    ``bounds`` (per lattice axis, the rows that bound it from the axes
    before it: `_project` of the next entry, the last being ``support``),
    ``denoms``, ``sign``, ``quad`` (row, pairs, den): den times the
    exponent is the row plus c x_i x_j per (i, j, c).  A step x[-1] += 1
    adds ``delta`` (`step` of the last axis) to that, and (1 - q^j), j in
    range(L + j0, L + j1), per (row of L, j0, j1, above the bar) of
    ``moving``, the moving lengths."""

    __slots__ = ("support", "bounds", "denoms", "sign", "quad", "delta",
                 "moving")

    def __init__(self, term: "ProperQHTerm"):
        ix = {s: i for i, s in enumerate(term.symbols())}
        lengths = tuple(_row(f.length, ix, "length") for f in term.poch)
        self.denoms = tuple(f.denom for f in term.poch)
        if not term.sign.is_integral():
            raise DomainError("sign exponent must be an integer form")
        self.sign = _row(term.sign, ix, "sign")
        self.support = lengths + tuple(_row(f, ix, "constraint")
                                       for f in term.constraints)
        self.bounds = (self.support,)
        for _ in range(term.nu - 1):
            self.bounds = (_project(self.bounds[0]), *self.bounds)
        quad = term.quad
        if unknown := sorted({s for p, _ in quad.quad for s in p} - set(ix)):
            raise DomainError(f"exponent uses unknown symbol {unknown[0]}")
        den = math.lcm(quad.lin.const.denominator,
                       *(c.denominator for _, c in quad.quad + quad.lin.coeffs))
        self.quad = (_row(quad.lin, ix, "exponent", den),
                     tuple((ix[s], ix[t], int(c * den))
                           for (s, t), c in quad.quad), den)
        # with nu = 0 the last symbol is the color: never stepped
        self.delta = self.step(len(ix) - 1, 1)
        self.moving = tuple((r, min(r[-1], 0) + 1, max(r[-1], 0) + 1,
                             (r[-1] > 0) != d)
                            for r, d in zip(lengths, self.denoms) if r[-1])

    def step(self, axis: int, s: int) -> tuple[int, ...]:
        """den * (E(x + s e_axis) - E(x)) as a row, E the exponent."""
        row, pairs, _ = self.quad
        r = [row[1 + axis] * s] + [0] * (len(row) - 1)
        for i, j, c in pairs:
            if i == j == axis:
                r[0] += c * s * s
            if axis in (i, j):  # c x_i x_j gains c s x_other, twice if square
                r[1 + i + j - axis] += c * s * (2 if i == j else 1)
        return tuple(r)


class ProperQHTerm(Immutable):
    """Sign * q-quadratic * Pochhammer product, as data over its own
    symbols; ``sign`` defaults to the zero form (+1).  The support is where
    every Pochhammer length and ``constraints`` form is nonnegative."""

    __slots__ = ("colors", "nu", "poch", "quad", "sign", "constraints",
                 "_plan")

    def __init__(self, colors: tuple[str, ...], nu: int,
                 poch: tuple[PochFactor, ...], quad: QuadForm,
                 sign: Optional[LinearForm] = None,
                 constraints: tuple[LinearForm, ...] = ()):
        sign = LinearForm.make({}) if sign is None else sign
        for name, value in zip(self._fields, (colors, nu, poch, quad, sign,
                                              constraints)):
            object.__setattr__(self, name, value)
        if colors not in _COLOR_SETS:
            raise DomainError(f"unsupported color arguments {colors}")
        if nu < 0:
            raise DomainError("negative lattice rank")
        object.__setattr__(self, "_plan", _Plan(self))

    def symbols(self) -> tuple[str, ...]:
        return self.colors + tuple(f"k{i + 1}" for i in range(self.nu))

    def _start(self, point: Sequence[int], run):
        """run, holding its ring's 1, stepped once by the value at point (the
        sign, q^e and each (1 - q^j) to its net power); None where the value
        is 0.  Out of support is 0 before any error, then a non-integer e is
        a DomainError, then ``run.refuse`` refuses what only its ring does."""
        if len(point) != len(self.colors) + self.nu:
            raise DomainError(f"point {tuple(point)} does not match "
                              f"arguments {self.symbols()}")
        x, plan = _int_point(point), self._plan
        y = (1, *x)
        vals = [sum(map(mul, r, y)) for r in plan.support]
        if min(vals, default=0) < 0:
            return None
        r, pairs, den = plan.quad
        e = sum(map(mul, r, y)) + sum(c * x[i] * x[j] for i, j, c in pairs)
        k = _int_exponent(Fraction(e, den)) if e % den else e // den
        # each (length, under the bar), zip stopping at the lengths, and a
        # (q)_0 = 1 to close the walk below: the net power m of (1 - q^j),
        # #{numerator lengths >= j} - #{denominator lengths >= j}, is
        # constant between two lengths, so walk them longest first
        lengths = [*zip(vals, plan.denoms), (0, False)]
        run.refuse(k, lengths)
        up, down, m, hi = [], [], 0, 0
        for ln, denom in sorted(lengths, reverse=True):
            if m and ln < hi:
                (up if m > 0 else down).extend(
                    list(range(ln + 1, hi + 1)) * abs(m))
            m, hi = m - 1 if denom else m + 1, ln
        odd = sum(map(mul, plan.sign, y)) % 2
        return run if run.step(odd, k, up, down) else None

    def eval_exact(self, point: Sequence[int], qval: Scalar) -> Fraction:
        """Exact value at q = qval, zero out of support, as the start of an
        exact run; a (q)_L under the bar that vanishes is a PoleError."""
        run = _ExactRun(_rational_q(qval))
        self._start(point, run)  # a run never stepped sums to 0
        return run.value()

    def eval_symbolic(self, point: Sequence[int]) -> RationalFunction:
        """Value at an integer point as a rational function of q, as the
        start of a symbolic run; zero out of support."""
        from .ratfun import as_ratfun
        run = _SymbolicRun()
        self._start(point, run)
        return as_ratfun(run.value())


# -- shift ratios ----------------------------------------------------------

def _resolve_shift(term: ProperQHTerm, which: str) -> tuple[int, int]:
    """(axis, step): the shift moves term.symbols()[axis] by step."""
    colors = term.colors
    if which == "E":
        if colors != ("n",):
            raise DomainError(
                "shift E advances the color n; this summand is indexed by "
                + ", ".join(colors))
        return 0, 1
    if which == "Em":
        # n = 2m+1: one half-lattice step is two full steps
        return 0, 2 if colors == ("n",) else 1
    if (isinstance(which, str) and which.startswith("Et")
            and which[2:].isdigit()):
        i = int(which[2:])
        if not 1 <= i <= term.nu:
            raise DomainError(f"no lattice direction {i} (nu={term.nu})")
        return i, 1  # the one color comes first
    raise DomainError(f"unknown shift {which!r}")


def shift_ratio(term: ProperQHTerm, which: str) -> RationalFunction:
    """Exact ratio (shifted summand)/(summand) as a rational function of
    q and the exponential symbols, read off the plan's rows."""
    from .ratfun import RationalFunction
    axis, step = _resolve_shift(term, which)
    plan = term._plan
    names = ("q", *map(_sym_exp_var, term.symbols()))
    num = _monomial(plan.step(axis, step), plan.quad[2], names)
    if plan.sign[1 + axis] * step % 2:
        num = -num
    den = one = LaurentMPoly.const(1)
    for r, denom in zip(plan.support, plan.denoms):  # stops at the lengths
        d = r[1 + axis] * step
        for j in range(d) if d > 0 else range(d, 0):
            # factor (1 - q^(L + j + 1)) at the unshifted point
            lin = one - _monomial(r, 1, names, j + 1)
            if (d > 0) != denom:
                num = num * lin
            else:
                den = den * lin
    return RationalFunction(num, den)


def epsilon_ratio(term: ProperQHTerm, which: str) -> RationalFunction:
    """q -> 1 limit of ``shift_ratio``; the exponential symbols survive.
    Each factor of the ratio is a signed monomial or 1 - q^a * m with m
    carrying the moved argument's symbol, so neither side vanishes at
    q = 1: the limit is the value there (a pole would be a PoleError)."""
    r = shift_ratio(term, which)
    try:
        return r.subst({"q": 1})
    except DomainError as exc:
        raise PoleError(f"shift ratio {which} diverges as q -> 1") from exc


# -- concrete summands -----------------------------------------------------

def build_crossing(positive: bool) -> ProperQHTerm:
    """Single-crossing summand in the color m and the four surrounding
    region indices k1..k4, with the extra q^(+-(m^2+m)) twist."""
    k1, k2, k3, k4 = "k1", "k2", "k3", "k4"
    L = LinearForm.make
    if positive:
        quad = QuadForm.make(
            {("m", "m"): 1,
             (k2, k2): 1, (k1, k2): -1, (k2, k3): -1, (k1, k3): 1,
             ("m", k2): -1, ("m", k4): -1, ("m", k1): 1, ("m", k3): 1},
            {"m": 1})
        num = [L({"m": 1, k4: 1, k3: -1}), L({"m": 1, k4: 1, k1: -1})]
        den = [L({k2: 1, k4: 1, k1: -1, k3: -1}), L({"m": 1, k1: 1, k2: -1}),
               L({"m": 1, k3: 1, k2: -1})]
        sign = L({})
    else:
        quad = QuadForm.make(
            {("m", "m"): -1,
             (k3, k4): 1, (k4, k4): -1, (k1, k4): 1, (k1, k3): -1,
             ("m", k1): -1, ("m", k3): -1, ("m", k2): 1, ("m", k4): 1},
            {"m": -1})
        num = [L({"m": 1, k1: 1, k4: -1}), L({"m": 1, k3: 1, k4: -1})]
        den = [L({k1: 1, k3: 1, k2: -1, k4: -1}), L({"m": 1, k2: 1, k3: -1}),
               L({"m": 1, k2: 1, k1: -1})]
        sign = L({k1: 1, k3: 1, k2: -1, k4: -1})
    poch = tuple([PochFactor(f) for f in num]
                 + [PochFactor(f, denom=True) for f in den])
    return ProperQHTerm(colors=("m",), nu=4, poch=poch, quad=quad, sign=sign)


@cache
def habiro_figure_eight() -> ProperQHTerm:
    """Summand F(n, i) with  J_n = sum_{i=0}^{n-1} F(n, i):

        F(n, i) = q^(-n i) (q)_{n+i} (q)_{n-1} / ((q)_{n-i-1} (q)_n),

    the length-i ascending/descending Pochhammer pair written over plain
    (q)_* factors; the i >= 0 constraint survives as an explicit support
    condition.  Built once per process; the summand is frozen data, so
    every caller shares it.
    """
    i = "k1"
    return ProperQHTerm(
        colors=("n",), nu=1,
        poch=(
            PochFactor(LinearForm.make({"n": 1, i: 1})),
            PochFactor(LinearForm.make({"n": 1}, -1)),
            PochFactor(LinearForm.make({"n": 1, i: -1}, -1), denom=True),
            PochFactor(LinearForm.make({"n": 1}), denom=True),
        ),
        quad=QuadForm.make({("n", i): -1}),
        constraints=(LinearForm.make({i: 1}),),
    )


# -- lattice summation -----------------------------------------------------

_SUPPORT_MAX_WIDTH = 100000  # widest row that _row_bounds returns

def _row_bounds(rows: Sequence[tuple[int, ...]], head: tuple[int, ...],
                sym: str) -> tuple[int, int]:
    """[lo, hi] of the rows' last axis sym where head + (k,) has every row
    >= 0; the empty (0, -1) where a row with slope 0 is negative, before
    any other check; else a SupportError without a bound on either side,
    or wider than _SUPPORT_MAX_WIDTH."""
    y, lo, hi = (1, *head), None, None
    for r in rows:
        b, s = sum(map(mul, r, y)), r[-1]  # y stops before the last axis
        if s > 0:
            lo = -(b // s) if lo is None else max(lo, -(b // s))
        elif s < 0:
            hi = b // -s if hi is None else min(hi, b // -s)
        elif b < 0:
            return 0, -1
    if lo is None or hi is None:
        raise SupportError(f"non-finite support: no bounds for {sym} "
                           "follow from the factor lengths")
    if hi - lo > _SUPPORT_MAX_WIDTH:
        raise SupportError(
            f"support width for {sym} exceeds {_SUPPORT_MAX_WIDTH}")
    return lo, hi


class _ExactRun:
    """A run of stepped points at q = a/b: the running term t / d and the
    partial sum s / d, in integers over one shared denominator d.  A new
    run holds t = 1 and s = 0; its first step is a start (`_start`)."""

    def __init__(self, q: Fraction):
        self.a, self.b = q.numerator, q.denominator
        self.t, self.s, self.d = 1, 0, 1

    def refuse(self, k: int, lengths: list) -> None:
        """A start's own refusals: q = 0 under a negative exponent k, then a
        (q)_L under the bar that vanishes (only at q = 1, or at q = -1 with
        L >= 2), even where the numerator would cancel it."""
        a, b = self.a, self.b
        if not a and k < 0:
            raise DomainError("q = 0 under a negative exponent")
        if b == 1 and a in (1, -1):
            for ln, denom in lengths:
                if denom and ln >= (1 if a == 1 else 2):
                    raise PoleError(
                        f"(q)_{ln} vanishes at q = {a} under the bar")

    def step(self, flip: int, e: int, up: list, down: list) -> bool:
        """t *= (-1)^flip q^e prod_up (1 - q^j) / prod_down (1 - q^j), then
        s += t; False, with nothing changed, when a factor is zero."""
        a, b = self.a, self.b
        ups = [b ** j - a ** j for j in up]
        downs = [b ** j - a ** j for j in down]
        if (e and not a) or not all(ups) or not all(downs):
            return False
        bpow = e + sum(up) - sum(down)  # the power of b under the bar
        num = math.prod(ups) * a ** max(e, 0) * b ** max(-bpow, 0)
        den = math.prod(downs) * a ** max(-e, 0) * b ** max(bpow, 0)
        self.t *= -num if flip else num
        self.s = self.s * den + self.t
        self.d *= den
        return True

    def value(self) -> Fraction:
        return Fraction(self.s, self.d)


class _SymbolicRun:
    """A run of stepped points in q: the running term q^e t / d and the
    partial sum q^se s / d, dense integer coefficient lists, d the product
    of (1 - q^j) over the list ``down``; a new run holds t = [1], s = []
    (0) and no down factor, and refuses no start."""

    def __init__(self):
        self.e, self.se, self.t, self.s, self.down = 0, 0, [1], [], []

    def refuse(self, k: int, lengths: list) -> None:
        pass

    def step(self, flip: int, e: int, up: list, down: list) -> bool:
        t, s = self.t, self.s
        if flip:
            t[:] = map(neg, t)
        for j in up:
            _times_one_minus(t, j)
        for j in down:
            _times_one_minus(s, j)
        self.down += down
        self.e += e
        if not s:  # the first step: the sum starts where the term does
            self.se = self.e
        shift = self.e - self.se
        if shift < 0:
            s[:0] = [0] * -shift
            self.se, shift = self.e, 0
        end = shift + len(t)
        s.extend([0] * (end - len(s)))
        s[shift:end] = map(add, s[shift:end], t)
        return True

    def value(self) -> Union[LaurentMPoly, RationalFunction]:
        """s / d with each (1 - q^j) that divides s divided out of it: a
        Laurent polynomial when every one does, else a rational function
        over the rest."""
        s, rest = self.s, [1]
        for j in self.down:
            u = _over_one_minus(s, j)
            if u is None:
                _times_one_minus(rest, j)
            else:
                s = u
        if rest == [1]:
            return _dense_q(s, self.se)
        from .ratfun import RationalFunction
        return RationalFunction(_dense_q(s, self.se), _dense_q(rest))


def lattice_sum(term: ProperQHTerm, colors: Sequence[int],
                qval: Optional[Scalar] = None
                ) -> Union[Fraction, RationalFunction]:
    """Sum the summand over its support at fixed colors, which must be
    certified bounded: the exact value at q = qval, or with qval None the
    rational function of q, row by row as the module docstring says."""
    colors = _int_point(colors)
    if len(colors) != len(term.colors):
        raise DomainError("wrong number of colors")
    if qval is not None:
        return _run_sum(term, colors, partial(_ExactRun, _rational_q(qval)))
    from .ratfun import as_ratfun
    return as_ratfun(_run_sum(term, colors, _SymbolicRun))


def _run_sum(term: ProperQHTerm, colors: tuple[int, ...], ring):
    """`lattice_sum` at checked colors in the ring whose runs ``ring()``
    builds: the sum of the runs' values."""
    plan, nu, heads = term._plan, term.nu, [colors]
    for i, bound in enumerate(plan.bounds[:-1], 1):  # the outer axes
        nxt = []
        for h in heads:
            lo, hi = _row_bounds(bound, h, f"k{i}")
            nxt.extend(h + (k,) for k in range(lo, hi + 1))
        heads = nxt
    # with nu = 0 the one point is a row along the color
    rows = [(h, *_row_bounds(plan.support, h, f"k{nu}"))
            for h in heads] if nu else [((), colors[0], colors[0])]
    delta, dslope, den = plan.delta, plan.delta[-1], plan.quad[2]
    flip, moving = plan.sign[-1] % 2, plan.moving
    values = []  # one per run
    for head, lo, hi in rows:
        cur = None  # the run at point k - 1, to be stepped to k
        for k in range(lo, hi + 1):
            if cur is not None:
                up, down = [], []
                for ln, (_, j0, j1, above) in zip(lens, moving):
                    (up if above else down).extend(range(ln + j0, ln + j1))
                if not e % den and cur.step(flip, e // den, up, down):
                    lens = [ln + r[-1] for ln, (r, *_) in zip(lens, moving)]
                    e += dslope
                    continue
                values.append(cur.value())
            cur = term._start(head + (k,), ring())
            if cur is not None and k < hi:  # a row's last point never steps
                y = (1, *head, k)
                lens = [sum(map(mul, r, y)) for r, *_ in moving]
                e = sum(map(mul, delta, y))
        if cur is not None:
            values.append(cur.value())
    return sum(values[1:], values[0]) if values else ring().value()


def jones_symbolic(n: int) -> LaurentMPoly:
    """The built-in knot's colored polynomial at color n, exactly, as a
    Laurent polynomial in q."""
    if _int_point((n,))[0] < 1:
        raise DomainError("color must be a positive integer")
    # the figure-eight's runs have no down factor: a Laurent polynomial
    return _run_sum(habiro_figure_eight(), (n,), _SymbolicRun)


def jones_eval(n: int, qval: Scalar) -> Fraction:
    if _int_point((n,))[0] < 1:
        raise DomainError("color must be a positive integer")
    return lattice_sum(habiro_figure_eight(), (n,), _rational_q(qval))
