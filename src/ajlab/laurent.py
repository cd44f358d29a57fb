"""Sparse multivariate Laurent polynomials over exact rationals: the ring
every layer computes in.

A polynomial is a mapping from integer exponent vectors to exact rational
coefficients together with the tuple of variable names the exponents refer
to.  Construction canonicalizes: zero coefficients are dropped, variables
that appear in no term are pruned, the survivors are put into one fixed
global order (`var_sort_key`), and each coefficient is an ``int`` when
integral and a ``Fraction`` only when not (`_coeff`) — so mathematically
equal polynomials are structurally equal, whatever route built them, and
integer polynomials compute in Python integers.  Numbers returned
(``constant_value``, ``eval_exact``) are ``Fraction``s.  Negative
exponents are legal everywhere.  In one variable products key terms by
int exponents.

Three conventions the other layers share live here and nowhere else:
immutability, the limit at q = 1 and the text form.  Every value type of
the package (polynomials, rational functions, operators, summand forms,
result records) takes its immutability from one base, ``Immutable``:
slotted fields set once in ``__init__``, with field-tuple equality,
hashing and repr for the plain records.  ``limit_at_one`` gives the order
of vanishing at q = 1 and the lowest nonzero Taylor coefficient.
``format_poly`` writes the canonical text that ``poly.parse_poly`` reads.

The algorithms that need honest polynomials (gcd, exact division,
resultant, square-free part) and the parser are in `poly`; a summand's
values need none of them, so the colored Jones path loads this module
alone.

Term order used for leading-term decisions and for text output is graded
lexicographic (total degree first, then lex on the exponent vector), which
is only a bookkeeping order for Laurent exponents but is total and fixed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, attrgetter
from typing import Mapping, Sequence, Union

from .errors import DomainError, PoleError

Coeff = Union[int, Fraction]

# Canonical variable order.  Indexed families (Qt1, Qt2, ..., w1, w2, ...)
# sort by index inside their family.  Unknown names sort after everything,
# alphabetically, so user-invented symbols still get a deterministic order.
_FAMILIES = (
    "q", "Q", "Qm", "Qt", "E", "Em", "Et", "l", "alpha", "w", "x",
)


def _split_name(name: str) -> tuple[str, int]:
    i = len(name)
    while i > 0 and name[i - 1].isdigit():
        i -= 1
    base, digits = name[:i], name[i:]
    return base, (int(digits) if digits else 0)


def var_sort_key(name: str) -> tuple[int, int, str]:
    base, idx = _split_name(name)
    try:
        fam = _FAMILIES.index(base)
    except ValueError:
        fam = len(_FAMILIES)
    return (fam, idx, name)


def _coeff(c: Coeff) -> Coeff:
    """c in the canonical coefficient form: an int when integral, else a
    Fraction (whose denominator is then not 1)."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _term_sort_key(exp: tuple[int, ...]) -> tuple:
    # graded-lex, descending when used with reverse=True
    return (sum(exp), exp)


class Immutable:
    """Base of every value type: a subclass lists its fields, in order, as
    ``__slots__`` and sets them in ``__init__`` with
    ``object.__setattr__``; afterwards assignment and deletion raise
    AttributeError.  Its fields are the slots that do not start with
    ``_``; a private slot holds data derived from them.  Unless the
    subclass defines its own, it compares and hashes as the tuple of its
    fields (objects of different classes are never equal) and prints as
    ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls._fields = tuple(s for s in cls.__slots__ if s[0] != "_")
        cls._field_values = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == self._field_values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class LaurentMPoly(Immutable):
    """Immutable sparse Laurent polynomial with int-or-Fraction canonical
    coefficients.  The public constructor checks and canonicalizes input
    from outside; results canonical by construction (variables in the
    global order, one entry per exponent vector) go through the trusted
    `_build`, which only drops zeros, turns integral Fractions into ints
    and prunes variables that no longer occur."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Coeff]):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise DomainError(f"duplicate variable in context {vars}")
        clean: dict[tuple[int, ...], Coeff] = {}
        for exp, c in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(vars):
                raise DomainError(
                    f"exponent vector {exp} does not match context {vars}")
            c = _coeff(c)
            clean[exp] = clean[exp] + c if exp in clean else c
        # enforce canonical variable order
        order = sorted(range(len(vars)), key=lambda i: var_sort_key(vars[i]))
        if order != list(range(len(vars))):
            vars = tuple(vars[i] for i in order)
            clean = {tuple(e[i] for i in order): c for e, c in clean.items()}
        self._fill(vars, clean)

    @classmethod
    def _build(cls, vars: tuple[str, ...],
               terms: Mapping[tuple[int, ...], Coeff]) -> "LaurentMPoly":
        """The trusted constructor: vars must be in canonical order and
        every key an exponent vector over them, each once."""
        self = object.__new__(cls)
        self._fill(vars, terms)
        return self

    def _fill(self, vars: tuple[str, ...],
              terms: Mapping[tuple[int, ...], Coeff]) -> None:
        terms = {e: c if type(c) is int
                 else c.numerator if c.denominator == 1 else c
                 for e, c in terms.items() if c}
        # prune variables that never occur
        if vars and not (terms and all(map(any, zip(*terms)))):
            used = [i for i, col in enumerate(zip(*terms)) if any(col)]
            vars = tuple(vars[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentMPoly":
        return LaurentMPoly._build((), {})

    @staticmethod
    def const(c: Coeff) -> "LaurentMPoly":
        return LaurentMPoly._build((), {(): _coeff(c)})

    @staticmethod
    def var(name: str, power: int = 1) -> "LaurentMPoly":
        return LaurentMPoly._build((name,), {(power,): 1})

    @staticmethod
    def monomial(c: Coeff, powers: Mapping[str, int]) -> "LaurentMPoly":
        names = tuple(sorted(powers, key=var_sort_key))
        return LaurentMPoly._build(
            names, {tuple(powers[n] for n in names): _coeff(c)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Fraction:
        if self.vars:
            raise DomainError(f"{self} is not constant")
        return Fraction(self.terms.get((), 0))

    def degree(self, v: str) -> int:
        """Maximum exponent of v (0 if absent; -1 for the zero polynomial
        to keep degree comparisons conventional)."""
        if self.is_zero():
            return -1
        if v not in self.vars:
            return 0
        i = self.vars.index(v)
        return max(e[i] for e in self.terms)

    def min_degree(self, v: str) -> int:
        if self.is_zero():
            return 0
        if v not in self.vars:
            return 0
        i = self.vars.index(v)
        return min(e[i] for e in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        return sorted(self.terms.items(), key=lambda t: _term_sort_key(t[0]),
                      reverse=True)

    def leading(self) -> tuple[tuple[int, ...], Coeff]:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading term")
        exp = max(self.terms, key=_term_sort_key)
        return exp, self.terms[exp]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentMPoly.const(other)
        if not isinstance(other, LaurentMPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it must hash like it
        if not self.vars:
            return hash(self.terms.get((), 0))
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"LaurentMPoly({format_poly(self)!r})"

    # -- context merging ---------------------------------------------------

    def _embedded(self, vars: tuple[str, ...]) -> Mapping[tuple[int, ...], Coeff]:
        """Exponent dict re-indexed into the larger context ``vars``; the
        terms themselves, not a copy, when the contexts are equal."""
        if vars == self.vars:
            return self.terms
        pos = [vars.index(v) for v in self.vars]
        n = len(vars)
        out = {}
        for e, c in self.terms.items():
            big = [0] * n
            for p, ev in zip(pos, e):
                big[p] = ev
            out[tuple(big)] = c
        return out

    @staticmethod
    def _merge_vars(a: "LaurentMPoly", b: "LaurentMPoly") -> tuple[str, ...]:
        if a.vars == b.vars or not b.vars:
            return a.vars
        if not a.vars:
            return b.vars
        return tuple(sorted(set(a.vars) | set(b.vars), key=var_sort_key))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LaurentMPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentMPoly.const(other)
        if not isinstance(other, LaurentMPoly):
            return NotImplemented
        vars = self._merge_vars(self, other)
        terms = dict(self._embedded(vars))
        for e, c in other._embedded(vars).items():
            terms[e] = terms[e] + c if e in terms else c
        return LaurentMPoly._build(vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentMPoly":
        return LaurentMPoly._build(self.vars,
                                   {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentMPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentMPoly.const(other)
        if not isinstance(other, LaurentMPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentMPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentMPoly":
        if isinstance(other, LaurentMPoly) and not self.vars:
            self, other = other, self  # a constant multiplies as a scalar
        if isinstance(other, LaurentMPoly) and not other.vars:
            other = other.terms.get((), 0)
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if c == 1:
                return self
            return LaurentMPoly._build(self.vars,
                                       {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, LaurentMPoly):
            return NotImplemented
        vars = self._merge_vars(self, other)
        if len(vars) == 1:  # univariate: int exponent keys
            bt = [(eb, cb) for (eb,), cb in other.terms.items()]
            uni: dict[int, Coeff] = {}
            for (ea,), ca in self.terms.items():
                for eb, cb in bt:
                    uni[ea + eb] = uni.get(ea + eb, 0) + ca * cb
            return LaurentMPoly._build(vars, {(e,): c for e, c in uni.items()})
        at = self._embedded(vars)
        bt = other._embedded(vars)
        out: dict[tuple[int, ...], Coeff] = {}
        for ea, ca in at.items():
            for eb, cb in bt.items():
                e = tuple(map(add, ea, eb))
                acc = out.get(e)
                out[e] = ca * cb if acc is None else acc + ca * cb
        return LaurentMPoly._build(vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentMPoly":
        if not isinstance(n, int):
            raise TypeError("polynomial power must be an integer")
        if n < 0:
            raise DomainError("negative power of a polynomial; use RationalFunction")
        result = LaurentMPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_var(self, v: str, k: int) -> "LaurentMPoly":
        """Multiply by v**k (Laurent monomial)."""
        return self._times_monomial({v: k}) if k else self

    def _times_monomial(self, powers: Mapping[str, int]) -> "LaurentMPoly":
        """Multiply by the product of v**k over powers, by shifting
        exponents rather than multiplying coefficients."""
        new = tuple(v for v, k in powers.items() if k and v not in self.vars)
        vars = self.vars + new
        pad = (0,) * len(new)
        shift = [powers.get(v, 0) for v in vars]
        terms = {tuple(map(add, e + pad, shift)): c
                 for e, c in self.terms.items()}
        # appended variables break the canonical order: re-sort them
        return (LaurentMPoly(vars, terms) if new
                else LaurentMPoly._build(vars, terms))

    def map_coeffs(self, f) -> "LaurentMPoly":
        return LaurentMPoly(self.vars, {e: f(c) for e, c in self.terms.items()})

    def subst_monomials(self, images: Mapping[str, "LaurentMPoly"]
                        ) -> "LaurentMPoly":
        """Substitute for each variable v in images the monomial
        images[v] = c * x^a, or zero, all at once.  Exponent vectors map
        linearly (v^k -> x^(k*a)) and a term's coefficient picks up c^k;
        v^k with v bound to zero drops the term for k > 0 and raises
        DomainError for k < 0, as does an image with two or more terms."""
        if not any(v in images for v in self.vars):
            return self
        names = tuple(sorted({v for v in self.vars if v not in images} | {
            u for v in self.vars if v in images for u in images[v].vars},
            key=var_sort_key))
        col = {u: i for i, u in enumerate(names)}
        rows = []  # per variable: (image coefficient, [(column, power)])
        for v in self.vars:
            img = images.get(v)
            if img is None:
                rows.append((1, [(col[v], 1)]))
            elif len(img.terms) > 1:
                raise DomainError(
                    f"{v} is bound to {format_poly(img)}, not a monomial")
            else:
                (e, c), = img.terms.items() or [((), 0)]
                rows.append((c, [(col[u], a) for u, a in zip(img.vars, e)]))
        out: dict[tuple[int, ...], Coeff] = {}
        for e, c in self.terms.items():
            ne = [0] * len(names)
            for v, k, (f, row) in zip(self.vars, e, rows):
                if not k:
                    continue
                if not f and k < 0:
                    raise DomainError(
                        f"negative power of {v} with {v} bound to zero")
                if f != 1:  # zero for v bound to zero; int ** -k is a float
                    c = c * f ** k if k > 0 else Fraction(c, f ** -k)
                for j, a in row:
                    ne[j] += a * k
            key = tuple(ne)
            out[key] = out[key] + c if key in out else c
        return LaurentMPoly._build(names, out)

    # -- structure ---------------------------------------------------------

    def coeff_of(self, v: str, k: int) -> "LaurentMPoly":
        """Coefficient of v**k, a polynomial not involving v."""
        if v not in self.vars:
            return self if k == 0 else LaurentMPoly.zero()
        i = self.vars.index(v)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {e[:i] + e[i + 1:]: c for e, c in self.terms.items() if e[i] == k}
        return LaurentMPoly._build(rest, terms)

    def as_univariate(self, v: str) -> dict[int, "LaurentMPoly"]:
        """Map exponent-of-v -> coefficient polynomial (v removed)."""
        if v not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(v)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict[int, dict[tuple[int, ...], Coeff]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {k: LaurentMPoly._build(rest, t) for k, t in buckets.items()}

    def derivative(self, v: str) -> "LaurentMPoly":
        if v not in self.vars:
            return LaurentMPoly.zero()
        i = self.vars.index(v)
        out: dict[tuple[int, ...], Coeff] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ne] = out.get(ne, 0) + c * e[i]
        return LaurentMPoly._build(self.vars, out)

    def laurent_unit(self) -> dict[str, int]:
        """Per-variable minimum exponent (the monomial content's powers)."""
        return dict(zip(self.vars, map(min, zip(*self.terms))))

    def clear_laurent(self) -> tuple["LaurentMPoly", dict[str, int]]:
        """Divide out the Laurent monomial content so every exponent is >= 0
        and each variable genuinely occurs with exponent 0 somewhere.
        Returns (polynomial part, extracted powers)."""
        unit = {v: m for v, m in self.laurent_unit().items() if m != 0}
        if not unit:
            return self, unit
        return self._times_monomial({v: -m for v, m in unit.items()}), unit

    def clear_negative(self) -> "LaurentMPoly":
        """Shift only the negative exponents up to zero, leaving honest
        polynomials untouched."""
        neg = {v: -m for v, m in self.laurent_unit().items() if m < 0}
        return self._times_monomial(neg) if neg else self

    def eval_exact(self, point: Mapping[str, Coeff]) -> Fraction:
        """Evaluate at exact rational values for every variable.

        The sum runs in integers: with x = a/b and the exponents of x in
        [lo, hi], x^k = a^(k-lo) * b^(hi-k) * a^lo / b^hi, so each term is
        an integer over one common denominator, and one Fraction is built
        at the end."""
        for v in self.vars:
            if v not in point:
                raise DomainError(f"no value supplied for variable {v}")
        cden = math.lcm(*(c.denominator for c in self.terms.values()))
        num, den = 1, cden
        weights = []  # per variable: exponent -> a^(k-lo) * b^(hi-k)
        for i, v in enumerate(self.vars):
            x = _coeff(point[v])
            a, b = x.numerator, x.denominator
            ks = {e[i] for e in self.terms}
            lo, hi = min(ks), max(ks)
            if lo < 0 and not a:
                raise DomainError("zero raised to a negative power "
                                  "during evaluation")
            weights.append({k: a ** (k - lo) * b ** (hi - k) for k in ks})
            num *= a ** max(lo, 0) * b ** max(-hi, 0)
            den *= a ** max(-lo, 0) * b ** max(hi, 0)
        total = 0
        for e, c in self.terms.items():
            t = c.numerator * (cden // c.denominator) if cden != 1 else c
            for w, k in zip(weights, e):
                t *= w[k]
            total += t
        return Fraction(total * num, den)

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        for v in self.vars:
            if v not in point:
                raise DomainError(f"no value supplied for variable {v}")
        total = 0j
        for e, c in self.terms.items():
            t = complex(c)
            for v, k in zip(self.vars, e):
                if k:
                    try:
                        t *= complex(point[v]) ** k
                    except ZeroDivisionError:
                        raise PoleError(
                            f"negative power of {v} at {v} = 0") from None
            total += t
        return total


# -- the q -> 1 limit -------------------------------------------------------

def _binom(n: int, j: int) -> int:
    """n(n-1)...(n-j+1)/j!, for negative n too."""
    return math.comb(n, j) if n >= 0 else (-1) ** j * math.comb(j - n - 1, j)


def limit_at_one(p: LaurentMPoly) -> tuple[int, LaurentMPoly]:
    """(k, c) with p = (q - 1)^k * u and c = u at q = 1, nonzero and free
    of q; the other variables, Laurent powers included, are kept.

    c is the lowest nonzero Taylor coefficient of p at q = 1.  The j-th one
    is the sum of c_e * binom(e_q, j) over the terms, with the binomial
    generalized to negative exponents, so powers of q need no clearing.
    p = q^a * P with P a polynomial of degree d vanishes to order at most
    d, so the search ends.
    """
    if p.is_zero():
        raise DomainError("limit at q = 1 of the zero polynomial")
    if "q" not in p.vars:
        return 0, p
    i = p.vars.index("q")
    rest = p.vars[:i] + p.vars[i + 1:]
    split = [(e[i], e[:i] + e[i + 1:], c) for e, c in p.terms.items()]
    k = 0
    while True:
        out: dict[tuple[int, ...], Coeff] = {}
        for ev, key, c in split:
            b = _binom(ev, k)
            if b:
                out[key] = out.get(key, 0) + c * b
        coeff = LaurentMPoly._build(rest, out)
        if coeff:
            return k, coeff
        k += 1


# -- formatting ------------------------------------------------------------

def format_coeff(c: Coeff) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p: LaurentMPoly) -> str:
    """Canonical text form: graded-lex descending terms, '^' powers,
    '*' products, coefficients as integers or num/den."""
    if p.is_zero():
        return "0"
    parts = []
    for exp, c in p.sorted_terms():
        factors = []
        for v, k in zip(p.vars, exp):
            if k == 0:
                continue
            factors.append(v if k == 1 else f"{v}^{k}")
        mag = abs(c)
        if not factors:
            body = format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_coeff(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
