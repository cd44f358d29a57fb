"""gcd, exact division, contents, resultants and the text parser over the
Laurent-polynomial ring of `laurent`.

The classical algorithms (gcd, resultant, square-free part) require
honest polynomials, so they clear Laurent units first; see the individual
functions for what is and is not reapplied.

gcd and exact division also split off the rational content and work on
integer coefficients.  ``gcd_cofactors`` runs the heuristic GCDHEU first
(Char, Geddes & Gonnet 1989: evaluate at a large integer, take an integer
gcd, interpolate back, check by division, whose quotients are the
cofactors) with the primitive PRS as the fallback; ``exact_divide`` is one
integer long division, or a scaled shift when the divisor is a monomial.
In one variable the long division and GCDHEU's evaluation and lifting run
on dense coefficient lists and plain ints.  A single term is coprime to
any nonzero polynomial, so ``gcd_cofactors`` returns such a pair at once.

Two conventions the other layers share live here and nowhere else: the
sign/content rule (``signed_content`` and ``normalized``: coprime integer
coefficients, leading coefficient positive) and cancellation of a pair by
its gcd (``gcd_cofactors``).  The ring itself, ``Immutable``, the limit at
q = 1 and ``format_poly`` are `laurent`'s; ``parse_poly`` here reads the
text ``format_poly`` writes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping

from .errors import DomainError
from .laurent import LaurentMPoly, _term_sort_key, var_sort_key

# -- integer-polynomial core -----------------------------------------------
#
# gcd and exact division run on integer polynomials: plain dicts
# {exponent tuple: nonzero int} over a variable tuple the caller holds.

def _integer_primitive(p: LaurentMPoly,
                       vars: tuple[str, ...]) -> tuple[Fraction, dict]:
    """(rational_content(p), p / content as an integer dict over vars)."""
    cont = rational_content(p)
    terms = p._embedded(vars)
    if cont == 1:  # integral coefficients already; the dicts are read-only
        return cont, terms
    n, d = cont.numerator, cont.denominator
    return cont, {e: c.numerator // n * (d // c.denominator)
                  for e, c in terms.items()}


def _neg_glex(e: tuple[int, ...]) -> tuple:
    # graded-lex key negated, so heapq's min-heap pops the largest term
    return (-sum(e), tuple(-x for x in e))


def _zz_divide(a: dict, b: dict) -> dict | None:
    """Quotient a/b of integer polynomials when b divides a over the
    integers; None otherwise.  b must be nonzero and no exponent negative.
    Univariate pairs go to `_dense_divide`, the rest to `_heap_divide`."""
    return (_dense_divide if len(next(iter(b))) == 1 else _heap_divide)(a, b)


def _heap_divide(a: dict, b: dict) -> dict | None:
    """`_zz_divide` in any number of variables.

    Long division by the graded-lex leading term of b, with the remainder's
    terms on a heap.  Each step cancels the remainder's leading term and
    adds only smaller ones, and graded-lex well-orders exponent vectors
    with nonnegative entries, so the loop ends.
    """
    # imported on first use: loading the _heapq extension at package
    # import measurably lengthens every cold start (the benchmark's setup_s)
    import heapq

    lead_b = max(b, key=_term_sort_key)
    cb = b[lead_b]
    tail = [(e, c) for e, c in b.items() if e != lead_b]
    rem = dict(a)
    heap = [(_neg_glex(e), e) for e in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = rem.pop(e, 0)
        if not c:  # cancelled, or a stale duplicate entry
            continue
        qe = tuple(x - y for x, y in zip(e, lead_b))
        qc, r = divmod(c, cb)
        if r or min(qe, default=0) < 0:
            return None
        quot[qe] = qc
        for eb, c_b in tail:
            t = tuple(x + y for x, y in zip(qe, eb))
            old = rem.get(t)
            if old is None:
                rem[t] = -qc * c_b
                heapq.heappush(heap, (_neg_glex(t), t))
            elif old == qc * c_b:
                del rem[t]
            else:
                rem[t] = old - qc * c_b
    return quot


def _eval_last(f: dict, xi: int) -> dict:
    """f with its last variable set to the integer xi."""
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.items():
        k = e[:-1]
        out[k] = out.get(k, 0) + c * xi ** e[-1]
    return {e: c for e, c in out.items() if c}


def _interpolate(h: dict, xi: int) -> dict:
    """The polynomial in one more (last) variable whose value at xi is h,
    read off digit by digit in base xi with symmetric residues."""
    out = {}
    half = xi // 2
    k = 0
    while h:
        rest = {}
        for e, c in h.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e + (k,)] = r
            c = (c - r) // xi
            if c:
                rest[e] = c
        h = rest
        k += 1
    return out


# Univariate kernels: the same results as _heap_divide, _eval_last and
# _interpolate for dicts keyed by 1-tuples (exponents >= 0), on dense
# coefficient lists and plain ints instead of tuples and heaps.

def _dense_divide(a: dict, b: dict) -> dict | None:
    """`_zz_divide` for univariate a and b: dense long division."""
    (db,), cb = max(b.items())
    tail = [(e, c) for (e,), c in b.items() if e != db]
    rem = [0] * (max(a, default=(0,))[0] + 1)
    for (e,), c in a.items():
        rem[e] = c
    quot = {}
    for k in range(len(rem) - 1 - db, -1, -1):
        if c := rem[k + db]:
            qc, r = divmod(c, cb)
            if r:
                return None
            quot[(k,)] = qc
            for e, c_b in tail:
                rem[k + e] -= qc * c_b
    # what is left below the divisor's degree is the remainder
    return None if any(rem[:db]) else quot


def _horner(f: dict, xi: int) -> dict:
    """`_eval_last` for univariate f: {(): f(xi)}, or {} when that is 0."""
    coeffs = [0] * (max(f)[0] + 1)
    for (e,), c in f.items():
        coeffs[e] = c
    v = 0
    for c in reversed(coeffs):
        v = v * xi + c
    return {(): v} if v else {}


def _digits(h: dict, xi: int) -> dict:
    """`_interpolate` for a scalar image h = {(): c}."""
    out = {}
    half = xi // 2
    c, k = h.get((), 0), 0
    while c:
        r = c % xi
        if r > half:
            r -= xi
        if r:
            out[(k,)] = r
        c = (c - r) // xi
        k += 1
    return out


# values of xi GCDHEU tries before poly_gcd falls back to the PRS
_HEU_TRIES = 6


def _heu_gcd(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """(h, f/h, g/h), h the gcd of two nonzero integer polynomials up to
    sign, by GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989); None
    when it gives up.

    Setting the last variable to an integer xi reduces the problem by one
    variable, down to an integer gcd; the image gcd is lifted back by
    xi-adic interpolation.  Because xi starts above 2*min(|f|, |g|) + 2
    (max norms), a primitive candidate that divides both inputs is the gcd
    itself, not merely a common divisor, and the check's quotients are the
    cofactors.
    """
    if not f or not g:  # xi was a root of an input one level up
        return None
    if not next(iter(f)):  # no variables left: two integers
        h = math.gcd(f[()], g[()])
        return {(): h}, {(): f[()] // h}, {(): g[()] // h}
    cont = math.gcd(*f.values(), *g.values())
    if cont != 1:
        f = {e: c // cont for e, c in f.items()}
        g = {e: c // cont for e, c in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    evaluate, lift = ((_horner, _digits) if len(next(iter(f))) == 1
                      else (_eval_last, _interpolate))
    for _ in range(_HEU_TRIES):
        image = _heu_gcd(evaluate(f, xi), evaluate(g, xi))
        if image is None:
            return None
        h = lift(image[0], xi)
        if len(h) == 1 and not any(next(iter(h))):
            return {next(iter(h)): cont}, f, g
        hc = math.gcd(*h.values())
        h = {e: c // hc for e, c in h.items()}
        qf = _zz_divide(f, h)
        if qf is not None and (qg := _zz_divide(g, h)) is not None:
            return {e: c * cont for e, c in h.items()}, qf, qg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


# -- exact division, content and sign -------------------------------------

def exact_divide(a: LaurentMPoly, b: LaurentMPoly) -> LaurentMPoly:
    """Quotient a/b when b divides a exactly; DomainError otherwise.

    Laurent units and rational contents are split off both inputs; the
    integer parts go through one integer long division, and the net unit
    and content are put back on the quotient.  A monomial b needs no
    division: a is scaled and shifted.
    """
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    if a.is_zero():
        return a
    pb, ub = b.clear_laurent()
    if not pb.vars:
        q = a * (1 / pb.constant_value())
        return q._times_monomial({v: -k for v, k in ub.items()}) if ub else q
    pa, ua = a.clear_laurent()
    vars = LaurentMPoly._merge_vars(pa, pb)
    ca, fa = _integer_primitive(pa, vars)
    cb, fb = _integer_primitive(pb, vars)
    quot = _zz_divide(fa, fb)
    if quot is None:
        raise DomainError("polynomials do not divide exactly")
    return _with_units(vars, quot, ca / cb, {
        v: ua.get(v, 0) - ub.get(v, 0) for v in set(ua) | set(ub)})


def _with_units(vars: tuple[str, ...], quot: dict, scale: Fraction,
                unit: Mapping[str, int]) -> LaurentMPoly:
    """quot over vars times scale and the monomial with powers unit: an
    integer quotient with the units its division split off put back."""
    q = LaurentMPoly._build(vars, {e: c * scale for e, c in quot.items()}
                            if scale != 1 else quot)
    return q._times_monomial(unit) if any(unit.values()) else q


def rational_content(p: LaurentMPoly) -> Fraction:
    """Positive rational c with p/c having coprime integer coefficients."""
    if p.is_zero():
        return Fraction(1)
    if all(type(c) is int for c in p.terms.values()):
        return Fraction(math.gcd(*p.terms.values()))
    num = 0
    den = 1
    for c in p.terms.values():
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den)


def signed_content(p: LaurentMPoly, main: str | None = None) -> Fraction:
    """The rational content of p, negated when p's leading coefficient is
    negative: the graded-lex one, or, with ``main`` given, that of the
    coefficient of the top power of ``main``.  1 for the zero polynomial.

    This is the one sign/content convention: p divided by it (`normalized`)
    has coprime integer coefficients and that leading coefficient positive.
    """
    if p.is_zero():
        return Fraction(1)
    top = p if main is None else p.coeff_of(main, p.degree(main))
    c = rational_content(p)
    return -c if top.leading()[1] < 0 else c


def normalized(p: LaurentMPoly, main: str | None = None) -> LaurentMPoly:
    """p divided by its `signed_content`."""
    c = signed_content(p, main)
    return p if c == 1 else p * (1 / c)


def _content_and_primitive_wrt(p: LaurentMPoly, v: str) -> tuple[LaurentMPoly, LaurentMPoly]:
    """Content = gcd of the v-coefficients (a polynomial without v)."""
    # fewest terms first, then lowest degree, then the power of v: the
    # fold does the same work however p was built, and the small
    # coefficients that end it soonest come first
    uni = p.as_univariate(v)
    coeffs = [uni[k] for k in sorted(
        uni, key=lambda k: (len(uni[k].terms), uni[k].total_degree(), k))]
    if not coeffs:
        return LaurentMPoly.zero(), LaurentMPoly.zero()
    # the fold starts at the first coefficient, which is poly_gcd(0, c);
    # a constant gcd is 1 and ends it
    cont = normalized(coeffs[0].clear_laurent()[0])
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = poly_gcd(cont, c)
    pp = exact_divide(p, cont)
    # also strip the rational scale, keeping cont * pp == p exact; without
    # this the PRS coefficients compound geometrically across steps
    rc = rational_content(pp)
    if rc != 1:
        pp = pp * (1 / rc)
        cont = cont * rc
    return cont, pp


def _pseudo_rem(a: LaurentMPoly, b: LaurentMPoly, v: str) -> LaurentMPoly:
    """Pseudo-remainder: lc(b)^(da-db+1) * a  =  q*b + r with deg_v r < deg_v b."""
    da, db = a.degree(v), b.degree(v)
    if db < 0:
        raise DomainError("pseudo-remainder by zero")
    if da < db:
        return a
    bu = b.as_univariate(v)
    lb = bu[db]
    rem = a
    for _ in range(da - db + 1):
        dr = rem.degree(v)
        if rem.is_zero() or dr < db:
            rem = rem * lb
            continue
        lr = rem.as_univariate(v)[dr]
        rem = rem * lb - b * lr.shift_var(v, dr - db)
    return rem


_ONE = LaurentMPoly.const(1)


def poly_gcd(a: LaurentMPoly, b: LaurentMPoly) -> LaurentMPoly:
    """GCD in the polynomial ring after clearing Laurent units: primitive,
    with positive graded-lex leading coefficient and no monomial content;
    constants collapse to 1 (rationals are units)."""
    return gcd_cofactors(a, b)[0]


def gcd_cofactors(a: LaurentMPoly, b: LaurentMPoly
                  ) -> tuple[LaurentMPoly, LaurentMPoly, LaurentMPoly]:
    """(g, a/g, b/g) with g = `poly_gcd`(a, b), the one way to cancel a pair
    by its gcd; each cofactor keeps its input's Laurent unit and rational
    content.  GCDHEU first, whose divisibility check leaves the cofactors;
    the PRS (`_prs_gcd`) and `exact_divide` when it gives up.  A coprime
    pair, and a zero input, come back as they went in; a single term is
    coprime to any nonzero polynomial, so such a pair returns at once."""
    if len(a.terms) == 1 and b.terms or len(b.terms) == 1 and a.terms:
        return _ONE, a, b
    pa, ua = a.clear_laurent()
    pb, ub = b.clear_laurent()
    if pa.is_zero() or pb.is_zero():
        g = normalized(pa + pb)
        # a nonzero input is g times its sign, content and Laurent unit
        if g.is_zero():
            return g, a, b
        if pb.is_zero():
            return g, LaurentMPoly.monomial(signed_content(pa), ua), b
        return g, a, LaurentMPoly.monomial(signed_content(pb), ub)
    if pa.is_constant() or pb.is_constant():
        return _ONE, a, b
    vars = LaurentMPoly._merge_vars(pa, pb)
    ca, fa = _integer_primitive(pa, vars)
    cb, fb = _integer_primitive(pb, vars)
    heu = _heu_gcd(fa, fb)
    if heu is None:
        g = _prs_gcd(pa, pb)
        return g, exact_divide(a, g), exact_divide(b, g)
    h, qa, qb = heu
    if len(h) == 1 and not any(next(iter(h))):
        return _ONE, a, b
    g = LaurentMPoly._build(vars, h)
    s = signed_content(g)  # +-1, as h is primitive
    return (g if s == 1 else -g, _with_units(vars, qa, ca * s, ua),
            _with_units(vars, qb, cb * s, ub))


def _prs_gcd(a: LaurentMPoly, b: LaurentMPoly) -> LaurentMPoly:
    """`poly_gcd` by recursive primitive PRS on the last variable in the
    canonical order, for nonconstant inputs without Laurent units.

    The v-contents come from `poly_gcd`, which drops monomial factors, so
    the PRS result can carry monomial content; it is stripped at the end.
    """
    v = max(set(a.vars) | set(b.vars), key=var_sort_key)
    ca, pa = _content_and_primitive_wrt(a, v)
    cb, pb = _content_and_primitive_wrt(b, v)
    cg = poly_gcd(ca, cb)
    if pa.degree(v) < pb.degree(v):
        pa, pb = pb, pa
    while True:
        if pb.degree(v) <= 0:
            if pb.is_zero():
                g = pa
            else:
                g = LaurentMPoly.const(1)  # nonzero v-free remainder
            break
        r = _pseudo_rem(pa, pb, v)
        if r.is_zero():
            g = pb
            break
        _, r = _content_and_primitive_wrt(r, v)
        pa, pb = pb, r
    if g.is_constant():
        return normalized(cg)
    _, g = _content_and_primitive_wrt(g, v)
    return normalized((cg * g).clear_laurent()[0])


def poly_lcm(a: LaurentMPoly, b: LaurentMPoly) -> LaurentMPoly:
    if a.is_zero() or b.is_zero():
        return LaurentMPoly.zero()
    return normalized(gcd_cofactors(a, b)[1] * b)


# -- resultants ------------------------------------------------------------

def resultant(a: LaurentMPoly, b: LaurentMPoly, v: str) -> LaurentMPoly:
    """Resultant with respect to v via the subresultant PRS.

    Negative exponents are first shifted up to zero (the shift monomials
    are units of the Laurent ring and are not reapplied); honest
    polynomial inputs are used as-is.  Both inputs must then have positive
    degree in v.  The result is v-free and agrees with the Sylvester
    determinant, sign included.
    """
    a = a.clear_negative()
    b = b.clear_negative()
    da, db = a.degree(v), b.degree(v)
    if da <= 0 or db <= 0:
        raise DomainError(
            f"resultant needs positive degree in {v} for both inputs "
            f"(got {da} and {db})")
    sign = 1
    if da < db:
        a, b = b, a
        da, db = db, da
        if (da * db) % 2:
            sign = -sign
    # contents over the coefficient ring
    ca, A = _content_and_primitive_wrt(a, v)
    cb, B = _content_and_primitive_wrt(b, v)
    t = (ca ** db) * (cb ** da)
    g = LaurentMPoly.const(1)
    h = LaurentMPoly.const(1)
    while True:
        dA, dB = A.degree(v), B.degree(v)
        if dA % 2 and dB % 2:
            sign = -sign
        delta = dA - dB
        R = _pseudo_rem(A, B, v)
        if R.is_zero():
            # common factor of positive v-degree
            return LaurentMPoly.zero()
        A = B
        denom = g * (h ** delta)
        B = exact_divide(R, denom)
        g = A.as_univariate(v)[A.degree(v)]
        if delta:
            h = exact_divide(g ** delta, h ** (delta - 1)) if delta > 1 else g
        if B.degree(v) <= 0:
            break
    dA = A.degree(v)
    lB = B  # v-free
    res = exact_divide(lB ** dA, h ** (dA - 1)) if dA > 1 else lB
    out = t * res
    return out if sign > 0 else -out


def squarefree_part(a: LaurentMPoly, v: str) -> LaurentMPoly:
    """Distinct-factor part with respect to v; the v-free content is passed
    through untouched."""
    if a.is_zero():
        return a
    p, unit = a.clear_laurent()
    if p.degree(v) <= 0:
        return a
    cont, pp = _content_and_primitive_wrt(p, v)
    out = cont * gcd_cofactors(pp, pp.derivative(v))[1]
    for w, k in unit.items():
        if w != v:  # the unit in v itself is a repeated-factor artifact
            out = out.shift_var(w, k)
    return out


# -- parsing ------------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\d+|[\^\*\+\-/()])")

class _Parser:
    """Recursive descent over polynomial text.  `divide` and `power` are
    the two rules a reader of rational-function text widens."""

    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise DomainError(f"cannot tokenize polynomial near {text[pos:pos+20]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse_sum(self) -> LaurentMPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        acc = self.parse_product() * sign
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    sign = -sign
            acc = acc + self.parse_product() * sign
        return acc

    def parse_product(self) -> LaurentMPoly:
        acc = self.parse_factor()
        while True:
            t = self.peek()
            if t == "*":
                self.next()
                acc = acc * self.parse_factor()
            elif t == "/":
                self.next()
                acc = self.divide(acc, self.parse_factor())
            else:
                return acc

    def divide(self, acc, d):
        if not d.is_constant() or d.is_zero():
            raise DomainError("only division by a nonzero integer is "
                              "allowed inside polynomial text")
        dv = d.constant_value()
        return acc.map_coeffs(lambda c: c / dv)

    def parse_factor(self) -> LaurentMPoly:
        t = self.next()
        if t is None:
            raise DomainError("unexpected end of polynomial text")
        if t == "(":
            inner = self.parse_sum()
            if self.next() != ")":
                raise DomainError("unbalanced parenthesis in polynomial text")
            base = inner
        elif t == "-":
            return -self.parse_factor()
        elif t.isdigit():
            base = LaurentMPoly.const(int(t))
        elif t[0].isalpha():
            base = LaurentMPoly.var(t)
        else:
            raise DomainError(f"unexpected token {t!r} in polynomial text")
        if self.peek() == "^":
            self.next()
            neg = False
            e = self.next()
            if e == "-":
                neg = True
                e = self.next()
            if e is None or not e.isdigit():
                raise DomainError("malformed exponent in polynomial text")
            return self.power(base, -int(e) if neg else int(e))
        return base

    def power(self, base, k: int):
        if k >= 0:
            return base ** k
        if base.is_zero():
            raise DomainError("zero to a negative power")
        if len(base.terms) > 1:
            raise DomainError("negative power of a polynomial with more "
                              "than one term in polynomial text")
        (exp, c), = base.terms.items()
        return LaurentMPoly(base.vars, {tuple(x * k for x in exp):
                                        Fraction(1) / c ** -k})

    def parse_all(self):
        out = self.parse_sum()
        if self.peek() is not None:
            raise DomainError(
                f"trailing input in polynomial text: {self.peek()!r}")
        return out


def parse_poly(text: str) -> LaurentMPoly:
    return _Parser(text).parse_all()
