"""Command-line front end.

Every subcommand prints text by default and structured JSON with
``--format json``; ``--out`` writes the report to a file atomically.
Check-style subcommands (verify, ajcheck, propcheck) exit 1 when a check
fails, so they can gate scripts.
"""

import json
import math
import os
import pathlib
import sys
import tempfile
from fractions import Fraction

import click

from . import __version__
from .elim import aj_compare, eliminate, ratio_system
from .errors import AjlabError, DomainError
from .figure8 import (
    a_polynomial_nonabelian,
    cubic_displayed,
    cubic_operator,
    jones_evaluator,
    p0_operator,
    recurrence_report,
)
from .laurent import format_poly
from .ore import ore_apply
from .poly import parse_poly
from .potential import (
    _MAX_ITER,
    PotentialSpec,
    asymptotic_check,
    builtin_names,
    crossing_potential,
    prop_comp_check,
    solve_saddle,
    volume,
)
from .qhg import epsilon_ratio, jones_eval, jones_symbolic, shift_ratio
from .ratfun import format_ratfun


# -- argument parsing ------------------------------------------------------

# the most values one --n / --ns / --q accepts; a range 'a..b' is checked
# against it before it is expanded
MAX_VALUES = 100


def _check_count(text: str, count: int) -> None:
    if count < 1:
        raise click.BadParameter(f"no values in {text!r}")
    if count > MAX_VALUES:
        raise click.BadParameter(
            f"{count} values in {text!r}; at most {MAX_VALUES} are accepted")


def _parse_ints(ctx, param, text: str) -> list[int]:
    """Option callback: '1..8' (inclusive range) or '1,2,5'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(x) for x in text.split("..", 1))
            count = hi - lo + 1
        else:
            vals = [int(x) for x in text.split(",") if x.strip()]
            count = len(vals)
    except ValueError:
        raise click.BadParameter(
            f"{text!r} is neither a range 'a..b' nor a list 'a,b,c' of "
            "integers") from None
    _check_count(text, count)
    return list(range(lo, hi + 1)) if ".." in text else vals


def _parse_rational(ctx, param, text: str) -> Fraction:
    """Option callback: one rational such as '5/2'."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(
            f"{text.strip()!r} is not a rational such as '5/2'") from None


def _parse_rationals(ctx, param, text):
    """Option callback: comma-separated rationals such as '2,5/2'."""
    if text is None:
        return None
    vals = [_parse_rational(ctx, param, x) for x in text.split(",")
            if x.strip()]
    _check_count(text, len(vals))
    return vals


def _parse_complex(ctx, param, text: str) -> complex:
    """Option callback: one complex number 're,im' or just 're'."""
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            return complex(*(float(p) for p in parts))
    except ValueError:
        pass
    raise click.BadParameter(f"cannot read {text.strip()!r} as a complex "
                             "number 're,im'")


def _parse_start(ctx, param, text):
    """Option callback: semicolon-separated complex entries, or '@file'
    with a JSON list of numbers / [re, im] pairs."""
    if text is None:
        return None
    if not text.startswith("@"):
        out = [_parse_complex(ctx, param, p) for p in text.split(";")
               if p.strip()]
        if not out:
            raise click.BadParameter(f"no values in {text!r}")
        return tuple(out)
    try:
        doc = json.loads(pathlib.Path(text[1:]).read_text())
    except OSError as exc:
        raise click.BadParameter(f"cannot read start file: {exc}") from None
    except ValueError as exc:
        raise click.BadParameter(f"start file is not JSON: {exc}") from None
    if not isinstance(doc, list):
        raise click.BadParameter("start file must hold a JSON list")
    out = []
    for entry in doc:
        # type(), not isinstance: a JSON true or false is no number here
        if type(entry) in (int, float):
            out.append(complex(entry))
        elif (isinstance(entry, list) and len(entry) == 2
              and all(type(v) in (int, float) for v in entry)):
            out.append(complex(entry[0], entry[1]))
        else:
            raise click.BadParameter(f"bad start entry {entry!r}")
    return tuple(out)


def _flag(doc: dict, key: str, default: bool) -> bool:
    """A descriptor flag: a JSON true or false, nothing else."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise DomainError(f"{key!r} must be true or false, got {value!r}")
    return value


def _known(doc: dict, *keys: str) -> None:
    """Refuse a descriptor key outside keys, naming it."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise DomainError(f"unknown key {unknown[0]!r} in the knot descriptor")


def _read_descriptor(name_or_path: str) -> PotentialSpec:
    """--knot as a knot-table spec: a builtin name, or a JSON file
    with exactly one of {'builtin': name} and {'crossing': {'positive':
    b}}, 'mirror' optional at the top or in the crossing; a crossing's
    'normalization' may only be 'so3', and no other key is allowed."""
    if name_or_path in builtin_names():
        return PotentialSpec(name_or_path)
    path = pathlib.Path(name_or_path)
    if not path.exists():
        raise DomainError(
            f"unknown knot {name_or_path!r}: not a builtin "
            f"({', '.join(builtin_names())}) and not a file")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise DomainError(f"knot file is not JSON: {exc}") from exc
    if (not isinstance(doc, dict)
            or len({"builtin", "crossing"} & set(doc)) != 1):
        raise DomainError("knot descriptor needs a 'builtin' or 'crossing' "
                          "key, and only one")
    _known(doc, "builtin", "crossing", "mirror")
    mirror = _flag(doc, "mirror", False)
    if "builtin" in doc:
        if doc["builtin"] not in builtin_names():
            raise DomainError(f"unknown built-in knot {doc['builtin']!r}")
        return PotentialSpec(doc["builtin"], mirror)
    c = doc["crossing"]
    if not isinstance(c, dict):
        raise DomainError("'crossing' must be an object")
    _known(c, "positive", "mirror", "normalization")
    if c.get("normalization", "so3") != "so3":
        raise DomainError(f"unknown normalization {c['normalization']!r}: "
                          "a crossing is normalized as 'so3'")
    return crossing_potential(_flag(c, "positive", True),
                              _flag(c, "mirror", mirror))


def _load_term(name_or_path: str):
    """Resolve --knot to a summand; a mirrored descriptor is refused."""
    return _read_descriptor(name_or_path).summand()


# -- output ----------------------------------------------------------------

def _atomic_write(path: str, data: str) -> None:
    """Write through a temporary file beside path, which no outcome leaves
    behind; an OSError is a clean error that names path."""
    target, tmp = os.path.abspath(path), None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                   prefix=".ajlab-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise click.FileError(path, exc.strerror) from exc
        raise


def _emit(fmt: str, out, text: str, payload) -> None:
    data = (json.dumps(payload, indent=2) if fmt == "json" else text)
    if not data.endswith("\n"):
        data += "\n"
    if out:
        _atomic_write(out, data)
    else:
        click.echo(data, nl=False)


def _fmt_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 or (z.imag == 0 and
                                 str(z.imag).startswith("-")) else "+"
    return f"{z.real:.17g} {sign} {abs(z.imag):.17g}i"


def _json_complex(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _too_long() -> DomainError:
    return DomainError(
        f"value has more than {sys.get_int_max_str_digits()} digits, "
        "Python's limit for printing an integer")


def _fmt_exact(v: Fraction) -> str:
    try:
        return str(v)
    except ValueError:
        # Python refuses to print integers past a fixed number of digits
        raise _too_long() from None


def _jones_too_long(n: int, qv: Fraction) -> bool:
    """Whether J_n(a/b) surely has more digits than Python prints.

    Habiro's top term gives J_n its extreme powers q^(+-d), d = n(n-1),
    each with coefficient 1, so the reduced denominator of J_n(a/b) is
    exactly |ab|^d for q outside {0, +-1}.  Compared in logs, since n is
    unbounded; a borderline value is left to the check after evaluation.
    """
    limit = sys.get_int_max_str_digits()
    return (limit > 0 and n > 1 and qv not in (0, 1, -1) and n * (n - 1)
            * math.log10(abs(qv.numerator * qv.denominator)) > limit + 1)


def _output_options(f):
    f = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                     default="text", show_default=True,
                     help="Output format.")(f)
    f = click.option("--out", type=click.Path(dir_okay=False), default=None,
                     help="Write the report to this file (atomic replace) "
                          "instead of stdout.")(f)
    return f


_knot_option = click.option("--knot", default="figure8", show_default=True,
                            help="Built-in name, or path to a JSON "
                                 "descriptor.")


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AjlabError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Cli)
@click.version_option(__version__, prog_name="ajlab")
def main():
    """Colored Jones summands, shift operators, A-polynomial candidates,
    and dilogarithm saddle points."""


# -- subcommands -----------------------------------------------------------

@main.command()
@click.option("--n", "ns", required=True, callback=_parse_ints,
              help=f"Color range '1..8' or list '1,2,5', at most "
                   f"{MAX_VALUES} colors.")
@click.option("--q", "qs", default=None, callback=_parse_rationals,
              help=f"Evaluate at these rationals (comma separated, at most "
                   f"{MAX_VALUES}) instead of printing coefficients.")
@_output_options
def jones(ns, qs, fmt, out):
    """Colored Jones values of the figure-eight knot."""
    rows = []
    if qs is None:
        for n in ns:
            rows.append({"n": n, "poly": format_poly(jones_symbolic(n))})
        lines = [r["poly"] if len(rows) == 1
                 else f"J({r['n']}) = {r['poly']}" for r in rows]
    else:
        if any(_jones_too_long(n, qv) for n in ns for qv in qs):
            raise _too_long()
        for n in ns:
            for qv in qs:
                rows.append({"n": n, "q": str(qv),
                             "value": _fmt_exact(jones_eval(n, qv))})
        lines = [r["value"] if len(rows) == 1
                 else f"J({r['n']}; q={r['q']}) = {r['value']}"
                 for r in rows]
    _emit(fmt, out, "\n".join(lines), {"values": rows})


@main.command()
@_knot_option
@click.option("--which", default="E", show_default=True,
              help="Shift direction: E, Em, or Et1..Et<nu>.")
@click.option("--limit", is_flag=True,
              help="Take the q = 1 limit of the ratio.")
@_output_options
def ratio(knot, which, limit, fmt, out):
    """Shift ratio of the summand, exact in q or in the q = 1 limit."""
    term = _load_term(knot)
    r = epsilon_ratio(term, which) if limit else shift_ratio(term, which)
    _emit(fmt, out, format_ratfun(r),
          {"which": which, "limit": limit, "ratio": format_ratfun(r)})


@main.command()
@_knot_option
@click.option("--longitude", type=click.Choice(["squared", "linear"]),
              default="squared", show_default=True)
@_output_options
def system(knot, longitude, fmt, out):
    """Cleared polynomial system from the q = 1 ratio limits."""
    sys_ = ratio_system(_load_term(knot), longitude)
    lines = [f"coordinates: {', '.join(sys_.coordinates)}"]
    for c, g in zip(sys_.coordinates, sys_.gluing):
        lines.append(f"{c}: {format_poly(g)} = 0")
    lines.append(f"longitude ({sys_.longitude_kind}): "
                 f"{format_poly(sys_.longitude)} = 0")
    _emit(fmt, out, "\n".join(lines), {
        "coordinates": list(sys_.coordinates),
        "gluing": [format_poly(g) for g in sys_.gluing],
        "longitude": format_poly(sys_.longitude),
        "longitude_kind": sys_.longitude_kind,
    })


@main.command(name="eliminate")
@_knot_option
@click.option("--longitude", type=click.Choice(["squared", "linear"]),
              default="squared", show_default=True)
@click.option("--order", default=None,
              help="Comma-separated elimination order for the coordinates.")
@_output_options
def eliminate_cmd(knot, longitude, order, fmt, out):
    """Eliminate the coordinates down to an A-polynomial candidate."""
    sys_ = ratio_system(_load_term(knot), longitude)
    ord_ = tuple(x.strip() for x in order.split(",")) if order else None
    cand = eliminate(sys_, ord_)
    lines = [format_poly(cand.poly)]
    lines.append("dropped: " + (", ".join(cand.dropped)
                                if cand.dropped else "none"))
    _emit(fmt, out, "\n".join(lines), {
        "poly": format_poly(cand.poly),
        "dropped": list(cand.dropped),
        "order": list(cand.order),
    })


# the sample grid for the operator identity checks: exact evaluation is
# cheap here and these points cross both integer and non-integer q
_SAMPLE_NS = (1, 2, 3, 4, 5, 6)
_SAMPLE_QS = (Fraction(2), Fraction(3), Fraction(5, 2))


@main.command()
@_knot_option
@_output_options
@click.pass_context
def verify(ctx, knot, fmt, out):
    """Run the built-in identity battery for the knot; exit 1 on failure."""
    term = _load_term(knot)
    if term.colors != ("n",):
        raise DomainError("verify needs a closed-diagram summand "
                          "(a builtin), not a single crossing")
    jev = jones_evaluator()
    rows = []

    report = recurrence_report(ns=range(1, 5), qs=_SAMPLE_QS)
    ok = all(r["sampled_ok"] and r["symbolic_ok"] for r in report)
    rows.append({"check": "second-order operator is inhomogeneous with "
                          "-(q^(n+1) + 1), sampled and symbolically",
                 "pass": ok})

    cub = cubic_operator()
    ok = all(ore_apply(cub, jev, (n,), qv) == 0
             for n in _SAMPLE_NS for qv in _SAMPLE_QS)
    rows.append({"check": "cubic operator annihilates the sum", "pass": ok})

    rows.append({"check": "cubic operator equals its literal coefficient "
                          "table", "pass": cub == cubic_displayed()})

    cmp_ = aj_compare(p0_operator(), a_polynomial_nonabelian())
    rows.append({"check": "q = 1 shift polynomial cuts out the nonabelian "
                          "curve", "pass": cmp_.match})

    cand = eliminate(ratio_system(term, "linear"))
    rows.append({"check": "coordinate elimination reproduces the "
                          "nonabelian curve",
                 "pass": cand.poly == a_polynomial_nonabelian()})

    lines = [("PASS " if r["pass"] else "FAIL ") + r["check"] for r in rows]
    good = all(r["pass"] for r in rows)
    lines.append(f"{sum(r['pass'] for r in rows)}/{len(rows)} checks passed")
    _emit(fmt, out, "\n".join(lines), {"checks": rows, "ok": good})
    if not good:
        ctx.exit(1)


@main.command()
@click.option("--operator", "opname", type=click.Choice(["p0", "cubic"]),
              default="p0", show_default=True,
              help="Which annihilator to compare: the inhomogeneous "
                   "second-order one against the nonabelian curve, or the "
                   "cubic against (l - 1) times it.")
@_output_options
@click.pass_context
def ajcheck(ctx, opname, fmt, out):
    """Compare an annihilator's q = 1 polynomial with the known curve."""
    a41 = a_polynomial_nonabelian()
    if opname == "p0":
        op, cand = p0_operator(), a41
    else:
        op = cubic_operator()
        cand = parse_poly("l - 1") * a41
    cmp_ = aj_compare(op, cand)
    lines = [
        f"match: {str(cmp_.match).lower()}",
        f"operator: {format_poly(cmp_.operator_poly)}",
        f"candidate: {format_poly(cmp_.candidate_poly)}",
        f"unit: {format_ratfun(cmp_.unit)}",
    ]
    _emit(fmt, out, "\n".join(lines), {
        "match": cmp_.match,
        "operator": format_poly(cmp_.operator_poly),
        "candidate": format_poly(cmp_.candidate_poly),
        "unit": format_ratfun(cmp_.unit),
    })
    if not cmp_.match:
        ctx.exit(1)


@main.command()
@_knot_option
@click.option("--alpha", default="-1,0", show_default=True,
              callback=_parse_complex, help="Meridian value as 're,im'.")
@click.option("--start", default=None, callback=_parse_start,
              help="Initial coordinates: 're,im' entries joined by ';', "
                   "or '@file.json'.  Defaults to the builtin seed.")
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--max-iter", type=click.IntRange(1, _MAX_ITER), default=100,
              show_default=True)
@_output_options
def saddle(knot, alpha, start, tol, max_iter, fmt, out):
    """Newton saddle of the potential at fixed meridian."""
    res = solve_saddle(_read_descriptor(knot), alpha, start, tol=tol,
                       max_iter=max_iter)
    lines = [f"{k} = {_fmt_complex(v)}" for k, v in res.coords.items()]
    lines += [
        f"l^2 = {_fmt_complex(res.l_squared)}",
        f"residual = {res.residual:.3e}",
        f"Im(phi) = {res.im_phi:.17g}",
        f"iterations = {res.iterations}",
    ]
    _emit(fmt, out, "\n".join(lines), res.to_json())


@main.command(name="volume")
@_knot_option
@click.option("--alpha", default="-1,0", show_default=True,
              callback=_parse_complex)
@click.option("--start", default=None, callback=_parse_start)
@_output_options
def volume_cmd(knot, alpha, start, fmt, out):
    """Im of the potential at the selected saddle."""
    v = volume(_read_descriptor(knot), alpha, start)
    _emit(fmt, out, f"{v:.17g}", {"volume": v})


@main.command()
@click.option("--negative", is_flag=True,
              help="Check the negative-crossing identities instead.")
@_output_options
@click.pass_context
def propcheck(ctx, negative, fmt, out):
    """Summand ratio limits vs potential derivative forms; exit 1 on
    mismatch."""
    rows = prop_comp_check(not negative)
    lines = [("PASS " if r["pass"] else "FAIL ") + r["identity"]
             for r in rows]
    good = all(r["pass"] for r in rows)
    _emit(fmt, out, "\n".join(lines), {"checks": rows, "ok": good})
    if not good:
        ctx.exit(1)


@main.command()
@click.option("--ns", default="100,200,400,800", show_default=True,
              callback=_parse_ints,
              help=f"Root-of-unity orders, as a list or a range 'a..b', at "
                   f"most {MAX_VALUES} of them.")
@click.option("--a", "aval", default="3/10", show_default=True,
              callback=_parse_rational,
              help="Meridian exponent fraction n/N.")
@click.option("--u", "uval", default="1/5", show_default=True,
              callback=_parse_rational,
              help="Coordinate exponent fraction i/N.")
@_output_options
def asympt(ns, aval, uval, fmt, out):
    """Discrete ratio at roots of unity vs the continuous form."""
    rows = asymptotic_check(aval, uval, ns)
    lines = [f"N={r['N']:>6}  n={r['n']:>5}  i={r['i']:>5}  "
             f"rel_err={r['rel_err']:.6e}" for r in rows]
    _emit(fmt, out, "\n".join(lines), {"rows": [
        {**r, "discrete": _json_complex(r["discrete"]),
         "continuous": _json_complex(r["continuous"])} for r in rows]})


if __name__ == "__main__":
    main()
