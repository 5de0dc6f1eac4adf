"""Command line front end.

Subcommands: real-roots, complex-roots, winding, routh, fixed-point, plot.
Polynomials are given as expressions like ``Z^5 - 5*Z^4 + (1/2)*Z + i``;
results are JSON with every exact value serialized as a rational string
("p/q"), Gaussian rationals as {"re": ..., "im": ...}, and winding indices
as quarter-integer fraction strings.  Plot output (csv or svg) converts to
floating point only at emission; everything upstream is exact.

``--precision K`` (target diameter 2^-K, default 10, at most
``MAX_PRECISION``) belongs to real-roots, complex-roots and fixed-point;
``--newton M`` (at most ``MAX_NEWTON_STEPS``) to complex-roots and
``--samples N`` (at most ``MAX_SAMPLES``) to plot.
An expression may reach total degree at most ``MAX_DEGREE`` and
coefficients of at most ``MAX_COEFF_BITS`` bits; a power or product beyond
either limit is refused before it is expanded.  A ``--rect`` or
``--interval`` coordinate may have at most ``MAX_COORD_DIGITS`` digits,
exponent included; a longer one is refused before any count.

Exit codes: 0 success, 2 parse error, 3 precondition violation
(zero polynomial, vertex root, non-self-map, a value over a limit, ...),
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isinf, lcm

from .brouwer import BiPoly, PlaneMap, fixed_point_search
from .cauchy_index import isolate_real_roots, sign_var_diff
from .exact_arith import GaussianRational, InvariantViolation, gauss
from .isolate import Cell, isolate_roots, newton_step, newton_switch_ready
from .poly import ComplexPoly, RealPoly, sturm_chain
from .poly import format_poly as format_complex_poly
from .stability import half_plane_count
from .winding import Rectangle, VertexRootError, cauchy_radius, count_roots_in_rectangle

# Largest total degree an expression may reach.  It bounds the memory and
# time of a parse: a bivariate product of two degree-50 factors already
# has about 1.8 million coefficient products to form.
MAX_DEGREE = 100

# Largest coefficient size an expression may reach, in bits as measured by
# _coeff_bits (about 3,000 decimal digits).  Without it a short constant
# such as 2^100000000 would keep the parser busy for minutes.
MAX_COEFF_BITS = 10_000

# Largest size of a --rect or --interval coordinate: the digits written plus
# the absolute value of a decimal exponent, which bounds the digits of its
# numerator and denominator.  At this limit a degree-8 real-roots count takes
# about 0.3 s and a winding count 0.04 s; 250 digits took 2.9 s and 0.2 s.
MAX_COORD_DIGITS = 100

# Largest K of --precision K; the target diameter is 2^-K.
MAX_PRECISION = 64

# Largest M of --newton M.  The iterates are snapped to 2^-(K+2), which
# quadratic convergence reaches in a few steps; at degree 100 and K = 64 one
# step costs about 0.04 s per cell, so 100 cells take about a minute.
MAX_NEWTON_STEPS = 16

# Largest N of --samples N; 4N samples of a degree-100 polynomial take
# about 21 s at this limit.
MAX_SAMPLES = 1024


class ParseError(ValueError):
    """Polynomial expression syntax error, with position information."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------
#
# Grammar:  expr   := term (('+'|'-') term)*
#           term   := factor (('*'|'/')? factor)*       (juxtaposition = *)
#           factor := ('+'|'-')* power
#           power  := atom (('^'|'**') nonneg-int)?
#           atom   := integer | 'i' | variable | '(' expr ')'
#
# Variables: Z or X (slot 0) and Y (slot 1); lower case accepted.  Division
# is only defined by nonzero constants, which covers rational literals a/b.

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z])|(\*\*|[-+*/^()])|(\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        if m.group(1):
            tokens.append(("num", int(m.group(1)), pos))
        elif m.group(2):
            tokens.append(("sym", m.group(2), pos))
        elif m.group(3):
            tokens.append(("op", m.group(3), pos))
        else:
            raise ParseError(f"unexpected character {m.group(4)!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


def _check_limit(what: str, value, limit: int, pos: int) -> None:
    if value > limit:
        raise ValueError(f"{what} {value} at position {pos} is over the limit {limit}")


def _coeff_bits(p: BiPoly) -> int:
    """ceil(log2 D) + ceil(log2 N) for the coefficient parts of p.

    D is the least common denominator of the real and imaginary parts of
    every coefficient and N the sum of their absolute values times D, so
    each part is an integer of at most N over D.  A product's measure is
    at most the sum of its factors', a power's at most the exponent times
    its base's, and a sum's at most one more than its operands' together.
    """
    parts = []
    for c in p.terms.values():
        parts += (c.re, c.im) if isinstance(c, GaussianRational) else (c,)
    den = 1
    for c in parts:
        den = lcm(den, c.denominator)
    num = sum(abs(c.numerator) * (den // c.denominator) for c in parts)
    return (den - 1).bit_length() + (max(num, 1) - 1).bit_length()


def _product(a: BiPoly, b: BiPoly, pos: int) -> BiPoly:
    _check_limit("degree", a.total_degree() + b.total_degree(), MAX_DEGREE, pos)
    _check_limit("coefficient size", _coeff_bits(a) + _coeff_bits(b), MAX_COEFF_BITS, pos)
    return a * b


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.seen_vars: set[str] = set()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> BiPoly:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> BiPoly:
        value = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
                # a sum cannot grow much, so it is checked once formed
                _check_limit("coefficient size", _coeff_bits(value), MAX_COEFF_BITS, pos)
            else:
                return value

    def term(self) -> BiPoly:
        value = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in ("*", "/"):
                self.advance()
                rhs = self.factor()
                if text == "*":
                    value = _product(value, rhs, pos)
                else:
                    if set(rhs.terms) - {(0, 0)}:
                        raise ParseError("division only by nonzero constants", pos)
                    c = rhs.terms.get((0, 0))
                    if not c:
                        raise ParseError("division by zero", pos)
                    value = _product(value, BiPoly.const(gauss(1) / c), pos)
            elif kind in ("num", "sym") or (kind == "op" and text == "("):
                value = _product(value, self.factor(), pos)
            else:
                return value

    def factor(self) -> BiPoly:
        negate = False
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                negate ^= text == "-"
            else:
                break
        value = self.power()
        return -value if negate else value

    def power(self) -> BiPoly:
        value = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text in ("^", "**"):
            self.advance()
            kind, text, pos = self.peek()
            if kind == "op" and text == "-":
                raise ParseError("negative exponent", pos)
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            _check_limit("degree", max(value.total_degree(), 0) * text, MAX_DEGREE, pos)
            _check_limit("coefficient size", _coeff_bits(value) * text, MAX_COEFF_BITS, pos)
            return value**text
        return value

    def atom(self) -> BiPoly:
        kind, text, pos = self.advance()
        if kind == "num":
            return BiPoly.const(text)
        if kind == "sym":
            if text == "i":
                return BiPoly.const(gauss(0, 1))
            name = text.upper()
            if name in ("Z", "X"):
                self.seen_vars.add(name)
                return BiPoly.x()
            if name == "Y":
                self.seen_vars.add(name)
                return BiPoly.y()
            raise ParseError(f"unknown symbol {text!r}", pos)
        if kind == "op" and text == "(":
            value = self.expr()
            kind, text, pos = self.advance()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


@dataclass(frozen=True)
class PolyExpr:
    """A parsed univariate polynomial plus its normalized source form."""

    source: str
    variable: str
    poly: ComplexPoly

    @property
    def normalized(self) -> str:
        return format_complex_poly(self.poly, self.variable)


def parse_poly(text: str) -> PolyExpr:
    """Parse a univariate polynomial in Z or X with Gaussian coefficients."""
    parser = _Parser(text)
    terms = parser.parse()
    if "Y" in parser.seen_vars:
        raise ParseError("Y is not allowed in a univariate polynomial", 0)
    if parser.seen_vars == {"Z", "X"}:
        raise ParseError("mixed variables Z and X", 0)
    variable = next(iter(parser.seen_vars), "Z")
    degree = max((e[0] for e in terms.terms), default=0)
    coeffs = [gauss(0)] * (degree + 1)
    for (k, _), c in terms.terms.items():
        coeffs[k] = c
    return PolyExpr(source=text, variable=variable, poly=ComplexPoly(coeffs))


def parse_real_poly(text: str) -> tuple[RealPoly, str]:
    expr = parse_poly(text)
    for c in expr.poly.coeffs:
        if c.im:
            raise ParseError("polynomial must have real coefficients", 0)
    return RealPoly([c.re for c in expr.poly.coeffs]), expr.variable


def parse_map_component(text: str) -> BiPoly:
    """Parse a real bivariate polynomial in X and Y (one map component)."""
    parser = _Parser(text)
    terms = parser.parse()
    if "Z" in parser.seen_vars:
        raise ParseError("map components use the variables X and Y", 0)
    if any(isinstance(c, GaussianRational) for c in terms.terms.values()):
        raise ParseError("map components must have real coefficients", 0)
    return terms


# ---------------------------------------------------------------------------
# printing and serialization
# ---------------------------------------------------------------------------


def _rat_str(x: Fraction) -> str:
    return str(Fraction(x))


def _gauss_obj(z: GaussianRational) -> dict:
    return {"re": _rat_str(z.re), "im": _rat_str(z.im)}


def _rect_obj(rect: Rectangle | Cell) -> dict:
    return {
        "x0": _rat_str(rect.x0),
        "x1": _rat_str(rect.x1),
        "y0": _rat_str(rect.y0),
        "y1": _rat_str(rect.y1),
    }


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


def _option_limit(name: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{name} {value} is over the limit {limit}")


def _target(args) -> Fraction:
    """The target diameter 2^-K of a command with --precision K."""
    if args.precision <= 0:
        raise ValueError("precision must be positive")
    _option_limit("precision", args.precision, MAX_PRECISION)
    return Fraction(1, 2**args.precision)


def _coordinate(text: str) -> Fraction:
    """One --rect or --interval coordinate, sized before it is converted.

    A size over ``MAX_COORD_DIGITS`` raises OverflowError, which argparse
    lets through to ``main`` (exit 3) instead of reporting a usage error.
    """
    mantissa, _, exponent = text.lower().partition("e")
    size = sum(ch.isdigit() for ch in mantissa)
    try:
        size += abs(int(exponent or 0))
    except ValueError:
        pass  # not an exponent: Fraction(text) rejects it
    if size > MAX_COORD_DIGITS:
        raise OverflowError(f"coordinate size {size} is over the limit {MAX_COORD_DIGITS}")
    return Fraction(text)


def _parse_rect(text: str) -> Rectangle:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected x0,x1,y0,y1")
    try:
        x0, x1, y0, y1 = (_coordinate(p.strip()) for p in parts)
        return Rectangle(x0, x1, y0, y1)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a,b")
    try:
        a, b = (_coordinate(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not a < b:
        raise argparse.ArgumentTypeError("interval needs a < b")
    return a, b


def _read_source(arg: str | None) -> str:
    if arg is None or arg == "-":
        return sys.stdin.read()
    return arg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_real_roots(args) -> dict:
    poly, variable = parse_real_poly(_read_source(args.poly))
    if poly.is_zero():
        raise ValueError("the zero polynomial has no isolated roots")
    target = _target(args)
    if args.interval is not None:
        a, b = args.interval
    else:
        bound = cauchy_radius(poly.to_complex())
        a, b = -bound, bound
    chain = sturm_chain(poly.derivative(), poly)
    points, intervals = isolate_real_roots(chain, a, b, target)
    total = sign_var_diff(chain, a, b)
    return {
        "polynomial": format_complex_poly(poly, variable),
        "interval": [_rat_str(a), _rat_str(b)],
        "precision": _rat_str(target),
        "count": str(total),
        "points": [{"x": _rat_str(x), "weight": _rat_str(w)} for x, w in points],
        "intervals": [
            {"lo": _rat_str(lo), "hi": _rat_str(hi), "count": 1} for lo, hi in intervals
        ],
    }


def cmd_complex_roots(args) -> dict:
    expr = parse_poly(_read_source(args.poly))
    target = _target(args)
    if args.newton is not None:
        if args.newton < 0:
            raise ValueError("newton steps must be nonnegative")
        _option_limit("newton steps", args.newton, MAX_NEWTON_STEPS)
    if expr.poly.is_zero() or expr.poly.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    state = isolate_roots(expr.poly, target)
    approx = state.approximations()
    ready = bool(approx) and newton_switch_ready(approx, [c.weight for c in state.cells])
    payload = {
        "polynomial": expr.normalized,
        "precision": _rat_str(target),
        "square_free_degree": state.square_free_degree,
        "generation": state.generation,
        "initial_radius": _rat_str(state.initial_radius),
        "exact_roots": [
            {"root": _gauss_obj(z), "multiplicity": m} for z, m in state.deflated_roots
        ],
        "cells": [
            {
                **_rect_obj(c),
                "dim": c.dim,
                "weight": str(c.weight),
                "center": _gauss_obj(c.center()),
                "radius": _rat_str(c.radius()),
            }
            for c in state.cells
        ],
        "newton_ready": ready,
    }
    if args.newton and approx:
        if not ready:
            payload["newton_refined"] = None
        else:
            rounding = args.precision + 2
            refined = []
            for cell in state.cells:
                z = cell.center()
                for _ in range(args.newton):
                    z = newton_step(state.remainder, z, rounding)
                refined.append(_gauss_obj(z))
            payload["newton_refined"] = refined
    return payload


def cmd_winding(args) -> dict:
    expr = parse_poly(_read_source(args.poly))
    if expr.poly.is_zero():
        raise ValueError("the zero polynomial has no winding index")
    index = count_roots_in_rectangle(expr.poly, args.rect)
    return {
        "polynomial": expr.normalized,
        "rectangle": _rect_obj(args.rect),
        "index": str(index),
    }


def cmd_routh(args) -> dict:
    expr = parse_poly(_read_source(args.poly))
    if expr.poly.is_zero() or expr.poly.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    counts = half_plane_count(expr.poly)
    return {
        "polynomial": expr.normalized,
        "routh_index": str(counts.p - counts.q),
        "p": counts.p,
        "q": counts.q,
        "imaginary_axis": counts.imaginary_axis,
        "hurwitz_stable": counts.q == expr.poly.degree,
    }


def cmd_fixed_point(args) -> dict:
    p = parse_map_component(args.map_p)
    q = parse_map_component(args.map_q)
    rect = args.rect if args.rect is not None else Rectangle(-1, 1, -1, 1)
    target = _target(args)
    result = fixed_point_search(PlaneMap(p, q), rect, target)
    if result.is_exact:
        outcome = {"kind": "point", "point": _gauss_obj(result.point)}
    else:
        outcome = {"kind": "cell", "cell": _rect_obj(result.cell)}
    return {
        "rectangle": _rect_obj(rect),
        "precision": _rat_str(target),
        "result": outcome,
    }


def _boundary_samples(poly: ComplexPoly, rect: Rectangle, samples: int):
    """Per edge: `samples` equally spaced parameters t in [0, 1[."""
    corners = rect.vertices()
    rows = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        edge = []
        for j in range(samples):
            t = Fraction(j, samples)
            z = a + (b - a) * gauss(t)
            w = poly.eval(z)
            edge.append((t, w.re, w.im))
        rows.append(edge)
    return rows


_FLOAT_RANGE = "a sampled value is beyond the float range"


def cmd_plot(args) -> str:
    expr = parse_poly(_read_source(args.poly))
    if args.samples < 4:
        raise ValueError("need at least 4 samples per edge (16 total)")
    _option_limit("samples", args.samples, MAX_SAMPLES)
    edges = _boundary_samples(expr.poly, args.rect, args.samples)
    # floats only here, at the emission boundary
    try:
        rows = [tuple(map(float, row)) for edge in edges for row in edge]
    except OverflowError:
        raise ValueError(_FLOAT_RANGE) from None
    if args.format == "svg":
        return _render_svg(rows)
    lines = ["t,re,im"] + [f"{t!r},{re_val!r},{im_val!r}" for t, re_val, im_val in rows]
    return "\n".join(lines) + "\n"


def _render_svg(rows) -> str:
    pts = [(re_v, im_v) for _, re_v, im_v in rows]
    pts.append(pts[0])
    xs = [p[0] for p in pts] + [0.0]
    ys = [p[1] for p in pts] + [0.0]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    if isinf(span):
        raise ValueError(_FLOAT_RANGE)
    pad = 0.05 * span
    x_lo, y_lo = min(xs) - pad, min(ys) - pad
    scale = 600.0 / (span + 2 * pad)

    def to_screen(x, y):
        return (x - x_lo) * scale, 600.0 - (y - y_lo) * scale

    polyline = " ".join(f"{sx:.3f},{sy:.3f}" for sx, sy in (to_screen(*p) for p in pts))
    ox, oy = to_screen(0.0, 0.0)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        'viewBox="0 0 600 600">\n'
        f'  <polyline points="{polyline}" fill="none" stroke="black" stroke-width="1"/>\n'
        f'  <circle cx="{ox:.3f}" cy="{oy:.3f}" r="4" fill="red"/>\n'
        "</svg>\n"
    )


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactroots",
        description="Exact polynomial root counting and location.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly(p):
        p.add_argument("poly", nargs="?", help="polynomial expression or '-' for stdin")

    def add_precision(p):
        p.add_argument("--precision", type=int, default=10, metavar="K",
                       help="target diameter 2^-K (default 10)")

    p = sub.add_parser("real-roots", help="count and isolate real roots on an interval")
    add_poly(p)
    add_precision(p)
    p.add_argument("--interval", type=_parse_interval, metavar="A,B",
                   help="interval [a,b] (default: a Cauchy root window)")
    p.set_defaults(func=cmd_real_roots)

    p = sub.add_parser("complex-roots", help="isolate all complex roots")
    add_poly(p)
    add_precision(p)
    p.add_argument("--newton", type=int, metavar="M",
                   help="run M Newton steps per cell when separation permits")
    p.set_defaults(func=cmd_complex_roots)

    p = sub.add_parser("winding", help="roots in a rectangle by boundary index")
    add_poly(p)
    p.add_argument("--rect", type=_parse_rect, required=True, metavar="X0,X1,Y0,Y1")
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("routh", help="half-plane root counts and stability")
    add_poly(p)
    p.set_defaults(func=cmd_routh)

    p = sub.add_parser("fixed-point", help="locate a fixed point of a planar map")
    p.add_argument("map_p", help="first component P(X,Y)")
    p.add_argument("map_q", help="second component Q(X,Y)")
    p.add_argument("--rect", type=_parse_rect, metavar="X0,X1,Y0,Y1",
                   help="search rectangle (default -1,1,-1,1)")
    add_precision(p)
    p.set_defaults(func=cmd_fixed_point)

    p = sub.add_parser("plot", help="sample the boundary image curve")
    add_poly(p)
    p.add_argument("--rect", type=_parse_rect, required=True, metavar="X0,X1,Y0,Y1")
    p.add_argument("--samples", type=int, default=64, metavar="N",
                   help="samples per edge (default 64)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.set_defaults(func=cmd_plot)

    return parser


def _emit_error(payload: dict) -> None:
    print(json.dumps(payload), file=sys.stderr)


def _merge_flag_values(argv: list[str]) -> list[str]:
    # let --rect -1,1,-1,1 work even though the value starts with a dash
    merged = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--rect", "--interval") and k + 1 < len(argv):
            merged.append(f"{tok}={argv[k + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_flag_values(list(argv)))
    except OverflowError as exc:  # a coordinate over MAX_COORD_DIGITS
        _emit_error({"error": "precondition", "message": str(exc)})
        return 3
    try:
        result = args.func(args)
    except ParseError as exc:
        _emit_error({"error": "parse", "message": str(exc), "position": exc.position})
        return 2
    except VertexRootError as exc:
        _emit_error({"error": "vertex_root", "vertex": _gauss_obj(exc.vertex)})
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        _emit_error({"error": "precondition", "message": str(exc)})
        return 3
    except InvariantViolation as exc:
        _emit_error({"error": "internal_invariant", "message": str(exc)})
        return 4
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
