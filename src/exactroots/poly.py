"""Dense univariate polynomial arithmetic over exact scalars.

Two concrete polynomial types share one generic core:

* :class:`RealPoly` -- coefficients are ``Fraction``; supports ordered-field
  operations (signs, contents, pseudo-euclidean division, Sturm chains).
* :class:`ComplexPoly` -- coefficients are :class:`GaussianRational`;
  supports the real/imaginary split and exact gcd over the field Q[i].

Coefficients are stored densely, index k holding the coefficient of X^k,
with no trailing zeros.  The zero polynomial is the empty tuple and has
degree ``-inf`` so that degree comparisons need no special cases.

Evaluation and affine substitution run on integers.  A polynomial's
Gaussian-integer form (one positive common denominator and the integer
real and imaginary parts of its coefficients) is computed once per
instance.  The point, or m and c of ``p(m*X + c)``, is cleared to one
positive denominator s as well, and homogeneous Horner on ``(re, im)``
int pairs carries the powers of s, so only the final division by
``den * s^n`` builds fractions.  ``eval_ints`` and ``compose_affine_ints``
return the integers before that division, for callers that read only
signs or do their own division.

Sturm chains are built by pseudo-euclidean division with an even exponent
(``c^d * S = P*Q - R``) followed by primitive-part extraction of each
remainder, all on integer coefficient lists.  Both steps only ever rescale
chain members by positive rationals, so all sign data is preserved
exactly while coefficient swell stays polynomial instead of exponential.
The chain keeps its members as integer tuples and reads the sign of a
member S of degree n at x = a/b (b > 0) from the integer
``sum c_k a^k b^(n-k) = b^n * S(x)``, again by homogeneous Horner.  Each
chain carries a certificate of positive integers (a_k, b_k) and link
polynomials Q_k with

    a_k * S_{k-1} + b_k * S_{k+1} = Q_k * S_k      (0 < k < n)

which is the three-term relation that makes the sign-variation count work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm

from .exact_arith import GaussianRational, InvariantViolation, gauss, power, sign

NEG_INF = float("-inf")
_ZERO = Fraction(0)


class _Poly:
    """Shared dense-polynomial core; subclasses fix the scalar ring."""

    __slots__ = ("coeffs", "_gauss_ints")

    @staticmethod
    def _coerce(value):  # pragma: no cover - overridden
        raise NotImplementedError

    @staticmethod
    def _parts(value) -> tuple[Fraction, Fraction]:  # pragma: no cover - overridden
        """Real and imaginary part of a coerced scalar."""
        raise NotImplementedError

    @staticmethod
    def _scalar(re: int, im: int, den: int):  # pragma: no cover - overridden
        """The scalar (re + im*i) / den, for den > 0."""
        raise NotImplementedError

    def __init__(self, coeffs=()):
        cs = [self._coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- structure -----------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def variable(cls):
        return cls((0, 1))

    @property
    def degree(self):
        """Degree as an int; the zero polynomial has degree -inf."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def leading_coeff(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        """Coefficient of X^k (zero beyond the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self._coerce(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self._as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._as_poly(other))

    def __rsub__(self, other):
        return self._as_poly(other) + (-self)

    def __mul__(self, other):
        other = self._as_poly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return type(self)(())
        out = [self._coerce(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return type(self)(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, type(self).one())

    def scale(self, c):
        """Multiply every coefficient by the scalar c."""
        c = self._coerce(c)
        return type(self)([a * c for a in self.coeffs])

    def _as_poly(self, other):
        if isinstance(other, type(self)):
            return other
        return type(self).const(other)

    # -- calculus and evaluation ----------------------------------------

    def derivative(self):
        """Formal derivative, sum k * c_k X^(k-1)."""
        return type(self)([k * c for k, c in enumerate(self.coeffs)][1:])

    def _ints(self) -> tuple[int, list[int], list[int]]:
        """Gaussian-integer form ``(den, re, im)``: c_k = (re[k] + im[k]*i) / den.

        den > 0 is the least common denominator of all coefficient parts;
        the form is computed on first use and kept on the instance.
        """
        try:
            return self._gauss_ints
        except AttributeError:
            pass
        parts = [self._parts(c) for c in self.coeffs]
        den = 1
        for re, im in parts:
            den = int_lcm(den, re.denominator, im.denominator)
        form = (
            den,
            [re.numerator * (den // re.denominator) for re, _ in parts],
            [im.numerator * (den // im.denominator) for _, im in parts],
        )
        object.__setattr__(self, "_gauss_ints", form)
        return form

    def _cleared(self, *xs) -> tuple[int, list[tuple[int, int]]]:
        """Scalars over one denominator: ``(s, [(re, im), ...])`` with
        x = (re + im*i) / s for each x, and s > 0."""
        parts = [self._parts(self._coerce(x)) for x in xs]
        s = int_lcm(*(v.denominator for pair in parts for v in pair))
        return s, [(re.numerator * (s // re.denominator), im.numerator * (s // im.denominator))
                   for re, im in parts]

    def eval_ints(self, x) -> tuple[int, int, int]:
        """The value at a scalar point as ``(re, im, scale)``: p(x) = (re +
        im*i) / scale with scale > 0.

        With x = (p + q*i)/s, homogeneous Horner on Gaussian integers gives
        N = sum c_k (p + q*i)^k s^(n-k) times den, and scale = den*s^n.
        """
        s, [(p, q)] = self._cleared(x)
        den, res, ims = self._ints()
        if not res:
            return 0, 0, 1
        ar, ai = res[-1], ims[-1]
        spow = 1
        for k in range(len(res) - 2, -1, -1):
            spow *= s
            ar, ai = ar * p - ai * q + res[k] * spow, ar * q + ai * p + ims[k] * spow
        return ar, ai, den * spow

    def eval(self, x):
        """Value at a scalar point, exactly (see :meth:`eval_ints`)."""
        return self._scalar(*self.eval_ints(x))

    def compose_affine_ints(self, m, c) -> tuple[list[int], list[int], int]:
        """``p(m*X + c)`` as integer lists ``(re, im, scale)``: the
        coefficient of X^j is (re[j] + im[j]*i) / scale, with scale > 0.

        With m = M/s and c = C/s, homogeneous Horner on Gaussian integers
        expands sum c_k (M*X + C)^k s^(n-k) times den, and scale = den*s^n.
        The lists are empty for the zero polynomial.
        """
        s, [(mr, mi), (cr, ci)] = self._cleared(m, c)
        den, res, ims = self._ints()
        if not res:
            return [], [], 1
        acc_r, acc_i = [res[-1]], [ims[-1]]
        spow = 1
        for k in range(len(res) - 2, -1, -1):
            spow *= s
            # acc * (M*X + C) + c_k * s^(n-k)
            out_r = [a * cr - b * ci for a, b in zip(acc_r, acc_i)]
            out_i = [a * ci + b * cr for a, b in zip(acc_r, acc_i)]
            out_r.append(0)
            out_i.append(0)
            for j, (a, b) in enumerate(zip(acc_r, acc_i), 1):
                out_r[j] += a * mr - b * mi
                out_i[j] += a * mi + b * mr
            out_r[0] += res[k] * spow
            out_i[0] += ims[k] * spow
            acc_r, acc_i = out_r, out_i
        return acc_r, acc_i, den * spow

    def compose_affine(self, m, c):
        """The polynomial ``p(m*X + c)``, exactly (see :meth:`compose_affine_ints`)."""
        res, ims, scale = self.compose_affine_ints(m, c)
        return type(self)([self._scalar(a, b, scale) for a, b in zip(res, ims)])

    # -- field division ---------------------------------------------------

    def divmod(self, other):
        """Euclidean quotient and remainder over the coefficient field."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dp = other.degree
        c_inv = _scalar_inv(other.leading_coeff())
        q = [self._coerce(0)] * max(0, len(rem) - dp)
        while len(rem) - 1 >= dp and rem:
            k = len(rem) - 1 - dp
            t = rem[-1] * c_inv
            q[k] = t
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - t * b
            while rem and not rem[-1]:
                rem.pop()
        return type(self)(q), type(self)(rem)

    def exact_div(self, other):
        """Quotient when the division is exact; error otherwise."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self):
        if self.is_zero():
            raise ValueError("the zero polynomial cannot be made monic")
        return self.scale(_scalar_inv(self.leading_coeff()))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"


def _scalar_inv(c):
    if isinstance(c, GaussianRational):
        return c.inv()
    return 1 / c


class RealPoly(_Poly):
    """Dense polynomial with exact rational coefficients."""

    __slots__ = ()

    @staticmethod
    def _coerce(value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, GaussianRational):
            raise TypeError("RealPoly coefficients must be rational")
        return Fraction(value)

    @staticmethod
    def _parts(value):
        return value, _ZERO

    @staticmethod
    def _scalar(re, im, den):
        return Fraction(re, den)

    def sign_at(self, x) -> int:
        """Exact sign of p(x); evaluation is over Q, no tolerances."""
        return sign(self.eval(x))

    def content(self) -> Fraction:
        """Positive rational content gcd(|c_0|, ..., |c_n|); error for 0."""
        if self.is_zero():
            raise ValueError("the zero polynomial has no content")
        num = 0
        den = 1
        for c in self.coeffs:
            num = int_gcd(num, c.numerator)
            den = int_lcm(den, c.denominator)
        return Fraction(num, den)

    def primitive_part(self) -> "RealPoly":
        """self / content: integer coprime coefficients, sign preserved."""
        return self.scale(1 / self.content())

    def to_complex(self) -> "ComplexPoly":
        return ComplexPoly([gauss(c) for c in self.coeffs])

    def __str__(self):
        return format_poly(self, "X")


class ComplexPoly(_Poly):
    """Dense polynomial with Gaussian-rational coefficients."""

    __slots__ = ()

    @staticmethod
    def _coerce(value):
        return gauss(value)

    @staticmethod
    def _parts(value):
        return value.re, value.im

    @staticmethod
    def _scalar(re, im, den):
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def re_im_parts(self) -> tuple[RealPoly, RealPoly]:
        """Coefficient-wise real and imaginary parts as real polynomials."""
        re = RealPoly([c.re for c in self.coeffs])
        im = RealPoly([c.im for c in self.coeffs])
        return re, im

    def __str__(self):
        return format_poly(self, "Z")


def format_poly(p: _Poly, var: str = "Z") -> str:
    """Normalized text form in the variable ``var``; parsing it back gives p."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        cs = str(c)
        if mono and cs == "1":
            parts.append(mono)
        elif mono and cs == "-1":
            parts.append(f"-{mono}")
        elif mono:
            parts.append(f"{cs}*{mono}")
        else:
            parts.append(cs)
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


# ---------------------------------------------------------------------------
# pseudo-euclidean division
# ---------------------------------------------------------------------------


def pseudo_div(s: RealPoly, p: RealPoly) -> tuple[RealPoly, RealPoly, int]:
    """Pseudo-euclidean division ``c^d * s = p*q - r`` with deg r < deg p.

    c is the leading coefficient of p and d = max(0, 1 + deg s - deg p),
    bumped to the next even number so that c^d > 0 over the ordered field.
    Returns ``(q, r, d)``.
    """
    if p.is_zero():
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    d = max(0, 1 + len(s.coeffs) - len(p.coeffs)) if s.coeffs else 0
    if d % 2:
        d += 1
    c = p.leading_coeff()
    q, rem = s.scale(c**d).divmod(p)
    return q, -rem, d


# ---------------------------------------------------------------------------
# integer kernel: primitive-part pseudo-remainder sequences
# ---------------------------------------------------------------------------
#
# The chain construction runs on plain int coefficient lists.  Rational
# input is cleared to a primitive integer polynomial first (a positive
# rescaling), divisions then stay integral throughout.


def _int_primitive(p: RealPoly) -> list[int]:
    _, ints, _ = p._ints()
    g = _int_content(ints)
    return [v // g for v in ints] if g else []


def _int_divmod(s: list[int], p: list[int]) -> tuple[list[int], list[int]]:
    """Integer long division s = p*q + rem with deg rem < deg p.

    Every step must divide exactly; callers only divide where that is
    proved, so a remainder in a leading coefficient is an internal error.
    """
    rem = list(s)
    dp = len(p) - 1
    c = p[-1]
    q = [0] * max(0, len(rem) - dp)
    while len(rem) - 1 >= dp and rem:
        k = len(rem) - 1 - dp
        t, check = divmod(rem[-1], c)
        if check:
            raise InvariantViolation("integer polynomial division lost integrality")
        q[k] = t
        for j, b in enumerate(p):
            rem[k + j] -= t * b
        while rem and not rem[-1]:
            rem.pop()
    return q, rem


def _int_pseudo_div(s: list[int], p: list[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: lc(p)^d * s = p*q + rem, deg rem < deg p.

    d is even, so the returned scale lc(p)^d is positive.
    """
    d = max(0, len(s) - len(p) + 1) if s else 0
    if d % 2:
        d += 1
    scale = p[-1] ** d
    q, rem = _int_divmod([v * scale for v in s], p)
    return q, rem, scale


def _int_content(p: list[int]) -> int:
    g = 0
    for v in p:
        g = int_gcd(g, v)
    return g


# ---------------------------------------------------------------------------
# gcd, square-free part
# ---------------------------------------------------------------------------


def real_gcd(p: RealPoly, q: RealPoly) -> RealPoly:
    """Monic gcd over Q, read off the Sturm chain of p/q; error for (0, 0)."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return sturm_chain(p, q).gcd


def complex_gcd(p: ComplexPoly, q: ComplexPoly) -> ComplexPoly:
    """Monic gcd over the field Q[i]; error when both arguments are zero."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero():
        _, rem = a.divmod(b)
        a, b = b, rem
    return a.monic()


def square_free_part(f: ComplexPoly) -> ComplexPoly:
    """``f / gcd(f, f')``, monic: same roots, all with multiplicity one."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no square-free part")
    g = complex_gcd(f, f.derivative())
    return f.exact_div(g).monic()


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------


def twice_variation(signs) -> int:
    """Twice the sign variation of a sequence of signs, zeros counting one
    half: the sum of |s_{k-1} - s_k| over adjacent pairs."""
    return sum(abs(s - t) for s, t in zip(signs, signs[1:]))


@dataclass(frozen=True)
class SturmLink:
    """Certificate entry: a * S_{k-1} + b * S_{k+1} = q * S_k with a, b > 0."""

    a: Fraction
    b: Fraction
    q: RealPoly


@dataclass(frozen=True)
class SturmChain:
    """A Sturm chain (S_0, ..., S_n) together with its positivity certificate.

    At every zero x of an interior member, S_{k-1}(x) * S_{k+1}(x) < 0;
    this follows from the certified three-term relations since a_k, b_k > 0.
    ``members`` holds the S_k as integer coefficient tuples whose terminal
    is a positive constant: 1 after gcd removal, else the last remainder,
    up to sign.  ``steps`` holds each relation as integers (a_k, b_k, Q_k).
    The two degenerate chains are ``(0, 1)`` (zero denominator) and ``(1)``
    (zero numerator), whose sign variation is constant.  ``gcd`` is the
    monic gcd of the numerator and the denominator (zero when both are
    zero).  ``polys`` (terminal scaled to 1) and ``links`` are rational
    views, built on first access.
    """

    members: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[int, int, tuple[int, ...]], ...]
    gcd: RealPoly

    def __len__(self):
        return len(self.members)

    @cached_property
    def polys(self) -> tuple[RealPoly, ...]:
        t = self.members[-1][0]
        return tuple(RealPoly([Fraction(v, t) for v in p]) for p in self.members)

    @cached_property
    def links(self) -> tuple[SturmLink, ...]:
        return tuple(SturmLink(Fraction(a), Fraction(b), RealPoly(q)) for a, b, q in self.steps)

    def signs_at(self, x) -> list[int]:
        """Signs of the members at the rational x = a/b, b > 0.

        A member of degree n has the sign of sum c_k a^k b^(n-k) = b^n S(x),
        evaluated by homogeneous Horner on integers.
        """
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        powers = [b]
        for _ in range(len(max(self.members, key=len)) - 2):
            powers.append(powers[-1] * b)
        out = []
        for p in self.members:
            if not p:
                out.append(0)
                continue
            acc = p[-1]
            for c, bk in zip(p[-2::-1], powers):
                acc = acc * a + c * bk
            out.append((acc > 0) - (acc < 0))
        return out

    @cached_property
    def _variations(self) -> dict:
        return {}

    def variation(self, x) -> int:
        """Twice the sign variation at the rational x, zeros counting one
        half, memoized per point.

        It is odd exactly when the first member vanishes at x: its parity is
        that of the number of adjacent pairs with exactly one zero, the
        terminal is a positive constant, and an interior member vanishes
        only between members of opposite signs.  The first member of
        ``sturm_chain(p', p)`` is p / gcd(p, p') up to a constant factor.
        """
        memo = self._variations
        twice = memo.get(x)
        if twice is None:
            twice = memo[x] = twice_variation(self.signs_at(x))
        return twice

    def signs_at_infinity(self, direction: int) -> list[int]:
        """Signs of the members beyond all roots (+1: at +oo, -1: at -oo)."""
        flip = -1 if direction < 0 else 1
        return [sign(p[-1]) * flip ** (len(p) - 1) if p else 0 for p in self.members]


def sturm_chain(r: RealPoly, s: RealPoly) -> SturmChain:
    """Euclidean Sturm chain of the fraction r/s, up to positive rescalings.

    Starts from S_0 ~ s and S_1 ~ r, iterates pseudo-euclidean division with
    even exponents and divides every remainder by its positive content.  If
    the last member is not constant, it is gcd(r, s) up to a rational, and
    the whole chain is divided by it; otherwise every member is multiplied
    by the sign of that constant.  Either way the terminal is a positive
    integer and no sign variation changes.  Degenerate inputs yield the
    chains ``(1)`` (r = 0) and ``(0, 1)`` (s = 0, r != 0).
    """
    if r.is_zero():
        return SturmChain(((1,),), (), s.monic() if s else s)
    if s.is_zero():
        return SturmChain(((), (1,)), (), r.monic())

    chain = [_int_primitive(s), _int_primitive(r)]
    steps = []
    while True:
        prev, cur = chain[-2], chain[-1]
        q, rem, scale = _int_pseudo_div(prev, cur)
        if not rem:
            break
        cont = _int_content(rem)
        # scale * prev = cur*q + rem, so with nxt := -rem/cont the certified
        # relation scale * S_{k-1} + cont * S_{k+1} = q * S_k holds exactly.
        chain.append([-(v // cont) for v in rem])
        steps.append((scale, cont, tuple(q)))

    g = chain[-1]
    if len(g) > 1:
        reduced = [_int_divmod(p, g) for p in chain]
        if any(rem for _, rem in reduced):
            raise InvariantViolation("a chain member is not divisible by the chain gcd")
        members = tuple(tuple(q) for q, _ in reduced)
    else:
        members = tuple(map(tuple, chain if g[0] > 0 else ([-v for v in p] for p in chain)))
    return SturmChain(members, tuple(steps), RealPoly(g).monic())
