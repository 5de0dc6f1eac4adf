"""Global complex root isolation by exact rectangle bisection.

The algorithm keeps a worklist of disjoint open cells that together contain
every root of a square-free working polynomial:

* a 2-cell is an open rectangle, counted by the winding number of the
  boundary (roots on the closed boundary are subtracted off exactly);
* a 1-cell is an open axis-parallel segment, counted by the real roots of
  the gcd of the real and imaginary parts of the polynomial on its line;
* both counts come from one restriction per grid line and isolation: the
  Sturm chain of re/im on that line, which ends in their gcd, gives the
  index of any of its segments from endpoint signs, and on a line where
  the gcd is not constant, the chain of gcd'/gcd, built on the first
  query, gives the root count of any of its segments the same way; each
  chain memoizes its sign variation per point
  (:meth:`~exactroots.poly.SturmChain.variation`), so an endpoint that
  several cells share is evaluated once;
* the line table lives as long as the working polynomial: a deflation
  clears it, and after each generation it keeps only the lines that bound
  a surviving cell;
* restriction, endpoint signs and the zero tests at grid points run on
  integers (see :mod:`exactroots.poly`), so a generation's cost is a few
  integer Horner passes per line and point, not rational arithmetic;
* grid points produced by bisection are evaluated exactly, each once per
  working polynomial; when one turns out to be a root, that root is
  divided out of the working polynomial (deflation) and recorded, which
  keeps every counting theorem applicable.

Each generation bisects every cell at its midpoint, so after j generations
every cell has diameter at most ``3*r*2**-j`` where r is the initial
radius.  The cell list is deterministic: cells are sorted by coordinates.

The endgame skips the generations that only shrink a cell around its one
root.  A 2-cell of weight 1, once no other cell is near it and the Newton
step from its center lands well inside it, gets one attempt: snapped
Newton iteration predicts the root, and the grid cell of the last
generation that holds the iterate is certified exactly (nonzero vertices,
no root on its edges, closed count 1).  A certified cell is the very cell
bisection would output and is never split again; a failed attempt leaves
the lineage to bisection.  Newton only predicts, so the output stays
exact.  The ``3n*delta`` separation test (:func:`newton_switch_ready`)
serves the CLI's ``--newton`` refinement only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

# count_real_roots stays bound here: bench/test_bench.py checks that the
# tracer reaches this copied binding.
from .cauchy_index import count_real_roots  # noqa: F401
from .exact_arith import (
    GaussianRational,
    InvariantViolation,
    RatLike,
    gauss,
    modulus_bounds,
)
from .poly import ComplexPoly, SturmChain, square_free_part, sturm_chain
from .winding import (
    QuarterInt,
    Rectangle,
    VertexRootError,
    cauchy_radius,
    rectangle_index,
)


@dataclass(frozen=True)
class Cell:
    """A 0-, 1-, or 2-dimensional open cell with its exact root weight.

    Extent is the box [x0, x1] x [y0, y1]; degenerate coordinates lower the
    dimension (x0 == x1 gives a vertical segment or a point).  All retained
    cells carry weight > 0.
    """

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction
    weight: QuarterInt

    def __post_init__(self):
        for name in ("x0", "x1", "y0", "y1"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError("cell bounds must be ordered")

    @property
    def dim(self) -> int:
        return int(self.x0 < self.x1) + int(self.y0 < self.y1)

    diameter_sq = Rectangle.diameter_sq  # same fields, degenerate sides allowed

    def center(self) -> GaussianRational:
        return gauss((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)

    def radius(self) -> Fraction:
        """Rational bound on the distance from the center to any cell point."""
        return ((self.x1 - self.x0) + (self.y1 - self.y0)) / 2

    def sort_key(self):
        return (self.x0, self.x1, self.y0, self.y1)

    def contains_point(self, z: GaussianRational) -> bool:
        """Membership of an exact point in the open cell."""
        x_ok = self.x0 < z.re < self.x1 if self.x0 < self.x1 else z.re == self.x0
        y_ok = self.y0 < z.im < self.y1 if self.y0 < self.y1 else z.im == self.y0
        return x_ok and y_ok


@dataclass(frozen=True)
class ApproximateRoot:
    """A disk B(center, radius) asserted to contain exactly one root."""

    center: GaussianRational
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ValueError("approximation radius must be positive")


@dataclass(frozen=True)
class IsolationState:
    """Result of the bisection loop.

    ``cells`` are the retained open cells of the final generation, sorted;
    ``deflated_roots`` are the exactly-found roots with their multiplicity
    in the original polynomial; ``remainder`` is the square-free working
    polynomial with all deflated roots divided out (its roots are exactly
    the roots still confined to cells).
    """

    generation: int
    cells: tuple[Cell, ...]
    initial_radius: Fraction
    deflated_roots: tuple[tuple[GaussianRational, int], ...]
    remainder: ComplexPoly
    square_free_degree: int

    def approximations(self) -> tuple[ApproximateRoot, ...]:
        return tuple(ApproximateRoot(c.center(), c.radius()) for c in self.cells)


# ---------------------------------------------------------------------------
# deflation
# ---------------------------------------------------------------------------


def deflate_vertex_root(f: ComplexPoly, z0: GaussianRational) -> tuple[ComplexPoly, int]:
    """Divide out (Z - z0)^m with maximal m; requires f(z0) = 0.

    Division is exact because z0 is a Gaussian rational.  Returns the
    quotient (nonzero at z0) and the multiplicity m.
    """
    z0 = gauss(z0)
    if f.is_zero() or f.eval(z0):
        raise ValueError(f"{z0} is not a root, nothing to deflate")
    linear = ComplexPoly([-z0, 1])
    m = 0
    q = f
    while not q.is_zero() and not q.eval(z0):
        q = q.exact_div(linear)
        m += 1
    return q, m


# ---------------------------------------------------------------------------
# grid lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Line:
    """w restricted to the line ('h', y) as t -> w(t + i*y), or to ('v', x)
    as t -> w(x + i*t): the Sturm chain of re/im, which carries gcd(re, im).

    A segment lo < t < hi is a positive affine reparametrization of the
    line, so it has the same Cauchy indices and the same roots.  Both
    chains memoize their sign variations per point.
    """

    chain: SturmChain

    def index(self, lo: Fraction, hi: Fraction) -> QuarterInt:
        """Index of w along the line from lo to hi: half the Cauchy index."""
        return QuarterInt(self.chain.variation(lo) - self.chain.variation(hi))

    @cached_property
    def root_chain(self) -> SturmChain:
        """Sturm chain of gcd'/gcd, which counts the roots on the line."""
        gcd = self.chain.gcd
        return sturm_chain(gcd.derivative(), gcd)

    def root_count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots of w on the open segment; lo < hi are non-roots."""
        if self.chain.gcd.degree <= 0:
            return 0
        twice = self.root_chain.variation(lo) - self.root_chain.variation(hi)
        if twice % 2:
            raise InvariantViolation("segment count hit a boundary root")
        return twice // 2


def _grid_line(w: ComplexPoly, lines: dict, kind: str, anchor: Fraction) -> _Line:
    """The record of the line (kind, anchor), restricting w on first use."""
    line = lines.get((kind, anchor))
    if line is None:
        m, c = (gauss(0, 1), gauss(anchor)) if kind == "v" else (gauss(1), gauss(0, anchor))
        re, im = w.compose_affine(m, c).re_im_parts()
        if re.is_zero() and im.is_zero():
            raise InvariantViolation("working polynomial vanished on a line")
        line = lines[kind, anchor] = _Line(sturm_chain(re, im))
    return line


def _segment_cells(w: ComplexPoly, lines: dict, kind: str, anchor: Fraction, spans) -> list[Cell]:
    """1-cells for the open segments (lo, hi) of one line that hold roots."""
    line = _grid_line(w, lines, kind, anchor)
    cells = []
    for lo, hi in spans:
        count = line.root_count(lo, hi)
        if count:
            box = (lo, hi, anchor, anchor) if kind == "h" else (anchor, anchor, lo, hi)
            cells.append(Cell(*box, QuarterInt.from_int(count)))
    return cells


def _vertex_root(w: ComplexPoly, rect: Rectangle, nonzero: set):
    """A vertex of rect where w vanishes, or None; the others join nonzero."""
    for v in rect.vertices():
        if v not in nonzero:
            if not w.eval(v):
                return v
            nonzero.add(v)
    return None


def _boundary_counts(w: ComplexPoly, lines: dict, rect: Rectangle) -> tuple[QuarterInt, int]:
    """Closed index of w around rect (nonzero vertices), and the number of
    roots on its four open edges."""
    xs, ys = (rect.x0, rect.x1), (rect.y0, rect.y1)
    bottom, top = (_grid_line(w, lines, "h", y) for y in ys)
    left, right = (_grid_line(w, lines, "v", x) for x in xs)
    closed = bottom.index(*xs) + right.index(*ys) - top.index(*xs) - left.index(*ys)
    edges = ((bottom, xs), (top, xs), (left, ys), (right, ys))
    return closed, sum(line.root_count(*span) for line, span in edges)


def _split_cell(w: ComplexPoly, cell: Cell, lines: dict, nonzero: set) -> list[Cell]:
    """Bisect one cell, returning the retained children (weight > 0)."""
    if w.degree <= 0:
        return []
    if cell.dim == 1:
        if cell.x0 == cell.x1:
            mid = (cell.y0 + cell.y1) / 2
            return _segment_cells(w, lines, "v", cell.x0, ((cell.y0, mid), (mid, cell.y1)))
        mid = (cell.x0 + cell.x1) / 2
        return _segment_cells(w, lines, "h", cell.y0, ((cell.x0, mid), (mid, cell.x1)))

    if cell.dim != 2:
        raise InvariantViolation("0-cells are deflated, never split")
    quadrants = Rectangle(cell.x0, cell.x1, cell.y0, cell.y1).quadrants()
    xm, ym = quadrants[0].x1, quadrants[0].y1
    children: list[Cell] = []
    for rect in quadrants:
        root = _vertex_root(w, rect, nonzero)
        if root is not None:
            raise VertexRootError(root)
        closed, boundary = _boundary_counts(w, lines, rect)
        interior = closed - QuarterInt(2 * boundary)  # half a unit per edge root
        if interior < 0 or not interior.is_integer():
            raise InvariantViolation(f"open-cell count came out as {interior}")
        if interior > 0:
            children.append(Cell(rect.x0, rect.x1, rect.y0, rect.y1, interior))
    children += _segment_cells(w, lines, "h", ym, ((cell.x0, xm), (xm, cell.x1)))
    children += _segment_cells(w, lines, "v", xm, ((cell.y0, ym), (ym, cell.y1)))
    return children


# ---------------------------------------------------------------------------
# the endgame
# ---------------------------------------------------------------------------

# On the first 12 isolate-deep problems an attempt takes at most 8 snapped
# Newton steps, so the cap is twice that; the snap is 2**-16 of the final
# side, so a root lands in the wrong final cell only when it lies that close
# to a grid line.
_NEWTON_STEPS = 16
_SNAP_BITS = 16


def _endgame_ready(w: ComplexPoly, dw: ComplexPoly, cell: Cell, cells: list[Cell]) -> bool:
    """Whether the weight-1 2-cell ``cell`` gets its one endgame attempt now.

    Two tests that build no grid line: no other cell of ``cells`` comes
    within one side of it, and the Newton point p = c - w(c)/w'(c) from its
    center c lies inside it, at least a quarter of the correction's modulus
    bound away from every edge.  An attempt made without the first test
    converges to a neighbouring root; without the second, an early iterate
    of a root near an edge steps out of the cell.  On the first 8
    isolate-deep problems, 31 of 64 attempts failed with neither test, 8
    with the first alone and none with both.
    """
    side = cell.x1 - cell.x0
    x0, x1, y0, y1 = cell.x0 - side, cell.x1 + side, cell.y0 - side, cell.y1 + side
    if any(
        c is not cell and c.x0 <= x1 and x0 <= c.x1 and c.y0 <= y1 and y0 <= c.y1 for c in cells
    ):
        return False
    c = cell.center()
    slope = dw.eval(c)
    if not slope:
        return False
    correction = w.eval(c) / slope
    p = c - correction
    margin = min(p.re - cell.x0, cell.x1 - p.re, p.im - cell.y0, cell.y1 - p.im)
    return 4 * margin >= modulus_bounds(correction)[1]


def _final_cell(
    w: ComplexPoly, dw: ComplexPoly, cell: Cell, side: Fraction, lines: dict, nonzero: set
) -> Cell | None:
    """The cell of side ``side`` that bisection would give the one root of
    the weight-1 2-cell ``cell``, or None when it cannot be certified.

    Snapped Newton from the center only predicts it: iteration stops at a
    snapped fixed point or after ``_NEWTON_STEPS`` steps, and gives up at
    once, before any grid line is built, when an iterate leaves the cell.
    The grid cell of side ``side`` that holds the iterate is then certified
    exactly: nonzero vertices, no root on its four open edges and closed
    count 1.  Its root then lies in its open interior, off every grid line
    that bisection draws down to that side, so bisection would output this
    very cell.
    """
    bits = _SNAP_BITS + side.denominator.bit_length() - side.numerator.bit_length() + 1
    z = cell.center()
    for _ in range(_NEWTON_STEPS):
        try:
            step = newton_step(w, z, bits, dw)
        except ZeroDivisionError:
            return None
        if not cell.contains_point(step):
            return None
        if step == z:
            break
        z = step
    x0 = cell.x0 + (z.re - cell.x0) // side * side  # the cell's edges are grid lines
    y0 = cell.y0 + (z.im - cell.y0) // side * side
    rect = Rectangle(x0, x0 + side, y0, y0 + side)
    if not (cell.x0 <= x0 and x0 + side <= cell.x1 and cell.y0 <= y0 and y0 + side <= cell.y1):
        return None
    if _vertex_root(w, rect, nonzero) is not None:
        return None
    closed, boundary = _boundary_counts(w, lines, rect)
    if boundary or closed != cell.weight:
        return None
    return Cell(rect.x0, rect.x1, rect.y0, rect.y1, cell.weight)


def _new_grid_points(cell: Cell) -> list[GaussianRational]:
    if cell.dim == 1:
        return [cell.center()]
    xm = (cell.x0 + cell.x1) / 2
    ym = (cell.y0 + cell.y1) / 2
    return [
        gauss(xm, ym),
        gauss(xm, cell.y0),
        gauss(xm, cell.y1),
        gauss(cell.x0, ym),
        gauss(cell.x1, ym),
    ]


# ---------------------------------------------------------------------------
# the isolation loop
# ---------------------------------------------------------------------------


def isolate_roots(f: ComplexPoly, target_diameter: RatLike) -> IsolationState:
    """Isolate all complex roots of f into cells of diameter <= target.

    Reduces f to its square-free part, confines all roots to the square
    of the Cauchy radius, and bisects; the certified Newton endgame jumps
    a separated root's cell to the cell bisection would end with.  Roots
    that land exactly on grid points are deflated and reported with their
    multiplicity in the original f; all other roots end up in disjoint
    open cells whose weights sum to the degree of the square-free part
    minus the number of deflated roots.  Output is deterministic.
    """
    if f.is_zero() or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    target = Fraction(target_diameter)
    if target <= 0:
        raise ValueError("target diameter must be positive")

    w = square_free_part(f)
    n0 = w.degree
    radius = cauchy_radius(w)
    total = rectangle_index(w, Rectangle(-radius, radius, -radius, radius))
    if total != n0:
        raise InvariantViolation(f"initial square counted {total}, expected {n0}")

    found: list[GaussianRational] = []
    active = [Cell(-radius, radius, -radius, radius, QuarterInt.from_int(n0))]
    finished: list[Cell] = []  # certified by the endgame, never split again
    settled: set[Cell] = set()  # weight-1 lineages that spent their attempt
    derivative = (None, None)  # (w, w'), computed once per w
    generation = 0
    target_sq = target * target
    # bisection stops at generation last, where 2-cells have side final_side
    last, final_side = 0, 2 * radius
    while 2 * final_side * final_side > target_sq:
        last, final_side = last + 1, final_side / 2
    lines: dict = {}  # grid lines of w, kept across generations
    nonzero: set[GaussianRational] = set()  # grid points where w is nonzero

    while (active and max(c.diameter_sq() for c in active) > target_sq) or (
        finished and generation < last
    ):
        occupied = active + finished
        for i, cell in enumerate(active):
            if cell.dim == 2 and cell.weight == 1 and cell not in settled:
                if derivative[0] is not w:
                    derivative = (w, w.derivative())
                if _endgame_ready(w, derivative[1], cell, occupied):
                    done = _final_cell(w, derivative[1], cell, final_side, lines, nonzero)
                    if done is None:
                        settled.add(cell)
                    else:
                        finished.append(done)
                        active[i] = None
        active = [c for c in active if c is not None]

        points: set[GaussianRational] = set()
        for cell in active:
            points.update(_new_grid_points(cell))
        for z in sorted(points, key=lambda p: (p.re, p.im)):
            if w.eval(z):
                nonzero.add(z)
            else:
                w, _ = deflate_vertex_root(w, z)
                found.append(z)
                lines.clear()
                nonzero.clear()

        while True:
            try:
                parts = [_split_cell(w, c, lines, nonzero) for c in active]
            except VertexRootError as exc:
                # All grid points were pre-checked, so this is unexpected;
                # deflate and recount rather than give a wrong answer.
                w, _ = deflate_vertex_root(w, exc.vertex)
                found.append(exc.vertex)
                lines.clear()
                nonzero.clear()
                continue
            break

        settled = {c for parent, part in zip(active, parts) if parent in settled for c in part}
        active = sorted((c for part in parts for c in part), key=Cell.sort_key)
        generation += 1
        # keep what the next generation reads: lines that bound a cell still
        # bisected and the grid points where two of them cross
        live = {k for c in active for k in (("h", c.y0), ("h", c.y1), ("v", c.x0), ("v", c.x1))}
        lines = {k: line for k, line in lines.items() if k in live}
        nonzero = {z for z in nonzero if ("v", z.re) in live and ("h", z.im) in live}

        recovered = sum(c.weight for c in active + finished) + len(found)
        if recovered != n0:
            raise InvariantViolation(
                f"generation {generation}: {recovered} roots accounted, expected {n0}"
            )

    deflated = tuple((z, deflate_vertex_root(f, z)[1]) for z in found)
    return IsolationState(
        generation=generation,
        cells=tuple(sorted(active + finished, key=Cell.sort_key)),
        initial_radius=radius,
        deflated_roots=deflated,
        remainder=w,
        square_free_degree=n0,
    )


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------


def newton_switch_ready(
    approx: Sequence[ApproximateRoot], weights: Sequence[QuarterInt] | None = None
) -> bool:
    """Separation test: 3n * delta_k <= |u_k - u_j| for every pair j != k.

    ``weights`` are the root counts of the disks (default: one root each),
    and n is their total.  A disk that holds other than one root fails the
    test, so n is the number of disks.  Uses the rational lower bound of the
    modulus, so a True answer is a rigorous certificate that Newton from
    each center converges to the one root in its disk, gaining at least one
    bit per step.
    """
    if not approx:
        raise ValueError("need at least one approximation")
    if weights is not None and any(w != 1 for w in weights):
        return False
    n = len(approx)
    for k, ak in enumerate(approx):
        for j, aj in enumerate(approx):
            if j == k:
                continue
            lower, _ = modulus_bounds(ak.center - aj.center)
            if 3 * n * ak.radius > lower:
                return False
    return True


def newton_step(
    f: ComplexPoly,
    z: GaussianRational,
    rounding_denominator: int | None = None,
    derivative: ComplexPoly | None = None,
) -> GaussianRational:
    """One Newton step z - f(z)/f'(z), exactly, then optionally snapped.

    With ``rounding_denominator = k`` both components are rounded to the
    nearest multiple of 2**-k, which keeps iterates' denominators bounded;
    the snap moves each component by at most 2**-k.  ``derivative`` is f',
    for callers that step the same f many times.
    """
    z = gauss(z)
    dv = (f.derivative() if derivative is None else derivative).eval(z)
    if not dv:
        raise ZeroDivisionError("derivative vanishes at the iterate")
    step = f.eval(z) / dv
    result = z - step
    if rounding_denominator is None:
        return result
    scale = 1 << rounding_denominator
    return gauss(
        Fraction(round(result.re * scale), scale),
        Fraction(round(result.im * scale), scale),
    )


def smale_check(f: ComplexPoly, u0: GaussianRational) -> bool:
    """Sufficient separation test at a single point, after Smale.

    Shifts f to u0, bounds the initial Newton displacement eta =
    |f(u0)/f'(u0)| from above by a rational, and verifies
    ``|c_k| <= (8*eta)**(1-k) * |c_1|`` for all k >= 2 using the modulus
    sandwich (upper bounds on the left, a lower bound on the right).
    True certifies a unique root within twice the displacement and fast
    Newton convergence; False is inconclusive.
    """
    u0 = gauss(u0)
    shifted = f.compose_affine(gauss(1), u0)
    c1 = shifted.coeff(1)
    if not c1:
        raise ZeroDivisionError("derivative vanishes at the starting point")
    c0 = shifted.coeff(0)
    if not c0:
        return True  # u0 already is the root; Newton stays put
    _, eta_upper = modulus_bounds(c0 / c1)
    c1_lower, _ = modulus_bounds(c1)
    growth = 8 * eta_upper
    power = Fraction(1)
    for k in range(2, shifted.degree + 1):
        power *= growth
        _, ck_upper = modulus_bounds(shifted.coeff(k))
        if ck_upper * power > c1_lower:
            return False
    return True
