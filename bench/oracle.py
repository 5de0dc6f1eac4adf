"""Output checks that share no code with the Sturm machinery.

Nothing here imports exactroots.  Exact checks use plain ``Fraction``
pairs for Gaussian rationals; floating checks use mpmath at 60 digits.
Every check returns ``None`` when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

DPS = 60
CLUSTER_TOL = mpmath.mpf("1e-12")  # distinct roots of the inputs are far apart
CELL_TOL = mpmath.mpf("1e-15")  # slack when a float root meets a closed cell


# ---------------------------------------------------------------------------
# exact Gaussian-rational polynomial arithmetic (coefficients low -> high)
# ---------------------------------------------------------------------------


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_eval(coeffs, z):
    """Horner evaluation over Fraction pairs."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = g_mul(acc, z)
        acc = (acc[0] + c[0], acc[1] + c[1])
    return acc


def g_derivative(coeffs):
    return [(k * c[0], k * c[1]) for k, c in enumerate(coeffs)][1:]


def g_poly_mul(p, q):
    out = [(Fraction(0), Fraction(0))] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            t = g_mul(a, b)
            out[i + j] = (out[i + j][0] + t[0], out[i + j][1] + t[1])
    return out


def g_from_roots(roots):
    """Monic coefficients of prod (Z - z)^m for ((re, im), m) pairs."""
    poly = [(Fraction(1), Fraction(0))]
    for (re, im), m in roots:
        for _ in range(m):
            poly = g_poly_mul(poly, [(-Fraction(re), -Fraction(im)), (Fraction(1), Fraction(0))])
    return poly


def multiplicity(coeffs, z) -> int:
    """Order of vanishing of the polynomial at the exact point z."""
    m = 0
    p = list(coeffs)
    while p and g_eval(p, z) == (0, 0):
        m += 1
        p = g_derivative(p)
    return m


# ---------------------------------------------------------------------------
# floating roots
# ---------------------------------------------------------------------------


def mp_roots(coeffs):
    """All complex roots, with multiplicity, of a polynomial given low -> high."""
    with mpmath.workdps(DPS):
        high_first = [mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                                 mpmath.mpf(im.numerator) / im.denominator)
                      for re, im in reversed([(Fraction(a), Fraction(b)) for a, b in coeffs])]
        while high_first and high_first[0] == 0:
            high_first.pop(0)
        if len(high_first) < 2:
            return []
        return list(mpmath.polyroots(high_first, maxsteps=400, extraprec=4 * DPS))


def cluster(roots):
    """Group float roots closer than CLUSTER_TOL: [(center, count)]."""
    groups: list[list] = []
    for r in roots:
        for g in groups:
            if abs(g[0] - r) < CLUSTER_TOL:
                g[1] += 1
                break
        else:
            groups.append([r, 1])
    return [(g[0], g[1]) for g in groups]


# ---------------------------------------------------------------------------
# isolation output: cells, exact roots, diameters
# ---------------------------------------------------------------------------


def _in_closed_cell(root, cell, tol) -> bool:
    x0, x1, y0, y1, _ = cell
    if isinstance(root[0], Fraction):
        return x0 <= root[0] <= x1 and y0 <= root[1] <= y1
    re, im = root

    def mp(f):
        return mpmath.mpf(f.numerator) / f.denominator

    return mp(x0) - tol <= re <= mp(x1) + tol and mp(y0) - tol <= im <= mp(y1) + tol


def _perfect_matching(roots, cells, tol) -> bool:
    """Every root gets one cell slot and every slot (weight many) one root."""
    slots = [k for k, cell in enumerate(cells) for _ in range(int(cell[4]))]
    if len(slots) != len(roots):
        return False
    fits = [[s for s, k in enumerate(slots) if _in_closed_cell(r, cells[k], tol)] for r in roots]
    owner = [-1] * len(slots)

    def augment(r, seen):
        for s in fits[r]:
            if s in seen:
                continue
            seen.add(s)
            if owner[s] < 0 or augment(owner[s], seen):
                owner[s] = r
                return True
        return False

    return all(augment(r, set()) for r in range(len(roots)))


def check_isolation(coeffs, cells, exact_roots, target, square_free_degree=None,
                    known_roots=None):
    """Check an isolation result against roots found without Sturm chains.

    ``coeffs`` is the input polynomial (Fraction pairs, low -> high);
    ``cells`` are (x0, x1, y0, y1, weight) with Fraction entries;
    ``exact_roots`` are ((re, im), multiplicity).  Roots come from
    ``known_roots`` (exact ((re, im), m) pairs) when given, else from mpmath.
    Cells must hold the remaining distinct roots one-to-one (weight many
    each) and have diameter <= target.
    """
    with mpmath.workdps(DPS):
        return _check_isolation(coeffs, cells, exact_roots, Fraction(target),
                                square_free_degree, known_roots)


def _check_isolation(coeffs, cells, exact_roots, target, square_free_degree, known_roots):
    for x0, x1, y0, y1, weight in cells:
        if (x1 - x0) ** 2 + (y1 - y0) ** 2 > target * target:
            return f"cell [{x0},{x1}]x[{y0},{y1}] wider than {target}"
        if weight != int(weight) or weight < 1:
            return f"cell weight {weight} is not a positive integer"
    for z, m in exact_roots:
        got = multiplicity(coeffs, z)
        if got != m:
            return f"exact root {z} has multiplicity {got}, reported {m}"

    if known_roots is not None:
        distinct = [((Fraction(re), Fraction(im)), m) for (re, im), m in known_roots]
        same = lambda a, b: a == b  # noqa: E731
        tol = 0
    else:
        distinct = [((r.real, r.imag), m) for r, m in cluster(mp_roots(coeffs))]
        same = lambda a, b: abs(mpmath.mpc(*a) - _to_mpc(b)) < CLUSTER_TOL  # noqa: E731
        tol = CELL_TOL
    remaining = []
    for root, m in distinct:
        hit = [z for z, _ in exact_roots if same(root, z)]
        if len(hit) > 1:
            return f"root {root} reported exactly twice"
        if hit:
            want = next(mm for z, mm in exact_roots if z == hit[0])
            if want != m:
                return f"exact root {hit[0]} has oracle multiplicity {m}, reported {want}"
        else:
            remaining.append(root)
    if len(exact_roots) + len(remaining) != len(distinct):
        return "exact roots do not match the oracle's roots"
    if square_free_degree is not None and square_free_degree != len(distinct):
        return f"square-free degree {square_free_degree}, oracle has {len(distinct)} roots"
    if not _perfect_matching(remaining, cells, tol):
        return f"{len(remaining)} roots do not map one-to-one onto {len(cells)} cells"
    return None


def _to_mpc(z):
    re, im = z
    return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                      mpmath.mpf(im.numerator) / im.denominator)


# ---------------------------------------------------------------------------
# half-plane counts
# ---------------------------------------------------------------------------


def half_plane_expected(random_factor, axis_factors, planted):
    """(p, q, axis) from planted factors plus mpmath roots of the random factor.

    ``random_factor`` is a list of ints (low -> high); ``axis_factors`` are
    (k, m) for (Z^2 + k^2)^m; ``planted`` are ((re, im), m) with re != 0.
    A float root whose real part is below 1e-40 in size counts as an axis
    root: at 60 digits such a root of a small integer polynomial is on it.
    """
    p = q = 0
    axis = sum(2 * m for _, m in axis_factors)
    for (re, _), m in planted:
        if re > 0:
            p += m
        else:
            q += m
    eps = mpmath.mpf("1e-40")
    for r in mp_roots([(Fraction(c), Fraction(0)) for c in random_factor]):
        if r.real > eps:
            p += 1
        elif r.real < -eps:
            q += 1
        else:
            axis += 1
    return p, q, axis


# ---------------------------------------------------------------------------
# real roots: rationals and +-sqrt(a), compared exactly
# ---------------------------------------------------------------------------


def _sqrt_in(a: Fraction, sign: int, lo: Fraction, hi: Fraction) -> bool:
    """Is sign*sqrt(a) in [lo, hi]?  Exact, for a > 0 not a rational square."""
    if sign < 0:
        lo, hi = -hi, -lo
    return hi >= 0 and hi * hi >= a and (lo <= 0 or lo * lo <= a)


def real_root_in(root, lo: Fraction, hi: Fraction) -> bool:
    kind, value = root
    if kind == "rat":
        return lo <= value <= hi
    return _sqrt_in(value, 1 if kind == "+sqrt" else -1, lo, hi)


def check_real_roots(payload, roots, target) -> str | None:
    """real-roots JSON against the known distinct real roots."""
    if Fraction(payload["count"]) != len(roots):
        return f"count {payload['count']}, expected {len(roots)}"
    covered = [0] * len(roots)
    for pt in payload["points"]:
        x = Fraction(pt["x"])
        hits = [k for k, r in enumerate(roots) if r == ("rat", x)]
        if len(hits) != 1 or Fraction(pt["weight"]) != 1:
            return f"point {x} is not a planted interior root"
        covered[hits[0]] += 1
    for iv in payload["intervals"]:
        lo, hi = Fraction(iv["lo"]), Fraction(iv["hi"])
        if hi - lo > target or lo >= hi:
            return f"interval [{lo},{hi}] wider than {target}"
        hits = [k for k, r in enumerate(roots) if real_root_in(r, lo, hi)]
        if len(hits) != 1:
            return f"interval [{lo},{hi}] holds {len(hits)} roots"
        covered[hits[0]] += 1
    if covered != [1] * len(roots):
        return f"roots covered {covered} times"
    return None


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------


def winding_expected(roots, rect) -> Fraction:
    """Roots in the closed rectangle: interior with multiplicity, edges half."""
    x0, x1, y0, y1 = rect
    total = Fraction(0)
    for (re, im), m in roots:
        if not (x0 <= re <= x1 and y0 <= im <= y1):
            continue
        on_edge = re in (x0, x1) or im in (y0, y1)
        total += Fraction(m, 2) if on_edge else m
    return total
