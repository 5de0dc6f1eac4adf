"""Span tracer that wraps exactroots' public functions from outside.

``from .poly import sturm_chain`` copies a function into the importing
module, so patching only the home module would miss most calls.  The
tracer therefore replaces *every* binding of the original object in every
loaded ``exactroots`` module, the package namespace included.  Modules are
looked up in ``sys.modules``: the package attribute ``exactroots.cauchy_index``
is the function of that name, not the module.  A target that no longer
exists reports 0 calls instead of failing the run.

Each call records a span ``[name, start, end, parent, problem, nested]``;
spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# metric prefix -> (module, attribute path inside the module)
TARGETS = {
    "poly.compose_affine": ("exactroots.poly", "_Poly.compose_affine"),
    "poly.sturm_chain": ("exactroots.poly", "sturm_chain"),
    "poly.real_gcd": ("exactroots.poly", "real_gcd"),
    "poly.complex_gcd": ("exactroots.poly", "complex_gcd"),
    "poly.square_free_part": ("exactroots.poly", "square_free_part"),
    "cauchy_index.cauchy_index": ("exactroots.cauchy_index", "cauchy_index"),
    "cauchy_index.count_real_roots": ("exactroots.cauchy_index", "count_real_roots"),
    "winding.segment_index": ("exactroots.winding", "segment_index"),
    "winding.rectangle_index": ("exactroots.winding", "rectangle_index"),
    "isolate.isolate_roots": ("exactroots.isolate", "isolate_roots"),
    "isolate.newton_step": ("exactroots.isolate", "newton_step"),
    "isolate.smale_check": ("exactroots.isolate", "smale_check"),
    "isolate.newton_switch_ready": ("exactroots.isolate", "newton_switch_ready"),
    "isolate.deflate_vertex_root": ("exactroots.isolate", "deflate_vertex_root"),
    "stability.routh_index": ("exactroots.stability", "routh_index"),
    "stability.half_plane_count": ("exactroots.stability", "half_plane_count"),
    "brouwer.fixed_point_search": ("exactroots.brouwer", "fixed_point_search"),
    "brouwer.BiPoly.restrict_segment": ("exactroots.brouwer", "BiPoly.restrict_segment"),
    "cli.main": ("exactroots.cli", "main"),
    "cli.parse_poly": ("exactroots.cli", "parse_poly"),
    "cli.parse_real_poly": ("exactroots.cli", "parse_real_poly"),
    "cli.parse_map_component": ("exactroots.cli", "parse_map_component"),
}

# Time metrics are reported only for layers that every workload's traced
# set calls: a layer a workload never reaches would read 0 s on every run.
TIMED = (
    "poly.compose_affine",
    "poly.sturm_chain",
    "poly.real_gcd",
    "poly.complex_gcd",
    "cauchy_index.cauchy_index",
)


def _max_coeff_bits(chain) -> int:
    bits = 0
    for p in getattr(chain, "polys", ()):
        for c in getattr(p, "coeffs", p):
            num, den = getattr(c, "numerator", c), getattr(c, "denominator", 1)
            bits = max(bits, abs(num).bit_length(), den.bit_length())
    return bits


class Tracer:
    """Install with :meth:`install`, run the calls, then read :meth:`metrics`."""

    def __init__(self):
        self.spans: list[list] = []
        self.problem = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.distinct: dict[str, set] = {"poly.compose_affine": set(), "poly.sturm_chain": set()}
        self.lines: set = set()
        self.counters = {
            "poly.sturm_chain.max_coeff_bits": 0,
            "isolate.isolate_roots.generations": 0,
            "isolate.isolate_roots.final_cells": 0,
            "brouwer.fixed_point_search.exact_points": 0,
        }

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "exactroots" or n.startswith("exactroots."))]
        for name, (module_name, path) in TARGETS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                if original is not None:
                    self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, path, None)
            if not callable(original):
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        seen = self.distinct.get(name)
        after = _AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(_input_key(args, kwargs))
                if name == "poly.compose_affine":
                    self.lines.add(_line_key(*args, **kwargs))
            depth = active.get(name, 0)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.problem, depth > 0]
            stack.append(len(spans))
            spans.append(record)
            active[name] = depth + 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                active[name] = depth
                stack.pop()
            if after is not None:
                after(self.counters, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        calls = dict.fromkeys(TARGETS, 0)
        total = dict.fromkeys(TARGETS, 0.0)
        self_s = dict.fromkeys(TARGETS, 0.0)
        for name, start, end, parent, _, nested in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration
            if not nested:
                total[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = (calls[name], "count")
            if name in TIMED:
                out[f"{name}.total_s"] = (total[name], "s")
                out[f"{name}.self_s"] = (self_s[name], "s")
        for name, keys in self.distinct.items():
            out[f"{name}.distinct_inputs"] = (len(keys), "count")
        out["poly.compose_affine.distinct_lines"] = (len(self.lines), "count")
        for name, value in self.counters.items():
            out[name] = (value, "bits" if name.endswith("bits") else "count")
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, problem."""
        with open(path, "w") as fh:
            for name, start, end, parent, problem, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, problem]) + "\n")


def _input_key(args, kwargs):
    """Hashable identity of a call's arguments; polynomials by type and coefficients."""
    frozen = tuple((type(a).__name__, getattr(a, "coeffs", a)) for a in args)
    key = (frozen, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def _line_key(poly, m=None, c=None, *_, **__):
    """The polynomial plus the line {c + t*m} that the restriction runs along."""
    coeffs = getattr(poly, "coeffs", poly)
    dx, dy = getattr(m, "re", m), getattr(m, "im", 0)
    x, y = getattr(c, "re", c), getattr(c, "im", 0)
    try:
        if not dy:
            line = ("h", y)
        elif not dx:
            line = ("v", x)
        else:
            slope = dy / dx
            line = ("s", slope, y - slope * x)
        return coeffs, line
    except TypeError:
        return repr((coeffs, m, c))


def _after_sturm(counters, chain):
    bits = _max_coeff_bits(chain)
    if bits > counters["poly.sturm_chain.max_coeff_bits"]:
        counters["poly.sturm_chain.max_coeff_bits"] = bits


def _after_isolate(counters, state):
    counters["isolate.isolate_roots.generations"] += getattr(state, "generation", 0)
    counters["isolate.isolate_roots.final_cells"] += len(getattr(state, "cells", ()))


def _after_fixed_point(counters, result):
    counters["brouwer.fixed_point_search.exact_points"] += int(bool(getattr(result, "is_exact", False)))


_AFTER = {
    "poly.sturm_chain": _after_sturm,
    "isolate.isolate_roots": _after_isolate,
    "brouwer.fixed_point_search": _after_fixed_point,
}
