import json
from fractions import Fraction
from random import Random

import pytest

from exactroots import ComplexPoly, gauss
from exactroots.cli import (
    ParseError,
    format_complex_poly,
    main,
    parse_map_component,
    parse_poly,
    parse_real_poly,
)

from oracles import rnd_gauss


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_small_polynomial(self):
        expr = parse_poly("Z^5 - 5*Z^4 - 2*Z^3 - 2*Z^2 - 3*Z - 12")
        assert expr.poly == ComplexPoly([-12, -3, -2, -2, -5, 1])
        assert expr.variable == "Z"

    def test_rational_and_imaginary_coefficients(self):
        expr = parse_poly("(1/2)*Z + i")
        assert expr.poly == ComplexPoly([gauss(0, 1), gauss(Fraction(1, 2))])

    def test_implicit_expansion(self):
        assert parse_poly("Z*Z - 1").poly == ComplexPoly([-1, 0, 1])
        assert parse_poly("2Z").poly == ComplexPoly([0, 2])
        assert parse_poly("(Z+1)(Z-1)").poly == ComplexPoly([-1, 0, 1])

    def test_power_operator_variants(self):
        assert parse_poly("Z**3").poly == parse_poly("Z^3").poly

    def test_unary_minus(self):
        assert parse_poly("-Z^2 + -3").poly == ComplexPoly([-3, 0, -1])

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("Z^5 $ 3")
        assert err.value.position == 4

    def test_wrong_variable(self):
        with pytest.raises(ParseError):
            parse_poly("Z + X")
        with pytest.raises(ParseError):
            parse_poly("Z + Y")
        with pytest.raises(ParseError):
            parse_poly("Z + w")

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("Z^-2")

    def test_division_rules(self):
        assert parse_poly("Z/2").poly == ComplexPoly([0, Fraction(1, 2)])
        with pytest.raises(ParseError):
            parse_poly("1/Z")
        with pytest.raises(ParseError):
            parse_poly("Z/0")

    def test_real_poly_rejects_imaginary(self):
        with pytest.raises(ParseError):
            parse_real_poly("X + i")

    def test_expression_stress(self):
        cases = [
            (" Z ^ 2 - 1 ", ComplexPoly([-1, 0, 1])),
            ("((Z))", ComplexPoly([0, 1])),
            ("3(Z+i)^2", ComplexPoly([gauss(-3), gauss(0, 6), gauss(3)])),
            ("i*i", ComplexPoly([-1])),
            ("7/2/2", ComplexPoly([Fraction(7, 4)])),
            ("Z^0", ComplexPoly([1])),
            ("-(Z)(Z)", ComplexPoly([0, 0, -1])),
            ("2**3", ComplexPoly([8])),
        ]
        for source, expected in cases:
            assert parse_poly(source).poly == expected, source

    def test_map_component(self):
        p = parse_map_component("X*Y - Y^2/2 + 1/3")
        assert p.eval(2, 3) == 6 - Fraction(9, 2) + Fraction(1, 3)
        with pytest.raises(ParseError):
            parse_map_component("Z + Y")
        with pytest.raises(ParseError):
            parse_map_component("X + i")


class TestRoundTrip:
    CORPUS = [
        "Z^5 - 5*Z^4 - 2*Z^3 - 2*Z^2 - 3*Z - 12",
        "(1/2)*Z + i",
        "Z*Z - 1",
        "i*Z^3 - i",
        "-Z + 3/7",
        "Z^2 + (1/2-3*i)*Z - 2*i",
        "0",
        "42",
        "-7/3",
        "i",
        "-i",
        "Z",
    ]

    def test_corpus_round_trip(self):
        rng = Random(801)
        corpus = list(self.CORPUS)
        while len(corpus) < 50:
            poly = ComplexPoly([rnd_gauss(rng, 6, 5) for _ in range(rng.randint(1, 6))])
            corpus.append(format_complex_poly(poly))
        for source in corpus:
            once = parse_poly(source)
            printed = once.normalized
            again = parse_poly(printed)
            assert once.poly == again.poly, source
            assert format_complex_poly(again.poly, again.variable) == printed


class TestCommands:
    def test_winding_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "winding", "Z^5 - 5*Z^4 - 2*Z^3 - 2*Z^2 - 3*Z - 12",
            "--rect", "-1,1,-1,1",
        )
        assert code == 0
        assert json.loads(out)["index"] == "2"

    def test_winding_vertex_error(self, capsys):
        code, out, err = run_cli(capsys, "winding", "Z^2-1", "--rect", "-1,1,0,1")
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "vertex_root"
        assert payload["vertex"] == {"re": "-1", "im": "0"}

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "routh", "Z + +")
        assert code == 2
        assert json.loads(err)["error"] == "parse"

    def test_zero_polynomial_precondition(self, capsys):
        code, _, err = run_cli(capsys, "winding", "0", "--rect", "-1,1,-1,1")
        assert code == 3
        assert json.loads(err)["error"] == "precondition"

    def test_routh(self, capsys):
        code, out, _ = run_cli(capsys, "routh", "(Z-1)*(Z-2)")
        assert code == 0
        payload = json.loads(out)
        assert payload["routh_index"] == "2"
        assert payload["p"] == 2 and payload["q"] == 0
        assert payload["hurwitz_stable"] is False

    def test_real_roots_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "real-roots", "X^2-X", "--interval", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == [
            {"x": "0", "weight": "1/2"},
            {"x": "1", "weight": "1/2"},
        ]
        assert payload["intervals"] == []

    def test_real_roots_interior(self, capsys):
        code, out, _ = run_cli(
            capsys, "real-roots", "X^2-2", "--interval", "0,2", "--precision", "5"
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["intervals"]) == 1
        lo = Fraction(payload["intervals"][0]["lo"])
        hi = Fraction(payload["intervals"][0]["hi"])
        assert lo * lo < 2 < hi * hi
        assert hi - lo <= Fraction(1, 32)

    def test_real_roots_empty(self, capsys):
        code, out, _ = run_cli(capsys, "real-roots", "X^2+1", "--interval", "-9,9")
        payload = json.loads(out)
        assert payload["points"] == [] and payload["intervals"] == []

    def test_complex_roots_exact(self, capsys):
        code, out, _ = run_cli(capsys, "complex-roots", "Z-3")
        payload = json.loads(out)
        assert code == 0
        assert payload["exact_roots"] == [
            {"root": {"re": "3", "im": "0"}, "multiplicity": 1}
        ]
        assert payload["cells"] == []

    def test_complex_roots_double(self, capsys):
        code, out, _ = run_cli(capsys, "complex-roots", "Z^2-2*Z+1")
        payload = json.loads(out)
        assert payload["exact_roots"] == [
            {"root": {"re": "1", "im": "0"}, "multiplicity": 2}
        ]

    def test_complex_roots_cells_and_newton(self, capsys):
        code, out, _ = run_cli(
            capsys, "complex-roots", "Z^2-2", "--precision", "8", "--newton", "3"
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["cells"]) == 2
        assert payload["newton_ready"] is True
        refined = payload["newton_refined"]
        assert len(refined) == 2
        for entry in refined:
            x = Fraction(entry["re"])
            assert abs(x * x - 2) < Fraction(1, 100)

    def test_complex_roots_newton_needs_weight_one_cells(self, capsys):
        # two roots 10^-6 apart share one cell of weight 2 at 2^-10: one
        # Newton start cannot refine both, so the switch must not pass
        code, out, _ = run_cli(
            capsys, "complex-roots", "(Z - 1/3)*(Z - 1/3 - 1/10^6)",
            "--precision", "10", "--newton", "3",
        )
        payload = json.loads(out)
        assert code == 0
        assert [cell["weight"] for cell in payload["cells"]] == ["2"]
        assert payload["newton_ready"] is False
        assert payload["newton_refined"] is None

    def test_complex_roots_jobs_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "complex-roots", "Z^3+Z+9", "--precision", "6")
        code2, out2, _ = run_cli(capsys, "complex-roots", "Z^3+Z+9", "--precision", "6")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_fixed_point(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-point", "X/2", "Y/2")
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["kind"] == "point"
        assert payload["result"]["point"] == {"re": "0", "im": "0"}

    @pytest.mark.parametrize("p, q, point", [
        ("5/10000000000037 + (1/3)*(X - 5/10000000000037)", "(1/3)*Y",
         {"re": "5/10000000000037", "im": "0"}),
        ("(1/3)*X", "5/10000000000037 + (1/3)*(Y - 5/10000000000037)",
         {"re": "0", "im": "5/10000000000037"}),
    ], ids=["x-edge", "y-edge"])
    def test_fixed_point_on_an_edge_with_a_large_denominator(self, capsys, p, q, point):
        code, out, _ = run_cli(capsys, "fixed-point", p, q, "--rect", "0,1,0,1")
        assert code == 0
        assert json.loads(out)["result"] == {"kind": "point", "point": point}

    def test_fixed_point_with_composite_edge_coefficients_is_bounded(self, capsys, monkeypatch):
        # The edge gcds have 40-bit, highly composite coefficients.  Searching
        # their rational roots by trial division would evaluate a gcd about
        # 90 million times per horizontal edge; the stand-in refuses that early.
        from exactroots import PlaneMap, RealPoly, Rectangle, fixed_point_search
        from exactroots.brouwer import SelfMapViolation

        calls = []
        original = RealPoly.eval

        def bounded_eval(self, x):
            calls.append(x)
            assert len(calls) <= 10_000, "unbounded rational root search"
            return original(self, x)

        monkeypatch.setattr(RealPoly, "eval", bounded_eval)
        n = 963761198400
        h = f"({n}*((X+1)/2)^2 + (X+1)/2 + {n})"
        code, out, err = run_cli(capsys, "fixed-point", f"X - {h}", f"Y - {h}")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "precondition"
        f = PlaneMap(parse_map_component(f"X - {h}"), parse_map_component(f"Y - {h}"))
        with pytest.raises(SelfMapViolation):
            fixed_point_search(f, Rectangle(-1, 1, -1, 1), Fraction(1, 1024))

    def test_fixed_point_with_a_hostile_edge_gcd_exits_early(self, capsys, monkeypatch):
        # The horizontal edge gcds 2*7^3000*t^2 - 1 have one real root in
        # (0, 1) and an 8,423-bit leading coefficient: isolating it to width
        # 1/(2 l^2) takes about 17,000 chain evaluations per edge, seconds
        # in all.  The work bound refuses the search before it starts; the
        # stand-in stops an unbounded search early.
        from exactroots.poly import SturmChain

        calls = []
        original = SturmChain.signs_at

        def bounded_signs_at(self, x):
            calls.append(x)
            assert len(calls) <= 1_000, "unbounded exact edge-zero search"
            return original(self, x)

        monkeypatch.setattr(SturmChain, "signs_at", bounded_signs_at)
        h = "(2*7^3000*X^2 - 1)"
        code, out, err = run_cli(capsys, "fixed-point", f"X - {h}", f"Y - {h}", "--rect", "0,1,0,1")
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "precondition" and "over the limit" in payload["message"]

    def test_internal_invariant_exit_code(self, capsys, monkeypatch):
        import exactroots.cli as cli_mod
        from exactroots.exact_arith import InvariantViolation

        def explode(args):
            raise InvariantViolation("forced for the exit-code contract")

        monkeypatch.setattr(cli_mod, "cmd_routh", explode)
        code, _, err = run_cli(capsys, "routh", "Z+1")
        assert code == 4
        assert json.loads(err)["error"] == "internal_invariant"

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Z^2+1"))
        code, out, _ = run_cli(capsys, "routh", "-")
        assert code == 0
        assert json.loads(out)["imaginary_axis"] == 2

    def test_no_floats_in_exact_fields(self, capsys):
        _, out, _ = run_cli(capsys, "complex-roots", "Z^2+Z+1", "--precision", "4")
        payload = json.loads(out)
        for cell in payload["cells"]:
            for key in ("x0", "x1", "y0", "y1", "weight", "radius"):
                assert isinstance(cell[key], str) or key == "dim"
            assert isinstance(cell["center"]["re"], str)
        assert isinstance(payload["initial_radius"], str)


class TestLimitsAndOptions:
    def test_degree_limit_refuses_powers_before_expanding(self, capsys, monkeypatch):
        from exactroots.brouwer import BiPoly
        from exactroots.cli import MAX_DEGREE

        expanded = []
        original = BiPoly.__pow__

        def recording_pow(self, n):
            expanded.append(max(self.total_degree(), 0) * n)
            return original(self, n)

        monkeypatch.setattr(BiPoly, "__pow__", recording_pow)
        for source in ("Z^100000000", "(Z^1000)^1000", "((Z+1)^60)^2"):
            code, out, err = run_cli(capsys, "routh", source)
            assert code == 3 and out == ""
            assert json.loads(err)["error"] == "precondition"
        assert expanded and max(expanded) <= MAX_DEGREE

    def test_degree_limit_on_products(self, capsys):
        from exactroots.cli import MAX_DEGREE

        half = MAX_DEGREE // 2 + 1
        assert parse_poly(f"Z^{MAX_DEGREE}").poly.degree == MAX_DEGREE
        with pytest.raises(ValueError, match="over the limit"):
            parse_poly(f"(Z+1)^{half} * (Z-1)^{half}")
        with pytest.raises(ValueError, match="over the limit"):
            parse_poly(f"Z^{MAX_DEGREE}(Z+1)")
        code, _, err = run_cli(capsys, "fixed-point", f"X^{half}*Y^{half}", "Y")
        assert code == 3
        assert json.loads(err)["error"] == "precondition"

    def test_coefficient_size_limit_refuses_powers_before_expanding(self, capsys, monkeypatch):
        from exactroots.brouwer import BiPoly
        from exactroots.cli import MAX_COEFF_BITS, _coeff_bits

        expanded = []
        original = BiPoly.__pow__

        def recording_pow(self, n):
            expanded.append(_coeff_bits(self) * n)
            return original(self, n)

        monkeypatch.setattr(BiPoly, "__pow__", recording_pow)
        for source in ("Z + 2^100000000", "Z - ((9^99)^99)^99"):
            code, out, err = run_cli(capsys, "routh", source)
            assert code == 3 and out == ""
            assert "coefficient size" in json.loads(err)["message"]
        assert expanded and max(expanded) <= MAX_COEFF_BITS

    def test_coefficient_size_limit_on_products_and_sums(self, capsys):
        from exactroots.cli import MAX_COEFF_BITS

        near = f"2^{MAX_COEFF_BITS - 1}"
        assert parse_poly(f"Z + {near}").poly.coeff(0) == 2 ** (MAX_COEFF_BITS - 1)
        terms = (f"Z + 1/3^{MAX_COEFF_BITS // 4}", f"1/5^{MAX_COEFF_BITS // 10}")
        for term in terms:
            parse_poly(term)  # each summand is under the limit, their sum is not
        for source in (
            f"Z + {near} * {near}",
            f"Z + ({near})({near})",
            f"Z / {near} / {near}",
            " + ".join(terms),
        ):
            code, out, err = run_cli(capsys, "routh", source)
            assert code == 3 and out == ""
            assert "coefficient size" in json.loads(err)["message"]

    def test_precision_limit(self, capsys):
        from exactroots.cli import MAX_PRECISION

        assert MAX_PRECISION >= 40  # the largest K the CLI tests and corpus use
        over = str(MAX_PRECISION + 1)
        for argv in (["real-roots", "X^2-2"], ["complex-roots", "Z-1"], ["fixed-point", "X/2", "Y/2"]):
            code, out, err = run_cli(capsys, *argv, "--precision", over)
            assert code == 3 and out == ""
            message = json.loads(err)["message"]
            assert message == f"precision {over} is over the limit {MAX_PRECISION}"

    def test_newton_and_sample_limits(self, capsys, monkeypatch):
        import exactroots.cli as cli

        calls = []

        def never(name):
            def fail(*args):
                calls.append(name)
                raise AssertionError(f"{name} ran for a rejected option")
            return fail

        for name in ("isolate_roots", "newton_step", "_boundary_samples"):
            monkeypatch.setattr(cli, name, never(name))
        cases = [
            (["complex-roots", "Z^2-2", "--newton", "-1"], "newton steps must be nonnegative"),
            (["complex-roots", "Z^2-2", "--newton", str(cli.MAX_NEWTON_STEPS + 1)],
             f"newton steps {cli.MAX_NEWTON_STEPS + 1} is over the limit {cli.MAX_NEWTON_STEPS}"),
            (["complex-roots", "Z^2-2", "--newton", "1000000000"],
             f"newton steps 1000000000 is over the limit {cli.MAX_NEWTON_STEPS}"),
            (["plot", "Z", "--rect", "-1,1,-1,1", "--samples", str(cli.MAX_SAMPLES + 1)],
             f"samples {cli.MAX_SAMPLES + 1} is over the limit {cli.MAX_SAMPLES}"),
            (["plot", "Z", "--rect", "-1,1,-1,1", "--samples", "1000000000"],
             f"samples 1000000000 is over the limit {cli.MAX_SAMPLES}"),
        ]
        for argv, message in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == ""
            assert json.loads(err) == {"error": "precondition", "message": message}
        assert calls == []

    def test_newton_and_sample_limits_are_accepted(self, capsys):
        from exactroots.cli import MAX_NEWTON_STEPS, MAX_SAMPLES

        assert MAX_NEWTON_STEPS >= 3 and MAX_SAMPLES >= 64  # corpus and defaults
        code, out, _ = run_cli(
            capsys, "complex-roots", "Z^2-2", "--newton", str(MAX_NEWTON_STEPS)
        )
        assert code == 0 and len(json.loads(out)["newton_refined"]) == 2
        code, out, _ = run_cli(capsys, "complex-roots", "Z^2-2", "--newton", "0")
        assert code == 0 and "newton_refined" not in json.loads(out)
        code, out, _ = run_cli(
            capsys, "plot", "Z", "--rect", "-1,1,-1,1", "--samples", str(MAX_SAMPLES)
        )
        assert code == 0 and len(out.splitlines()) == 1 + 4 * MAX_SAMPLES

    def test_coordinate_limit_refuses_before_counting(self, capsys, monkeypatch):
        import exactroots.cli as cli

        calls = []

        def never(name):
            def fail(*args):
                calls.append(name)
                raise AssertionError(f"{name} ran for a refused coordinate")
            return fail

        for name in ("count_roots_in_rectangle", "sturm_chain", "sign_var_diff",
                     "fixed_point_search", "_boundary_samples"):
            monkeypatch.setattr(cli, name, never(name))
        limit = cli.MAX_COORD_DIGITS
        oversized = {
            f"1e{limit}": limit + 1,
            "7" * (limit + 1): limit + 1,
            f"-2/{'3' * limit}": limit + 1,
            f"1.5E-{limit}": limit + 2,
            "3e1_000": 1001,
        }
        for value, size in oversized.items():
            for argv in (
                ["winding", "Z", "--rect", f"-1,{value},-1,1"],
                ["plot", "Z", "--rect", f"-1,1,{value},1"],
                ["fixed-point", "X/2", "Y/2", "--rect", f"{value},1,-1,1"],
                ["real-roots", "X^2-2", "--interval", f"-1,{value}"],
            ):
                code, out, err = run_cli(capsys, *argv)
                assert code == 3 and out == ""
                message = f"coordinate size {size} is over the limit {limit}"
                assert json.loads(err) == {"error": "precondition", "message": message}
        assert calls == []

    def test_coordinate_limit_is_accepted(self, capsys):
        from exactroots.cli import MAX_COORD_DIGITS

        at_limit = f"1e{MAX_COORD_DIGITS - 1}"
        code, out, _ = run_cli(capsys, "winding", "Z^2+1", "--rect", f"-{at_limit},{at_limit},0,2")
        assert code == 0 and json.loads(out)["index"] == "1"
        code, out, _ = run_cli(capsys, "real-roots", "X^2-2", "--interval", f"0,{at_limit}")
        assert code == 0 and json.loads(out)["count"] == "1"
        with pytest.raises(SystemExit) as exc:
            main(["winding", "Z", "--rect", "-1,1e,-1,1"])  # malformed: still a usage error
        assert exc.value.code == 2

    def test_jobs_rejected_everywhere(self, capsys):
        argvs = [
            ["real-roots", "X^2-2"],
            ["complex-roots", "Z^2-2"],
            ["winding", "Z", "--rect", "-1,1,-1,1"],
            ["routh", "Z+1"],
            ["fixed-point", "X/2", "Y/2"],
            ["plot", "Z", "--rect", "-1,1,-1,1"],
        ]
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--jobs", "2"])
            assert exc.value.code == 2

    def test_precision_only_where_it_is_read(self, capsys):
        for argv in (
            ["winding", "Z", "--rect", "-1,1,-1,1"],
            ["routh", "Z+1"],
            ["plot", "Z", "--rect", "-1,1,-1,1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--precision", "4"])
            assert exc.value.code == 2
        capsys.readouterr()
        for argv in (["real-roots", "X^2-2"], ["complex-roots", "Z-1"], ["fixed-point", "X/2", "Y/2"]):
            code, _, err = run_cli(capsys, *argv, "--precision", "0")
            assert code == 3
            assert json.loads(err)["message"] == "precision must be positive"


class TestPlot:
    def test_csv_row_count_and_monotone_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "plot", "Z", "--rect", "-1,1,-1,1", "--samples", "4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re,im"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 16
        for e in range(4):
            ts = [float(rows[e * 4 + k][0]) for k in range(4)]
            assert ts == sorted(ts) and len(set(ts)) == 4

    def test_csv_identity_traces_square(self, capsys):
        _, out, _ = run_cli(capsys, "plot", "Z", "--rect", "-1,1,-1,1", "--samples", "4")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        pts = {(float(r[1]), float(r[2])) for r in rows}
        assert (-1.0, -1.0) in pts and (0.5, 1.0) in pts
        assert all(max(abs(x), abs(y)) == 1.0 for x, y in pts)

    def test_svg_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "plot", "Z^2", "--rect", "-1,1,-1,1", "--samples", "8",
            "--format", "svg",
        )
        assert code == 0
        assert out.startswith("<svg")
        assert "<polyline" in out and "<circle" in out

    def test_sample_floor(self, capsys):
        code, _, err = run_cli(
            capsys, "plot", "Z", "--rect", "-1,1,-1,1", "--samples", "2"
        )
        assert code == 3
        assert json.loads(err)["error"] == "precondition"

    @pytest.mark.parametrize(
        "poly, rect, fmt",
        [
            # a degree-8 value near 7e323 overflows a float
            ("Z^8 - 3*Z^5 + 2*Z - 7", "-1,3e40,-1,7e-40", "csv"),
            ("Z^8 - 3*Z^5 + 2*Z - 7", "-1,3e40,-1,7e-40", "svg"),
            # every value is a float, but their spread is not
            ("Z^6 + 10^308", "-1,1,-2.45e51,2.45e51", "svg"),
        ],
    )
    def test_values_beyond_float_range_are_refused(self, capsys, poly, rect, fmt):
        code, out, err = run_cli(
            capsys, "plot", poly, "--rect", rect, "--samples", "4", "--format", fmt
        )
        assert code == 3
        assert out == ""
        assert json.loads(err) == {
            "error": "precondition",
            "message": "a sampled value is beyond the float range",
        }
