import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricding import cli, functionals, geometry, lattice, normalcone, validate_fano
from toricding import io as tio
from toricding.cli import main
from toricding.errors import SingularGram

from conftest import POLYTOPE_DIR, REPO
import test_golden

GOLDEN_DIR = REPO / "tests" / "golden"


@pytest.fixture
def tc_step(tmp_path):
    path = tmp_path / "step.json"
    path.write_text(
        json.dumps({"affines": [{"gradient": ["0"], "constant": "0"},
                                {"gradient": ["-1"], "constant": "0"}]})
    )
    return str(path)


@pytest.fixture
def tc_product_p2(tmp_path):
    path = tmp_path / "prod.json"
    path.write_text(
        json.dumps({"affines": [{"gradient": ["1", "0"], "constant": "0"}]})
    )
    return str(path)


@pytest.fixture
def long_triangle(tmp_path):
    """A valid Fano triangle, normals (A, 1), (-1, 0), (0, -1) with all rhs 1 and
    A = 1,500 sevens, and the step min(0, -x_1) on it: exact values whose
    decimal strings pass Python's 4,300-digit limit."""
    poly, tc = tmp_path / "triangle.json", tmp_path / "step.json"
    poly.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": ["7" * 1500, 1], "rhs": 1},
        {"normal": [-1, 0], "rhs": 1},
        {"normal": [0, -1], "rhs": 1}]}))
    tc.write_text(json.dumps({"affines": [{"gradient": ["0", "0"], "constant": "0"},
                                          {"gradient": ["-1", "0"], "constant": "0"}]}))
    return str(poly), str(tc)


def refuse(*args):
    raise AssertionError("called")


TOO_LONG = "error: value too long to print: it passes the digit limit\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_golden_without(monkeypatch, case, fn):
    """The golden case's outputs, byte for byte, while every module's alias of fn raises."""
    def refuse(*args):
        raise AssertionError(f"{fn.__name__} called")

    for module in list(sys.modules.values()):
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, refuse)
    expected = json.loads(test_golden.GOLDEN.read_text())[case]
    assert test_golden.run(expected["argv"]) == (
        expected["exit"], expected["stdout"], expected.get("files", {}))


class TestRationalRoundTrip:
    @given(st.fractions(max_denominator=10**6))
    @settings(max_examples=200, deadline=None)
    def test_lossless(self, q):
        assert tio.parse_rational(tio.format_rational(q)) == q

    def test_plain_integers_accepted(self):
        assert tio.parse_rational(7) == 7
        assert tio.parse_rational("-3") == -3

    def test_malformed(self):
        with pytest.raises(tio.ParseError):
            tio.parse_rational("1/0")
        with pytest.raises(tio.ParseError):
            tio.parse_rational("a/b")


class TestPolytopeIngestion:
    def test_vertex_input_matches_facet_input(self):
        facet_form = tio.polytope_from_dict(
            {
                "dim": 2,
                "facets": [
                    {"normal": [1, 0], "rhs": 1},
                    {"normal": [0, 1], "rhs": 1},
                    {"normal": [-1, -1], "rhs": 1},
                    {"normal": [1, 1], "rhs": 1},
                ],
            }
        )
        vertex_form = tio.polytope_from_dict(
            {"vertices": [["1", "0"], ["0", "1"], ["-2", "1"], ["1", "-2"]]}
        )
        assert facet_form == vertex_form

    def test_rational_rhs(self):
        P = tio.polytope_from_dict(
            {"dim": 1, "facets": [{"normal": [1], "rhs": "1/3"}, {"normal": [-1], "rhs": 1}]}
        )
        from toricding import vertices

        assert vertices(P) == ((-1,), (Fraction(1, 3),))


# an integer literal past Python's 4,300-digit limit, written into the JSON text
HUGE = "9" * 4301


@st.composite
def polytope_files(draw):
    """The text of a polytope file around P^n (n = 1..3), {-x_i <= 1, sum x_i <= 1},
    with one or two changes: extra non-primitive or rational normals, a dropped
    facet, rhs non-unit, zero or negative, a zero normal, a wrong dim, an
    integer past the digit limit in the file or long enough to pass it in a
    product, or P^n's vertices, some dropped, with extra points near or far."""
    n = draw(st.integers(1, 3))
    facets = [{"normal": [-int(i == j) for j in range(n)], "rhs": 1} for i in range(n)]
    facets.append({"normal": [1] * n, "rhs": 1})
    doc = {"dim": n, "facets": facets}
    long = st.builds(lambda s, k: s * (10 ** 2500 + k), st.sampled_from([1, -1]), st.integers(0, 9))
    for kind in draw(st.lists(st.sampled_from(
            ["plain", "extra", "drop", "rhs", "zero", "dim", "huge", "long", "vertices", "far"]),
            min_size=1, max_size=2)):
        if kind == "extra":  # a multiple of a normal, or a rational one
            k, row = draw(st.integers(2, 3)), draw(st.sampled_from(facets))
            normal = [k * a for a in row["normal"]]
            if draw(st.booleans()):
                normal[0] = draw(st.sampled_from(["1/2", "3/2"]))
            facets.append({"normal": normal, "rhs": draw(st.sampled_from([k, 1, "1/3", k + 1]))})
        elif kind == "drop":
            facets.pop(draw(st.integers(0, len(facets) - 1)))
        elif kind == "rhs" and facets:
            draw(st.sampled_from(facets))["rhs"] = draw(st.sampled_from(
                [0, -1, "-1/2", 2, "1/3", "7/2", 10 ** 2500]))
        elif kind == "zero":
            facets.append({"normal": [0] * n, "rhs": draw(st.sampled_from([1, -1]))})
        elif kind == "dim":
            doc["dim"] = n + draw(st.sampled_from([1, -1]))
        elif kind == "huge" and facets:
            draw(st.sampled_from(facets))["rhs"] = HUGE
        elif kind == "long" and facets:
            draw(st.sampled_from(facets))["normal"][0] = draw(long)
        elif kind in ("vertices", "far"):  # far points give rows past the digit limit
            corners = [[-1] * n] + [[n if i == j else -1 for j in range(n)] for i in range(n)]
            kept = draw(st.lists(st.sampled_from(corners), unique_by=tuple, min_size=1))
            coord = long if kind == "far" else st.one_of(st.integers(-2, 2), st.just("1/3"))
            extra = st.lists(coord, min_size=n, max_size=n)
            extra = draw(st.lists(extra, min_size=2 * (kind == "far"), max_size=3))
            doc = {"vertices": kept + extra}
    return json.dumps(doc).replace(f'"{HUGE}"', HUGE)


class TestPolytopeExitCodes:
    """analyze on a polytope file exits 0 or 1, with nothing on stdout at 1:
    no input reaches an internal error (exit 3)."""

    @given(text=polytope_files())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_exit_zero_or_one(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("polytope") / "P.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
        assert code in (0, 1), err.getvalue()
        assert code == 0 or out.getvalue() == ""
        assert code == 1 or err.getvalue() == ""


# a decimal integer past double range, and its reciprocal, far below it
FAR = "1" + "0" * 310
NEAR_ZERO = "1/" + FAR


@st.composite
def piece_files(draw):
    """The text of a piece file for P^2: 0-4 pieces of small rationals with one
    or two changes: a gradient of the wrong length, an entry that is no
    rational ("1/0", true, 0.5, null), an integer past the digit limit (in the
    file or as a string), or a value past double range, large or small."""
    entry = st.sampled_from(["0", "1", "-1", "1/2", "-1/3", 2, -1])
    piece = st.fixed_dictionaries({"gradient": st.lists(entry, min_size=2, max_size=2),
                                   "constant": entry})
    pieces = draw(st.lists(piece, max_size=4))
    odd = {"bad": ["1/0", True, 0.5, None], "huge": [HUGE, "9" * 4301],
           "far": [FAR, "-" + FAR, NEAR_ZERO, 10 ** 310, "1e310"]}
    for kind in draw(st.lists(st.sampled_from(["plain", "length", *odd]), min_size=1, max_size=2)):
        if not pieces or kind == "plain":
            continue
        a = draw(st.sampled_from(pieces))
        if kind == "length":
            a["gradient"] = (a["gradient"] + ["0"])[:draw(st.sampled_from([0, 1, 3]))]
            continue
        i, value = draw(st.integers(0, len(a["gradient"]))), draw(st.sampled_from(odd[kind]))
        if i < len(a["gradient"]):
            a["gradient"][i] = value
        else:
            a["constant"] = value
    return json.dumps({"affines": pieces}).replace(f'"{HUGE}"', HUGE)


class TestPieceExitCodes:
    """tc-eval, reduce (with and without --segment) and oracle on a piece file
    exit 0, 1 or 2, with nothing on stdout at 1: no input reaches an internal
    error (exit 3)."""

    @given(text=piece_files(), end=st.sampled_from(["1,-1", "-1/2,0", FAR + ",0"]))
    @example(text=json.dumps({"affines": [{"gradient": [FAR, "0"], "constant": "0"}]}),
             end="1,-1")  # oracle's table
    @example(text=(GOLDEN_DIR / "mix2.json").read_text(), end=FAR + ",0")  # reduce's samples
    @example(text=json.dumps({"affines": [{"gradient": [NEAR_ZERO, "0"], "constant": "0"}]}),
             end="1,-1")  # tc-eval's density plot
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_exit_zero_one_or_two(self, text, end, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pieces")
        tc, out = tmp / "tc.json", str(tmp / "out.csv")
        tc.write_text(text)
        P = str(POLYTOPE_DIR / "p2.json")
        for argv in (["tc-eval", P, str(tc), "--emit-plot-data", out],
                     ["reduce", P, str(tc)],
                     ["reduce", P, str(tc), "--segment", f"0,0;{end};2", "--segment-csv", out],
                     ["oracle", P, str(tc), "--k-ladder", "1,2"]):
            stdout, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, err.getvalue())
            assert code != 1 or stdout.getvalue() == "", argv


# c_max of the normal-cone family at the theta-maximizing vertex
C_MAX = {name: normalcone.normal_cone_family(
    validate_fano(tio.load_polytope(str(POLYTOPE_DIR / f"{name}.json")))).c_max
    for name in ("p1", "p2", "bl1p2", "stretched")}


@st.composite
def normal_cone_argv(draw):
    """normal-cone on a bundled polytope, with or without a --grid of 0-3 items (values in
    range, 0, c_max and past it, negatives, "1/0", "nan", empty items, a 4,000-digit
    denominator, a value past double range) and a --vertex (an index, a huge integer within
    and past the digit limit, a negative, 1.5)."""
    name = draw(st.sampled_from(sorted(C_MAX)))
    c_max = C_MAX[name]
    argv = ["normal-cone", "--polytope", str(POLYTOPE_DIR / f"{name}.json")]
    if draw(st.booleans()):
        item = st.sampled_from(["1/4", "1/2", str(c_max / 2), "0", str(c_max), str(c_max + 1),
                                "-1", "-1/3", "1/0", "nan", "", " ", "1/" + "7" * 4000, FAR])
        argv.append("--grid=" + ",".join(draw(st.lists(item, max_size=3))))
    vertex = draw(st.sampled_from([None, "auto", "0", "1", "4", "-1", "1.5", "9" * 30, "9" * 5000]))
    return argv + [f"--vertex={vertex}"] * (vertex is not None)


class TestNormalConeExitCodes:
    """normal-cone exits 0, 1 or 2, with nothing on stdout at 1, whatever its --grid and
    --vertex: no option value reaches an internal error (exit 3)."""

    @given(argv=normal_cone_argv())
    @example(argv=["normal-cone", "--polytope", str(POLYTOPE_DIR / "stretched.json"),
                   "--grid=1/" + "7" * 4000])  # every value past the digit limit
    @example(argv=["normal-cone", "--polytope", str(POLYTOPE_DIR / "bl1p2.json"),
                   "--vertex=1"])  # off the theta-maximizer: a mismatch
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_exit_zero_one_or_two(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert code != 1 or out.getvalue() == "", argv


class TestMalformedFiles:
    """A missing key or a wrong type in an input file is a parse error naming the file."""

    @pytest.mark.parametrize("doc, message", [
        ({"dim": 1, "facets": [{"normal": [1]}, {"normal": [-1], "rhs": 1}]},
         'facets[0]: missing key "rhs"'),
        ({"dim": 1, "facets": [{"normal": 1, "rhs": 1}, {"normal": [-1], "rhs": 1}]},
         "facets[0].normal: expected a list, got 1"),
        ({"dim": 1, "facets": [3]}, "facets[0]: expected an object, got 3"),
        ({"dim": 1, "facets": 3}, "facets: expected a list, got 3"),
        ({"dim": None, "facets": []}, "dim: expected an integer, got null"),
        ({"vertices": [[0], 1]}, "vertices[1]: expected a list, got 1"),
        (5, "expected an object, got 5"),
    ], ids=["no-rhs", "normal-not-list", "facet-not-object", "facets-not-list", "dim-null",
            "point-not-list", "not-object"])
    def test_polytope(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(capsys, "analyze", str(bad)) == (1, "", f"error: {bad}: {message}\n")

    @pytest.mark.parametrize("doc, message", [
        ({"affines": [{"constant": 1}]}, 'affines[0]: missing key "gradient"'),
        ({"affine": []}, 'missing key "affines"'),
        ({"affines": {"a": 1}}, 'affines: expected a list, got {"a": 1}'),
        ({"affines": [3]}, "affines[0]: expected an object, got 3"),
        ({"affines": [{"gradient": "1"}]}, 'affines[0].gradient: expected a list, got "1"'),
    ], ids=["no-gradient", "no-affines", "affines-not-list", "affine-not-object",
            "gradient-not-list"])
    def test_test_configuration(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "tc.json"
        bad.write_text(json.dumps(doc))
        assert run(capsys, "tc-eval", str(POLYTOPE_DIR / "p1.json"), str(bad)) == (
            1, "", f"error: {bad}: {message}\n")


    @pytest.mark.parametrize("content", [
        b'\xff{"dim": 1}',
        b'{"dim": 1, "facets": [{"normal": [1], "rhs": ' + b"1" * 5000 + b'}]}',
    ], ids=["not-utf8", "5000-digit-integer"])
    def test_undecodable_file_is_a_usage_error(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}: ")

    def test_unreadable_path_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze", str(POLYTOPE_DIR))
        assert (code, out, err) == (1, "", f"error: [Errno 21] Is a directory: '{POLYTOPE_DIR}'\n")


class TestOutputPaths:
    """An output path that cannot be written is a usage error (exit 1)."""

    @pytest.mark.parametrize("argv", [
        ("oracle", "p1.json", "TC", "--k-ladder", "2,4", "--csv"),
        ("normal-cone", "--polytope", "bl1p2.json", "--csv"),
        ("analyze", "p1.json", "--emit-plot-data"),
        ("tc-eval", "p1.json", "TC", "--emit-plot-data"),
        ("normal-cone", "--polytope", "bl1p2.json", "--emit-plot-data"),
        ("reduce", "p1.json", "TC", "--segment", "0;1;2", "--segment-csv"),
    ], ids=["oracle-csv", "normal-cone-csv", "analyze-plot", "tc-eval-plot",
            "normal-cone-plot", "reduce-segment-csv"])
    def test_directory_is_a_usage_error(self, capsys, tmp_path, tc_step, argv):
        argv = [tc_step if a == "TC" else str(POLYTOPE_DIR / a) if a.endswith(".json") else a
                for a in argv]
        code, _, err = run(capsys, *argv, str(tmp_path))
        assert (code, err) == (1, f"error: [Errno 21] Is a directory: '{tmp_path}'\n")

    @pytest.mark.parametrize("argv, work", [
        (("analyze", "p1.json", "--emit-plot-data"), "cli.extremal_affine"),
        (("tc-eval", "p1.json", "TC", "--emit-plot-data"), "cli.extremal_affine"),
        # every segment sample is one twisted J
        (("reduce", "p1.json", "TC", "--segment", "0;1;2", "--segment-csv"),
         "cli._twisted"),
        # the family is built first, to check --grid against c_max
        (("normal-cone", "--polytope", "bl1p2.json", "--csv"), "cli.verify_family"),
        (("oracle", "p1.json", "TC", "--k-ladder", "2,4", "--csv"), "cli.integrate_product"),
    ], ids=["analyze", "tc-eval", "reduce", "normal-cone", "oracle"])
    def test_fails_before_any_work(self, capsys, monkeypatch, tmp_path, tc_step, argv, work):
        # the work raises if it runs: the file is created before it
        monkeypatch.setattr(f"toricding.{work}", refuse)
        argv = [tc_step if a == "TC" else str(POLYTOPE_DIR / a) if a.endswith(".json") else a
                for a in argv]
        missing = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, *argv, str(missing))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_normal_cone_plot_before_any_work(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "verify_family", refuse)
        rows = tmp_path / "rows.csv"
        missing = tmp_path / "missing" / "plot.csv"
        code, out, _ = run(capsys, "normal-cone", "--polytope", str(POLYTOPE_DIR / "bl1p2.json"),
                           "--csv", str(rows), "--emit-plot-data", str(missing))
        assert (code, out) == (1, "")
        # a failing run leaves the output files it created empty
        assert rows.read_text() == ""

    @pytest.mark.parametrize("argv, work, message", [
        (("tc-eval", "p2.json", "step2.json", "--rho", "1", "--emit-plot-data"),
         "cli.extremal_affine", "rho length does not match domain dimension"),
        (("oracle", "p2.json", "step2.json", "--rho", "1", "--csv"),
         "cli.integrate_product", "rho length does not match domain dimension"),
        (("normal-cone", "--polytope", "p2.json", "--vertex", "99", "--csv"),
         "cli.select_vertex", "vertex index 99 outside 0..2"),
        (("normal-cone", "--polytope", "p2.json", "--vertex", "abc", "--csv"),
         "cli.select_vertex", "--vertex expects an integer, got 'abc'"),
    ], ids=["tc-eval-rho", "oracle-rho", "normal-cone-vertex-range", "normal-cone-vertex-abc"])
    def test_argument_error_before_any_output(self, capsys, monkeypatch, tmp_path,
                                              argv, work, message):
        # an argument checked against the loaded polytope fails before any work
        # and before the output file is created
        monkeypatch.setattr(f"toricding.{work}", refuse)
        argv = [str(POLYTOPE_DIR / a) if a.startswith("p2") else
                str(GOLDEN_DIR / a) if a.startswith("step") else a for a in argv]
        path = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not path.exists()


class TestAnalyze:
    def test_p2(self, capsys):
        code, out, _ = run(capsys, "analyze", str(POLYTOPE_DIR / "p2.json"))
        assert code == 0
        data = json.loads(out)
        assert data["vartheta"] == "0"
        assert data["anticanonical_degree"]["exact"] == "9"

    def test_bl1p2_barycenter(self, capsys):
        code, out, _ = run(capsys, "analyze", str(POLYTOPE_DIR / "bl1p2.json"))
        data = json.loads(out)
        assert data["barycenter"] == ["-1/12", "-1/12"]
        assert data["vartheta"] == "5/11"

    def test_malformed_rational_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1, "facets": [{"normal": [1], "rhs": "1/0"}]}')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "error" in err

    def test_not_fano_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "interval.json"
        bad.write_text(
            '{"dim": 1, "facets": [{"normal": [-1], "rhs": 0}, {"normal": [1], "rhs": 2}]}'
        )
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1

    def test_dim_6_exit_1(self, capsys, tmp_path):
        cube = tmp_path / "cube6.json"
        cube.write_text(json.dumps({"dim": 6, "facets": [
            {"normal": [s * int(t == i) for t in range(6)], "rhs": 1}
            for i in range(6) for s in (1, -1)]}))
        code, _, err = run(capsys, "analyze", str(cube))
        assert code == 1
        assert err == "error: vertex enumeration supports dim <= 5\n"

    def test_zero_normal_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "zero.json"
        bad.write_text('{"dim": 1, "facets": [{"normal": [0], "rhs": 1}, '
                       '{"normal": [1], "rhs": 1}, {"normal": [-1], "rhs": 1}]}')
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert out == ""
        assert err == "error: zero facet normal\n"

    def test_recession_direction_message(self, capsys, tmp_path):
        # {x <= 1, y <= 1, -x <= 1} recedes along -y
        strip = tmp_path / "strip.json"
        strip.write_text('{"dim": 2, "facets": [{"normal": [1, 0], "rhs": 1}, '
                         '{"normal": [0, 1], "rhs": 1}, {"normal": [-1, 0], "rhs": 1}]}')
        code, out, err = run(capsys, "analyze", str(strip))
        assert (code, out, err) == (1, "", "error: recession direction (0, -1)\n")

    def test_recession_direction_is_primitive(self, capsys, tmp_path):
        # {3y <= 2, x - 2y <= 1, 2x <= 1/3} recedes along -(2, 1)
        wedge = tmp_path / "wedge.json"
        wedge.write_text('{"dim": 2, "facets": [{"normal": [0, 3], "rhs": 2}, '
                         '{"normal": [1, -2], "rhs": 1}, {"normal": [2, 0], "rhs": "1/3"}]}')
        code, out, err = run(capsys, "analyze", str(wedge))
        assert (code, out, err) == (1, "", "error: recession direction (-2, -1)\n")

    def test_float_outside_double_range_exit_1(self, capsys, tmp_path):
        # a valid Fano triangle whose exact values print, but not as doubles
        a = int("7" * 1500)
        triangle = tmp_path / "triangle.json"
        triangle.write_text(json.dumps({"dim": 2, "facets": [
            {"normal": [a, 1], "rhs": 1}, {"normal": [-1, 0], "rhs": 1},
            {"normal": [0, -1], "rhs": 1}]}))
        code, out, err = run(capsys, "analyze", str(triangle))
        assert (code, out) == (1, "")
        assert err == "error: value outside double range: its float cannot be printed\n"

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "analyze", str(POLYTOPE_DIR / "bl1p2.json"))
        _, out2, _ = run(capsys, "analyze", str(POLYTOPE_DIR / "bl1p2.json"))
        assert out1 == out2


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        # a usage error, two analyze runs and a reduce run share one parser
        # and print what a fresh parser and the golden outputs print
        golden = json.loads((GOLDEN_DIR / "cli_outputs.json").read_text())
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_PARSER", None)
        bad = run(capsys, "analyze")
        runs = {case: run(capsys, *argv) for case, argv in [
            ("analyze:bl1p2", ["analyze", str(POLYTOPE_DIR / "bl1p2.json")]),
            ("analyze:bl1p2 again", ["analyze", str(POLYTOPE_DIR / "bl1p2.json")]),
            ("reduce:p1", ["reduce", str(POLYTOPE_DIR / "p1.json"), str(GOLDEN_DIR / "step1.json")]),
        ]}
        assert len(built) == 1
        for case, (code, out, _) in runs.items():
            expected = golden[case.split()[0]]
            assert (code, out) == (expected["exit"], expected["stdout"])
        monkeypatch.setattr(cli, "_PARSER", None)
        assert bad[0] == 1
        assert bad == run(capsys, "analyze")
        assert len(built) == 2


class TestTcEval:
    def test_step_values(self, capsys, tc_step):
        code, out, _ = run(capsys, "tc-eval", str(POLYTOPE_DIR / "p1.json"), tc_step)
        assert code == 0
        data = json.loads(out)
        assert data["e_na"]["exact"] == "-1/4"
        assert data["j_na"]["exact"] == "1/4"
        assert data["d_na"]["exact"] == "1/4"
        assert data["d_z_na"]["exact"] == "1/4"

    def test_zero_config(self, capsys, tmp_path):
        tc = tmp_path / "zero.json"
        tc.write_text(json.dumps({"affines": [{"gradient": ["0", "0"], "constant": "0"}]}))
        code, out, _ = run(capsys, "tc-eval", str(POLYTOPE_DIR / "p2.json"), str(tc))
        data = json.loads(out)
        assert data["e_na"]["exact"] == "0"
        assert data["j_na"]["exact"] == "0"
        assert data["dh"]["atoms"] == [{"location": "0", "mass": "1", "mass_float": 1.0}]

    def test_product_relative_ding_zero(self, capsys, tc_product_p2):
        code, out, _ = run(
            capsys, "tc-eval", str(POLYTOPE_DIR / "p2.json"), tc_product_p2, "--rho", "1,1"
        )
        data = json.loads(out)
        assert data["d_z_na"]["exact"] == "0"
        assert "inner_product_rho" in data

    def test_dimension_mismatch(self, capsys, tc_step):
        code, _, err = run(capsys, "tc-eval", str(POLYTOPE_DIR / "p2.json"), tc_step)
        assert code == 1

    def test_unbounded_polytope_exit_1(self, capsys, tmp_path, tc_step):
        halfline = tmp_path / "halfline.json"
        halfline.write_text('{"dim": 1, "facets": [{"normal": [1], "rhs": 1}]}')
        code, _, err = run(capsys, "tc-eval", str(halfline), tc_step)
        assert code == 1
        assert "interval missing a bound" in err

    def test_internal_error_exit_3(self, capsys, monkeypatch, tc_step):
        def singular(P):
            raise SingularGram("covariance matrix is singular")

        monkeypatch.setattr(cli, "extremal_affine", singular)
        code, _, err = run(capsys, "tc-eval", str(POLYTOPE_DIR / "p1.json"), tc_step)
        assert code == 3
        assert err.startswith("internal error:")

    def test_internal_value_error_exit_3(self, capsys, monkeypatch, tc_step):
        # a ValueError from inside the library is a fault, not a usage error
        def broken(f):
            raise ValueError("broken")

        monkeypatch.setattr(cli, "e_na", broken)
        code, out, err = run(capsys, "tc-eval", str(POLYTOPE_DIR / "p1.json"), tc_step)
        assert (code, out) == (3, "")
        assert err.startswith("internal error:")


    def test_value_too_long_to_print_exit_1(self, capsys, long_triangle):
        code, out, err = run(capsys, "tc-eval", *long_triangle)
        assert (code, out, err) == (1, "", TOO_LONG)


class TestReduce:
    def test_value_too_long_to_print_exit_1(self, capsys, long_triangle):
        code, out, err = run(capsys, "reduce", *long_triangle)
        assert (code, out, err) == (1, "", TOO_LONG)

    def test_step(self, capsys, tc_step):
        code, out, _ = run(capsys, "reduce", str(POLYTOPE_DIR / "p1.json"), tc_step)
        data = json.loads(out)
        assert data["j_t_na"]["exact"] == "1/4"
        assert data["rho_star"] == ["0"]
        assert data["candidates_used"] == 3

    @pytest.mark.parametrize("case", sorted(
        case for case, argv in test_golden.cases().items() if argv[0] == "reduce"))
    def test_golden_builds_no_vertex_points(self, monkeypatch, case):
        # candidates_used counts the regions' integer rows, never their points
        assert_golden_without(monkeypatch, case, geometry.vertices)

    def test_segment_csv(self, capsys, tc_step, tmp_path):
        csv_path = tmp_path / "seg.csv"
        code, _, _ = run(
            capsys,
            "reduce",
            str(POLYTOPE_DIR / "p1.json"),
            tc_step,
            "--segment",
            "0;1;4",
            "--segment-csv",
            str(csv_path),
        )
        assert code == 0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "t,j_twisted"
        assert len(rows) == 6

    @pytest.mark.parametrize("segment, message", [
        ("0;1;0", "--segment must be 'a;b;N' with an integer N >= 1, got '0;1;0'"),
        ("0;1", "--segment must be 'a;b;N' with an integer N >= 1, got '0;1'"),
        ("0;1;-2", "--segment must be 'a;b;N' with an integer N >= 1, got '0;1;-2'"),
        ("0,0;1;2", "--segment endpoints must have dimension 1, got 2 and 1"),
        ("0;x;2", "bad rational 'x': Invalid literal for Fraction: 'x'"),
        # past Python's int-string digit limit: a usage error, not an internal one
        ("0;1;" + "1" * 5000, "--segment N expects an integer, got '" + "1" * 5000 + "'"),
    ], ids=["zero-steps", "two-parts", "negative-steps", "extra-coordinate", "bad-rational",
            "5000-digit-steps"])
    def test_bad_segment_before_output(self, capsys, tc_step, tmp_path, segment, message):
        csv_path = tmp_path / "seg.csv"
        code, out, err = run(capsys, "reduce", str(POLYTOPE_DIR / "p1.json"), tc_step,
                             "--segment", segment, "--segment-csv", str(csv_path))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not csv_path.exists()

    def test_segment_above_limit_refused_before_files(self, capsys, tmp_path):
        n = cli.MAX_SEGMENT_STEPS + 1
        missing, csv_path = str(tmp_path / "missing.json"), tmp_path / "seg.csv"
        code, out, err = run(capsys, "reduce", missing, missing,
                             "--segment", f"0;1;{n}", "--segment-csv", str(csv_path))
        assert (code, out) == (1, "")
        assert err == (f"error: --segment N = {n} samples, "
                       f"above the limit of {cli.MAX_SEGMENT_STEPS}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", ["--segment", "--segment-csv"])
    def test_segment_options_go_together(self, capsys, tmp_path, option):
        # checked before any file is read
        value = "0;1;4" if option == "--segment" else str(tmp_path / "seg.csv")
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "reduce", missing, missing, option, value)
        assert (code, out) == (1, "")
        assert err == "error: --segment and --segment-csv must be given together\n"
        assert list(tmp_path.iterdir()) == []


class TestNormalCone:
    def test_value_too_long_to_print_exit_1(self, capsys, long_triangle):
        # the witness D_Z of verdict's "destabilized" statement passes the digit limit
        code, out, err = run(capsys, "normal-cone", "--polytope", long_triangle[0])
        assert (code, out, err) == (1, "", TOO_LONG)

    def test_bl1p2_report(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "normal-cone",
            "--polytope",
            str(POLYTOPE_DIR / "bl1p2.json"),
            "--grid",
            "1/8,1/4",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        data = json.loads(out)
        assert data["expansion_leading"] == data["expansion_leading_expected"] == "1/44"
        assert all(r["dh_matches_closed_form"] for r in data["rows"])
        header = csv_path.read_text().splitlines()[0]
        assert header == "c,j_na,j_t_na,d_na,pairing_with_extremal,d_z_na"

    def test_grid_out_of_range(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "normal-cone",
            "--polytope",
            str(POLYTOPE_DIR / "p1.json"),
            "--grid",
            "5",
        )
        assert code == 1
        assert err == "error: c values 5 outside (0, 2)\n"
        code, _, err = run(capsys, "normal-cone", "--polytope", str(POLYTOPE_DIR / "p1.json"),
                           "--grid", "5,1/2,-1/3")
        assert code == 1
        assert err == "error: c values 5, -1/3 outside (0, 2)\n"
        # the grid is checked against c_max before any output file is created
        csv_path, plot = tmp_path / "x.csv", tmp_path / "plot.csv"
        code, out, err = run(capsys, "normal-cone", "--polytope", str(POLYTOPE_DIR / "p2.json"),
                             "--grid", "5", "--csv", str(csv_path), "--emit-plot-data", str(plot))
        assert (code, out, err) == (1, "", "error: c values 5 outside (0, 3)\n")
        assert not csv_path.exists() and not plot.exists()

    def test_grid_above_order_at_origin(self, capsys):
        # on p1, ord(0) = ord(b) = 1 < c_max = 2: at c = 3/2, g_c(0) = g_c(b) = -1/2,
        # and at c = 1 both pieces are active at b
        code, out, err = run(capsys, "normal-cone", "--polytope", str(POLYTOPE_DIR / "p1.json"),
                             "--grid", "1,3/2")
        assert (code, err) == (0, "")
        rows = [(r["c"], r["j_na"], r["d_na"], r["j_t_na"], r["rho_star"], r["d_z_na"])
                for r in json.loads(out)["rows"]]
        assert rows == [("1", "1/4", "1/4", "1/4", ["-1"], "1/4"),
                        ("3/2", "9/16", "1/16", "1/16", ["-1"], "1/16")]

    @pytest.mark.parametrize("index", ["99", "4", "-1"])
    def test_vertex_index_out_of_range(self, capsys, index):
        # bl1p2 has 4 vertices; -1 is not a back-reference to the last one
        code, out, err = run(capsys, "normal-cone", "--polytope",
                             str(POLYTOPE_DIR / "bl1p2.json"), "--vertex", index)
        assert (code, out) == (1, "")
        assert err == f"error: vertex index {index} outside 0..3\n"

    @pytest.mark.parametrize("index", ["abc", "1.5", ""])
    def test_vertex_index_not_an_integer(self, capsys, index):
        code, out, err = run(capsys, "normal-cone", "--polytope",
                             str(POLYTOPE_DIR / "bl1p2.json"), "--vertex", index)
        assert (code, out) == (1, "")
        assert err == f"error: --vertex expects an integer, got {index!r}\n"

    def test_non_unimodular_vertex_message(self, capsys):
        code, out, err = run(capsys, "normal-cone", "--polytope",
                             str(POLYTOPE_DIR / "stretched.json"), "--vertex", "2")
        assert (code, out) == (1, "")
        assert err == "error: edge directions at (0, -1) span a sublattice of index 2\n"

    def test_non_simple_vertex_message(self, capsys, tmp_path):
        # the octahedron |x| + |y| + |z| <= 1 has 4 facets at each vertex
        octahedron = tmp_path / "octahedron.json"
        octahedron.write_text(json.dumps({"dim": 3, "facets": [
            {"normal": [a, b, c], "rhs": 1} for a in (1, -1) for b in (1, -1) for c in (1, -1)]}))
        code, out, err = run(capsys, "normal-cone", "--polytope", str(octahedron),
                             "--vertex", "0")
        assert (code, out) == (1, "")
        assert err == "error: (-1, 0, 0) is not a vertex with 3 tight facets\n"

    def test_explicit_vertex_mismatch_exit_2(self, capsys):
        # non-maximizing vertex: expansion identity must fail with exit 2
        code, _, err = run(
            capsys,
            "normal-cone",
            "--polytope",
            str(POLYTOPE_DIR / "bl1p2.json"),
            "--vertex",
            "3",
            "--grid",
            "1/4",
        )
        assert code == 2
        assert "identity violation" in err

    @pytest.mark.parametrize("name, vertex, charts", [
        ("bl1p2", "auto", [(-2, 1)]),
        ("bl1p2", "2", [(1, -2)]),
        ("stretched", "1", [(-1, 1), (-1, -1)]),
        ("stretched", "0", [(-1, -1)]),
    ], ids=["bl1p2-auto", "bl1p2-2", "stretched-1", "stretched-0"])
    def test_family_built_once_for_auto(self, capsys, monkeypatch, name, vertex, charts):
        # verdict reuses the family at the theta-maximizing vertex, picked by auto or
        # named by index, and builds none below vartheta = 1; above it, for another
        # explicit vertex, verdict builds the family at the theta-maximizing vertex
        built = []
        chart = normalcone.vertex_chart
        monkeypatch.setattr(normalcone, "vertex_chart", lambda P, v: built.append(v) or chart(P, v))
        code, out, _ = run(capsys, "normal-cone", "--polytope",
                           str(POLYTOPE_DIR / f"{name}.json"), "--vertex", vertex)
        assert code == 0
        assert built == charts

    def test_stretched_verdict(self, capsys):
        code, out, _ = run(
            capsys, "normal-cone", "--polytope", str(POLYTOPE_DIR / "stretched.json")
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["flags"]["vartheta>1"]
        assert any("destabilized" in s for s in data["verdict"]["statements"])


class TestOracle:
    def test_step_table(self, capsys, tc_step):
        code, out, _ = run(
            capsys,
            "oracle",
            str(POLYTOPE_DIR / "p1.json"),
            tc_step,
            "--k-ladder",
            "2,4,8",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0].startswith("k,N_k,mean")
        assert len(rows) == 4
        first = rows[1].split(",")
        assert first[0] == "2" and first[1] == "5"
        assert float(first[2]) == -0.3

    @pytest.mark.parametrize("case", sorted(
        case for case, argv in test_golden.cases().items() if argv[0] == "oracle"))
    def test_golden_builds_no_dh_measure(self, monkeypatch, case):
        # the exact second moment is (1/vol) sum_R int_R a^2, not a DH measure's
        assert_golden_without(monkeypatch, case, functionals.dh_measure)

    def test_csv_file_equals_stdout(self, capsys, tc_step, tmp_path):
        table = tmp_path / "oracle.csv"
        code, out, _ = run(capsys, "oracle", str(POLYTOPE_DIR / "p1.json"), tc_step,
                           "--k-ladder", "2,4", "--csv", str(table))
        assert code == 0
        with open(table, newline="") as fh:
            assert fh.read() == out

    def test_tolerance_failure_exit_2(self, capsys, tc_step):
        code, _, _ = run(
            capsys,
            "oracle",
            str(POLYTOPE_DIR / "p1.json"),
            tc_step,
            "--k-ladder",
            "2",
            "--tol",
            "1/1000",
        )
        assert code == 2

    def test_level_too_large_exit_1(self, capsys, monkeypatch):
        def enumerate_rows(base):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(lattice, "_fiber_rows", enumerate_rows)
        code, out, err = run(capsys, "oracle", str(GOLDEN_DIR / "p4.json"),
                             str(GOLDEN_DIR / "step4.json"), "--k-ladder", "40")
        assert code == 1
        assert out == ""
        assert err.startswith("error: k = 40: about 66666667 lattice points")

    def test_options_checked_before_files(self, capsys):
        # order: ladder ints, rho, tol, then the ladder checks, then the files
        code, _, err = run(capsys, "oracle", "missing.json", "missing.json",
                           "--k-ladder", "8,4", "--rho", "x", "--tol", "y")
        assert code == 1
        assert err == "error: bad rational 'x': Invalid literal for Fraction: 'x'\n"
        code, _, err = run(capsys, "oracle", "missing.json", "missing.json", "--k-ladder", "8,4")
        assert code == 1
        assert err == "error: k ladder must be strictly increasing\n"

    def test_rho_checked_before_files(self, capsys):
        # only the default rho needs the polytope, and it is integral
        code, out, err = run(capsys, "oracle", "missing.json", "missing.json", "--rho", "1/2")
        assert (code, out, err) == (1, "", "error: oracle rho must be integral\n")

    def test_empty_ladder_checked_before_files(self, capsys):
        code, out, err = run(capsys, "oracle", "missing.json", "missing.json", "--k-ladder", ",")
        assert (code, out, err) == (1, "", "error: oracle needs a nonempty k ladder\n")

    @pytest.mark.parametrize("ladder, item", [("8,x", "x"), ("4, 8.0", " 8.0"), ("1/2", "1/2")])
    def test_ladder_not_integers(self, capsys, monkeypatch, ladder, item):
        # checked before the polytope is read
        monkeypatch.setattr(tio, "load_polytope", lambda path: pytest.fail("polytope read"))
        code, out, err = run(capsys, "oracle", str(POLYTOPE_DIR / "p1.json"), "missing.json",
                             "--k-ladder", ladder)
        assert (code, out) == (1, "")
        assert err == f"error: --k-ladder expects an integer, got {item!r}\n"

    def test_empty_tol_is_a_usage_error(self, capsys, tc_step):
        code, out, err = run(capsys, "oracle", str(POLYTOPE_DIR / "p1.json"), tc_step,
                             "--k-ladder", "2", "--tol", "")
        assert (code, out) == (1, "")
        assert err == "error: bad rational '': Invalid literal for Fraction: ''\n"

    def test_negative_tol_is_a_usage_error(self, capsys, monkeypatch, tc_step):
        # checked before the polytope is read, so no level is computed
        monkeypatch.setattr(tio, "load_polytope", lambda path: pytest.fail("polytope read"))
        code, out, err = run(capsys, "oracle", str(POLYTOPE_DIR / "p1.json"), tc_step,
                             "--k-ladder", "2", "--tol", "-1")
        assert (code, out) == (1, "")
        assert err == "error: --tol must be >= 0, got -1\n"

    def test_bad_ladder(self, capsys, tc_step):
        code, _, _ = run(
            capsys, "oracle", str(POLYTOPE_DIR / "p1.json"), tc_step, "--k-ladder", "8,4"
        )
        assert code == 1


class TestDigits:
    @pytest.mark.parametrize("argv", [
        ["analyze", "polytopes/p2.json"],
        ["normal-cone", "--polytope", "polytopes/p2.json"],
    ])
    def test_negative_digits_is_a_usage_error(self, capsys, monkeypatch, argv):
        # checked before any command runs
        monkeypatch.setattr(tio, "load_polytope", lambda path: pytest.fail("polytope read"))
        code, out, err = run(capsys, "--digits", "-3", *argv)
        assert (code, out) == (1, "")
        assert err == "error: --digits must be >= 0, got -3\n"

    def test_zero_digits_accepted(self, capsys):
        code, out, _ = run(capsys, "--digits", "0", "analyze", str(POLYTOPE_DIR / "bl1p2.json"))
        assert code == 0
        assert json.loads(out)["volume"] == {"exact": "4", "float": 4.0}

    def test_digits_above_17_change_nothing(self, capsys):
        # 17 significant digits round-trip a float; a larger precision is no error
        argv = ["analyze", str(POLYTOPE_DIR / "bl1p2.json")]
        outputs = [run(capsys, "--digits", d, *argv) for d in ("17", "40", str(10**12))]
        assert outputs[0][0] == 0
        assert outputs[1:] == outputs[:1] * 2


class TestPlotData:
    def test_emit_density(self, capsys, tmp_path):
        plot = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys,
            "analyze",
            str(POLYTOPE_DIR / "bl1p2.json"),
            "--emit-plot-data",
            str(plot),
        )
        assert code == 0
        text = plot.read_text()
        assert text.startswith("lambda,density")
        assert "atom_location" in text
