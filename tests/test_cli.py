import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wrvc.cli import main, parse_point
from wrvc.errors import WrvcError
from wrvc.models import BUILTIN_NAMES as MODEL_NAMES
from wrvc.models import ModelSpec, builtin_model, lcf_candidate_ambient
from wrvc.rho import load_ambient_file, obstruction_tensors, save_ambient_file
from wrvc.weighted import generalized_binomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def text_values(out):
    pairs = {}
    for line in out.strip().split("\n"):
        if " = " in line:
            key, _, val = line.partition(" = ")
            pairs[key.strip()] = val.strip()
    return pairs


# -- curvature ----------------------------------------------------------------


def test_curvature_qe_sphere(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--model", "qe_sphere", "--n", "3", "--m", "2",
        "--mu", "1", "--point", "0.1,0.2,0.0",
    )
    assert code == 0
    assert "J" in out
    values = text_values(out)
    assert float(values["J"]) == pytest.approx(1.25, abs=1e-11)
    assert float(values["lambda"]) == pytest.approx(0.25, abs=1e-11)
    assert float(values["qe_residual"]) <= 1e-9


def test_curvature_flat_zeros(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--model", "euclidean", "--n", "3", "--m", "2",
        "--point", "0,0,0",
    )
    assert code == 0
    values = text_values(out)
    for key in ("R_phi", "J", "Y"):
        assert float(values[key]) == pytest.approx(0.0, abs=1e-12)


def test_curvature_json_mode(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--model", "qe_sphere", "--m", "2", "--mu", "1",
        "--point", "0.1,0.2,0.0", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "curvature"
    assert doc["exit_status"] == 0
    assert doc["values"]["J"] == pytest.approx(1.25)
    assert len(doc["values"]["Ric_phi"]) == 3


def test_curvature_malformed_point(capsys):
    code, _, err = run_cli(
        capsys, "curvature", "--model", "euclidean", "--point", "0.1,x,0",
    )
    assert code == 2
    assert "'x'" in err


def test_parse_point_errors(capsys):
    assert np.array_equal(parse_point("1, 2, 3"), [1.0, 2.0, 3.0])
    with pytest.raises(WrvcError, match="bad coordinate 'x' in point '1,x'"):
        parse_point("1,x")
    # the model checks the count
    code, out, err = run_cli(capsys, "curvature", "--model", "qe_sphere", "--point", "1,2")
    assert (code, out) == (2, "")
    assert err == "error: model 'qe_sphere' needs a point with 3 coordinates\n"


@pytest.mark.parametrize("point", ["nan,0,0", "0,inf,0", "0,0,-inf"])
def test_curvature_non_finite_point_exits_2(capsys, point):
    code, out, err = run_cli(
        capsys, "curvature", "--model", "qe_sphere", f"--point={point}",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite coordinate" in err


def test_curvature_overflowing_point_exits_2(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "curvature", "--model", "qe_sphere", "--point", "1e308,0,0",
        )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "metric of model 'qe_sphere' is not finite at point (1e+308, 0, 0)" in err
    assert "RuntimeWarning" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_curvature_chart_edge_names_model_point_and_domain(capsys):
    code, out, err = run_cli(
        capsys, "curvature", "--model", "hyperbolic_upper_half", "--point", "0,0,0",
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for part in ("hyperbolic_upper_half", "0, 0, 0", "z > 0"):
        assert part in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["curvature", "vk"])
@pytest.mark.parametrize("point, shown", [
    ("0,0,-1", "0, 0, -1"), ("0.3,-0.2,-2.5", "0.3, -0.2, -2.5"),
])
def test_point_below_upper_half_space_exits_2(capsys, command, point, shown):
    code, out, err = run_cli(
        capsys, command, "--model", "hyperbolic_upper_half", "--point", point,
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        f"error: metric of model 'hyperbolic_upper_half' is undefined at point "
        f"({shown}) (model domain: points with z > 0): "
    )


def test_model_file_chart_edge_does_not_claim_whole_chart(capsys, tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text("[space]\nn = 2\n\n[metric]\ng_11 = 1/x^2\ng_22 = 1/x^2\n")
    code, out, err = run_cli(
        capsys, "curvature", "--model", str(path), "--point", "0,0.5",
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        f"error: metric of model '{path}' is undefined at point (0, 0.5) "
        "(model domain: not declared by the model file): "
    )
    assert "all points of the chart" not in err


def _model_2d(tmp_path, g_11, space="", tail=""):
    path = tmp_path / "model.cfg"
    path.write_text(f"[space]\nn = 2\nm = 1\n{space}\n[metric]\ng_11 = {g_11}\n"
                    f"g_22 = 1\n{tail}")
    return path


_UNDEFINED = "is undefined at point (0, 0) (model domain: not declared by the model file)"


@pytest.mark.parametrize("g_11, tail", [
    ("exp(1000)", "is not finite at point (0, 0)"),
    ("10^400", "is not finite at point (0, 0)"),
    ("2+sin(1e400)", f"{_UNDEFINED}: sin(inf) outside the function domain"),
    ("x^(1e400-1e400)",
     f"{_UNDEFINED}: pow(nan) needs a positive constant term, got 0.0"),
])
def test_non_finite_constant_expression_exits_2(capsys, tmp_path, g_11, tail):
    path = _model_2d(tmp_path, g_11)
    code, out, err = run_cli(capsys, "curvature", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: metric of model '{path}' {tail}\n"


@pytest.mark.parametrize("g_11, tail, message", [
    ("-1", "", "metric of model '{}' is rejected at point (0, 0): "
     "constant-term metric is not positive definite"),
    ("1", "\n[density]\nf = -1\n", "structure of model '{}' is rejected at "
     "point (0, 0): density must be positive, got f = -1.0"),
], ids=["metric", "density"])
def test_rejected_structure_names_model_and_point(capsys, tmp_path, g_11, tail,
                                                  message):
    path = _model_2d(tmp_path, g_11, tail=tail)
    code, out, err = run_cli(capsys, "curvature", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(path)}\n"


def test_overflowing_curvature_exits_2(capsys, tmp_path):
    # finite and positive definite at the origin, but the metric
    # (1 + 1e308 y^2) dx^2 + dy^2 has Gauss curvature -1e308 there, so the
    # scalar curvature -2e308 overflows
    path = _model_2d(tmp_path, "1+1e308*y^2")
    code, out, err = run_cli(capsys, "curvature", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == (f"error: weighted curvature of model '{path}' is not finite "
                   "at point (0, 0)\n")


def test_flat_metric_with_tiny_constant_term_has_zero_curvature(capsys, tmp_path):
    # g_11 = x + 2e-153 depends on x alone, so the metric is flat; the
    # order-3 and order-4 jets of its inverse overflow, but curvature reads
    # the metric's 2-jet only
    path = _model_2d(tmp_path, "x+2e-153")
    code, out, err = run_cli(capsys, "curvature", "--model", str(path), "--json")
    assert (code, err) == (0, "")
    values = json.loads(out)["values"]
    assert [values[key] for key in ("R_phi", "J", "Y", "F_phi")] == [0, 0, 0, 0]
    assert values["Ric_phi"] == values["P"] == [[0, 0], [0, 0]]


_LITERAL = st.one_of(
    st.integers(0, 1000).map(str),
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-400, 399)),
    st.just("1e400"),
)
_EXPRESSION = st.recursive(
    _LITERAL | st.just("x"),
    lambda inner: st.one_of(
        st.builds("({}){}({})".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds("{}({})".format, st.sampled_from(["exp", "log", "sqrt"]), inner),
        st.builds("pow({}, {})".format, inner, inner),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g_11=st.just("1") | _EXPRESSION, f=st.just("1") | _EXPRESSION,
       point=st.sampled_from(["0, 0", "0.5, 0"]))
def test_model_expression_fuzz_exits_0_or_one_error_line(capsys, tmp_path, g_11,
                                                         f, point):
    # the metric and the density expressions, through the jets (curvature)
    # and through a generated ambient expansion (vk)
    path = _model_2d(tmp_path, g_11, space=f"point = {point}\n",
                     tail=f"\n[density]\nf = {f}\n\n[ambient]\nlambda = 0.2\n")
    for command in ("curvature", "vk"):
        code, out, err = run_cli(capsys, command, "--model", str(path), "--json")
        assert code in (0, 2)
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""
            json.loads(out, parse_constant=_reject_non_finite)


_NUMBER_TEXT = (st.sampled_from(["0", "1", "2", "-1", "0.5", "3", "1e308", "-1e308", "nan",
                                 "inf", "-inf", "1e-320", "x", ""])
                | st.floats(-4.0, 4.0).map(repr))
_INTEGER_TEXT = st.integers(-2, 40).map(str) | st.sampled_from(["x", "1.5", "10" * 10])


@st.composite
def _cli_argv(draw):
    """curvature, vk or verify --suite jets with a random subset of their flags."""
    command = draw(st.sampled_from(["curvature", "vk", "verify"]))
    if command == "verify":
        argv = [command, "--suite", "jets"]
        flags = [("--seed", st.integers(-2, 2**70).map(str) | st.sampled_from(["x", "1.5"]))]
    else:
        argv = [command, "--model", draw(st.sampled_from(MODEL_NAMES + ("nonsense",)))]
        flags = [("--n", _INTEGER_TEXT), ("--m", _NUMBER_TEXT), ("--mu", _NUMBER_TEXT),
                 ("--point", st.lists(_NUMBER_TEXT, max_size=5).map(",".join))]
        if command == "vk":
            flags.append(("--order", _INTEGER_TEXT))
    for flag, values in flags:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
def test_argv_fuzz_exits_0_or_one_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse rejects the flags
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert out == "" and "Traceback" not in err
        assert "error:" in err.strip().split("\n")[-1]
    else:
        assert err == ""
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE)


def test_unknown_model(capsys):
    code, _, err = run_cli(capsys, "curvature", "--model", "nonsense")
    assert code == 2
    assert "nonsense" in err


# -- vk --------------------------------------------------------------------------


def test_vk_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "vk", "--model", "qe_sphere", "--n", "3", "--m", "2",
        "--mu", "1", "--order", "5", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    expected = [5 / 4, 5 / 8, 5 / 32, 5 / 256, 1 / 1024]
    for k, val in enumerate(expected, start=1):
        assert doc["values"][f"v_{k}"] == pytest.approx(val, abs=1e-12)
    for k in range(1, 5):
        assert doc["values"][f"obstruction_norm_over_factorial_{k}"] <= 1e-12


def test_vk_obstruction_norms_divide_out_the_derivative_factorial(capsys):
    # every obstruction of qe_sphere is 0; the raw sup |Omega^(31)| carries
    # a 30! from the recursion's rho-derivatives and reads ~200
    code, out, _ = run_cli(capsys, "vk", "--model", "qe_sphere", "--n", "4",
                           "--m", "2.5", "--order", "32", "--json")
    assert code == 0
    values = json.loads(out)["values"]
    model = builtin_model("qe_sphere", 4, 2.5)
    raw = obstruction_tensors(model.ambient_at(model.default_point, K=32)).sup_norms()
    assert len(raw) == 31
    for k in range(1, 32):
        assert values[f"obstruction_norm_over_factorial_{k}"] == raw[k - 1] / math.factorial(k - 1)
        assert values[f"obstruction_norm_over_factorial_{k}"] <= 1e-12


def test_vk_flat_zeros(capsys):
    code, out, _ = run_cli(
        capsys, "vk", "--model", "euclidean", "--m", "2", "--order", "3",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    for k in (1, 2, 3):
        assert doc["values"][f"v_{k}"] == pytest.approx(0.0, abs=1e-14)


def test_vk_determinacy_cap(capsys):
    code, _, err = run_cli(
        capsys, "vk", "--model", "qe_sphere", "--n", "2", "--m", "2",
        "--mu", "1", "--order", "3",
    )
    assert code == 2
    assert "beyond determinacy order 2" in err


def test_vk_model_file(capsys, tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(
        "[space]\nn = 3\nm = 2\nmu = 1\n\n"
        "[metric]\n"
        "g_11 = 4/(1+x^2+y^2+z^2)^2\n"
        "g_22 = 4/(1+x^2+y^2+z^2)^2\n"
        "g_33 = 4/(1+x^2+y^2+z^2)^2\n\n"
        "[density]\nf = 0.70710678118654752\n\n"
        "[ambient]\nlambda = 0.25\n"
    )
    code, out, _ = run_cli(
        capsys, "vk", "--model", str(path), "--order", "2", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["v_1"] == pytest.approx(1.25, abs=1e-12)


def _small_sphere(tmp_path, lam: str):
    """A model file whose true lambda is ``lam``: the round S^3 of radius
    a = 1/(2 sqrt(lam)), g = 4 a^2 delta/(1+|x|^2)^2, with f = 1, m = 2 and
    mu = 8 lam, which make P = lam g and J = (n+m) lam."""
    path = tmp_path / "sphere.cfg"
    g = f"{1 / float(lam):.17g}/(1+x^2+y^2+z^2)^2"
    path.write_text(
        f"[space]\nn = 3\nm = 2\nmu = {8 * float(lam):.17g}\n\n"
        f"[metric]\ng_11 = {g}\ng_22 = {g}\ng_33 = {g}\n\n"
        f"[ambient]\nlambda = {lam}\n"
    )
    return path


@pytest.mark.parametrize("lam", ["1e-3", "0.25", "1e60"])
def test_curvature_qe_residual_is_relative_to_each_part_scale(capsys, tmp_path, lam):
    # P = lam g holds on every small sphere, so rounding at the scale of P or
    # of lambda must not read as a residual (at lambda = 1e60 the absolute
    # parts mixed into 7.1e44)
    code, out, _ = run_cli(capsys, "curvature", "--model",
                           str(_small_sphere(tmp_path, lam)), "--json")
    assert code == 0
    assert json.loads(out)["values"]["qe_residual"] <= 1e-12


def _flat(tmp_path, density: str, lam: str):
    path = tmp_path / "flat.cfg"
    path.write_text(
        "[space]\nn = 3\nm = 2\n\n[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\n\n"
        f"[density]\nf = {density}\n\n[ambient]\nlambda = {lam}\n"
    )
    return path


@pytest.mark.parametrize("model, point, stage, tail", [
    # at lambda = 1e300 the expansion's P g^-1 P = lam^2 g is finite, as g is
    # 1e-300 delta, and its volume series, of size lam^k, overflows
    (lambda tmp: _small_sphere(tmp, "1e300"), "0,0,0", "volume series",
     "is not finite at point (0, 0, 0)"),
    (lambda tmp: _flat(tmp, "-1", "0.25"), "0.5,0,1", "ambient expansion",
     "is rejected at point (0.5, 0, 1): base density must be positive"),
], ids=["overflowing_lambda", "negative_density"])
def test_vk_generated_expansion_error_names_model_and_point(capsys, tmp_path,
                                                             model, point, stage, tail):
    path = model(tmp_path)
    code, out, err = run_cli(capsys, "vk", "--model", str(path), "--point", point)
    assert code == 2
    assert out == ""
    assert err == f"error: {stage} of model '{path}' {tail}\n"


def test_vk_non_finite_generated_expansion_exits_2_with_one_line(capsys, tmp_path):
    # at K = 1, 2 lam g overflows to inf, and to nan on g's zero entries.  No
    # model has lambda = 1.5e308 (its curvature would overflow first), so the
    # model is flat: the expansion is checked before the declared lambda
    path = tmp_path / "flat.cfg"
    path.write_text(
        "[space]\nn = 3\nm = 2\n\n[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\n\n"
        "[ambient]\nlambda = 1.5e308\n"
    )
    code, out, err = run_cli(capsys, "vk", "--model", str(path), "--order", "1")
    assert (code, out) == (2, "")
    assert err == (f"error: ambient expansion of model '{path}' is rejected at point "
                   "(0, 0, 0): expansion coefficients must be finite\n")


@pytest.mark.parametrize("lam, order", [("1e60", ["--order", "6"]), ("1e154", [])],
                         ids=["1e60", "1e154"])
def test_vk_overflowing_series_names_model_and_point(capsys, tmp_path, lam, order):
    # the expansion itself is finite; its volume series overflows (v_6 ~ lam^6
    # at lambda = 1e60, v_3 ~ lam^3 at 1e154)
    path = _small_sphere(tmp_path, lam)
    code, out, err = run_cli(capsys, "vk", "--model", str(path), *order)
    assert code == 2
    assert out == ""
    assert err == (f"error: volume series of model '{path}' is not finite "
                   "at point (0, 0, 0)\n")


@pytest.mark.parametrize("lam", ["1e-3", "0.25", "1e60", "1e154"])
def test_vk_declared_lambda_of_a_quasi_einstein_model_is_accepted(capsys, tmp_path, lam):
    code, out, _ = run_cli(capsys, "vk", "--model", str(_small_sphere(tmp_path, lam)),
                           "--order", "1", "--json")
    assert code == 0
    assert json.loads(out)["values"]["v_1"] == pytest.approx(5 * float(lam), rel=1e-12)


_ROUND_SPHERE_LAMBDA = (
    # round S^3 with f = 1, m = 2, mu = 1: not quasi-Einstein, J = 1
    "[space]\nn = 3\nm = 2\nmu = 1\n\n[metric]\n"
    "g_11 = 4/(1+x^2+y^2+z^2)^2\ng_22 = 4/(1+x^2+y^2+z^2)^2\n"
    "g_33 = 4/(1+x^2+y^2+z^2)^2\n\n[ambient]\nlambda = 0.7\n")


@pytest.mark.parametrize("text, declared, fitted, residual", [
    (_ROUND_SPHERE_LAMBDA, "0.7", "0.2", "0.4"),
    # flat, where lambda is 0
    ("[space]\nn = 3\nm = 2\n\n[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\n\n"
     "[ambient]\nlambda = 0.5\n", "0.5", "0", "0"),
    # the right lambda of a small sphere, declared with 1e-6 relative error
    (None, "1.000001e+60", "1e+60", "0"),
], ids=["round_sphere", "flat", "small_sphere"])
def test_vk_wrong_declared_lambda_exits_2_naming_both(capsys, tmp_path, text, declared,
                                                      fitted, residual):
    if text is None:
        path = _small_sphere(tmp_path, "1e60")
        path.write_text(path.read_text().replace("lambda = 1e60", "lambda = 1.000001e60"))
    else:
        path = tmp_path / "wrong.cfg"
        path.write_text(text)
    code, out, err = run_cli(capsys, "vk", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: ambient expansion of model '{path}' is rejected at point "
                   f"(0, 0, 0): [ambient] lambda = {declared} does not hold: the "
                   f"structure fits lambda = J/(n+m) = {fitted} with qe_residual "
                   f"= {residual}\n")


def test_declared_lambda_error_reads_the_qe_residual_curvature_prints(capsys, tmp_path):
    # one P = lambda g test: the rejection reports the residual of
    # ``curvature`` for the same file and point
    path = tmp_path / "wrong.cfg"
    path.write_text(_ROUND_SPHERE_LAMBDA)
    point = ("--point", "0.1,0.2,0")
    code, out, _ = run_cli(capsys, "curvature", "--model", str(path), *point, "--json")
    assert code == 0
    values = json.loads(out)["values"]
    assert values["qe_residual"] > 1e-9
    code, out, err = run_cli(capsys, "vk", "--model", str(path), *point)
    assert (code, out) == (2, "")
    assert err.endswith(f"fits lambda = J/(n+m) = {values['lambda']:.10g} "
                        f"with qe_residual = {values['qe_residual']:.3g}\n")


def test_builtin_lambda_is_not_checked(monkeypatch):
    # built-ins derive lam, so ambient_at evaluates no invariants for them
    def fail(*args):
        raise AssertionError("invariants evaluated")

    monkeypatch.setattr(ModelSpec, "invariants_at", fail)
    for name in ("euclidean", "qe_sphere", "round_sphere_stereographic"):
        builtin_model(name, 3).ambient_at([0.1, 0.2, 0.0])


@pytest.mark.parametrize("model", ["qe_sphere", "coefficient-file"])
@pytest.mark.parametrize("order", ["0", "-3"])
def test_vk_order_below_one_names_its_flag(capsys, tmp_path, model, order):
    if model == "coefficient-file":
        model = str(_ambient_model(tmp_path, "f 1 0")[1])
    code, out, err = run_cli(capsys, "vk", "--model", model, "--order", order)
    assert (code, out) == (2, "")
    assert err == f"error: --order {order} is below the smallest supported value 1\n"


def test_repeated_coordinate_name_exits_2(capsys, tmp_path):
    # x would name the second coordinate, so the metric would read 1+y^2
    path = _model_2d(tmp_path, "1+x^2", space="coords = x, x\n")
    path.write_text(path.read_text().replace("g_22 = 1\n", "g_22 = 1+x^2\n"))
    code, out, err = run_cli(capsys, "curvature", "--model", str(path),
                             "--point", "0.5,0.3")
    assert code == 2
    assert out == ""
    assert err == f"error: model '{path}' repeats the coordinate name 'x'\n"


def test_qe_sphere_overflowing_density_constant_exits_2(capsys):
    code, out, err = run_cli(capsys, "curvature", "--model", "qe_sphere",
                             "--m", "1e308", "--mu", "1e308")
    assert code == 2
    assert out == ""
    assert err == ("error: qe_sphere needs a finite density constant "
                   "(m-1) mu/(n-1) (got m = 1e+308, mu = 1e+308)\n")


@pytest.mark.parametrize("m", [2.0, 1e6, 1e300, 1e308])
def test_vk_qe_sphere_at_huge_m_tends_to_the_exponential_series(capsys, m):
    # lam = (n-1)/(2(n+m-1)) once overflowed at m = 1e308 (2(n+m-1) = inf),
    # and every v_k read 0; v_k = C(n+m, k) lam^k -> 1/k! as m grows.  The
    # reference multiplies the binomial in factor by factor, as
    # generalized_binomial(n+m, k) alone overflows for m >~ 1e154
    n = 3
    code, out, err = run_cli(capsys, "vk", "--model", "qe_sphere", "--n", str(n),
                             "--m", repr(m), "--json")
    assert code == 0 and err == ""
    values = json.loads(out)["values"]
    lam = (n - 1) / (n + m - 1) / 2.0
    for k in range(1, 6):
        expected = math.prod((n + m - i) * lam / (i + 1) for i in range(k))
        if m < 1e150:
            assert expected == pytest.approx(generalized_binomial(n + m, k) * lam**k,
                                             rel=1e-14)
        assert values[f"v_{k}"] == pytest.approx(expected, rel=1e-12)


_FLAT2 ="[space]\nn = 2\n\n[metric]\ng_11 = 1\ng_22 = 1\n"


@pytest.mark.parametrize("text, cause", [
    (_FLAT2 + "g_ab = 1\n", "bad metric key 'g_ab'"),
    (_FLAT2 + "g_11 = 2\n", ":7: duplicate key 'g_11' in [metric]"),
    ("n = 2\n" + _FLAT2, ":1: no section header before 'n = 2'"),
    (_FLAT2.replace("n = 2", "n = 2\npoint = 1, q"), "bad [space] point"),
    (_FLAT2 + "\n[ambient]\nlambda = x\n", "bad [ambient] lambda"),
    (_FLAT2.replace("n = 2", "n = 2\npoint = nan, 0"), "non-finite [space] point"),
    ("[space]\nn = 2\n", "model file needs [space] and [metric] sections"),
    (_FLAT2.replace("n = 2", "n = two"), "bad [space] entry: "),
    (_FLAT2 + "g_33 = 1\n", "metric key 'g_33' outside the 2x2 range"),
    (_FLAT2.replace("g_22 = 1\n", ""), "missing diagonal metric component g_22"),
    (_FLAT2.replace("n = 2", "n = 2\npoint = 1"), "default point needs 2 coordinates"),
    (_FLAT2.replace("g_22 = 1", "g_22 = 1+*x"),
     "unexpected token '*' (at offset 2) in [metric] g_22 of "),
    (_FLAT2 + "\n[density]\nf = (1", " in [density] f of "),
    (_FLAT2 + "\n[ambient]\nlambda = 0.1\ncoefficients = nope.txt\n",
     "[ambient] gives both lambda and coefficients; keep one"),
], ids=["key", "duplicate", "no-header", "point", "lambda", "nan-point", "sections",
        "space-entry", "key-range", "diagonal", "point-count", "metric-syntax",
        "density-syntax", "ambient-both"])
def test_malformed_model_file_exits_2(capsys, tmp_path, text, cause):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, "vk", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path}" in err and cause in err


@pytest.mark.parametrize("text, message", [
    (_FLAT2 + "g_12 = 0.1\ng_21 = 0.3\n", "[metric] gives both g_12 and g_21; keep one"),
    (_FLAT2 + "g_21 = 0.3\ng_12 = 0.1\n", "[metric] gives both g_21 and g_12; keep one"),
    (_FLAT2.replace("n = 2", "n = 2\nbogus = 7"), "unknown key 'bogus' in [space]"),
    (_FLAT2.replace("n = 2", "n = 2\nm = 2\nnu = 3"), "unknown key 'nu' in [space]"),
    (_FLAT2 + "\n[density]\nf = 1\ng = 2\n", "unknown key 'g' in [density]"),
    (_FLAT2 + "\n[ambient]\nlamda = 0.5\n", "unknown key 'lamda' in [ambient]"),
    (_FLAT2 + "\n[extra]\n", "unknown section [extra]"),
    ("[spce]\nn = 2\n\n[metric]\ng_11 = 1\ng_22 = 1\n", "unknown section [spce]"),
    ("[DEFAULT]\nm = 2\n\n" + _FLAT2, "unknown section [DEFAULT]"),
], ids=["conflict", "conflict-reversed", "space-key", "space-typo", "density-key",
        "ambient-key", "section", "section-typo", "default-section"])
def test_model_file_conflicting_or_unknown_entry_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    for command in ("curvature", "vk"):
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("text, line, shown", [
    (_FLAT2.replace("[metric]", "[metric"), 4, "[metric"),
    (_FLAT2 + "g_33\n", 7, "g_33"),
], ids=["section", "no-value"])
def test_model_file_syntax_error_names_the_line(capsys, tmp_path, text, line, shown):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, "vk", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{line}: cannot parse {shown!r}\n"


@pytest.mark.parametrize("command", ["curvature", "vk"])
def test_model_expression_bad_character_exits_2(capsys, tmp_path, command):
    path = tmp_path / "bad.cfg"
    path.write_text(_FLAT2.replace("g_11 = 1", "g_11 = 1 $ x"))
    code, out, err = run_cli(capsys, command, "--model", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: unexpected character '$' (at offset 2) in [metric] "
                   f"g_11 of {path}\n")


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(_FLAT2.encode() + b"\xff\n"),
], ids=["directory", "not-text"])
def test_unreadable_model_file_exits_2(capsys, tmp_path, make):
    path = tmp_path / "model.cfg"
    make(path)
    code, out, err = run_cli(capsys, "curvature", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read model file {str(path)!r}\n"


def _ambient_model(tmp_path, bad_row, header="2 2 0 2"):
    """A flat n=2, K=2 coefficient file whose fourth line is ``bad_row``,
    and a model file that reads it."""
    coeff_path = tmp_path / "amb.txt"
    coeff_path.write_text(
        f"{header}\n"
        "g 0 0 0 1\n"
        "f 0 1\n"
        f"{bad_row}\n"
        "g 0 1 1 1\n"
    )
    model_path = tmp_path / "model.cfg"
    model_path.write_text(
        "[space]\nn = 2\nm = 2\nmu = 0\n\n"
        "[metric]\ng_11 = 1\ng_22 = 1\n\n"
        f"[ambient]\ncoefficients = {coeff_path}\n"
    )
    return coeff_path, model_path


@pytest.mark.parametrize("bad_row, cause", [
    ("g 9 0 0 1", "k = 9 outside 0..2"),
    ("g 1 0 2 1", "j = 2 outside 0..1"),
    ("f 1 x", "bad number 'x'"),
    ("f 0 0", "base density must be positive"),
    ("f 0 -1", "base density must be positive"),
    ("g 0 0 0 -1", "base metric must be positive definite"),
    ("g 0 1 0 2", "base metric must be positive definite"),
])
def test_vk_bad_ambient_row_exits_2(capsys, tmp_path, bad_row, cause):
    # base data is checked as a whole and named at the header's line
    line = 1 if cause.startswith("base ") else 4
    coeff_path, model_path = _ambient_model(tmp_path, bad_row)
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path),
                             "--order", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{coeff_path}:{line}: {cause}" in err


@pytest.mark.parametrize("text, cause", [
    (None, "cannot read ambient coefficient file {}: No such file or directory"),
    (b"2 2 0 2\n\xff\n", "cannot read ambient coefficient file {}: 'utf-8' codec "
                          "can't decode byte 0xff"),
    (b"# only a comment\n\n", "empty ambient coefficient file {}"),
    (b"2 2 0\nf 0 1\n", "{}:1: header must be `n m mu K`"),
    (b"2 2 0 2\nf 0 1\n\nh 1 0\n", "{}:4: unrecognized row in ambient file: 'h 1 0'"),
    (b"2 2 0 2\ng 1 0 0\n", "{}:2: unrecognized row in ambient file: 'g 1 0 0'"),
], ids=["missing", "not-text", "empty", "short-header", "unknown-row", "short-row"])
def test_vk_unreadable_or_malformed_ambient_file_exits_2(capsys, tmp_path, text,
                                                         cause):
    coeff_path, model_path = _ambient_model(tmp_path, "f 1 0")
    coeff_path.unlink()
    if text is not None:
        coeff_path.write_bytes(text)
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cause.format(coeff_path)}") and err.count("\n") == 1


def test_vk_coefficient_file_without_base_density_exits_2(capsys, tmp_path):
    coeff_path, model_path = _ambient_model(tmp_path, "f 1 0")
    coeff_path.write_text(coeff_path.read_text().replace("f 0 1\n", ""))
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {coeff_path}:1: base density must be positive\n"


def test_vk_coefficient_row_near_float_limit_exits_2(capsys, tmp_path):
    # the row itself is finite: symmetrizing it must not overflow (pytest
    # turns the warning into an error), the volume series does
    _, model_path = _ambient_model(tmp_path, "g 2 1 1 -1e308")
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path))
    assert code == 2
    assert out == ""
    assert err == (f"error: volume series of model '{model_path}' is not "
                   "finite at point (0, 0)\n")


_G0 = np.array([[1.0, 0.3], [0.3, 1.0]])
_P0 = np.array([[0.2, 0.05], [0.05, -0.1]])


def _saved_ambient_model(tmp_path, rows=None, point=None):
    """A model file reading the coefficient file ``save_ambient_file``
    writes for an n = 2, K = 3 expansion with g_0 = [[1, 0.3], [0.3, 1]],
    keeping the rows for which ``rows`` is true, and [space] ``point``."""
    a = lcf_candidate_ambient(_G0, 1.0, _P0, 0.4, 2.0, 3)
    tmp_path.mkdir(exist_ok=True)
    coeff_path = tmp_path / "amb.txt"
    save_ambient_file(a, 2.0, 0.0, coeff_path)
    lines = coeff_path.read_text().splitlines(keepends=True)
    coeff_path.write_text("".join(ln for ln in lines if rows is None or rows(ln)))
    model_path = tmp_path / "model.cfg"
    model_path.write_text(
        "[space]\nn = 2\nm = 2\nmu = 0\n" + (f"point = {point}\n" if point else "")
        + "\n[metric]\ng_11 = 1\ng_22 = 1\n\n"
        f"[ambient]\ncoefficients = {coeff_path}\n"
    )
    return coeff_path, model_path


def test_one_triangle_coefficient_file_reads_as_the_full_file(capsys, tmp_path):
    # each g k 0 1 row sets (0, 1) and (1, 0), so without its g k 1 0 rows
    # the file still reads g_01 = 0.3, not half of it
    full_path, full_model = _saved_ambient_model(tmp_path / "full", None)
    one_path, one_model = _saved_ambient_model(
        tmp_path / "one", lambda ln: not re.match(r"g \d+ 1 0 ", ln))
    assert one_path.read_text().count("\n") == full_path.read_text().count("\n") - 4
    full, one = load_ambient_file(full_path)[0], load_ambient_file(one_path)[0]
    assert full.gcoeffs.tobytes() == one.gcoeffs.tobytes()
    assert full.fcoeffs.tobytes() == one.fcoeffs.tobytes()
    outputs = []
    for model in (full_model, one_model):
        code, out, err = run_cli(capsys, "vk", "--model", str(model), "--json")
        assert (code, err) == (0, "")
        outputs.append(json.loads(out)["values"])
    assert outputs[0] == outputs[1]
    # v_1 = tr(g^-1 P) + Y for the conformally flat candidate
    v1 = np.trace(np.linalg.solve(_G0, _P0)) + 0.4
    assert outputs[0]["v_1"] == pytest.approx(v1, rel=1e-12)


def test_conflicting_coefficient_rows_exit_2_with_one_line(capsys, tmp_path):
    coeff_path, model_path = _saved_ambient_model(tmp_path)
    text = coeff_path.read_text()
    row = next(ln for ln in text.splitlines() if ln.startswith("g 2 1 0 "))
    coeff_path.write_text(text.replace(row, "g 2 1 0 0.5"))
    line = text.splitlines().index(row) + 1
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {coeff_path}:{line}: g 2 1 0 = 0.5 differs from g 2 0 1")
    assert err.count("\n") == 1


@pytest.mark.parametrize("point", [None, "0.25, -0.5"])
def test_vk_point_on_a_coefficient_file_model(capsys, tmp_path, point):
    # the file holds one point's data, so only the model's default point reads it
    coeff_path, model_path = _saved_ambient_model(tmp_path, point=point)
    default = "0,0" if point is None else "0.25,-0.5"
    expected = run_cli(capsys, "vk", "--model", str(model_path))
    assert expected[0] == 0
    assert run_cli(capsys, "vk", "--model", str(model_path), "--point", default) == expected
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path), "--point", "5,7")
    assert (code, out) == (2, "")
    assert err == (f"error: {coeff_path} holds the ambient data of model '{model_path}' "
                   f"at ({default.replace(',', ', ')}) only, not at (5, 7)\n")


def test_vk_names_a_point_that_rounds_to_the_default_in_full(capsys, tmp_path):
    # 0.1000001 prints as 0.1 under :g; a coordinate whose :g text reads
    # back as another float is printed by repr, so the two points differ
    coeff_path, model_path = _saved_ambient_model(tmp_path, point="0.1, 0.2")
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path),
                             "--point", "0.1000001,0.2")
    assert (code, out) == (2, "")
    assert err == (f"error: {coeff_path} holds the ambient data of model '{model_path}' "
                   "at (0.1, 0.2) only, not at (0.1000001, 0.2)\n")


# mostly in-range indices and finite values, so that most files get past
# the row checks to the base data and the series
_COEFF_INDEX = st.sampled_from(["0", "1"] * 4 + ["2", "-1", "3", "x"])
_COEFF_VALUE = st.sampled_from(
    ["0", "1", "-1", "0.5", "1e308", "-1e308", "1e-320"] * 2 + ["nan", "inf", "one"])
_COEFF_ROW = st.one_of(
    st.builds("g {} {} {} {}".format, _COEFF_INDEX, _COEFF_INDEX, _COEFF_INDEX,
              _COEFF_VALUE),
    st.builds("f {} {}".format, _COEFF_INDEX, _COEFF_VALUE),
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(_COEFF_ROW, max_size=6), base=st.booleans())
def test_coefficient_file_fuzz_exits_0_or_one_error_line(capsys, tmp_path, rows,
                                                         base):
    # with ``base`` the random rows follow (and may overwrite) a valid flat
    # base metric and density, so the series code is reached too
    coeff_path, model_path = _ambient_model(tmp_path, "f 1 0")
    lines = ["2 2 0 2"] + (["g 0 0 0 1", "g 0 1 1 1", "f 0 1"] if base else [])
    coeff_path.write_text("\n".join(lines + rows) + "\n")
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path), "--json")
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    else:
        assert err == ""
        json.loads(out, parse_constant=_reject_non_finite)


def _reject_non_finite(token):
    raise AssertionError(f"non-finite {token} in the output")


def test_vk_good_ambient_file(capsys, tmp_path):
    _, model_path = _ambient_model(tmp_path, "f 1 0")
    code, out, _ = run_cli(capsys, "vk", "--model", str(model_path),
                           "--order", "2", "--json")
    assert code == 0
    assert json.loads(out)["values"]["v_1"] == 0.0


def test_vk_relative_coefficient_path_is_relative_to_model_file(
        capsys, tmp_path, monkeypatch):
    (tmp_path / "rel").mkdir()
    coeff_path, model_path = _ambient_model(tmp_path / "rel", "f 1 0")
    model_path.write_text(model_path.read_text().replace(str(coeff_path), "amb.txt"))
    monkeypatch.chdir(tmp_path)   # neither the model's directory nor amb.txt's
    code, out, _ = run_cli(capsys, "vk", "--model", "rel/model.cfg", "--json")
    assert code == 0
    assert json.loads(out)["values"]["v_1"] == 0.0


@pytest.mark.parametrize("order, keys", [
    ([], ["v_1", "v_2", "obstruction_norm_over_factorial_1"]),
    (["--order", "1"], ["v_1"]),
    (["--order", "2"], ["v_1", "v_2", "obstruction_norm_over_factorial_1"]),
])
def test_vk_order_truncates_coefficient_file(capsys, tmp_path, order, keys):
    _, model_path = _ambient_model(tmp_path, "g 2 0 0 0.5")
    code, out, _ = run_cli(capsys, "vk", "--model", str(model_path),
                           *order, "--json")
    assert code == 0
    assert list(json.loads(out)["values"]) == ["point"] + keys


def test_vk_default_order_of_coefficient_file_stops_at_determinacy(capsys, tmp_path):
    # n + m = 4: a K = 3 file prints v_1, v_2 by default; --order 3 is an error
    _, model_path = _ambient_model(tmp_path, "g 3 0 0 0.5", header="2 2 0 3")
    code, out, _ = run_cli(capsys, "vk", "--model", str(model_path), "--json")
    assert code == 0
    assert list(json.loads(out)["values"]) == ["point", "v_1", "v_2",
                                               "obstruction_norm_over_factorial_1"]
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path), "--order", "3")
    assert (code, out) == (2, "")
    assert err == ("error: order 3 is beyond determinacy order 2 for n+m = 4 "
                   "(even-integer total dimension)\n")


@pytest.mark.parametrize("order", ["3", "9"])
def test_vk_order_beyond_coefficient_file_exits_2(capsys, tmp_path, order):
    coeff_path, model_path = _ambient_model(tmp_path, "f 1 0")
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path),
                             "--order", order)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"order K = {order} outside 1..2 held by {coeff_path}" in err


@pytest.mark.parametrize("header", ["2 7 0 2", "2 2 0.5 2", "3 2 0 2"])
def test_vk_coefficient_header_must_match_model(capsys, tmp_path, header):
    coeff_path, model_path = _ambient_model(tmp_path, "f 1 0", header=header)
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path),
                             "--order", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{coeff_path}:1: header n m mu = {header[:-2]} does not match" in err


@pytest.mark.parametrize("header, n, K", [("2 2 0 33", 2, 33), ("5 2 0 2", 5, 2)])
def test_vk_coefficient_header_bounds_exit_2(capsys, tmp_path, header, n, K):
    coeff_path, model_path = _ambient_model(tmp_path, "f 1 0", header=header)
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path),
                             "--order", "2")
    assert code == 2
    assert out == ""
    assert err == (f"error: {coeff_path}:1: header needs n in 1..4 and K in "
                   f"0..32, got n = {n}, K = {K}\n")


@pytest.mark.parametrize("command, flag, bound", [
    ("curvature", "--jet-order", 8),
    ("vk", "--order", 32),
])
def test_order_flags_are_bounded(capsys, command, flag, bound):
    if command == "curvature":
        # the jet order is fixed at 4: the option is gone, not bounded
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "qe_sphere", flag, str(bound)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert errors == [f"wrvc: error: unrecognized arguments: {flag} {bound}"]
        return
    code, _, _ = run_cli(capsys, command, "--model", "qe_sphere", flag, str(bound))
    assert code == 0
    code, out, err = run_cli(capsys, command, "--model", "qe_sphere",
                             flag, str(bound + 1))
    assert code == 2
    assert out == ""
    assert err == (f"error: {flag} {bound + 1} is above the largest supported "
                   f"value {bound}\n")


@pytest.mark.parametrize("component", [
    "1" + "+x" * 1000,
    "(" * 900 + "1" + ")" * 900,
], ids=["chain", "parentheses"])
def test_deep_model_expression_exits_2(capsys, tmp_path, component):
    path = tmp_path / "deep.cfg"
    path.write_text(f"[space]\nn = 2\n\n[metric]\ng_11 = {component}\ng_22 = 1\n")
    code, out, err = run_cli(capsys, "curvature", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: expression nests deeper than 200 levels "
                          "(at offset ")
    assert err.count("\n") == 1


def _readme_model_file(tmp_path):
    """The example of README's ``### Model files`` section, as a file."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Model files", 1)[1]
    example = section.split("```\n", 2)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(example)
    return path


@pytest.mark.parametrize("command", ["curvature", "vk"])
def test_readme_model_file_example_matches_builtin(capsys, tmp_path, command):
    path = _readme_model_file(tmp_path)
    point = ("--point", "0.1,0.2,0.0")
    code, out, _ = run_cli(capsys, command, "--model", str(path), *point, "--json")
    assert code == 0
    documented = json.loads(out)["values"]
    code, out, _ = run_cli(capsys, command, "--model", "qe_sphere", "--n", "3",
                           "--m", "2", "--mu", "1", *point, "--json")
    assert code == 0
    builtin = json.loads(out)["values"]
    assert list(documented) == list(builtin)
    for key in builtin:
        np.testing.assert_allclose(documented[key], builtin[key], rtol=0,
                                   atol=1e-12, err_msg=key)


# -- verify -----------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["jets", "conformal", "ambient"])
def test_verify_single_suite(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert "FAIL" not in out
    assert "exit_status = 0" in out


def test_verify_all_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exit_status"] == 0
    assert len(doc["suites"]) == 54
    assert all(check["passed"] is True for check in doc["suites"])
    assert doc["seed"] == 20240601


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "jets", "--json")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "jets", "--json")
    assert out1 == out2


def test_verify_seed_echo(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "jets", "--seed", "7")
    assert code == 0
    assert "seed = 7" in out


def test_verify_threads_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--threads", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert errors == ["wrvc: error: unrecognized arguments: --threads 4"]


def test_float_serialization_digits(capsys):
    _, out, _ = run_cli(
        capsys, "curvature", "--model", "qe_sphere", "--m", "2", "--mu", "1",
        "--point", "0.1,0.2,0.0", "--json",
    )
    doc = json.loads(out)
    # 17 significant digits round-trip exactly
    assert doc["values"]["J"] == 1.25
    text = [ln for ln in out.split("\n") if '"qe_residual"' in ln][0]
    value = text.split(":")[1].strip().rstrip(",")
    assert float(value) == doc["values"]["qe_residual"]


def test_verify_negative_seed_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "jets", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "-1" in err


@pytest.mark.parametrize("param", ["--m=nan", "--m=inf", "--mu=nan", "--mu=-inf"])
def test_curvature_rejects_non_finite_parameters(capsys, param):
    code, out, err = run_cli(capsys, "curvature", "--model", "euclidean", param)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["curvature", "vk"])
def test_negative_m_exits_2(capsys, command):
    code, out, err = run_cli(capsys, command, "--model", "euclidean", "--n", "2",
                             "--m", "-1")
    assert code == 2
    assert out == ""
    assert err == ("error: model 'euclidean' needs a dimensional parameter "
                   "m >= 0, got m = -1\n")


@pytest.mark.parametrize("command", ["curvature", "vk"])
def test_model_file_negative_m_exits_2(capsys, tmp_path, command):
    path = tmp_path / "negative.cfg"
    path.write_text("[space]\nn = 2\nm = -0.5\n\n[metric]\ng_11 = 1\ng_22 = 1\n\n"
                    "[ambient]\nlambda = 0.2\n")
    code, out, err = run_cli(capsys, command, "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == (f"error: model '{path}' needs a dimensional parameter "
                   "m >= 0, got m = -0.5\n")


def test_model_file_non_finite_parameter_exits_2(capsys, tmp_path):
    path = tmp_path / "nan.cfg"
    path.write_text("[space]\nn = 2\nm = nan\n\n[metric]\ng_11 = 1\ng_22 = 1\n")
    code, out, err = run_cli(capsys, "curvature", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_QE_FILE = (
    "[space]\nn = 3\nm = 2\nmu = 1\n\n[metric]\n"
    "g_11 = 4/(1+x^2+y^2+z^2)^2\ng_22 = 4/(1+x^2+y^2+z^2)^2\n"
    "g_33 = 4/(1+x^2+y^2+z^2)^2\n\n[density]\nf = 0.70710678118654752\n\n"
    "[ambient]\nlambda = 0.25\n"
)


@pytest.mark.parametrize("command", ["curvature", "vk"])
@pytest.mark.parametrize("options, dropped", [
    (["--n", "4", "--m", "7", "--mu", "9"], "--n --m --mu"),
    (["--n", "3"], "--n"),
    (["--m", "2"], "--m"),
    (["--mu", "1"], "--mu"),
])
def test_model_file_rejects_builtin_parameters(capsys, tmp_path, command, options,
                                               dropped):
    path = tmp_path / "qe.cfg"
    path.write_text(_QE_FILE)
    code, out, err = run_cli(capsys, command, "--model", str(path), *options)
    assert code == 2
    assert out == ""
    assert err == (f"error: model file '{path}' declares its own n, m and mu; "
                   f"drop {dropped}\n")
    code, out, _ = run_cli(capsys, command, "--model", str(path))
    assert code == 0
    assert text_values(out)["model.n"] == "3"


def test_builtin_model_dimension_defaults_to_3(capsys):
    code, out, _ = run_cli(capsys, "curvature", "--model", "euclidean")
    assert code == 0
    assert text_values(out)["model.n"] == "3"
