import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wrvc.cli import main, parse_point
from wrvc.errors import WrvcError


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


def test_parse_point_errors():
    with pytest.raises(WrvcError):
        parse_point("1,2", 3)
    assert np.allclose(parse_point("1, 2, 3", 3), [1.0, 2.0, 3.0])


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
    # positive definite at x = 0, but the inverse metric's jets overflow
    path = _model_2d(tmp_path, "x+2e-153")
    code, out, err = run_cli(capsys, "curvature", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == (f"error: weighted curvature of model '{path}' is not finite "
                   "at point (0, 0)\n")


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
@given(g_11=_EXPRESSION, point=st.sampled_from(["0, 0", "0.5, 0"]))
def test_model_expression_fuzz_exits_0_or_one_error_line(capsys, tmp_path, g_11,
                                                         point):
    path = _model_2d(tmp_path, g_11, space=f"point = {point}\n")
    code, _, err = run_cli(capsys, "curvature", "--model", str(path))
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


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
        assert doc["values"][f"obstruction_norm_{k}"] <= 1e-12


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


@pytest.mark.parametrize("density, lam, point, tail", [
    ("1", "1e300", "0,0,0", "is not finite at point (0, 0, 0)"),
    ("-1", "0.25", "0.5,0,1",
     "is rejected at point (0.5, 0, 1): base density must be positive"),
], ids=["overflowing_lambda", "negative_density"])
def test_vk_generated_expansion_error_names_model_and_point(capsys, tmp_path,
                                                             density, lam, point,
                                                             tail):
    path = tmp_path / "flat.cfg"
    path.write_text(
        "[space]\nn = 3\nm = 2\n\n[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\n\n"
        f"[density]\nf = {density}\n\n[ambient]\nlambda = {lam}\n"
    )
    code, out, err = run_cli(capsys, "vk", "--model", str(path), "--point", point)
    assert code == 2
    assert out == ""
    assert err == f"error: ambient expansion of model '{path}' {tail}\n"


_FLAT2 ="[space]\nn = 2\n\n[metric]\ng_11 = 1\ng_22 = 1\n"


@pytest.mark.parametrize("text, cause", [
    (_FLAT2 + "g_ab = 1\n", "bad metric key 'g_ab'"),
    (_FLAT2 + "g_11 = 2\n", ":7: duplicate key 'g_11' in [metric]"),
    ("n = 2\n" + _FLAT2, ":1: no section header before 'n = 2'"),
    (_FLAT2.replace("n = 2", "n = 2\npoint = 1, q"), "bad [space] point"),
    (_FLAT2 + "\n[ambient]\nlambda = x\n", "bad [ambient] lambda"),
    (_FLAT2.replace("n = 2", "n = 2\npoint = nan, 0"), "non-finite [space] point"),
], ids=["key", "duplicate", "no-header", "point", "lambda", "nan-point"])
def test_malformed_model_file_exits_2(capsys, tmp_path, text, cause):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, "vk", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path}" in err and cause in err


def _ambient_model(tmp_path, bad_row, header="2 2 0 2"):
    """A flat n=2, K=2 coefficient file whose fourth line is ``bad_row``,
    and a model file that reads it."""
    coeff_path = tmp_path / "amb.txt"
    coeff_path.write_text(
        f"{header}\n"
        "g 0 0 0 1\n"
        "g 0 1 1 1\n"
        f"{bad_row}\n"
        "f 0 1\n"
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
])
def test_vk_bad_ambient_row_exits_2(capsys, tmp_path, bad_row, cause):
    coeff_path, model_path = _ambient_model(tmp_path, bad_row)
    code, out, err = run_cli(capsys, "vk", "--model", str(model_path),
                             "--order", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{coeff_path}:4: {cause}" in err


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
    ([], ["v_1", "v_2", "obstruction_norm_1"]),
    (["--order", "1"], ["v_1"]),
    (["--order", "2"], ["v_1", "v_2", "obstruction_norm_1"]),
])
def test_vk_order_truncates_coefficient_file(capsys, tmp_path, order, keys):
    _, model_path = _ambient_model(tmp_path, "g 2 0 0 0.5")
    code, out, _ = run_cli(capsys, "vk", "--model", str(model_path),
                           *order, "--json")
    assert code == 0
    assert list(json.loads(out)["values"]) == ["point"] + keys


@pytest.mark.parametrize("order", ["3", "9", "0"])
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


def test_model_file_non_finite_parameter_exits_2(capsys, tmp_path):
    path = tmp_path / "nan.cfg"
    path.write_text("[space]\nn = 2\nm = nan\n\n[metric]\ng_11 = 1\ng_22 = 1\n")
    code, out, err = run_cli(capsys, "curvature", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
