"""CLI output against the committed golden records in ``tests/golden``.

Byte-identical under the numpy version that made them; under another
version, ``compare`` checks names, PASS/FAIL, tolerances and exit codes
exactly and residuals against their tolerances.  Regenerate with
``python tests/golden/regenerate.py`` when a change alters output on
purpose.
"""

import importlib.util
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_cli_output_matches_golden_records():
    files = sorted(p.name for p in golden.GOLDEN_DIR.glob("*.out"))
    assert files == sorted(golden.file_name(a) for a in golden.invocations())
    problems = []
    for argv in golden.invocations():
        expected = (golden.GOLDEN_DIR / golden.file_name(argv)).read_text()
        problems += golden.compare(expected, golden.record(argv))
    assert problems == []


def _golden(*argv):
    return (golden.GOLDEN_DIR / golden.file_name(list(argv))).read_text()


def _move_residual_one_ulp(text, key, end, which=0):
    """Move the residual of check ``which`` (0 = the first) up by one ulp."""
    parts = text.split(key)
    value, _, rest = parts[which + 1].partition(end)
    moved = float(np.nextafter(float(value), np.inf))
    parts[which + 1] = f"{moved:.17g}{end}{rest}"
    return key.join(parts)


def _other_numpy(text):
    return text.replace(f"# numpy {np.__version__}\n", "# numpy 0.0\n", 1)


def test_compare_rejects_a_one_ulp_residual_change():
    for text, key, end in ((_golden("verify", "--seed", "1"), "residual = ", " "),
                           (_golden("verify", "--seed", "1", "--json"),
                            '"residual": ', ",")):
        mutant = _move_residual_one_ulp(text, key, end)
        assert mutant != text
        assert golden.compare(text, mutant) != []
        # under another numpy version the same move is inside the tolerance
        assert golden.compare(_other_numpy(text), mutant) == []


def test_compare_across_numpy_versions_checks_status_and_tolerance():
    for flag in ([], ["--json"]):
        text = _golden("verify", "--seed", "1", *flag)
        other = _other_numpy(text)
        assert golden.compare(other, text) == []
        failing = (text.replace('"passed": true', '"passed": false', 1) if flag
                   else text.replace("[PASS]", "[FAIL]", 1))
        loose = text.replace("tol = 1", "tol = 2", 1).replace(
            '"tolerance": 1', '"tolerance": 2', 1)
        assert failing != text and loose != text
        assert golden.compare(other, failing) != []
        assert golden.compare(other, loose) != []
    text = _golden("curvature", "--model", "qe_sphere", "--n", "3")
    assert golden.compare(_other_numpy(text), text) == []
    assert golden.compare(_other_numpy(text), text.replace("= 1.25", "= 2.25", 1)) != []
    assert golden.compare(_other_numpy(text), text.replace("exit 0", "exit 2")) != []


def test_compare_names_the_first_moved_check_and_its_residuals():
    for flag, line in (([], 8), (["--json"], 12)):
        text = _golden("verify", "--seed", "1", *flag)
        key, end = ("residual = ", " ") if not flag else ('"residual": ', ",")
        mutant = _move_residual_one_ulp(text, key, end)
        old = golden._checks(golden._fields(text)["stdout"])[0][2]
        new = float(np.nextafter(old, np.inf))
        assert golden.compare(text, mutant) == [
            f"# wrvc verify --seed 1{' --json' if flag else ''}: output differs from "
            f"the golden record at line {line}: jets/ring_associativity residual "
            f"{old!r} became {new!r}"]
    # a difference outside the checks is shown as the two lines
    text = _golden("curvature", "--model", "qe_sphere", "--n", "3")
    assert golden.compare(text, text.replace("= 1.25", "= 2.25", 1)) == [
        "# wrvc curvature --model qe_sphere --n 3: output differs from the golden "
        "record at line 14: 'J           = 1.25' became 'J           = 2.25'"]


def test_compare_names_every_moved_check_and_its_residuals(monkeypatch, tmp_path, capsys):
    argv = ["verify", "--seed", "1"]
    for flag, at in (([], (8, 11)), (["--json"], (12, 33))):
        text = _golden(*argv, *flag)
        key, end = ("residual = ", " ") if not flag else ('"residual": ', ",")
        mutant = _move_residual_one_ulp(_move_residual_one_ulp(text, key, end, 0),
                                        key, end, 3)
        checks = golden._checks(golden._fields(text)["stdout"])
        moved = [
            f"# wrvc {' '.join(argv + flag)}: output differs from the golden record "
            f"at line {line}: {checks[k][0]} residual {checks[k][2]!r} became "
            f"{float(np.nextafter(checks[k][2], np.inf))!r}"
            for line, k in zip(at, (0, 3))]
        assert [name for name, *_ in checks[:4:3]] == ["jets/ring_associativity",
                                                        "jets/exp_homomorphism"]
        assert golden.compare(text, mutant) == moved
        # a line that differs outside the checks comes after them
        lines = text.split("\n")
        number = len(lines) - (3 if flag else 2)   # seed, or the check count
        changed = lines[number - 1] + " "
        other = mutant.replace(lines[number - 1], changed)
        assert golden.compare(text, other) == moved + [
            f"# wrvc {' '.join(argv + flag)}: output differs from the golden record "
            f"at line {number}: {lines[number - 1]!r} became {changed!r}"]
    # --check prints the same lines
    (tmp_path / golden.file_name(argv)).write_text(
        _move_residual_one_ulp(_move_residual_one_ulp(_golden(*argv), "residual = ", " ", 0),
                               "residual = ", " ", 3))
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(golden, "invocations", lambda: [argv])
    assert golden.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[2].split()[0] for line in out] == [
        "jets/ring_associativity", "jets/exp_homomorphism"]


def test_check_reports_without_rewriting(monkeypatch, tmp_path, capsys):
    argv = ["verify", "--seed", "1"]
    text = _golden(*argv)
    mutant = _move_residual_one_ulp(text, "residual = ", " ")
    (tmp_path / golden.file_name(argv)).write_text(mutant)
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(golden, "invocations", lambda: [argv, ["vk", "--model", "qe_sphere"]])
    assert golden.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# wrvc verify --seed 1: output differs from the golden "
                             "record at line 8: jets/ring_associativity residual ")
    assert out[1] == "# wrvc vk --model qe_sphere: no golden record vk_model_qe_sphere.out"
    assert (tmp_path / golden.file_name(argv)).read_text() == mutant
    assert sorted(p.name for p in tmp_path.iterdir()) == [golden.file_name(argv)]
    # with the committed record in place it passes
    (tmp_path / golden.file_name(argv)).write_text(text)
    monkeypatch.setattr(golden, "invocations", lambda: [argv])
    assert golden.main(["--check"]) == 0
    assert capsys.readouterr().out == "all 1 records match\n"
