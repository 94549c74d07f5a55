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


def _move_first_residual_one_ulp(text, key, end):
    head, sep, tail = text.partition(key)
    value, _, rest = tail.partition(end)
    moved = float(np.nextafter(float(value), np.inf))
    return f"{head}{sep}{moved:.17g}{end}{rest}"


def _other_numpy(text):
    return text.replace(f"# numpy {np.__version__}\n", "# numpy 0.0\n", 1)


def test_compare_rejects_a_one_ulp_residual_change():
    for text, key, end in ((_golden("verify", "--seed", "1"), "residual = ", " "),
                           (_golden("verify", "--seed", "1", "--json"),
                            '"residual": ', ",")):
        mutant = _move_first_residual_one_ulp(text, key, end)
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
