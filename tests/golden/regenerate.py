"""Golden CLI outputs: the invocations, how one is recorded, and how two
records are compared.

Run ``python tests/golden/regenerate.py`` (with ``src`` on the path, or
wrvc installed) to rewrite every ``*.out`` file in this directory.  A
change that alters CLI output on purpose regenerates them in the same
commit; ``tests/test_golden.py`` compares the committed files with fresh
in-process runs.  ``regenerate.py --check`` rewrites nothing: it prints
how each committed record differs from a fresh one (for a verify record,
every check that moved, each with its old and new residual) and exits 1
when any does.

A record holds the command, the numpy version, the exit status, stderr
and stdout.  Residual digits depend on numpy and its BLAS, so records
made under another numpy version are compared loosely (``compare``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent

VERIFY_SEEDS = (20240601, 0, 1, 777, 123456)
MODELS = ("euclidean", "round_sphere_stereographic", "hyperbolic_upper_half",
          "qe_sphere")


def invocations() -> list:
    """Every recorded argv: verify at each seed, and curvature and vk on
    every built-in model at n = 2, 3, 4, each as text and as JSON."""
    runs = [["verify", "--seed", str(seed)] for seed in VERIFY_SEEDS]
    runs += [[command, "--model", model, "--n", str(n)]
             for command in ("curvature", "vk") for model in MODELS
             for n in (2, 3, 4)]
    return [argv + flag for argv in runs for flag in ([], ["--json"])]


def file_name(argv) -> str:
    return "_".join(a.lstrip("-") for a in argv) + ".out"


def record(argv) -> str:
    """Run ``wrvc`` in-process and render its exit status, stderr and
    stdout as one record."""
    from wrvc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (f"# wrvc {' '.join(argv)}\n# numpy {np.__version__}\n"
            f"# exit {code}\n# stderr\n{err.getvalue()}# stdout\n{out.getvalue()}")


def _fields(text: str) -> dict:
    header, _, stdout = text.partition("# stdout\n")
    lines = header.split("\n")
    return {"command": lines[0], "numpy": lines[1], "exit": lines[2],
            "stderr": "\n".join(lines[4:]), "stdout": stdout}


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan|-?inf")
_CHECK_LINE = re.compile(r"\[(PASS|FAIL)\] (\S+)\s+residual = (\S+)\s+tol = (\S+)")


def _checks(stdout: str) -> list:
    """(name, passed, residual, tolerance) per verify check, from text or
    JSON output."""
    if stdout.startswith("{"):
        return [(f"{c['suite']}/{c['name']}", c["passed"], c["residual"],
                 c["tolerance"]) for c in json.loads(stdout).get("suites", [])]
    return [(name, status == "PASS", float(res), float(tol))
            for status, name, res, tol in _CHECK_LINE.findall(stdout)]


def _residual_lines(text: str) -> list:
    """The line number of each verify check's residual in a record, in the
    order of ``_checks``."""
    lines = text.split("\n")
    start = lines.index("# stdout") + 1
    return [number for number, line in enumerate(lines[start:], start + 1)
            if _CHECK_LINE.search(line) or line.lstrip().startswith('"residual": ')]


def _differences(expected: str, actual: str) -> list:
    """Where two records differ: every verify check that moved, named at the
    line of its residual with its old and new residual (and status or
    tolerance, if those moved too), then the first other line that differs,
    if there is one."""
    want, got = _fields(expected), _fields(actual)
    found, covered = [], set()
    if all(want[key] == got[key] for key in ("command", "numpy", "exit", "stderr")):
        # a JSON check holds its residual, tolerance and status on three lines
        span = 3 if want["stdout"].startswith("{") else 1
        for number, before, after in zip(_residual_lines(expected),
                                         _checks(want["stdout"]), _checks(got["stdout"])):
            if before != after and before[0] == after[0]:
                name, passed, residual, tolerance = before
                moved = "".join(
                    f", {what} {a!r} became {b!r}"
                    for what, a, b in (("passed", passed, after[1]),
                                       ("tolerance", tolerance, after[3])) if a != b)
                found.append(f"line {number}: {name} residual {residual!r} "
                             f"became {after[2]!r}{moved}")
                covered.update(range(number, number + span))
    pairs = itertools.zip_longest(expected.split("\n"), actual.split("\n"),
                                  fillvalue="(end of record)")
    other = next(((number, pair) for number, pair in enumerate(pairs, 1)
                  if pair[0] != pair[1] and number not in covered), None)
    if other is not None:
        number, (old, new) = other
        found.append(f"line {number}: {old!r} became {new!r}")
    return found


def compare(expected: str, actual: str) -> list:
    """Differences between a golden record and a fresh one, as messages.

    Under the numpy version that made the golden record the two must be
    byte-identical.  Under another version the command, exit status and
    stderr must match exactly; verify's check names, PASS/FAIL and
    tolerances must match exactly, with every passing residual at most
    its tolerance; other stdout must match with its numbers masked, and
    each number must agree to 1e-9, relative or absolute."""
    want, got = _fields(expected), _fields(actual)
    if want["numpy"] == got["numpy"]:
        return [] if expected == actual else [
            f"{want['command']}: output differs from the golden record at {where}"
            for where in _differences(expected, actual)]
    problems = [f"{want['command']}: {key} differs"
                for key in ("command", "exit", "stderr") if want[key] != got[key]]
    checks_want, checks_got = _checks(want["stdout"]), _checks(got["stdout"])
    if [c[:2] + c[3:] for c in checks_want] != [c[:2] + c[3:] for c in checks_got]:
        problems.append(f"{want['command']}: check names, status or tolerances differ")
    problems += [f"{want['command']}: {name} residual {res!r} is above {tol!r}"
                 for name, passed, res, tol in checks_got if passed and not res <= tol]
    if checks_got:
        return problems
    if _NUMBER.sub("#", want["stdout"]) != _NUMBER.sub("#", got["stdout"]):
        problems.append(f"{want['command']}: stdout differs beyond its numbers")
    else:
        for a, b in zip(_NUMBER.findall(want["stdout"]), _NUMBER.findall(got["stdout"])):
            x, y = float(a), float(b)
            if not (x == y or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)):
                problems.append(f"{want['command']}: {a} became {b}")
    return problems


def check() -> list:
    """How each committed record differs from a fresh run, as messages."""
    problems = []
    for argv in invocations():
        path = GOLDEN_DIR / file_name(argv)
        if not path.exists():
            problems.append(f"# wrvc {' '.join(argv)}: no golden record {path.name}")
        else:
            problems += compare(path.read_text(), record(argv))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="print how the records differ from fresh runs; rewrite nothing")
    if parser.parse_args(argv).check:
        problems = check()
        print("\n".join(problems) if problems else
              f"all {len(invocations())} records match")
        return 1 if problems else 0
    for old in GOLDEN_DIR.glob("*.out"):
        old.unlink()
    for argv in invocations():
        (GOLDEN_DIR / file_name(argv)).write_text(record(argv))
    print(f"wrote {len(invocations())} records to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
