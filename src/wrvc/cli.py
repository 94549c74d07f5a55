"""Command-line surface: curvature reports, volume-coefficient extraction,
and the verification suites.

Output is plain aligned text, or a single JSON document with ``--json``.
Floats are serialized with 17 significant digits in both modes and every
code path is deterministic (fixed default seed, ordered reductions), so
identical invocations produce byte-identical output.  Exit status: 0 on
success and when every suite passed, 1 when a verification check failed,
2 for usage, parse, or domain errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import WrvcError
from .models import BUILTIN_NAMES, builtin_model, load_model_file
from .rho import MAX_AMBIENT_ORDER
from .suites import DEFAULT_SEED, SUITE_NAMES, run_suites


class UsageError(WrvcError):
    pass


def _within(value, low: int, high: int, flag: str):
    if value is not None and value < low:
        raise UsageError(f"{flag} {value} is below the smallest supported value {low}")
    if value is not None and value > high:
        raise UsageError(f"{flag} {value} is above the largest supported value {high}")
    return value


def format_value(value) -> str:
    """Scalar text form: floats with 17 significant digits, booleans as
    ``true``/``false``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  "{key}": {_emit_json(val, indent + 1).lstrip()}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {_emit_json(val, indent + 1).lstrip()}" for val in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        return _emit_json(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    escaped = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


@dataclass
class ReportDocument:
    command: str
    model: dict | None = None
    values: dict = field(default_factory=dict)
    suites: list = field(default_factory=list)
    seed: int | None = None
    exit_status: int = 0

    def to_json(self) -> str:
        doc = {"command": self.command}
        if self.model is not None:
            doc["model"] = self.model
        if self.values:
            doc["values"] = self.values
        if self.suites:
            doc["suites"] = [c.as_record() for c in self.suites]
        if self.seed is not None:
            doc["seed"] = self.seed
        doc["exit_status"] = self.exit_status
        return _emit_json(doc) + "\n"

    def to_text(self) -> str:
        lines = [f"command = {self.command}"]
        if self.model is not None:
            for key, val in self.model.items():
                lines.append(f"model.{key} = {format_value(val)}")
        if self.seed is not None:
            lines.append(f"seed = {self.seed}")
        scalar_keys = [k for k, v in self.values.items()
                       if not isinstance(v, np.ndarray)]
        width = max((len(k) for k in scalar_keys), default=0)
        for key, val in self.values.items():
            if isinstance(val, np.ndarray):
                lines.append(f"{key} =")
                for row in np.atleast_2d(val):
                    lines.append("    " + "  ".join(f"{x:.17g}" for x in row))
            else:
                lines.append(f"{key:<{width}} = {format_value(val)}")
        if self.suites:
            name_width = max(len(f"{c.suite}/{c.name}") for c in self.suites)
            for c in self.suites:
                status = "PASS" if c.passed else "FAIL"
                lines.append(
                    f"[{status}] {c.suite + '/' + c.name:<{name_width}}"
                    f"  residual = {c.residual:.17g}  tol = {c.tolerance:g}"
                )
            failed = sum(not c.passed for c in self.suites)
            lines.append(
                f"checks = {len(self.suites)}  failed = {failed}"
            )
        lines.append(f"exit_status = {self.exit_status}")
        return "\n".join(lines) + "\n"


def _print(doc: ReportDocument, as_json: bool) -> int:
    sys.stdout.write(doc.to_json() if as_json else doc.to_text())
    return doc.exit_status


def parse_point(text: str, n: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise UsageError(
            f"point needs {n} comma-separated coordinates, got {len(parts)}"
        )
    values = []
    for token in parts:
        try:
            values.append(float(token))
        except ValueError:
            raise UsageError(f"bad coordinate {token!r} in point {text!r}")
        if not math.isfinite(values[-1]):
            raise UsageError(f"non-finite coordinate {token!r} in point {text!r}")
    return np.array(values)


def resolve_model(args):
    name = args.model
    if name in BUILTIN_NAMES:
        return builtin_model(name, n=3 if args.n is None else args.n,
                             m=args.m, mu=args.mu)
    if os.path.exists(name):
        given = [f"--{flag}" for flag in ("n", "m", "mu")
                 if getattr(args, flag) is not None]
        if given:
            raise UsageError(f"model file {name!r} declares its own n, m and mu; "
                             f"drop {' '.join(given)}")
        return load_model_file(name)
    raise UsageError(
        f"unknown model {name!r}: not one of {', '.join(BUILTIN_NAMES)} "
        "and not a readable file"
    )


def _model_record(model) -> dict:
    return {"name": model.name, "n": model.n, "m": model.m, "mu": model.mu}


def cmd_curvature(args) -> int:
    model = resolve_model(args)
    point = (parse_point(args.point, model.n) if args.point
             else model.default_point)
    w, lam, residual = model.invariants_at(point)
    doc = ReportDocument(
        command="curvature",
        model=_model_record(model),
        values={
            "point": np.asarray(point),
            "R_phi": w.r_phi,
            "J": w.J,
            "Y": w.Y,
            "F_phi": w.F_phi,
            "lambda": lam,
            "qe_residual": residual,
            "Ric_phi": w.ric_phi,
            "P": w.P,
        },
    )
    return _print(doc, args.json)


def cmd_vk(args) -> int:
    order = _within(args.order, 1, MAX_AMBIENT_ORDER, "--order")
    model = resolve_model(args)
    point = (parse_point(args.point, model.n) if args.point
             else model.default_point)
    coeffs, norms = model.volume_coefficients_at(point, K=order)
    values = {"point": np.asarray(point)}
    for k in range(1, len(coeffs) + 1):
        values[f"v_{k}"] = float(coeffs[k])
    # Omega^(k) carries a factor (k-1)! from its k-1 rho-derivatives
    for k, norm in enumerate(norms, start=1):
        values[f"obstruction_norm_over_factorial_{k}"] = float(norm) / math.factorial(k - 1)
    doc = ReportDocument(
        command="vk", model=_model_record(model), values=values
    )
    return _print(doc, args.json)


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {args.seed}")
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    status = 0 if all(c.passed for c in results) else 1
    doc = ReportDocument(
        command="verify",
        suites=results,
        seed=args.seed,
        exit_status=status,
    )
    return _print(doc, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrvc",
        description="Weighted curvature invariants and renormalized volume "
                    "coefficients for smooth metric measure spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_model_flags(p):
        p.add_argument("--model", required=True,
                       help="builtin model name or model file path")
        p.add_argument("--n", type=int, default=None,
                       help="chart dimension of a built-in model (default 3)")
        p.add_argument("--m", type=float, default=None,
                       help="dimensional parameter of a built-in model")
        p.add_argument("--mu", type=float, default=None,
                       help="auxiliary curvature parameter of a built-in model")
        p.add_argument("--point", default=None,
                       help="comma-separated chart coordinates")
        p.add_argument("--json", action="store_true",
                       help="emit a single JSON document")

    p_curv = sub.add_parser("curvature", help="pointwise weighted invariants")
    add_model_flags(p_curv)
    p_curv.set_defaults(func=cmd_curvature)

    p_vk = sub.add_parser("vk", help="volume coefficients and obstruction norms")
    add_model_flags(p_vk)
    p_vk.add_argument("--order", type=int, default=None,
                      help="truncation order K (v_1..v_K); default 5, or "
                           "the K of the model's coefficient file, lowered to "
                           "(n+m)/2 when n+m is an even integer")
    p_vk.set_defaults(func=cmd_vk)

    p_ver = sub.add_parser("verify", help="run the verification suites")
    p_ver.add_argument("--suite", default="all",
                       choices=("all",) + SUITE_NAMES)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the randomized checks (printed)")
    p_ver.add_argument("--json", action="store_true",
                       help="emit a single JSON document")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WrvcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
