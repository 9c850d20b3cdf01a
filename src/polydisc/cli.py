"""Command-line front end.

Subcommands ingest tuples, symbols, and unitaries from JSON, run the
classification, defect, dilation, characteristic-function, and model
pipelines, and emit machine-readable reports.  With a fixed seed the
JSON output is byte-identical across runs except for the provenance
timestamp block.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .battery import timed_battery
from .charfn import (
    build_charfn,
    coincidence_from_unitary,
    default_points,
    inner_residual,
    torus_grid,
)
from .defects import build_defects
from .dilation import (
    build_dilation,
    image_invariance_defect,
    intertwining_defect,
    isometry_defect,
    minimality_defect,
    model_equivalence_defect,
)
from .errors import (
    NotBeurling,
    NotSzego,
    NotUnitary,
    ParseError,
    PolydiscError,
    ShapeMismatch,
    SymbolNotInner,
)
from .hardy import (
    ahern_clark_growth,
    build_space,
    is_constant,
    quotient_model,
    structural_checks,
    symbol_from_json,
)
from .linalg import DEFAULT_TOL, TOL_PURE, spec_norms
from .tuples import (
    classify,
    complex_from_json,
    complex_to_json,
    int_from_json,
    is_beurling,
    tuple_from_json,
)


def _positive_int(minimum: int, what: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}")
        return value

    return parse


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError("--tol must be a finite number >= 0")
    return value


# provenance.config key, type and default of each option; a subcommand adds
# only the options it reads, each with its own help.
_OPTIONS = {
    "tol": ("tol_structural", _tolerance, DEFAULT_TOL),
    "degree": ("truncation_degree", _positive_int(1, "--degree"), None),
    "grid": ("grid_per_axis", _positive_int(4, "--grid"), 32),
    "seed": ("seed", int, 42),
    "window": ("window_margin", _positive_int(0, "--window"), None),
}
_TOL = "structural tolerance of every verdict (default 1e-10)"
_MASK = "apply the tuple file's window mask (the value is not read)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydisc",
        description="Commuting contraction tuples on the polydisc: "
        "classification, defects, dilations, characteristic functions.",
    )
    parser.add_argument("--version", action="version", version=f"polydisc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p: argparse.ArgumentParser, func, **helps):
        """The options of one subcommand, named with their help, then --out
        and --format, which every subcommand has."""
        for name, text in helps.items():
            _, kind, default = _OPTIONS[name]
            p.add_argument(f"--{name}", type=kind, default=default, help=text)
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=func)

    p = sub.add_parser("classify", help="classification flags and witnesses")
    p.add_argument("tuple_file", help="tuple JSON file")
    options(p, cmd_classify, tol=_TOL, window=_MASK)

    p = sub.add_parser("charfn", help="characteristic function evaluation")
    p.add_argument("tuple_file", help="tuple JSON file")
    p.add_argument("points_file", nargs="?", default=None,
                   help="evaluation request JSON with points and grid")
    options(p, cmd_charfn, tol=_TOL, grid="torus grid points per axis of the inner check",
            seed="seed of the sampled interior points", window=_MASK)

    p = sub.add_parser("hardy", help="quotient model structural report")
    p.add_argument("symbol_file", help="inner-symbol JSON file")
    options(p, cmd_hardy, tol=_TOL, degree="truncation degree N (default 6)",
            grid="torus grid points per axis of the inner check",
            window="window margin of the model (default 1)")

    p = sub.add_parser("dilate", help="dilation defect report")
    p.add_argument("tuple_file", help="tuple JSON file")
    options(p, cmd_dilate, tol=_TOL, degree="truncation degree N (default: chosen from the spectral radii)")

    p = sub.add_parser("coincide", help="coincidence under a unitary conjugation")
    p.add_argument("tuple_file", help="tuple JSON file")
    p.add_argument("unitary_file", help="JSON file with a 'matrix' field")
    options(p, cmd_coincide, tol=_TOL, seed="seed of the sampled interior points", window=_MASK)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    options(p, cmd_suite, seed="seed of the battery's random populations")
    return parser


# ---------------------------------------------------------------------------
# Serialization helpers


def _jsonable(obj):
    """A report value as JSON: dataclasses, containers and real scalars.
    Matrices and complex values are written by tuples.complex_to_json."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if np.isfinite(value) else repr(value)
    return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _provenance(args, started: float) -> dict:
    config = {key: vars(args)[name] for name, (key, _, _) in _OPTIONS.items() if name in vars(args)}
    if "window" in vars(args):
        config["window_margin"] = args.window or 0
    config["format"] = args.format
    return {
        "command": args.command,
        "config": config,
        "versions": {
            "polydisc": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "timestamp": {
            "utc": datetime.now(timezone.utc).isoformat(),
            "wall_seconds": time.monotonic() - started,
            **vars(args).get("stage_seconds", {}),
        },
    }


def _csv_rows(report: dict) -> list[str]:
    """Flatten residual tables: header check,value,threshold,pass."""
    lines = ["check,value,threshold,pass"]
    suite = report.get("suite")
    if suite is not None:
        for c in suite["checks"]:
            lines.append(f"{c['name']},{c['value']!r},{c['threshold']!r},{str(c['passed']).lower()}")
        return lines

    def walk(prefix: str, node):
        if isinstance(node, dict):
            for k in sorted(node):
                if k == "provenance":
                    continue
                walk(f"{prefix}.{k}" if prefix else k, node[k])
        elif isinstance(node, bool):
            lines.append(f"{prefix},,,{str(node).lower()}")
        elif isinstance(node, (int, float)):
            lines.append(f"{prefix},{node!r},,")

    walk("", report)
    return lines


def _emit(report: dict, args) -> None:
    if args.format == "csv":
        text = "\n".join(_csv_rows(report)) + "\n"
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments and returns its report body
# and exit code; main adds the provenance and writes it.  A
# command that times its stages leaves the seconds in args.stage_seconds,
# which go under provenance.timestamp, outside the deterministic body.  A
# command that settles an option's value itself writes it back into args, so
# that provenance.config records the value the run used.


def cmd_classify(args) -> tuple[dict, int]:
    t, window = tuple_from_json(_load_json(args.tuple_file), args.tol)
    return {"classification": _jsonable(classify(t, _file_mask(args, window)))}, 0


def _file_mask(args, window) -> np.ndarray | None:
    if args.window is None:
        return None
    if window is None:
        raise ParseError("--window was given but the tuple file has no 'window' field")
    return window


def _read_points(req, n: int, grid_pa: int) -> tuple[list[np.ndarray], int]:
    """Points and grid size of a points file; every coordinate must lie in
    the closed unit disc, and per_axis obeys the same minimum as --grid."""
    if not isinstance(req, dict):
        raise ParseError("points file must be a JSON object")
    if "grid" in req:
        grid = req["grid"]
        if not isinstance(grid, dict):
            raise ParseError("'grid' must be an object with a 'per_axis' field")
        grid_pa = int_from_json(grid.get("per_axis", grid_pa), "grid 'per_axis'", 4)
    raw = req.get("points", [])
    if not isinstance(raw, list):
        raise ParseError("'points' must be a list")
    points = [complex_from_json(p, (n,), f"point {i}") for i, p in enumerate(raw)]
    for i, w in enumerate(points):
        if np.max(np.abs(w)) > 1.0 + 1e-12:
            raise ParseError(f"point {i} lies outside the closed polydisc")
    return points, grid_pa


def _not_szego(t) -> NotSzego:
    """The refusal of a non-Szego tuple, naming the first condition it fails
    with its witness: purity by a spectral radius, or the Szego inverse by
    its minimum eigenvalue."""
    c = classify(t)
    k = int(np.argmax(c.spectral_radii))
    reason = (f"its Szego inverse has minimum eigenvalue {c.szego_min_eig:.3e} < 0" if c.is_pure else
              f"it is not pure (spectral radius of T_{k} is {c.spectral_radii[k]:.3e} > 1 - {TOL_PURE:g})")
    return NotSzego(f"tuple is not Szego: {reason}", c.szego_min_eig)


def cmd_charfn(args) -> tuple[dict, int]:
    t, window = tuple_from_json(_load_json(args.tuple_file), args.tol)
    mask = _file_mask(args, window)
    verdict = is_beurling(t, mask)
    if not verdict.szego_ok:
        raise _not_szego(t)
    if not verdict.holds:
        raise NotBeurling(
            "tuple is not Beurling"
            f" (worst pair {verdict.worst_pair}, defect overlap {verdict.residual:.3e})"
        )
    f = build_charfn(t, build_defects(t, mask))

    points = []
    if args.points_file is not None:
        points, args.grid = _read_points(_load_json(args.points_file), t.n, args.grid)
    inner = inner_residual(f, torus_grid(t.n, args.grid))
    sampled = default_points(t.n, seed=args.seed)
    values = f.eval(np.reshape(list(sampled) + points, (-1, t.n)))
    max_norm = float(np.max(spec_norms(values)))
    summary = {
        "n": t.n,
        "dim": t.dim,
        "input_dim": f.input_dim,
        "output_dim": f.output_dim,
        "windowed": mask is not None,
        "grid_per_axis": args.grid,
        "inner_residual": inner,
        "max_sampled_norm": max_norm,
        "points": [
            {"w": complex_to_json(w), "matrix": complex_to_json(m)}
            for w, m in zip(points, values[len(sampled) :])
        ],
    }
    return {"charfn_summary": summary}, 0


def cmd_hardy(args) -> tuple[dict, int]:
    sym = symbol_from_json(_load_json(args.symbol_file))
    degree = args.degree = args.degree or 6
    args.window = args.window or 1
    space = build_space(sym.n, degree, sym.input_dim)
    model = quotient_model(space, sym, args.grid, args.window)
    rep = structural_checks(model, args.tol)
    degrees = list(range(2, max(degree, 6) + 1))
    growth = None
    if sym.n >= 2 and not is_constant(sym):  # the symbols ahern_clark_growth covers
        growth = {"degrees": degrees, "quotient_dims": ahern_clark_growth(sym, degrees)}
    body = {
        "structural_checks": {
            "residuals": _jsonable(rep.residuals),
            "dims": _jsonable(rep.dims),
            "threshold": rep.threshold,
            "passed": rep.passed,
        },
        "model": {
            "degree": degree,
            "quotient_dim": model.quotient_dim,
            "space_dim": space.dim,
            "tail_bound": _jsonable(model.tail_bound),
            "reach": _jsonable(model.reach),
        },
        "growth": growth,
    }
    return body, 0


def cmd_dilate(args) -> tuple[dict, int]:
    t, _ = tuple_from_json(_load_json(args.tuple_file), args.tol)
    d = build_dilation(t, args.degree)
    args.degree = d.degree
    defects = {
        "degree": d.degree,
        "coeff_rank": d.coeff_basis.dim,
        "space_dim": d.space.dim,
        "tail_bound": _jsonable(d.tail_bound),
        "isometry": isometry_defect(d),
        "intertwining": intertwining_defect(d),
        "minimality": minimality_defect(d),
        "model_equivalence": model_equivalence_defect(d),
        "image_invariance": image_invariance_defect(d),
    }
    return {"dilation_defects": defects}, 0


def cmd_coincide(args) -> tuple[dict, int]:
    t, window = tuple_from_json(_load_json(args.tuple_file), args.tol)
    obj = _load_json(args.unitary_file)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ParseError("unitary file must be an object with a 'matrix' field")
    sigma = complex_from_json(obj["matrix"], (None, None), "unitary 'matrix'")
    if sigma.shape[0] != sigma.shape[1]:
        raise ParseError("unitary 'matrix' must be square with [re, im] entries")
    mask = _file_mask(args, window)
    pts = default_points(t.n, seed=args.seed)
    s, co = coincidence_from_unitary(t, sigma, mask=mask, points=pts)
    coincidence = {
        "residual": co.residual,
        "input_dim": co.tau.shape[0],
        "output_dim": co.tau_star.shape[0],
        "tau": complex_to_json(co.tau),
        "tau_star": complex_to_json(co.tau_star),
    }
    return {"coincidence": coincidence}, 0


def cmd_suite(args) -> tuple[dict, int]:
    checks, seconds = timed_battery(args.seed)
    args.stage_seconds = {"criterion_seconds": seconds}
    all_passed = all(c.passed for c in checks)
    suite = {"seed": args.seed, "checks": [_jsonable(c) for c in checks], "all_passed": all_passed}
    return {"suite": suite}, 0 if all_passed else 1


_GATES: dict[str, tuple[tuple[type, int], ...]] = {
    "charfn": ((NotBeurling, 3), (NotSzego, 3)),
    "hardy": ((SymbolNotInner, 4), (NotUnitary, 4)),
    "coincide": ((NotUnitary, 5), (ShapeMismatch, 5)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        body, code = args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"polydisc {args.command}: linear algebra failed: {exc}", file=sys.stderr)
        return 2
    except PolydiscError as exc:
        print(f"polydisc {args.command}: {exc}", file=sys.stderr)
        return next((gate for klass, gate in _GATES.get(args.command, ()) if isinstance(exc, klass)), 2)
    _emit({**body, "provenance": _provenance(args, started)}, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
