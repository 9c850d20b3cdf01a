"""The benchmark workloads: inputs made from the seed, and their operations.

A workload's set-up turns the seed into inputs and returns its list of
operations; one round runs the list once.  Short operations appear in the
list several times, so that their median times rest on several calls; each
one still counts once in ``wall_s`` (see run.py).  The seed moves the
values of the inputs only.  Sizes, degrees, node counts and node moduli are
fixed, so a round does the same amount of work for every seed, and the
spread between seeds measures the machine, not the inputs.

Operations call polydisc through module attributes (``pd.charfn.build_charfn``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Op:
    """One operation: a call into the program and the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    span: str = "op"                                # root span in a traced round
    failed: Callable[[object], bool] | None = None  # the output says the call failed
    report: Path | None = None                      # report file a CLI call writes


def interior_points(rng: np.random.Generator, n: int, count: int) -> list[np.ndarray]:
    """Points with every coordinate of modulus in [0.2, 0.9]."""
    radii = 0.2 + 0.7 * rng.random((count, n))
    return list(radii * np.exp(2j * np.pi * rng.random((count, n))))


def pinned_nodes(pd: SimpleNamespace, rng: np.random.Generator, m: int, n: int, modulus: float) -> np.ndarray:
    """Separated kernel nodes rescaled so the largest coordinate modulus is
    exactly ``modulus``.  The spectral radius of the node tuple, and with it
    the dilation's automatic degree, then does not depend on the seed."""
    nodes = pd.sampling.random_nodes(rng, m, n, modulus_max=modulus, min_sep=0.08)
    return nodes * (modulus / np.max(np.abs(nodes)))


# ---------------------------------------------------------------------------
# charfn-eval

ONEVAR_COUNT = 200                 # the c01/c03 population, dims 1..8 in turn
NODE_COUNTS = (2, 3, 4, 5, 6) * 2  # one-variable kernel-node tuples
MODEL_CASES = ((2, (4, 5, 6, 7, 8), (2, 1)), (3, (3, 4), (2, 1, 1)))  # n, degrees, exponent
EVAL_POINTS = 16                   # interior points per tuple
GRID_PER_AXIS = {1: 64, 2: 16, 3: 6}


def _charfn_op(pd, name, t, mask, points, grid, reference) -> Op:
    def run():
        f = pd.charfn.build_charfn(t, pd.defects.build_defects(t, mask))
        return [f.eval(w) for w in points], pd.charfn.inner_residual(f, grid)

    def check(out):
        thetas, residual = out
        return reference(points, thetas) + checks.check_contractive(thetas) + checks.check_inner(residual)

    return Op(name, run, check)


def setup_charfn_eval(pd: SimpleNamespace, rng: np.random.Generator, workdir: Path) -> list[Op]:
    points = {n: interior_points(rng, n, EVAL_POINTS) for n in (1, 2, 3)}
    grids = {n: pd.charfn.torus_grid(n, k) for n, k in GRID_PER_AXIS.items()}
    ops = []
    for k in range(ONEVAR_COUNT):
        mat = pd.sampling.random_pure_contraction(rng, 1 + k % 8, norm_max=0.95)
        t = pd.tuples.validate([mat])
        ops.append(_charfn_op(pd, f"onevar-{k}", t, None, points[1], grids[1],
                              partial(checks.check_onevar, mat)))
    for k, m in enumerate(NODE_COUNTS):
        nodes = pd.sampling.random_nodes(rng, m, 1)
        t = pd.tuples.szego_tuple_from_nodes(nodes)
        ops.append(_charfn_op(pd, f"nodes-{k}", t, None, points[1], grids[1],
                              partial(checks.check_blaschke, nodes[:, 0])))
    for n, degrees, exponent in MODEL_CASES:
        for degree in degrees:
            alpha = tuple(int(a) for a in rng.permutation(exponent))
            space = pd.hardy.build_space(n, degree, 1)
            model = pd.hardy.quotient_model(space, pd.hardy.monomial_symbol(n, alpha))
            mt = pd.hardy.model_tuple(model)
            sigma = pd.sampling.random_unitary(rng, mt.dim)
            t = pd.tuples.validate([sigma @ m @ sigma.conj().T for m in mt])
            mask = sigma @ pd.hardy.quotient_mask(model) @ sigma.conj().T
            ops.append(_charfn_op(pd, f"model-n{n}-N{degree}", t, mask, points[n], grids[n],
                                  partial(checks.check_monomial, alpha)))
    return ops


# ---------------------------------------------------------------------------
# hardy-models

EXPONENTS = {2: (2, 1), 3: (2, 1, 1)}
HARDY_CASES = tuple((2, degree, shape) for degree in (6, 8, 10)
                    for shape in ("monomial", "blockdiag", "product")) + (
    (3, 3, "blockdiag"), (3, 4, "product"), (3, 5, "monomial"))


def graded_symbol(pd, rng: np.random.Generator, n: int, shape: str):
    """z^alpha, blockdiag(z^alpha, 1) or z^(alpha - e_j) z^(e_j), with alpha
    a permutation of EXPONENTS[n]; returns (symbol, alpha).

    The constant block is 1, not a seeded phase: for some phases the
    structural checks fail (see bench/README.md), so a seeded phase would
    make failures depend on the seed."""
    h = pd.hardy
    alpha = tuple(int(a) for a in rng.permutation(EXPONENTS[n]))
    if shape == "monomial":
        return h.monomial_symbol(n, alpha), alpha
    if shape == "blockdiag":
        return h.blockdiag_symbol([h.monomial_symbol(n, alpha), h.unitary_symbol(n, np.eye(1))]), alpha
    j = int(rng.choice([i for i, a in enumerate(alpha) if a]))
    unit = tuple(int(i == j) for i in range(n))
    rest = tuple(a - u for a, u in zip(alpha, unit))
    return h.product_symbol([h.monomial_symbol(n, rest), h.monomial_symbol(n, unit)]), alpha


def _hardy_op(pd, n, degree, sym, alpha) -> Op:
    def run():
        space = pd.hardy.build_space(n, degree, sym.output_dim)
        model = pd.hardy.quotient_model(space, sym)
        mt = pd.hardy.model_tuple(model)
        return space.dim, model.quotient_dim, mt.matrices, pd.hardy.structural_checks(model)

    def check(out):
        dim, qdim, matrices, report = out
        problems = [] if report.passed else [f"structural checks failed: {report.worst()}"]
        if dim != (degree + 1) ** n * sym.output_dim:
            problems.append(f"space dim {dim} at degree {degree}")
        return problems + checks.check_quotient(n, degree, alpha, qdim) + checks.check_model_tuple(matrices)

    return Op(f"hardy-{sym.kind}-n{n}-N{degree}", run, check)


def setup_hardy_models(pd: SimpleNamespace, rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for n, degree, shape in HARDY_CASES:
        sym, alpha = graded_symbol(pd, rng, n, shape)
        ops.append(_hardy_op(pd, n, degree, sym, alpha))
    # The nine short n=2 operations, where the median operation falls, run
    # four times a round, around the three n=3 ones, so that their median
    # times sample the whole round.
    short, long = ops[:9], ops[9:]
    return short + [long[0]] + short + [long[1]] + short + [long[2]] + short


# ---------------------------------------------------------------------------
# dilation

# (n, nodes, modulus) as in c10, with the modulus pinned at 0.21 so that
# every n=2 tuple gets degree 15 (D = 256), whatever its node count
C10_CASES = tuple((1 + k % 2, 2 + k % 3, 0.21) for k in range(12))
LARGE_CASES = ((2, 2, 0.43), (2, 3, 0.45))  # automatic degree 28 and 30: D = 841 and 961
DILATION_DEFECTS = ("isometry", "intertwining", "minimality", "model_equivalence", "image_invariance")


def _dilation_op(pd, name, t) -> Op:
    def run():
        d = pd.dilation.build_dilation(t)
        defects = {k: getattr(pd.dilation, f"{k}_defect")(d) for k in DILATION_DEFECTS}
        return d.pi, d.tail_bound, defects

    def check(out):
        pi, tail, defects = out
        return checks.check_dilation(defects, tail, pi, defects["isometry"])

    return Op(name, run, check)


def setup_dilation(pd: SimpleNamespace, rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for k, (n, m, modulus) in enumerate(C10_CASES + LARGE_CASES):
        t = pd.tuples.szego_tuple_from_nodes(pinned_nodes(pd, rng, m, n, modulus))
        ops.append(_dilation_op(pd, f"dilation-{k}-n{n}-m{m}", t))
    # The c10 tuples run twice a round, once before each large one, so that
    # the short operations, where the median operation falls, are sampled
    # across the whole round.
    small = ops[:len(C10_CASES)]
    return small + [ops[-2]] + small + [ops[-1]]


# ---------------------------------------------------------------------------
# cli-suite

SUITE_SEED = 42       # `polydisc suite --seed 42`, the headline figure
C05_FAULT_SEED = 16   # c05 falsification fails at this seed (0.087 < 0.1)
BEURLING_FAULT_CASE = (2, 6, (2, 1))  # n, degree, exponent of the program's own windowed model
WINDOW_CASE = (2, 6, (2, 1))   # n, degree, exponent of the windowed model tuple
HARDY_FILE_CASE = (2, 6, "blockdiag")
DILATE_CASE = (2, 3, 0.25)     # n, nodes, modulus: degree 17, D = 324
CLI_GRID = 24


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _mat_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(m)]


def _cli_op(pd, command, argv, report: Path, check, name=None, span=None) -> Op:
    def run():
        return pd.cli.main(argv + ["--out", str(report)])

    def verify(code):
        return check(json.loads(report.read_text(encoding="utf-8")))

    return Op(name or f"cli-{command}", run, verify, span=span or f"cli.{command}",
              failed=lambda code: code != 0, report=report)


def monomial_model(alpha, degree: int):
    """The windowed quotient model of z^alpha at one degree, written here in
    the monomial basis: the 0/1 compressions of the truncated shifts to the
    monomials outside the ideal, and the 0/1 window k_i <= degree - max(alpha_i, 1)."""
    n = len(alpha)
    basis = [k for k in itertools.product(range(degree + 1), repeat=n)
             if not all(a <= x for a, x in zip(alpha, k))]
    index = {k: i for i, k in enumerate(basis)}
    matrices = []
    for i in range(n):
        m = np.zeros((len(basis), len(basis)))
        for k, col in index.items():
            row = index.get(tuple(x + (j == i) for j, x in enumerate(k)))
            if row is not None:
                m[row, col] = 1.0
        matrices.append(m)
    caps = [degree - max(a, 1) for a in alpha]
    window = np.diag([float(all(x <= c for x, c in zip(k, caps))) for k in basis])
    return matrices, window


def setup_cli_suite(pd: SimpleNamespace, rng: np.random.Generator, workdir: Path) -> list[Op]:
    n, degree, exponent = WINDOW_CASE
    alpha = tuple(int(a) for a in rng.permutation(exponent))
    matrices, window = monomial_model(alpha, degree)
    perm = np.eye(len(window))[rng.permutation(len(window))]  # an exact change of basis
    matrices = [perm @ m @ perm.T for m in matrices]
    window = perm @ window @ perm.T
    dim = len(window)
    tuple_file = _write(workdir / "window_tuple.json",
                        {"n": n, "dim": dim, "matrices": [_mat_json(m) for m in matrices],
                         "window": _mat_json(window)})
    points = [[[float(c.real), float(c.imag)] for c in w] for w in interior_points(rng, n, 8)]
    points_file = _write(workdir / "points.json", {"points": points, "grid": {"per_axis": CLI_GRID}})
    unitary_file = _write(workdir / "unitary.json",
                          {"matrix": _mat_json(pd.sampling.random_unitary(rng, dim))})

    hn, hdeg, shape = HARDY_FILE_CASE
    sym, halpha = graded_symbol(pd, rng, hn, shape)
    symbol_file = _write(workdir / "symbol.json", pd.hardy.symbol_to_json(sym))

    dn, dm, modulus = DILATE_CASE
    dilate_tuple = pd.tuples.szego_tuple_from_nodes(pinned_nodes(pd, rng, dm, dn, modulus))
    dilate_file = _write(workdir / "dilate_tuple.json", pd.tuples.tuple_to_json(dilate_tuple))

    # The windowed model tuple as the program builds it, on inputs that do
    # not follow the seed: `charfn --window` exits 3 on it (see bench/README.md).
    fn, fdeg, falpha = BEURLING_FAULT_CASE
    model = pd.hardy.quotient_model(pd.hardy.build_space(fn, fdeg, 1), pd.hardy.monomial_symbol(fn, falpha))
    model_json = pd.tuples.tuple_to_json(pd.hardy.model_tuple(model))
    model_json["window"] = _mat_json(pd.hardy.quotient_mask(model))
    model_file = _write(workdir / "model_tuple.json", model_json)
    fixed_points = [[[float(c.real), float(c.imag)] for c in w]
                    for w in interior_points(np.random.default_rng(0), fn, 8)]
    fixed_points_file = _write(workdir / "fixed_points.json",
                               {"points": fixed_points, "grid": {"per_axis": CLI_GRID}})

    c05 = pd.battery.coincidence_battery  # held here, so a traced round does not time it as c05

    def c05_failed(rows):
        return not all(r.passed for r in rows)

    def c05_check(rows):
        return checks.check_gates([(r.name, r.value, r.threshold, r.passed) for r in rows], checks.C05_GATES)

    def out(name):
        return workdir / f"{name}_report.json"

    small = [
        _cli_op(pd, "classify", ["classify", tuple_file, "--window", "0"], out("classify"),
                partial(checks.check_classify_report, matrices=matrices)),
        _cli_op(pd, "charfn", ["charfn", tuple_file, points_file, "--window", "0"], out("charfn"),
                partial(checks.check_charfn_report, alpha=alpha, grid_per_axis=CLI_GRID)),
        _cli_op(pd, "hardy", ["hardy", symbol_file, "--degree", str(hdeg)], out("hardy"),
                partial(checks.check_hardy_report, n=hn, degree=hdeg, alpha=halpha, coeff_dim=sym.output_dim)),
        _cli_op(pd, "dilate", ["dilate", dilate_file], out("dilate"),
                partial(checks.check_dilate_report, n=dn)),
        _cli_op(pd, "coincide", ["coincide", tuple_file, unitary_file, "--window", "0"], out("coincide"),
                checks.check_coincide_report),
    ]
    suite = _cli_op(pd, "suite", ["suite", "--seed", str(SUITE_SEED)], out("suite"),
                    partial(checks.check_suite_report, seed=SUITE_SEED))
    faults = [
        Op(f"c05-seed{C05_FAULT_SEED}", partial(c05, C05_FAULT_SEED), c05_check, failed=c05_failed),
        _cli_op(pd, "charfn", ["charfn", model_file, fixed_points_file, "--window", "0"], out("model_charfn"),
                partial(checks.check_charfn_report, alpha=falpha, grid_per_axis=CLI_GRID),
                name=f"cli-charfn-model-N{fdeg}", span="op"),
    ]
    # The short calls run five times a round, around the long ones, so that
    # their median times sample the whole round.
    return small * 2 + [suite] + small + faults + small * 2


WORKLOADS = {
    "charfn-eval": setup_charfn_eval,
    "hardy-models": setup_hardy_models,
    "dilation": setup_dilation,
    "cli-suite": setup_cli_suite,
}
