"""Named desk-scale check batteries shared by the CLI suite and the
acceptance tests.

Each battery returns CheckResult rows with pinned thresholds; every source
of randomness is derived from the caller's seed, so a fixed seed gives a
bit-identical list.  The criteria share no state, so `run_battery` runs
them in worker processes where the machine has cores to spare.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .charfn import (
    alignment_probe,
    build_charfn,
    coincidence_from_unitary,
    default_points,
    dilation_form_residual,
    eval_onevar,
    eval_pair_blaschke,
    eval_raw,
    inner_residual,
    torus_grid,
)
from .defects import (
    DefectPackage,
    build_defects,
    commutator_defect,
    defect_series_residual,
    series_cutoff,
)
from .dilation import (
    build_dilation,
    intertwining_defect,
    isometry_defect,
    minimality_defect,
    model_equivalence_defect,
)
from .hardy import (
    QuotientModel,
    ahern_clark_growth,
    blockdiag_symbol,
    build_space,
    model_tuple,
    monomial_symbol,
    quotient_mask,
    quotient_model,
    structural_checks,
    unitary_symbol,
)
from .linalg import herm_eig, loewner_leq, spec_norms
from .sampling import (
    random_commuting_tuple,
    random_nilpotent_pair,
    random_nodes,
    random_pure_contraction,
    random_unitary,
)
from .tuples import CTuple, szego_inverse, szego_tuple_from_nodes, validate


@dataclass(frozen=True)
class CheckResult:
    """One named check: value compared against a pinned threshold."""

    name: str
    value: float
    threshold: float
    passed: bool


def _leq(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(value), float(threshold), bool(value <= threshold))


def _geq(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(value), float(threshold), bool(value >= threshold))


def _interior_point(rng: np.random.Generator, n: int, radius: float = 0.95) -> np.ndarray:
    return radius * rng.random(n) * np.exp(2j * np.pi * rng.random(n))


def _pure_contractions(seed: int) -> Iterator[CTuple]:
    """The fixed population of 200 single pure contractions, dims 1..8."""
    rng = np.random.default_rng(seed)
    for k in range(200):
        yield validate([random_pure_contraction(rng, 1 + k % 8, norm_max=0.95)])


def onevar_reduction(seed: int) -> list[CheckResult]:
    """General formula vs the one-variable closed form, same fixed bases."""
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for t in _pure_contractions(seed):
        f = build_charfn(t)
        w = np.array([_interior_point(rng, 1) for _ in range(25)])
        general = f.eval(w)
        closed = eval_onevar(f, w)
        # both builders fix the same defect bases, so the aligning
        # unitaries are identities; singular values cross-check that
        diff = np.max(spec_norms(general - closed))
        sv_gap = np.max(
            np.abs(np.linalg.svd(general, compute_uv=False) - np.linalg.svd(closed, compute_uv=False)),
            initial=0.0,
        )
        worst = max(worst, float(diff), float(sv_gap))
    return [_leq("c01_onevar_reduction", worst, 1e-9)]


def blaschke_recovery(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for a in (0.3, 0.5 + 0.2j, -0.7):
        f = build_charfn(validate([np.array([[a]], dtype=np.complex128)]))
        ws = [complex(_interior_point(rng, 1, radius=0.97)[0]) for _ in range(50)]
        got = f.eval(np.reshape(ws, (-1, 1)))[:, 0, 0]
        for w, value in zip(ws, got):
            want = (w - a) / (1.0 - np.conj(a) * w)
            worst = max(worst, abs(complex(value) - want))
    return [_leq("c02_blaschke_recovery", worst, 1e-12)]


def onevar_inner(seed: int) -> list[CheckResult]:
    grid = torus_grid(1, 64)
    worst = 0.0
    for t in _pure_contractions(seed):
        worst = max(worst, inner_residual(build_charfn(t), grid))
    return [_leq("c03_inner_residual", worst, 1e-8)]


def _pair_form_gaps(t: CTuple, rng: np.random.Generator) -> list[float]:
    """||eval_raw - eval_pair_blaschke|| at 20 draws of (z, h) for one pair,
    drawn z then h point by point, and evaluated as one stack."""
    z = np.empty((20, 2), dtype=np.complex128)
    h = np.empty((20, 2 * t.dim), dtype=np.complex128)
    for p in range(20):
        z[p] = _interior_point(rng, 2, radius=0.9)
        h[p] = rng.standard_normal(2 * t.dim) + 1j * rng.standard_normal(2 * t.dim)
    diff = eval_raw(t, z, h) - eval_pair_blaschke(t, z, h)
    return [float(np.linalg.norm(row)) for row in diff]


def pair_form_identity(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(100):
        if k % 2 == 0:
            # norms scaled so ||T1||^2 + ||T2||^2 < 1, forcing Szego
            t = validate(random_commuting_tuple(rng, 2, 2 + k % 5, norm_max=0.65))
        else:
            t = szego_tuple_from_nodes(random_nodes(rng, 2 + k % 3, 2))
        worst = max([worst] + _pair_form_gaps(t, rng))
    return [_leq("c04_pair_identity", worst, 1e-11)]


SUITE_CASES: tuple[tuple[str, object, tuple[int, int]], ...] = (
    ("z1", monomial_symbol(2, (1, 0)), (1, 0)),
    ("z1z2", monomial_symbol(2, (1, 1)), (1, 1)),
    ("z1^2z2", monomial_symbol(2, (2, 1)), (2, 1)),
    (
        "diag(z1z2,1)",
        blockdiag_symbol([monomial_symbol(2, (1, 1)), unitary_symbol(2, np.eye(1))]),
        (1, 1),
    ),
)


def _windowed_models(degree: int) -> list[tuple[str, QuotientModel, CTuple, np.ndarray]]:
    out = []
    for name, sym, _ in SUITE_CASES:
        space = build_space(2, degree, sym.input_dim)
        model = quotient_model(space, sym)
        mt = model_tuple(model)
        out.append((name, model, mt, quotient_mask(model)))
    return out


def coincidence_battery(seed: int) -> list[CheckResult]:
    """Constructive coincidence under unitary conjugation, plus the
    falsification probe on models with distinct node sets."""
    rng = np.random.default_rng(seed)
    models = _windowed_models(4)
    worst = 0.0
    for k in range(50):
        _, _, mt, mask = models[k % len(models)]
        sigma = random_unitary(rng, mt.dim)
        _, co = coincidence_from_unitary(mt, sigma, mask=mask)
        worst = max(worst, co.residual)
    f1 = build_charfn(szego_tuple_from_nodes(random_nodes(rng, 3, 1)))
    f2 = build_charfn(szego_tuple_from_nodes(random_nodes(rng, 3, 1)))
    probe = alignment_probe(f1, f2, rng, tries=50)
    return [
        _leq("c05_coincidence_constructive", worst, 1e-9),
        _geq("c05_coincidence_falsification", probe, 0.1),
    ]


def positivity_battery(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_szego = np.inf
    worst_comm = np.inf
    for k in range(500):
        n = 2 + k % 2
        m = 2 + k % 7
        t = szego_tuple_from_nodes(random_nodes(rng, m, n))
        worst_szego = min(worst_szego, float(herm_eig(szego_inverse(t))[0][-1]))
        worst_comm = min(worst_comm, commutator_defect(t)[1])
    return [
        _geq("c06_szego_min_eig", worst_szego, -1e-10),
        _geq("c06_commutator_min_eig", worst_comm, -1e-10),
    ]


def _recovery_residual(mt: CTuple, pkg: DefectPackage, core_exp: tuple[int, int]) -> float:
    """Distance of the model charfn from the core monomial up to coincidence.

    Both spaces are one-dimensional, so the aligning unitaries reduce to
    one unimodular scalar, fixed at the sample point of largest target
    magnitude; any modulus drift of that scalar counts as error."""
    f = build_charfn(mt, pkg)
    if f.input_dim != 1 or f.output_dim != 1:
        return float("inf")
    pts = default_points(2, count=12, seed=13)
    want = np.array([np.prod([w[i] ** e for i, e in enumerate(core_exp)]) for w in pts])
    got = f.eval(np.array(pts))[:, 0, 0]
    i0 = int(np.argmax(np.abs(want)))
    c = got[i0] / want[i0]
    return float(max(np.max(np.abs(got - c * want)), abs(abs(c) - 1.0)))


def model_suite() -> list[CheckResult]:
    worst_structural = 0.0
    dim_mismatches = 0
    joint_min = np.inf
    dominance_min = np.inf
    worst_recovery = 0.0
    for degree in (4, 6, 8):
        models = _windowed_models(degree)
        for (name, sym, core), (_, model, mt, mask) in zip(SUITE_CASES, models):
            rep = structural_checks(model)
            worst_structural = max(worst_structural, rep.worst()[1])
            if rep.dims["wandering_effective"] != rep.dims["joint_defect"]:
                dim_mismatches += 1
            pkg = build_defects(mt, mask)
            joint_min = min(joint_min, pkg.joint.min_eig)
            comm_sq, _ = commutator_defect(mt, mask)
            verdict = loewner_leq(pkg.joint.matrix, comm_sq)
            dominance_min = min(dominance_min, verdict.witness_min_eig)
            worst_recovery = max(worst_recovery, _recovery_residual(mt, pkg, core))
    return [
        _leq("c07_structural_worst", worst_structural, 1e-8),
        _leq("c07_dim_mismatches", float(dim_mismatches), 0.0),
        _geq("c07_joint_min_eig", joint_min, -1e-10),
        _geq("c07_dominance_min_eig", dominance_min, -1e-10),
        _leq("c07_symbol_recovery", worst_recovery, 1e-8),
    ]


def growth_battery() -> list[CheckResult]:
    degrees = range(2, 11)
    min_step = np.inf
    closed_form_dev = 0
    for name, sym, _ in SUITE_CASES[:3]:
        counts = ahern_clark_growth(sym, degrees)
        min_step = min(min_step, min(b - a for a, b in zip(counts, counts[1:])))
        if name == "z1":
            closed_form_dev = max(
                closed_form_dev,
                max(abs(c - (deg + 1)) for c, deg in zip(counts, degrees)),
            )
        if name == "z1z2":
            closed_form_dev = max(
                closed_form_dev,
                max(abs(c - (2 * deg + 1)) for c, deg in zip(counts, degrees)),
            )
    return [
        _geq("c08_growth_min_step", float(min_step), 1.0),
        _leq("c08_growth_closed_form", float(closed_form_dev), 0.0),
    ]


def series_battery(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_nil = 0.0
    for k in range(50):
        t = validate(random_nilpotent_pair(rng, 3 + k % 5))
        j = k % 2
        worst_nil = max(worst_nil, defect_series_residual(t, j, (1 - j,)))
    worst_ker = 0.0
    for k in range(50):
        n = 2 + k % 2
        t = szego_tuple_from_nodes(random_nodes(rng, 2 + k % 4, n))
        j = k % n
        p = tuple(i for i in range(n) if i != j)
        # cut the series deep enough that the geometric tail sits well
        # under the 1e-10 gate; the default cut aims only at 1e-10 itself
        depth = series_cutoff(t, tol=1e-14)
        worst_ker = max(worst_ker, defect_series_residual(t, j, p, depth))
    return [
        _leq("c09_series_nilpotent", worst_nil, 1e-12),
        _leq("c09_series_kernel", worst_ker, 1e-10),
    ]


def dilation_battery(seed: int) -> list[CheckResult]:
    """The four dilation defects against the certified tail, auto degree."""
    rng = np.random.default_rng(seed)
    worst_excess = -np.inf
    for k in range(100):
        n = 1 + k % 2
        m = 2 + k % 3
        nodes = random_nodes(rng, m, n, modulus_max=0.2, min_sep=0.08)
        d = build_dilation(szego_tuple_from_nodes(nodes))
        for fn in (isometry_defect, intertwining_defect, minimality_defect, model_equivalence_defect):
            worst_excess = max(worst_excess, fn(d) - d.tail_bound)
    return [_leq("c10_dilation_excess", worst_excess, 1e-10)]


def dilation_form_battery() -> list[CheckResult]:
    """Closed-form Taylor blocks vs the dilation-side operator expression."""
    worst = 0.0
    for a in (0.6, 0.35 - 0.2j):
        t = validate([np.array([[a]], dtype=np.complex128)])
        worst = max(worst, dilation_form_residual(t, build_dilation(t), build_charfn(t)))
    space1 = build_space(1, 6, 1)
    for exp in ((2,), (3,)):
        model = quotient_model(space1, monomial_symbol(1, exp))
        mt = model_tuple(model)
        f = build_charfn(mt, build_defects(mt, quotient_mask(model)))
        worst = max(worst, dilation_form_residual(mt, build_dilation(mt), f))
    for _, model, mt, mask in _windowed_models(4):
        f = build_charfn(mt, build_defects(mt, mask))
        worst = max(worst, dilation_form_residual(mt, build_dilation(mt), f))
    return [_leq("c11_dilation_form", worst, 1e-11)]


# (label, module attribute, takes the seed) per criterion, in criterion
# order.  Names, not functions: a worker looks each one up when it runs, so
# a function swapped on this module (by a tracer or a test) is the one run.
CRITERIA: tuple[tuple[str, str, bool], ...] = (
    ("c01", "onevar_reduction", True),
    ("c02", "blaschke_recovery", True),
    ("c03", "onevar_inner", True),
    ("c04", "pair_form_identity", True),
    ("c05", "coincidence_battery", True),
    ("c06", "positivity_battery", True),
    ("c07", "model_suite", False),
    ("c08", "growth_battery", False),
    ("c09", "series_battery", True),
    ("c10", "dilation_battery", True),
    ("c11", "dilation_form_battery", False),
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_count() -> int:
    """Processes for the criteria: the usable CPUs divided by the threads
    BLAS runs in each, at most one per criterion.

    BLAS threads are read from the first of BLAS_THREAD_VARS that is a
    positive integer; with none set, BLAS is taken to use every CPU, so the
    suite keeps one process rather than compete with it for cores.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            blas = threads
            break
    return max(1, min(len(CRITERIA), cpus // blas))


def _run_criterion(criterion: tuple[str, str, bool], seed: int) -> tuple[list[CheckResult], float]:
    """One criterion's rows and its seconds, in whichever process runs it."""
    _, name, seeded = criterion
    fn = globals()[name]
    start = time.perf_counter()
    rows = fn(seed) if seeded else fn()
    return rows, time.perf_counter() - start


def timed_battery(seed: int = 42) -> tuple[list[CheckResult], dict[str, float]]:
    """`run_battery`'s rows, and the seconds each criterion took by label.

    With more than one worker the criteria run on a fork process pool,
    handed out in criterion order one at a time; otherwise they run here,
    one after another.  Either way the rows come back in criterion order,
    bit for bit the same.  Fork, not spawn, so that workers see this
    module as the caller left it; the executor forks every worker before
    it starts its own thread.  The pool is shut down and joined before
    this returns or raises; a criterion's error reaches the caller as
    itself.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = worker_count()
    jobs = (CRITERIA, [seed] * len(CRITERIA))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            done = list(pool.map(_run_criterion, *jobs))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    else:
        done = list(map(_run_criterion, *jobs))
    rows = [row for criterion_rows, _ in done for row in criterion_rows]
    seconds = {label: spent for (label, _, _), (_, spent) in zip(CRITERIA, done)}
    return rows, seconds


def run_battery(seed: int = 42) -> list[CheckResult]:
    """All numeric acceptance checks in criterion order."""
    return timed_battery(seed)[0]
