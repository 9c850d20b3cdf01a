"""Checks of program outputs against references computed apart from it.

Each function returns a list of problems, empty when the output is right.
None of them calls polydisc: a reference is either recomputed here with
numpy alone or is a property the mathematics forces (inner functions are
contractive inside the polydisc and unitary on the torus, a monomial ideal
has a countable complement, dilation defects stay under their certified
tail).  Nothing is compared with a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

EVAL_TOL = 1e-9        # Theta against the one-variable and Blaschke closed forms
MODEL_TOL = 1e-8       # a model's Theta against its monomial symbol
NORM_SLACK = 1e-10     # ||Theta(w)|| <= 1 + NORM_SLACK inside the polydisc
INNER_TOL = 1e-8       # torus-grid inner residual
DEFECT_SLACK = 1e-10   # dilation defects may exceed the tail bound by this
COMMUTE_TOL = 1e-10    # commutators of model operators
AGREE_TOL = 1e-12      # two computations of one spectral norm
UNITARY_TOL = 1e-10    # coincidence unitaries
COINCIDE_TOL = 1e-9    # coincidence residual under a unitary conjugation

# The acceptance gates of `polydisc suite`, in criterion order:
# (row name, threshold, True when the value must be <= the threshold).
SUITE_GATES = (
    ("c01_onevar_reduction", 1e-9, True),
    ("c02_blaschke_recovery", 1e-12, True),
    ("c03_inner_residual", 1e-8, True),
    ("c04_pair_identity", 1e-11, True),
    ("c05_coincidence_constructive", 1e-9, True),
    ("c05_coincidence_falsification", 0.1, False),
    ("c06_szego_min_eig", -1e-10, False),
    ("c06_commutator_min_eig", -1e-10, False),
    ("c07_structural_worst", 1e-8, True),
    ("c07_dim_mismatches", 0.0, True),
    ("c07_joint_min_eig", -1e-10, False),
    ("c07_dominance_min_eig", -1e-10, False),
    ("c07_symbol_recovery", 1e-8, True),
    ("c08_growth_min_step", 1.0, False),
    ("c08_growth_closed_form", 0.0, True),
    ("c09_series_nilpotent", 1e-12, True),
    ("c09_series_kernel", 1e-10, True),
    ("c10_dilation_excess", 1e-10, True),
    ("c11_dilation_form", 1e-11, True),
)
C05_GATES = SUITE_GATES[4:6]


def spec_norm(m) -> float:
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def _psd_root(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def onevar_theta(t: np.ndarray, w: complex) -> np.ndarray:
    """-T + w D_{T*} (I - w T*)^{-1} D_T on the whole of C^d.

    It is Theta_T(w) on the defect space of T plus the isometry -T on the
    kernel of D_T, so its singular values are those of Theta_T(w) padded
    with ones.
    """
    eye = np.eye(t.shape[0])
    root = _psd_root(eye - t.conj().T @ t)
    root_star = _psd_root(eye - t @ t.conj().T)
    return -t + w * root_star @ np.linalg.solve(eye - w * t.conj().T, root)


def check_onevar(t: np.ndarray, points, thetas) -> list[str]:
    """Singular values of Theta(w) against the closed form evaluated here."""
    d = t.shape[0]
    problems = []
    for w, theta in zip(points, thetas):
        theta = np.atleast_2d(theta)
        if theta.shape[0] != theta.shape[1] or theta.shape[0] > d:
            problems.append(f"one-variable Theta has shape {theta.shape} for d={d}")
            continue
        got = np.sort(np.concatenate([np.linalg.svd(theta, compute_uv=False),
                                      np.ones(d - theta.shape[0])]))
        want = np.sort(np.linalg.svd(onevar_theta(t, complex(w[0])), compute_uv=False))
        gap = float(np.max(np.abs(got - want)))
        if gap > EVAL_TOL:
            problems.append(f"one-variable singular values off by {gap:.3e} at w={w}")
    return problems


def check_scalar_modulus(want_modulus, points, thetas, tol: float, what: str) -> list[str]:
    """|Theta(w)| against a known scalar inner function, point by point."""
    problems = []
    for w, theta in zip(points, thetas):
        theta = np.atleast_2d(theta)
        if theta.shape != (1, 1):
            problems.append(f"{what}: Theta has shape {theta.shape}, expected 1x1")
            continue
        gap = abs(abs(complex(theta[0, 0])) - want_modulus(w))
        if gap > tol:
            problems.append(f"{what}: |Theta(w)| off by {gap:.3e} at w={w}")
    return problems


def check_blaschke(nodes, points, thetas) -> list[str]:
    """A kernel-node tuple's Theta is the Blaschke product over its nodes."""
    nodes = np.asarray(nodes, dtype=np.complex128)

    def modulus(w):
        z = complex(w[0])
        return abs(np.prod((z - nodes) / (1.0 - nodes.conj() * z)))

    return check_scalar_modulus(modulus, points, thetas, EVAL_TOL, "node tuple")


def check_monomial(alpha, points, thetas) -> list[str]:
    """A quotient model's Theta coincides with its monomial symbol z^alpha."""

    def modulus(w):
        return float(np.prod(np.abs(np.asarray(w)) ** np.asarray(alpha)))

    return check_scalar_modulus(modulus, points, thetas, MODEL_TOL, f"model z^{tuple(alpha)}")


def check_contractive(thetas) -> list[str]:
    worst = max((spec_norm(th) for th in thetas), default=0.0)
    if worst > 1.0 + NORM_SLACK:
        return [f"||Theta(w)|| = {worst!r} exceeds 1 inside the polydisc"]
    return []


def check_inner(residual: float) -> list[str]:
    if not residual <= INNER_TOL:
        return [f"torus-grid inner residual {residual!r} exceeds {INNER_TOL}"]
    return []


def quotient_dim(n: int, degree: int, alpha) -> int:
    """dim of the complement of z^alpha C[z] in the box {k_i <= degree}."""
    inside = math.prod(max(degree + 1 - a, 0) for a in alpha)
    return (degree + 1) ** n - inside


def check_quotient(n: int, degree: int, alpha, got: int) -> list[str]:
    want = quotient_dim(n, degree, alpha)
    if got != want:
        return [f"quotient of z^{tuple(alpha)} at degree {degree} has dim {got}, expected {want}"]
    return []


def check_model_tuple(matrices) -> list[str]:
    """Model operators are commuting contractions."""
    problems = []
    for i, a in enumerate(matrices):
        if spec_norm(a) > 1.0 + NORM_SLACK:
            problems.append(f"model operator {i} has norm {spec_norm(a)!r} > 1")
        for j in range(i + 1, len(matrices)):
            b = matrices[j]
            res = spec_norm(a @ b - b @ a)
            if res > COMMUTE_TOL:
                problems.append(f"model operators {i},{j} commute only to {res:.3e}")
    return problems


def check_dilation(defects: dict, tail_bound: float, pi=None, isometry=None) -> list[str]:
    """Every defect under the certified tail; ||pi^H pi - I|| recomputed."""
    problems = []
    for name, value in defects.items():
        if not value <= tail_bound + DEFECT_SLACK:
            problems.append(f"dilation {name} defect {value!r} above tail {tail_bound!r} + {DEFECT_SLACK}")
    if pi is not None:
        mine = spec_norm(pi.conj().T @ pi - np.eye(pi.shape[1]))
        if abs(mine - isometry) > AGREE_TOL:
            problems.append(f"isometry defect {isometry!r} but ||pi^H pi - I|| = {mine!r}")
    return problems


def check_gates(rows, gates) -> list[str]:
    """Rows (name, value, threshold, passed) against the pinned gates.

    The pass flag is recomputed from the value, so a row that reports a
    pass it did not earn is caught as well as one that failed.
    """
    rows = list(rows)
    names = [r[0] for r in rows]
    want = [g[0] for g in gates]
    if names != want:
        return [f"rows {names} are not the criteria {want} in order"]
    problems = []
    for (name, value, threshold, passed), (_, gate, upper) in zip(rows, gates):
        earned = value <= gate if upper else value >= gate
        if threshold != gate:
            problems.append(f"{name}: threshold {threshold!r}, pinned gate is {gate!r}")
        if passed != earned:
            problems.append(f"{name}: reports passed={passed} for value {value!r}")
        elif not earned:
            problems.append(f"{name}: value {value!r} misses its gate {gate!r}")
    return problems


def check_suite_report(report: dict, seed: int) -> list[str]:
    suite = report.get("suite", {})
    rows = [(c["name"], c["value"], c["threshold"], c["passed"]) for c in suite.get("checks", [])]
    problems = check_gates(rows, SUITE_GATES)
    if suite.get("seed") != seed:
        problems.append(f"suite report has seed {suite.get('seed')}, expected {seed}")
    if suite.get("all_passed") is not True:
        problems.append("suite report does not say all_passed")
    return problems


def check_classify_report(report: dict, matrices) -> list[str]:
    c = report["classification"]
    problems = [f"classify: {flag} is false" for flag in
                ("is_commuting", "is_contractive", "is_pure", "is_szego", "is_beurling") if not c[flag]]
    radii = [float(np.max(np.abs(np.linalg.eigvals(m)))) for m in matrices]
    norms = [spec_norm(m) for m in matrices]
    for what, got, want, tol in (("spectral radii", c["spectral_radii"], radii, 1e-9),
                                 ("norms", c["norms"], norms, AGREE_TOL)):
        if len(got) != len(want) or max(abs(a - b) for a, b in zip(got, want)) > tol:
            problems.append(f"classify: {what} {got} differ from {want}")
    return problems


def _matrix(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_charfn_report(report: dict, alpha, grid_per_axis: int) -> list[str]:
    s = report["charfn_summary"]
    problems = check_inner(s["inner_residual"])
    if s["max_sampled_norm"] > 1.0 + NORM_SLACK:
        problems.append(f"charfn: max sampled norm {s['max_sampled_norm']!r} exceeds 1")
    if not s["windowed"] or s["grid_per_axis"] != grid_per_axis:
        problems.append("charfn: the window or the points file's grid was not used")
    points = [_matrix(p["w"]) for p in s["points"]]
    thetas = [_matrix(p["matrix"]) for p in s["points"]]
    if not points:
        problems.append("charfn: no evaluated points in the report")
    return problems + check_monomial(alpha, points, thetas) + check_contractive(thetas)


def check_hardy_report(report: dict, n: int, degree: int, alpha, coeff_dim: int) -> list[str]:
    problems = []
    if not report["structural_checks"]["passed"]:
        problems.append("hardy: structural checks did not pass")
    model = report["model"]
    problems += check_quotient(n, degree, alpha, model["quotient_dim"])
    if model["space_dim"] != (degree + 1) ** n * coeff_dim:
        problems.append(f"hardy: space dim {model['space_dim']} for degree {degree}")
    growth = report["growth"]
    want = [quotient_dim(n, deg, alpha) for deg in growth["degrees"]]
    if growth["quotient_dims"] != want:
        problems.append(f"hardy: growth {growth['quotient_dims']}, expected {want}")
    return problems


def check_dilate_report(report: dict, n: int) -> list[str]:
    d = report["dilation_defects"]
    names = ("isometry", "intertwining", "minimality", "model_equivalence", "image_invariance")
    problems = check_dilation({k: d[k] for k in names}, d["tail_bound"])
    if d["space_dim"] != (d["degree"] + 1) ** n * d["coeff_rank"]:
        problems.append(f"dilate: space dim {d['space_dim']} for degree {d['degree']}")
    return problems


def check_coincide_report(report: dict) -> list[str]:
    c = report["coincidence"]
    problems = []
    if not c["residual"] <= COINCIDE_TOL:
        problems.append(f"coincide: residual {c['residual']!r} exceeds {COINCIDE_TOL}")
    for name in ("tau", "tau_star"):
        u = _matrix(c[name])
        res = spec_norm(u @ u.conj().T - np.eye(u.shape[0]))
        if res > UNITARY_TOL:
            problems.append(f"coincide: {name} is unitary only to {res:.3e}")
    return problems
