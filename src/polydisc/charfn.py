"""Characteristic functions of Beurling tuples.

Evaluation of the defining formula by linear solves, the one-variable and
pair closed forms, inner-ness residuals on torus grids, the dilation-form
coefficient identity, and coincidence testing under unitary conjugation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .defects import DefectPackage, build_defects
from .errors import (
    BadIndex,
    IncompatibleDims,
    NotBeurling,
    NotPure,
    NotUnitary,
    ShapeMismatch,
    SingularResolvent,
)
from .dilation import DilationData, adjoint_powers, coefficient_tail_sum
from .hardy import (
    build_space,
    cauchy_product,
    charfn_symbol,
    inner_residual_symbol,
    point_stack,
    row_mask,
    shift_apply,
)
from .hardy import torus_grid  # noqa: F401  (re-exported: the grids of inner_residual)
from .linalg import (
    Subspace,
    as_complex,
    psd_sqrt,
    refuse_over_budget,
    spec_norm,
    spec_norms,
    stack_chunks,
)
from .tuples import CTuple, defect_first_kind, is_pure, validate

RESOLVENT_COND_LIMIT = 1e12
# |w_k| ||T_k|| up to which the resolvent gate passes a factor on its
# certified bound cond <= (1 + r) / (1 - r) <= 2e6, without an SVD
BOUND_RADIUS = 1 - 1e-6


def _scale(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w_p x_p for each entry of a 1-D w, with x shared (2-D) or per entry (3-D).

    x is broadcast to the full stack shape first: numpy's complex multiply
    then runs the same loop as the product w_p * x of one point, which keeps
    a stack bit-identical to its points taken one by one (a one-element x
    left unbroadcast takes another loop and moves the last bit).
    """
    return w[:, None, None] * np.broadcast_to(x, (len(w),) + x.shape[-2:])


def _resolvent_factor(t: CTuple, k: int, wk: np.ndarray) -> np.ndarray:
    """The factors I - w_k T_k^*, one (d, d) matrix per entry of the 1-D wk."""
    return np.eye(t.dim, dtype=np.complex128) - _scale(wk, t[k].conj().T)


def _resolvent_gate(t: CTuple, w: np.ndarray) -> None:
    """The one conditioning gate on the resolvent factors of a (P, n) stack.

    A factor passes when its condition number is at most
    RESOLVENT_COND_LIMIT.  With r = |w_k| ||T_k|| < 1 the Neumann series
    gives ||I - w_k T_k^*|| <= 1 + r and sigma_min >= 1 - r, so every
    entry with r <= BOUND_RADIUS has cond <= 2e6 and passes with no factor
    built.  np.linalg.cond runs on the other entries only (r above the
    radius or not finite), once per distinct value of w_k among them.
    Failure raises SingularResolvent for the first point, and within it the
    first variable, whose factor is over RESOLVENT_COND_LIMIT: the failure
    a point-by-point evaluation meets first.
    """
    cond = np.zeros(w.shape)
    for k in range(t.n):
        exact = ~(np.abs(w[:, k]) * t.norms[k] <= BOUND_RADIUS)
        values, inverse = np.unique(w[exact, k], return_inverse=True)
        per_value = np.empty(len(values))
        for chunk in stack_chunks(len(values), 16 * t.dim**2):
            per_value[chunk] = np.linalg.cond(_resolvent_factor(t, k, values[chunk]))
        cond[exact, k] = per_value[inverse]
    bad = np.argwhere(~(cond <= RESOLVENT_COND_LIMIT))
    if len(bad):
        p, k = bad[0]
        raise SingularResolvent(int(k), float(cond[p, k]))


def _eval_core(t: CTuple, lead, w: np.ndarray, h_cols: np.ndarray) -> np.ndarray:
    """prod_k (I-w_k T_k^*)^{-1} sum_j (w_j - T_j) prod_{i!=j} (I-w_i T_i^*)
    applied to each column of h_cols at each point of the (P, n) stack w,
    then multiplied on the left by each matrix of ``lead`` in turn (D_{T*}
    first); returns shape (P, rows of lead[-1], m).  h_cols is shared by
    every point (shape nd x m) or given per point (shape P x nd x m).  The
    stack is walked in chunks within STACK_BYTE_BUDGET, with one batched
    solve per variable and chunk."""
    d, m = t.dim, h_cols.shape[-1]
    _resolvent_gate(t, w)
    out = np.empty((len(w), lead[-1].shape[0], m), dtype=np.complex128)
    for chunk in stack_chunks(len(w), 16 * d * (t.n * d + 3 * m)):
        wc = w[chunk]
        hc = h_cols if h_cols.ndim == 2 else h_cols[chunk]
        factors = [_resolvent_factor(t, k, wc[:, k]) for k in range(t.n)]
        total = np.zeros((len(wc), d, m), dtype=np.complex128)
        for j in range(t.n):
            u = hc[..., j * d : (j + 1) * d, :]
            for i in range(t.n):
                if i != j:
                    u = factors[i] @ u
            total += _scale(wc[:, j], u) - t[j] @ u
        for k in range(t.n):
            total = np.linalg.solve(factors[k], total)
        for a in lead:
            total = a @ total
        out[chunk] = total
    return out


def _point_and_h_stacks(t: CTuple, w, h_tilde) -> tuple[np.ndarray, np.ndarray, bool]:
    """The (P, n) point stack of w, the (P, nd) stack of h~ that goes with it
    (nd entries for one point), and whether w was one point."""
    w, single = point_stack(w, t.n)
    h = as_complex(h_tilde).reshape(1, -1) if single else as_complex(h_tilde)
    if h.shape != (len(w), t.n * t.dim):
        raise ShapeMismatch(f"h~ has shape {h.shape}, expected {(len(w), t.n * t.dim)}")
    return w, h, single


def eval_raw(t: CTuple, w, h_tilde) -> np.ndarray:
    """Theta_T(w) D_T h~ by linear solves (one per variable): a vector in C^d
    for a point w of shape (n,) and h~ in C^{nd}, or shape (P, d) for a
    stack w of shape (P, n) and an h~ stack of shape (P, nd).  Needs the
    tuple to be Szego so that the first-kind defect root exists; Beurling
    is not required.
    """
    w, h, single = _point_and_h_stacks(t, w, h_tilde)
    root, _ = defect_first_kind(t)
    out = _eval_core(t, (root,), w, h[:, :, None])[:, :, 0]
    return out[0] if single else out


def eval_onevar(f: CharFn, w) -> np.ndarray:
    """One-variable closed form [-T + w D_{T*}(I-wT*)^{-1} D_T] on the defect
    spaces, as a matrix from the D_T basis to the D_{T*} basis.

    w is a point of shape (1,) or a stack of shape (P, 1) (hardy.point_stack).
    Both defects come from f.defects: D_{T*} is the first-kind defect, and
    D_T^2 = I - T^*T is the joint defect at n = 1, with f's input space as
    its range; only the root D_T is taken here, once per call.
    """
    t = f.tuple
    if t.n != 1:
        raise BadIndex(f"one-variable form needs n=1, got n={t.n}")
    pure, radii = is_pure(t)
    if not pure:
        raise NotPure(f"spectral radius {max(radii)} too close to 1")
    w, single = point_stack(w, t.n)
    mat = t[0]
    jd = f.defects.joint
    root, basis = psd_sqrt(jd.matrix, t.tol), jd.space
    root_star, basis_star = f.defects.first_kind
    _resolvent_gate(t, w)
    f = _resolvent_factor(t, 0, w[:, 0])
    roots = np.broadcast_to(root, f.shape)
    core = -mat + _scale(w[:, 0], root_star) @ np.linalg.solve(f, roots)
    out = basis_star.basis.conj().T @ core @ basis.basis
    return out[0] if single else out


def _blaschke_apply(t: CTuple, outer: int, inner: int, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(I - z_outer T_outer^*)^{-1} b_{T_inner}(z_inner) (I - z_outer T_outer^*) h
    at each point of the (P, 2) stack z, which has passed the resolvent
    gate, with h of shape (P, d, 1)."""
    f_out = _resolvent_factor(t, outer, z[:, outer])
    f_in = _resolvent_factor(t, inner, z[:, inner])
    v = f_out @ h
    v = _scale(z[:, inner], v) - t[inner] @ v
    return np.linalg.solve(f_out, np.linalg.solve(f_in, v))


def eval_pair_blaschke(t: CTuple, z, h_tilde) -> np.ndarray:
    """Pair form: D_{T*}( b_{(T1,T2)}(z1,z2) h2 + b_{(T2,T1)}(z2,z1) h1 ).

    Agrees with eval_raw identically (the resolvent factors commute); the
    closed form makes the operator Blaschke structure explicit.  Takes the
    shapes of eval_raw: one point with one h~, or a (P, 2) stack with a
    (P, 2d) stack of h~, walked in chunks within STACK_BYTE_BUDGET.
    """
    if t.n != 2:
        raise BadIndex(f"pair form needs n=2, got n={t.n}")
    z, h, single = _point_and_h_stacks(t, z, h_tilde)
    d = t.dim
    root, _ = defect_first_kind(t)
    _resolvent_gate(t, z)
    out = np.empty((len(z), d), dtype=np.complex128)
    for chunk in stack_chunks(len(z), 16 * d * (2 * d + 4)):
        part2 = _blaschke_apply(t, 0, 1, z[chunk], h[chunk, d:, None])
        part1 = _blaschke_apply(t, 1, 0, z[chunk], h[chunk, :d, None])
        out[chunk] = (root @ (part2 + part1))[:, :, 0]
    return out[0] if single else out


@dataclass(frozen=True)
class CharFn:
    """Matrix-valued characteristic function in fixed defect-space bases.

    input_basis spans the joint defect space inside C^{nd}; output_basis
    spans the first-kind defect space inside C^d.  preimages holds h~
    columns with D_T h~ = input basis vector, fixed by the eigensystem of
    the joint defect.
    """

    tuple: CTuple
    defects: DefectPackage
    input_basis: Subspace
    output_basis: Subspace
    preimages: np.ndarray

    @property
    def n(self) -> int:
        return self.tuple.n

    @property
    def input_dim(self) -> int:
        return self.input_basis.dim

    @property
    def output_dim(self) -> int:
        return self.output_basis.dim

    def eval(self, w) -> np.ndarray:
        """Theta_T at a point w of shape (n,), an (output_dim, input_dim)
        matrix, or at each point of a stack of shape (P, n), a stack of
        shape (P, output_dim, input_dim) (hardy.point_stack)."""
        w, single = point_stack(w, self.n)
        root = self.defects.first_kind[0]
        out = _eval_core(self.tuple, (root, self.output_basis.basis.conj().T), w, self.preimages)
        return out[0] if single else out

    def taylor_coeffs(self, n_deg: int) -> tuple[dict, float, float]:
        """Matrix Taylor coefficients up to per-variable degree n_deg.

        Exact polynomial algebra: per-variable adjoint-power series of the
        resolvents convolved with the finite polynomial part.  Returns
        (coefficients, l1_bound, tail_bound) in the hardy symbol-table
        convention; the tail bound is certified from power norms.
        """
        t = self.tuple
        root = self.defects.first_kind[0]
        blocks = _formula_coefficient_blocks(t, root, n_deg)
        out = self.output_basis.basis.conj().T
        coeffs = {}
        l1 = 0.0
        for beta, big in blocks.items():
            mat = out @ big @ self.preimages
            if spec_norm(mat) > 0:
                coeffs[beta] = mat
                l1 += spec_norm(mat)
        poly_l1 = 2.0 ** t.n  # sum of norms of the finite polynomial part
        tail = (
            spec_norm(root)
            * spec_norm(self.preimages)
            * t.n
            * poly_l1
            * coefficient_tail_sum(t, n_deg)
        )
        return coeffs, l1, tail


def _formula_coefficient_blocks(t: CTuple, root: np.ndarray, n_deg: int) -> dict:
    """Taylor blocks of w -> Theta_T(w) D_T as maps C^{nd} -> C^d.

    The formula is root times the full resolvent series sum_beta w^beta
    T^{*beta} times the finite polynomial sum_j (w_j - T_j) prod_{i != j}
    (I - w_i T_i^*) acting on slot j.  The polynomial's coefficient at
    alpha in {0,1}^n has slot j equal to (-1)^|delta| T^{*delta}, times
    -T_j when alpha_j = 0, with delta = alpha off slot j; the blocks are
    the truncated Cauchy product of the two tables, exact for every
    multi-index inside the box.  A box whose blocks (d x nd) and adjoint
    powers (d x d) exceed BYTE_BUDGET is refused before they are built.
    """
    d, n = t.dim, t.n
    refuse_over_budget(16 * (n_deg + 1) ** n * d * d * (n + 1),
                       f"Taylor blocks of {n_deg + 1}^{n} multi-indices at dim {d}")
    space = build_space(n, n_deg, 1)
    powers = dict(zip(map(tuple, space.exps.tolist()), adjoint_powers(t, space)))
    finite = {}
    for alpha in itertools.product((0, 1), repeat=n):
        big = np.empty((d, n * d), dtype=np.complex128)
        for j in range(n):
            delta = alpha[:j] + (0,) + alpha[j + 1 :]
            mat = powers[delta]
            big[:, j * d : (j + 1) * d] = (-1.0) ** sum(delta) * (mat if alpha[j] else -t[j] @ mat)
        finite[alpha] = big
    return {beta: root @ block for beta, block in cauchy_product(powers, finite, n_deg).items()}


def build_charfn(t: CTuple, defects: DefectPackage | None = None) -> CharFn:
    """Fix defect bases and preimages so that Theta_T evaluates as a matrix.

    Refuses tuples whose joint defect has no PSD root (NotBeurling): the
    characteristic function is reserved for (windowed) Beurling tuples,
    while eval_raw stays available for any Szego tuple.
    """
    if defects is None:
        defects = build_defects(t)
    jd = defects.joint
    if jd.space is None:
        raise NotBeurling(
            f"joint defect is not PSD (min eigenvalue {jd.min_eig:.3e})",
            min_eig=jd.min_eig,
        )
    if defects.first_kind is None:
        raise NotBeurling("first-kind defect unavailable (tuple is not Szego)")
    basis = jd.space
    lam = np.real(np.sum(basis.basis.conj() * (jd.matrix @ basis.basis), axis=0))
    preimages = basis.basis / np.sqrt(lam)
    return CharFn(t, defects, basis, defects.first_kind[1], preimages)


def inner_residual(f: CharFn, grid) -> float:
    """max over the (P, n) point stack ``grid`` of || eval(z)^H eval(z) - I ||."""
    return inner_residual_symbol(charfn_symbol(f), grid)[0]


def dilation_form_residual(t: CTuple, d: DilationData, f: CharFn) -> float:
    """Coefficient mismatch between the closed form and the dilation side.

    Left side: Taylor blocks of w -> Theta_T(w) D_T from the resolvent
    series.  Right side: sum_i prod_{j != i} Delta_{M_j, T_j} applied to
    M_i Pi - Pi T_i, read off the dilation, where Delta(X) = X - M_j X T_j^*.
    Both act on h~ in C^{nd}; the max absolute entry mismatch over window
    rows (every variable below top degree) is reported.
    """
    if d.tuple is not t and any(
        not np.array_equal(a, b) for a, b in zip(d.tuple.matrices, t.matrices)
    ):
        raise IncompatibleDims("dilation was built for a different tuple")
    if (
        f.output_basis.dim != d.coeff_basis.dim
        or spec_norm(f.output_basis.basis - d.coeff_basis.basis) > 1e-10
    ):
        raise IncompatibleDims("charfn output basis differs from dilation coefficients")
    space = d.space
    n, dim, p = t.n, t.dim, space.coeff_dim
    root = f.defects.first_kind[0]
    reduce = d.coeff_basis.basis.conj().T

    blocks = _formula_coefficient_blocks(t, root, d.degree)
    lhs = np.zeros((space.dim, n * dim), dtype=np.complex128)
    for beta, big in blocks.items():
        r = space.position(beta, 0)
        lhs[r : r + p] = reduce @ big

    rhs = np.zeros_like(lhs)
    for i in range(n):
        x = shift_apply(space, i, d.pi) - d.pi @ t[i]
        for j in range(n):
            if j != i:
                x = x - shift_apply(space, j, x) @ t[j].conj().T
        rhs[:, i * dim : (i + 1) * dim] = x

    keep = row_mask(space, d.degree - 1)
    diff = lhs[keep] - rhs[keep]
    return float(np.max(np.abs(diff), initial=0.0))


@dataclass(frozen=True)
class Coincidence:
    """Unitaries witnessing Theta_T = tau_star Theta_S tau^* and the residual.

    tau maps the joint defect space of S to that of T; tau_star maps the
    first-kind defect space of S to that of T (matrices in the fixed bases).
    """

    tau: np.ndarray
    tau_star: np.ndarray
    residual: float


def default_points(n: int, count: int = 20, seed: int = 97) -> list[np.ndarray]:
    """Deterministic interior sample points for coincidence residuals."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        r = 0.2 + 0.65 * rng.random(n)
        ang = np.exp(2j * np.pi * rng.random(n))
        pts.append(r * ang)
    return pts


def coincidence_from_unitary(
    t: CTuple,
    sigma,
    mask=None,
    points=None,
) -> tuple[CTuple, Coincidence]:
    """Conjugate the tuple by a unitary and certify the coincidence.

    S = sigma T sigma^*; tau_star(D_{T*} h) = D_{S*} sigma h and
    tau(D_T h~) = D_S Sigma h~ with Sigma = sigma on every slot.  The
    residual is the max over sample points of the coincidence identity in
    the stored orientation.  A window mask transports by conjugation.
    """
    sigma = as_complex(sigma)
    if sigma.shape != (t.dim, t.dim):
        raise ShapeMismatch(f"unitary shape {sigma.shape} vs dim {t.dim}")
    if not spec_norm(sigma @ sigma.conj().T - np.eye(t.dim)) <= 1e-10:
        raise NotUnitary("conjugating matrix is not unitary within 1e-10")
    s = validate([sigma @ m @ sigma.conj().T for m in t], t.tol)
    mask_s = None if mask is None else sigma @ mask @ sigma.conj().T
    f_t = build_charfn(t, build_defects(t, mask))
    f_s = build_charfn(s, build_defects(s, mask_s))

    big_sigma = np.kron(np.eye(t.n), sigma)
    tau = f_t.input_basis.basis.conj().T @ big_sigma.conj().T @ f_s.input_basis.basis
    tau_star = (
        f_t.output_basis.basis.conj().T @ sigma.conj().T @ f_s.output_basis.basis
    )
    for name, u in (("tau", tau), ("tau_star", tau_star)):
        if not spec_norm(u @ u.conj().T - np.eye(u.shape[0])) <= 1e-10:
            raise NotUnitary(f"{name} failed to come out unitary")

    pts = np.reshape(default_points(t.n) if points is None else points, (-1, t.n))
    lhs = f_t.eval(pts)
    rhs = tau_star @ f_s.eval(pts) @ tau.conj().T
    worst = float(np.max(spec_norms(lhs - rhs), initial=0.0))
    return s, Coincidence(tau, tau_star, worst)


def alignment_probe(f1: CharFn, f2: CharFn, rng, tries: int = 50, points=None) -> float:
    """Best coincidence residual over random unitary basis alignments.

    A falsification probe: for genuinely distinct tuples the value stays
    large no matter the alignment; it cannot prove coincidence, only make
    non-coincidence plausible.
    """
    from .sampling import random_unitary

    if f1.input_dim != f2.input_dim or f1.output_dim != f2.output_dim:
        return float("inf")
    pts = np.reshape(default_points(f1.n) if points is None else points, (-1, f1.n))
    evals1 = f1.eval(pts)
    evals2 = f2.eval(pts)
    best = float("inf")
    for _ in range(tries):
        tau = random_unitary(rng, f1.input_dim)
        tau_star = random_unitary(rng, f1.output_dim)
        worst = float(np.max(spec_norms(evals1 - tau_star @ evals2 @ tau.conj().T)))
        best = min(best, worst)
    return best
