"""Truncated vector-valued Hardy spaces over the polydisc.

The truncation caps every variable at degree N, so the space is a tensor
power of one-variable truncations and the shifts are exact tensor-leg
nilpotent shifts.  Inner symbols come from a small compositional grammar
(monomials, one-variable Blaschke products, constant unitaries, block
diagonals, products); graded symbols (no Blaschke factor) change degrees
by an exact bounded amount, which yields a window of low degrees on which
the truncated objects agree exactly with their infinite-dimensional
counterparts.  Everything the structural checks assert is evaluated
through that window.

Basis ordering is graded lexicographic in the exponents, then coefficient
index, so a vector is a stack of coefficient blocks, one per monomial, and
every report is bit-stable.  No shift or window is stored as a matrix: the
shift M_{z_i} and its adjoint act as row gathers of those blocks
(shift_apply), a product x M_i as the same gather on x^T, and a window as a
boolean row selector (row_mask; window_rows for a model's exact window) whose
rows are read by selection, never by multiplying by the mask.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .defects import block_defect, commutator, full_truncated_defect, joint_commutator
from .errors import (
    BadIndex,
    IncompatibleDims,
    NotUnitary,
    ParseError,
    PolydiscError,
    ShapeMismatch,
    SymbolNotInner,
)
from .linalg import (
    DEFAULT_TOL,
    TOL_RANK,
    Subspace,
    as_complex,
    containment_residual,
    herm_eig,
    null_space,
    numerical_rank,
    phase_fix,
    projector_residual,
    range_basis,
    refuse_over_budget,
    spec_norm,
    stack_chunks,
    zero_cut,
)
from .tuples import CTuple, classical_defect_sq, complex_from_json, complex_to_json, int_from_json, validate

INNER_TOL = 1e-8  # worst torus-grid ||Theta^H Theta - I|| that check_inner passes
STRUCTURAL_THRESHOLD = 1e-8  # gate of every residual in a StructuralReport


@dataclass(frozen=True)
class HardySpace:
    """Truncated Hardy space: all z^k e_r with every k_i <= N.

    Basis position of (k, r) is rank(k) * coeff_dim + r, with monomial
    ranks in graded lexicographic order.

    ``exps`` lists the monomials in rank order as a read-only integer
    array of shape (mono_count, n).  The flat index of k is its mixed-radix
    value sum_i k_i (N+1)^(n-1-i), and ``rank_of`` maps flat index to rank.  A shift by z^beta is then the
    index move k -> k + beta, and a window is a comparison of ``exps``
    against per-variable caps.  Both arrays are built once by build_space
    and take no part in equality.  Operators are applied through these
    index moves (shift_apply, row_mask), never built as D x D matrices.
    """

    n: int
    N: int
    coeff_dim: int
    exps: np.ndarray = field(compare=False, repr=False)
    rank_of: np.ndarray = field(compare=False, repr=False)

    @property
    def mono_count(self) -> int:
        return len(self.exps)

    @property
    def dim(self) -> int:
        return self.mono_count * self.coeff_dim

    def rank(self, k):
        """Rank of exponent k, or of each row of an (m, n) array; ValueError outside the box."""
        flat = np.ravel_multi_index(np.moveaxis(np.asarray(k), -1, 0), (self.N + 1,) * self.n)
        return self.rank_of[flat]

    def position(self, k, r: int):
        return self.rank(k) * self.coeff_dim + r


def build_space(n: int, N: int, coeff_dim: int) -> HardySpace:
    """Enumerate the truncated monomial basis in graded lexicographic order.
    A box whose index arrays (2n + 3 integers per monomial) exceed
    BYTE_BUDGET is refused before they are built."""
    if n < 1 or N < 1 or coeff_dim < 1:
        raise BadIndex(f"need n >= 1, N >= 1, coeff_dim >= 1, got {n}, {N}, {coeff_dim}")
    refuse_over_budget(8 * (N + 1) ** n * (2 * n + 3), f"Hardy space index arrays of {N + 1}^{n} monomials")
    box = np.indices((N + 1,) * n).reshape(n, -1).T  # flat-index order, i.e. lexicographic
    order = np.argsort(box.sum(axis=1), kind="stable")
    exps, rank_of = box[order], np.argsort(order)
    for arr in (exps, rank_of):
        arr.setflags(write=False)
    return HardySpace(n, N, coeff_dim, exps, rank_of)


def offset_ranks(space: HardySpace, delta) -> np.ndarray:
    """Rank of k + delta for every monomial k in rank order; -1 where it leaves the box."""
    moved = space.exps + np.asarray(delta, dtype=space.exps.dtype)
    inside = np.all((moved >= 0) & (moved <= space.N), axis=1)
    return np.where(inside, space.rank(np.clip(moved, 0, space.N)), -1)


def gather_blocks(space: HardySpace, src: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row gather on the space.dim rows of x: block a of the result is block
    src[a] of x, or zero where src[a] = -1.  A block is the coeff_dim rows
    of one monomial; the result has len(src) blocks."""
    blocks = x.reshape(space.mono_count, space.coeff_dim, x.shape[1])
    return np.concatenate([blocks, np.zeros_like(blocks[:1])])[src].reshape(len(src) * space.coeff_dim, x.shape[1])


def shift_apply(space: HardySpace, i: int, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """M_{z_i} x, or M_{z_i}^* x, as a row gather: row k of M_i x is row
    k - e_i of x (zero when k_i = 0), and row k of M_i^* x is row k + e_i of x
    (zero when k_i = N).  Since M_i is a real 0/1 matrix, x M_i is
    shift_apply(space, i, x.T, adjoint=True).T."""
    if not 0 <= i < space.n:
        raise BadIndex(f"variable index {i} out of range for n={space.n}")
    step = np.eye(space.n, dtype=space.exps.dtype)[i]
    return gather_blocks(space, offset_ranks(space, step if adjoint else -step), x)


def row_mask(space: HardySpace, caps) -> np.ndarray:
    """Selector of the rows z^k e_r with every k_i <= caps[i]; caps is one int or n ints."""
    return np.repeat(np.all(space.exps <= np.asarray(caps), axis=1), space.coeff_dim)


# ---------------------------------------------------------------------------
# Inner-symbol grammar


@dataclass(frozen=True)
class InnerSymbol:
    """A node of the compositional symbol grammar.

    kind is one of "monomial", "blaschke1", "unitary", "blockdiag",
    "product", or "charfn" (an in-memory wrapper around a computed
    characteristic function; not serializable).  Coefficient dimensions
    map an input space E to an output space E*.
    """

    kind: str
    n: int
    input_dim: int
    output_dim: int
    exponent: tuple[int, ...] | None = None
    variable: int | None = None
    zeros: tuple[complex, ...] | None = None
    matrix: np.ndarray | None = None
    children: tuple["InnerSymbol", ...] | None = None
    charfn: object | None = None


def monomial_symbol(n: int, exponent) -> InnerSymbol:
    exponent = tuple(int(e) for e in exponent)
    if len(exponent) != n or any(e < 0 for e in exponent):
        raise BadIndex(f"exponent {exponent} invalid for n={n}")
    return InnerSymbol("monomial", n, 1, 1, exponent=exponent)


def blaschke_symbol(n: int, variable: int, zeros) -> InnerSymbol:
    if not 0 <= variable < n:
        raise BadIndex(f"variable {variable} out of range for n={n}")
    zeros = tuple(complex(z) for z in zeros)
    if any(abs(z) >= 1 for z in zeros):
        raise ValueError("Blaschke zeros must lie strictly inside the disc")
    return InnerSymbol("blaschke1", n, 1, 1, variable=variable, zeros=zeros)


def unitary_symbol(n: int, matrix) -> InnerSymbol:
    matrix = np.atleast_2d(as_complex(matrix))
    d = matrix.shape[0]
    if matrix.shape != (d, d) or not spec_norm(matrix @ matrix.conj().T - np.eye(d)) <= 1e-10:
        raise NotUnitary(f"constant block of shape {matrix.shape} is not unitary")
    return InnerSymbol("unitary", n, d, d, matrix=matrix)


def blockdiag_symbol(children) -> InnerSymbol:
    children = tuple(children)
    if not children:
        raise ValueError("blockdiag needs at least one child")
    n = children[0].n
    if any(c.n != n for c in children):
        raise IncompatibleDims("blockdiag children must share the variable count")
    return InnerSymbol(
        "blockdiag",
        n,
        sum(c.input_dim for c in children),
        sum(c.output_dim for c in children),
        children=children,
    )


def product_symbol(children) -> InnerSymbol:
    children = tuple(children)
    if not children:
        raise ValueError("product needs at least one child")
    n = children[0].n
    if any(c.n != n for c in children):
        raise IncompatibleDims("product children must share the variable count")
    for left, right in zip(children, children[1:]):
        if left.input_dim != right.output_dim:
            raise IncompatibleDims(
                f"product chain mismatch: {left.input_dim} vs {right.output_dim}"
            )
    return InnerSymbol(
        "product", n, children[-1].input_dim, children[0].output_dim, children=children
    )


def charfn_symbol(f) -> InnerSymbol:
    """Wrap a built characteristic function as a symbol (in-memory only)."""
    return InnerSymbol("charfn", f.n, f.input_dim, f.output_dim, charfn=f)


def point_stack(w, n: int) -> tuple[np.ndarray, bool]:
    """A point of shape (n,) or a stack of P points of shape (P, n), as a
    (P, n) complex stack, and whether it was one point.  The shape rule of
    every evaluator: one point is a stack of one."""
    w = np.asarray(w, dtype=np.complex128)
    stack = w.reshape(1, -1) if w.ndim <= 1 else w
    if stack.ndim != 2 or stack.shape[1] != n:
        raise ShapeMismatch(f"point shape {w.shape} does not fit n={n} variables")
    return stack, w.ndim <= 1


def eval_symbol(sym: InnerSymbol, w) -> np.ndarray:
    """Value of the symbol at a point w of shape (n,), an output_dim x
    input_dim matrix, or at each point of a stack of shape (P, n), a stack of
    shape (P, output_dim, input_dim)."""
    w, single = point_stack(w, sym.n)
    out = _eval_stack(sym, w)
    return out[0] if single else out


def _cmul(a, b) -> np.ndarray:
    """Elementwise complex product with each real product rounded on its own,
    as numpy's scalar complex product rounds it.  numpy's vectorised complex
    multiply fuses a multiply and an add, so a stack evaluated with it would
    differ in the last bit from the same symbol evaluated point by point."""
    a, b = np.broadcast_arrays(as_complex(a), as_complex(b))
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _eval_stack(sym: InnerSymbol, w: np.ndarray) -> np.ndarray:
    """The symbol at each point of a (P, n) stack, shape (P, output_dim, input_dim)."""
    if sym.kind == "monomial":
        return functools.reduce(_cmul, (w ** np.array(sym.exponent)).T)[:, None, None]
    if sym.kind == "blaschke1":
        z = w[:, sym.variable]
        val = np.ones(len(w), dtype=np.complex128)
        for a in sym.zeros:
            val = _cmul(val, (z - a) / (1.0 - _cmul(np.conj(a), z)))
        return val[:, None, None]
    if sym.kind == "unitary":
        return np.broadcast_to(sym.matrix, (len(w),) + sym.matrix.shape).copy()
    if sym.kind == "blockdiag":
        out = np.zeros((len(w), sym.output_dim, sym.input_dim), dtype=np.complex128)
        ro = ci = 0
        for c in sym.children:
            out[:, ro : ro + c.output_dim, ci : ci + c.input_dim] = _eval_stack(c, w)
            ro += c.output_dim
            ci += c.input_dim
        return out
    if sym.kind == "product":
        out = _eval_stack(sym.children[0], w)
        for c in sym.children[1:]:
            out = out @ _eval_stack(c, w)
        return out
    if sym.kind == "charfn":
        return sym.charfn.eval(w)
    raise ParseError(f"unknown symbol kind {sym.kind!r}")


def reach_vector(sym: InnerSymbol) -> tuple[float, ...]:
    """Per-variable degree increase; math.inf marks unbounded (Blaschke)."""
    if sym.kind == "monomial":
        return tuple(float(e) for e in sym.exponent)
    if sym.kind == "blaschke1":
        out = [0.0] * sym.n
        if any(abs(a) > 0 for a in sym.zeros):
            out[sym.variable] = math.inf
        else:
            out[sym.variable] = float(len(sym.zeros))
        return tuple(out)
    if sym.kind == "unitary":
        return tuple(0.0 for _ in range(sym.n))
    if sym.kind == "blockdiag":
        vecs = [reach_vector(c) for c in sym.children]
        return tuple(max(v[i] for v in vecs) for i in range(sym.n))
    if sym.kind == "product":
        vecs = [reach_vector(c) for c in sym.children]
        return tuple(sum(v[i] for v in vecs) for i in range(sym.n))
    if sym.kind == "charfn":
        return tuple(math.inf for _ in range(sym.n))
    raise ParseError(f"unknown symbol kind {sym.kind!r}")


def is_constant(sym: InnerSymbol) -> bool:
    return all(r == 0 for r in reach_vector(sym))


def _blaschke_factor(a: complex, variable: int, n: int, N: int) -> tuple[dict, float, float]:
    """Taylor table of one factor (z - a)/(1 - conj(a) z) in z = z_variable up
    to degree N: coefficients -a, then (1 - |a|^2) conj(a)^(k-1).  Its l1
    coefficient norm is 1 + 2|a| and its l1 tail beyond N is (1 + |a|)|a|^N.
    Adding 0j makes every zero real or imaginary part +0, so the table's bits
    do not depend on the sign of a zero part of a."""
    coeffs = {}
    for k in range(N + 1):
        c = (-a if k == 0 else (1.0 - abs(a) ** 2) * np.conj(a) ** (k - 1)) + 0j
        if c != 0:
            coeffs[tuple(k if j == variable else 0 for j in range(n))] = np.array([[c]])
    return coeffs, 1.0 + 2.0 * abs(a), (1.0 + abs(a)) * abs(a) ** N


def cauchy_product(left: dict, right: dict, N: int) -> dict:
    """The truncated Cauchy product of two coefficient tables {beta: block}:
    block gamma of the result sums left[b1] @ right[b2] over b1 + b2 = gamma,
    for every gamma with all degrees at most N."""
    merged: dict = {}
    for b1, m1 in left.items():
        for b2, m2 in right.items():
            beta = tuple(x + y for x, y in zip(b1, b2))
            if all(b <= N for b in beta):
                merged[beta] = merged[beta] + m1 @ m2 if beta in merged else m1 @ m2
    return merged


def _series_product(left: tuple[dict, float, float], right: tuple[dict, float, float], N: int):
    """The one product rule of Taylor tables (coefficients, l1_bound,
    tail_bound) truncated at per-variable degree N: blocks multiply by the
    Cauchy product and l1 bounds multiply.  The discarded part is at most
    tail l1' + l1 tail' plus ||A_b1|| ||B_b2|| summed over the in-box pairs
    whose degree b1 + b2 passes N; exact tables (both tails 0) keep tail 0,
    since the exact window never reads the degrees they overflow into."""
    coeffs, l1, tail = left
    right_coeffs, right_l1, right_tail = right
    discarded = tail * right_l1 + l1 * right_tail
    if tail or right_tail:
        discarded += sum(spec_norm(m1) * spec_norm(m2) for b1, m1 in coeffs.items()
                         for b2, m2 in right_coeffs.items() if any(x + y > N for x, y in zip(b1, b2)))
    return cauchy_product(coeffs, right_coeffs, N), l1 * right_l1, discarded


def symbol_taylor(sym: InnerSymbol, n: int, N: int) -> tuple[dict, float, float]:
    """Matrix Taylor coefficients {beta: block} up to per-variable degree N.

    Returns (coefficients, l1_bound, tail_bound) where l1_bound dominates
    the sum of coefficient block norms and tail_bound the norm of the
    discarded part.  Products, and the zeros of a Blaschke factor, multiply
    by _series_product.
    """
    if sym.n != n:
        raise IncompatibleDims(f"symbol has n={sym.n}, space has n={n}")
    zero = tuple(0 for _ in range(n))
    if sym.kind == "monomial":
        return {sym.exponent: np.eye(1, dtype=np.complex128)}, 1.0, 0.0
    if sym.kind == "unitary":
        return {zero: sym.matrix.copy()}, 1.0, 0.0
    product = functools.partial(_series_product, N=N)
    if sym.kind == "blaschke1":
        one = ({zero: np.eye(1, dtype=np.complex128)}, 1.0, 0.0)
        return functools.reduce(product, (_blaschke_factor(a, sym.variable, n, N) for a in sym.zeros), one)
    if sym.kind == "blockdiag":
        parts = [symbol_taylor(c, n, N) for c in sym.children]
        betas = set().union(*(p[0].keys() for p in parts))
        coeffs = {}
        for beta in betas:
            block = np.zeros((sym.output_dim, sym.input_dim), dtype=np.complex128)
            ro = ci = 0
            for c, (cd, _, _) in zip(sym.children, parts):
                if beta in cd:
                    block[ro : ro + c.output_dim, ci : ci + c.input_dim] = cd[beta]
                ro += c.output_dim
                ci += c.input_dim
            coeffs[beta] = block
        l1 = max(p[1] for p in parts)
        tail = max(p[2] for p in parts)
        return coeffs, l1, tail
    if sym.kind == "product":
        return functools.reduce(product, (symbol_taylor(c, n, N) for c in sym.children))
    if sym.kind == "charfn":
        return sym.charfn.taylor_coeffs(N)
    raise ParseError(f"unknown symbol kind {sym.kind!r}")


def symbol_matrix(space: HardySpace, sym: InnerSymbol) -> tuple[np.ndarray, tuple[float, ...], float]:
    """Multiplication operator H^2_E -> H^2_{E*} between truncations.

    The domain space shares n and N with ``space`` but has coeff_dim =
    input_dim; ``space`` itself must have coeff_dim = output_dim.
    Returns (matrix, reach vector, certified coefficient tail bound).
    A model whose symbol matrix and the D x D null-space factor of its
    adjoint in quotient_model exceed BYTE_BUDGET is refused before either.
    """
    if space.coeff_dim != sym.output_dim:
        raise IncompatibleDims(
            f"space coeff_dim {space.coeff_dim} != symbol output_dim {sym.output_dim}"
        )
    refuse_over_budget(16 * space.dim * (space.mono_count * sym.input_dim + space.dim),
                       f"symbol matrix and null space at space dimension {space.dim}")
    coeffs, _, tail = symbol_taylor(sym, space.n, space.N)
    out = np.zeros((space.mono_count, sym.output_dim, space.mono_count, sym.input_dim), dtype=np.complex128)
    for beta, block in coeffs.items():
        # the coefficient block maps the z^k slots to the z^(k + beta) slots
        target = offset_ranks(space, beta)
        cols = np.flatnonzero(target >= 0)
        out[target[cols], :, cols, :] = block
    return out.reshape(space.dim, -1), reach_vector(sym), tail


def torus_grid(n: int, per_axis: int) -> np.ndarray:
    """The product grid of the points exp(2 pi i k / per_axis) on the unit
    torus, as a (per_axis^n, n) stack in itertools.product order.

    Refuses, before anything is allocated, a grid whose integer indices and
    points (8 + 16 bytes per coordinate) exceed BYTE_BUDGET."""
    if per_axis < 1:
        raise BadIndex(f"per_axis must be >= 1, got {per_axis}")
    refuse_over_budget(24 * n * int(per_axis) ** n, f"torus grid of {per_axis}^{n} points")
    angles = np.exp(2j * np.pi * np.arange(per_axis) / per_axis)
    return angles[np.indices((per_axis,) * n).reshape(n, -1).T]


def inner_residual_symbol(sym: InnerSymbol, points) -> tuple[float, tuple]:
    """Worst deviation ||Theta(z)^H Theta(z) - I|| over a (P, n) point stack,
    and the first point attaining it; a NaN residual ranks as the worst.

    The one torus-grid inner-ness evaluator: the stack is evaluated in chunks
    within STACK_BYTE_BUDGET, each chunk in one eval_symbol call.  The
    deviation is Hermitian, so its norm is its largest |eigenvalue|; a
    deviation with a non-finite entry reads NaN.  A constant symbol is
    evaluated at the first point only, which then attains the worst."""
    points, _ = point_stack(points, sym.n)
    if len(points) == 0:
        raise BadIndex("inner residual needs a nonempty point stack")
    if is_constant(sym):
        points = points[:1]
    eye = np.eye(sym.input_dim)
    item_bytes = 16 * (sym.output_dim * sym.input_dim + 2 * sym.input_dim**2)
    res = np.empty(len(points))
    for chunk in stack_chunks(len(points), item_bytes):
        val = eval_symbol(sym, points[chunk])
        dev = val.conj().swapaxes(1, 2) @ val - eye
        bad = ~np.isfinite(dev).all(axis=(1, 2))
        dev[bad] = 0.0
        res[chunk] = np.where(bad, np.nan, np.abs(np.linalg.eigvalsh(dev)).max(axis=1, initial=0.0))
    worst = int(np.argmax(res))
    return float(res[worst]), tuple(points[worst])


def check_inner(sym: InnerSymbol, grid_per_axis: int = 32) -> float:
    worst, pt = inner_residual_symbol(sym, torus_grid(sym.n, grid_per_axis))
    if not worst <= INNER_TOL:
        raise SymbolNotInner(
            f"torus-grid inner residual {worst:.3e} exceeds {INNER_TOL:.1e}", pt, worst
        )
    return worst


def symbol_to_json(sym: InnerSymbol) -> dict:
    if sym.kind == "monomial":
        return {"kind": "monomial", "n": sym.n, "exponent": list(sym.exponent)}
    if sym.kind == "blaschke1":
        return {
            "kind": "blaschke1",
            "n": sym.n,
            "variable": sym.variable,
            "zeros": complex_to_json(sym.zeros),
        }
    if sym.kind == "unitary":
        return {
            "kind": "unitary",
            "n": sym.n,
            "matrix": complex_to_json(sym.matrix),
        }
    if sym.kind in ("blockdiag", "product"):
        return {"kind": sym.kind, "n": sym.n, "children": [symbol_to_json(c) for c in sym.children]}
    raise ParseError(f"symbol kind {sym.kind!r} is not serializable")


def symbol_from_json(obj) -> InnerSymbol:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("symbol node must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        n = int_from_json(obj["n"], f"{kind!r} field 'n'", 1)
        if kind == "monomial":
            return monomial_symbol(n, [int_from_json(e, "monomial exponent entry", 0) for e in obj["exponent"]])
        if kind == "blaschke1":
            zeros = complex_from_json(obj["zeros"], (None,), "blaschke1 zeros")
            return blaschke_symbol(n, int_from_json(obj["variable"], "blaschke1 field 'variable'", 0), zeros)
        if kind == "unitary":
            return unitary_symbol(n, complex_from_json(obj["matrix"], (None, None), "unitary matrix"))
        if kind == "blockdiag":
            return blockdiag_symbol([symbol_from_json(c) for c in obj["children"]])
        if kind == "product":
            return product_symbol([symbol_from_json(c) for c in obj["children"]])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed {kind!r} symbol node: {exc}") from exc
    raise ParseError(f"unknown symbol kind {kind!r}")


# ---------------------------------------------------------------------------
# Quotient models


@dataclass(frozen=True)
class QuotientModel:
    """Truncated Beurling quotient: Q = (Theta H^2_E)^perp inside H^2_{E*}."""

    space: HardySpace
    symbol: InnerSymbol
    theta_cols: np.ndarray  # Theta e for the constants e of E: the D x input_dim block of M_Theta
    submodule_basis: Subspace
    quotient_basis: Subspace
    model_ops: tuple[np.ndarray, ...]
    exact_window: tuple[int, ...]  # per-variable degree caps, read through window_rows
    reach: tuple[float, ...]
    tail_bound: float

    @property
    def quotient_dim(self) -> int:
        return self.quotient_basis.dim


def quotient_model(
    space: HardySpace,
    sym: InnerSymbol,
    grid_per_axis: int = 32,
    window_margin: int = 1,
) -> QuotientModel:
    """Build the quotient model of an inner symbol at one truncation.

    The exact window caps variable i at N - max(reach_i, margin): the
    truncated shift corrupts the top degree in every variable, and a
    symbol of reach r pushes corruption r degrees lower.  Blaschke-bearing
    symbols get the margin-only window plus a nonzero tail bound.
    """
    check_inner(sym, grid_per_axis)
    mat, reach, tail = symbol_matrix(space, sym)
    sub = range_basis(mat)
    quot = null_space(mat.conj().T)
    ops = tuple(
        shift_apply(space, i, quot.basis, adjoint=True).conj().T @ quot.basis for i in range(space.n)
    )
    caps = []
    for r in reach:
        eff = window_margin if not math.isfinite(r) else max(int(r), window_margin)
        caps.append(space.N - eff)
    theta_cols = mat[:, : sym.input_dim].copy()  # a copy, so the model does not hold all of mat
    return QuotientModel(space, sym, theta_cols, sub, quot, ops, tuple(caps), reach, tail)


def model_tuple(model: QuotientModel, tol: float = DEFAULT_TOL) -> CTuple:
    """The model operators as a validated commuting tuple.

    Exact for graded symbols (the submodule is a monomial ideal, so the
    compressions commute on the nose); Blaschke truncation tails can break
    commutation, in which case the validation error propagates.
    """
    return validate(model.model_ops, tol)


def window_rows(model: QuotientModel, shrink: int) -> np.ndarray:
    """Selector of the rows of the model's exact window with every cap
    lowered by ``shrink``: the one construction of a model's window rows."""
    return row_mask(model.space, tuple(c - shrink for c in model.exact_window))


def window_isometry(model: QuotientModel, shrink: int = 0) -> np.ndarray:
    """Orthonormal basis V of the shrunk window in quotient coordinates, the
    range of P = Q_K^H Q_K for the window rows Q_K of Q.  One SVD Q_K^H =
    U S W^H gives P = U S^2 U^H and ||P^2 - P|| = max s^2 (1 - s^2): every s
    is 0 or 1 on a graded symbol, and past 1e-10 the window is refused.  V
    keeps the s^2 > 1/2 columns, so past that gate ||P - V V^H|| =
    max min(s^2, 1 - s^2) <= 2e-10."""
    u, s, _ = np.linalg.svd(model.quotient_basis.basis[window_rows(model, shrink)].conj().T, full_matrices=False)
    if np.max(s**2 * (1.0 - s**2), initial=0.0) > 1e-10:
        raise PolydiscError(
            "window does not project cleanly to quotient coordinates "
            "(non-graded symbol); use tail bounds instead"
        )
    return phase_fix(u[:, s**2 > 0.5])


def quotient_mask(model: QuotientModel, shrink: int = 0) -> np.ndarray:
    """The window projector in quotient coordinates, V V^H with V =
    window_isometry(model, shrink), which refuses a non-graded window."""
    v = window_isometry(model, shrink)
    return v @ v.conj().T


def wandering_subspaces(model: QuotientModel, tol: float = DEFAULT_TOL) -> dict[tuple, Subspace]:
    """W_P, the part of the submodule orthogonal to z_i S for all i in P, for
    every nonempty index set P (keyed by its ascending tuple).

    S y is orthogonal to ran M_i S iff C_i y = 0, C_i = (M_i S)^H S, so W_P is S
    times the numerical null eigenspace of G = sum_{i in P} C_i^H C_i, of the size
    of dim S (graded symbols: M_i S is a partial isometry, C_i^H C_i = S^H P_{ran
    M_i S} S).  Each term is formed once and summed in ascending i.
    """
    s, n = model.submodule_basis.basis, model.space.n
    cs = [shift_apply(model.space, i, s).conj().T @ s for i in range(n)]
    terms = [c.conj().T @ c for c in cs]
    out = {}
    for size in range(1, n + 1):
        for p in itertools.combinations(range(n), size):
            vals, vecs = herm_eig(sum(terms[i] for i in p), tol)
            keep = vals < zero_cut(vals.max(initial=0.0), TOL_RANK)
            out[p] = Subspace(model.space.dim, phase_fix(s @ vecs[:, keep]))
    return out


@dataclass(frozen=True)
class StructuralReport:
    """Windowed residuals of the model identities, with dimension readings."""

    residuals: dict[str, float]
    dims: dict[str, int]
    threshold: float

    @property
    def passed(self) -> bool:
        dims_ok = self.dims.get("wandering_effective", -1) == self.dims.get("joint_defect", -1)
        return dims_ok and all(v <= self.threshold for v in self.residuals.values())

    def worst(self) -> tuple[str, float]:
        """The largest residual and its name; ("", 0.0) for an empty report."""
        name = max(self.residuals, key=lambda k: self.residuals[k], default="")
        return name, self.residuals.get(name, 0.0)


def structural_checks(model: QuotientModel, tol: float = DEFAULT_TOL) -> StructuralReport:
    """Run the full windowed identity battery on one graded model, each
    residual gated at STRUCTURAL_THRESHOLD.

    Every residual is evaluated through the model's exact window, shrunk
    further by the degree reach of the operators inside each identity; a
    quotient-side ||P X P|| is read as ||V^H X V||, V the window_isometry,
    whose widths r_1, r_2 dims records as "window1" and "window2".
    The minimality check expects the overlap of the submodule with the
    constants to be ||Theta(0)||, since P_S e = Theta Theta(0)^* e for a
    constant e.  By the maximum modulus principle a constant lies in
    Theta H^2 iff Theta(0) attains norm 1; when ||Theta(0)|| < 1 up to
    the structural tolerance tol, the wandering space must also equal what
    the quotient reaches.
    """
    space = model.space
    n = space.n
    if model.quotient_dim == 0:
        return StructuralReport({}, {"quotient": 0}, STRUCTURAL_THRESHOLD)
    t = model_tuple(model, tol)
    q = model.quotient_basis.basis
    s = model.submodule_basis.basis
    v1, v2 = (window_isometry(model, k) for k in (1, 2))
    w21 = v1.conj().T @ v2  # V_2 = V_1 W_21: the shrink-2 window lies in the shrink-1 one
    keep0, keep1 = window_rows(model, 0), window_rows(model, 1)
    mq = [shift_apply(space, i, q) for i in range(n)]  # M_i Q
    a = [s.conj().T @ mq[i] for i in range(n)]  # S^H M_i Q
    pairs = list(itertools.permutations(range(n), 2))

    residuals: dict[str, float] = {}
    dims: dict[str, int] = {"quotient": model.quotient_dim, "window1": v1.shape[1], "window2": v2.shape[1]}

    def windowed(x, v=v1):
        """V^H X V: the window projector V V^H on both sides, in window coordinates."""
        return v.conj().T @ x @ v

    def leak(b, moves):
        """max over X in moves of ||K_1 (I - B B^H) X (K_0 B)^H|| for the window row masks
        K_0, K_1.  With K_0 B = U R a thin QR factorisation, U drops out of the norm."""
        r_h = np.linalg.qr(b[keep0], mode="r").conj().T
        return max(spec_norm((x - b @ (b.conj().T @ x))[keep1] @ r_h) for x in moves)

    # Invariance of the two halves under the (adjoint) shifts.
    residuals["submodule_invariant"] = leak(s, (shift_apply(space, i, s) for i in range(n)))
    residuals["quotient_coinvariant"] = leak(q, (shift_apply(space, i, q, adjoint=True) for i in range(n)))

    # The compressions commute on the window.
    residuals["model_ops_commute"] = max(
        (spec_norm(windowed(t[i] @ t[j] - t[j] @ t[i], v2)) for i, j in itertools.combinations(range(n), 2)),
        default=0.0,
    )

    # Defect formula: I - C_i^* C_i equals the cross-projection product.
    classical = [classical_defect_sq(t[i]) for i in range(n)]
    residuals["defect_formula"] = max(spec_norm(windowed(classical[i] - a[i].conj().T @ a[i])) for i in range(n))

    # Commutator formula: [C_j, C_i^*] through the submodule projector.
    residuals["commutator_formula"] = max(
        (spec_norm(windowed(commutator(t, i, j) - a[i].conj().T @ a[j])) for i, j in pairs),
        default=0.0,
    )

    # Beurling equivalence battery on the defect operators of the model.
    defect_sqs = [windowed(d) for d in classical]
    defect_spaces = [range_basis(d) for d in defect_sqs]
    residuals["defects_annihilate"] = max(
        (spec_norm(w21.conj().T @ defect_sqs[i] @ defect_sqs[j] @ w21) for i, j in pairs),
        default=0.0,
    )
    iso = 0.0
    invar = 0.0
    for i, j in pairs:
        basis = w21.conj().T @ defect_spaces[j].basis  # P_2 R_j = V_2 basis, read at scale 1
        moved = t[i] @ (v2 @ basis)
        iso = max(iso, spec_norm(moved.conj().T @ moved - basis.conj().T @ basis))
        invar = max(invar, containment_residual(v1.conj().T @ moved, defect_spaces[j]))
    residuals["defect_isometry"] = iso
    residuals["defect_invariance"] = invar

    # Windowed D^2_{i,C} and delta_ij, formed once for the defect spaces, the
    # inclusion check and the joint defect.  delta_ij columns stay inside D_{i,C},
    # read as the columns of delta~ V^H, those of P delta_ij P in window
    # coordinates: a column maximum depends on the basis.
    truncated = [windowed(full_truncated_defect(t, i)) for i in range(n)]
    commutators = {(i, j): windowed(joint_commutator(t, i, j)) for i, j in pairs}
    truncated_spaces = [range_basis(d) for d in truncated]
    residuals["commutator_range_inclusion"] = max(
        (containment_residual(delta @ v1.conj().T, truncated_spaces[i]) if truncated_spaces[i].dim
         else spec_norm(delta) for (i, _), delta in commutators.items()),
        default=0.0,
    )

    # Truncated defect space formula: D_{j,C} = clos(M_{z_j}^* Theta E).
    theta_cols = model.theta_cols
    residuals["truncated_defect_space_formula"] = max(  # the windowed span of the pulled columns
        projector_residual(range_basis(v1.conj().T @ (mq[j].conj().T @ theta_cols)), truncated_spaces[j])
        for j in range(n)
    )

    # Wandering subspace machinery, in the rows K_0 of the full window.
    # Truncation artifacts in the submodule live strictly above the exact
    # window (a symbol column is corrupted only when its degree overflows
    # the box); shrinking further would erase generators whose degree equals
    # the symbol reach.  z_j W_P and the splitting are read in the rows K_1
    # (``inner`` among those of K_0), padded to K_0 only to meet a K_0 span.
    # Each W_P is spanned once per window; the K_1 spans only when n >= 2.
    wander = wandering_subspaces(model, tol)
    inner = keep1[keep0]
    span0 = {p: range_basis(wp.basis[keep0]) for p, wp in wander.items()}
    span1 = {p: range_basis(wp.basis[keep1]) for p, wp in wander.items() if n >= 2}
    w_window = span0[tuple(range(n))]
    w = w_window.basis
    dims["wandering"] = w_window.dim
    residuals["wandering_equals_theta"] = projector_residual(w_window, range_basis(theta_cols[keep0]))

    wl_invar = 0.0
    wl_split = 0.0
    for pset, wp in wander.items():
        for j in sorted(set(range(n)) - set(pset)):
            shifted = shift_apply(space, j, wp.basis)[keep0] * inner[:, None]  # K_1 rows, padded to K_0
            wl_invar = max(wl_invar, containment_residual(shifted, span0[pset]))
            inside = span1[pset].basis
            z_wp = range_basis(shifted[inner]).basis
            split = range_basis(inside - z_wp @ (z_wp.conj().T @ inside))
            wl_split = max(wl_split, projector_residual(split, span1[tuple(sorted(pset + (j,)))]))
    residuals["wandering_shift_invariance"] = wl_invar
    residuals["wandering_splitting"] = wl_split

    # Projecting M_{z_j} Q onto W or onto the partial wandering space W_{j^c}
    # must agree: the two projectors coincide on that image.
    mq0 = [m[keep0] for m in mq]  # K_0 M_j Q
    wj_res = 0.0
    if n >= 2:
        for j in range(n):
            wjc = span0[tuple(i for i in range(n) if i != j)].basis
            diff = w @ (w.conj().T @ mq0[j]) - wjc @ (wjc.conj().T @ mq0[j])
            wj_res = max(wj_res, spec_norm(diff))
    residuals["wandering_projection_agreement"] = wj_res

    # Effective wandering subspace: the part reached from the quotient,
    # ran W [X_0 ... X_{n-1}] = W ran [X_0 ... X_{n-1}] since W is orthonormal.
    x_cols = [w.conj().T @ m for m in mq0]  # X_j = W^H K_0 M_j Q
    w_eff = Subspace(len(w), phase_fix(w @ range_basis(np.hstack(x_cols)).basis))
    dims["wandering_effective"] = w_eff.dim

    # Joint defect vs the Gram matrix of X_j = P_W M_{z_j}|_Q, both in window
    # coordinates; the rank is read off the singular values alone.
    joint = block_defect(truncated, commutators)
    dims["joint_defect"] = numerical_rank(np.linalg.svd(joint, compute_uv=False))
    x_window = np.hstack([x @ v1 for x in x_cols])
    residuals["joint_defect_gram_identity"] = spec_norm(joint - x_window.conj().T @ x_window)

    # Minimality: overlap of the submodule with constant vectors of E*.
    # P_S e = Theta Theta(0)^* e for a constant e, so the overlap is ||Theta(0)||.
    overlap = spec_norm(s[: space.coeff_dim])  # ||S^H e_r||: z^0 e_r sit in rows 0..coeff_dim-1
    theta0 = spec_norm(theta_cols[: space.coeff_dim])  # ||Theta(0)||: the z^0 block
    residuals["minimality_overlap_error"] = abs(overlap - theta0)
    if theta0 < 1.0 - tol:
        # No constant lies in S, so the wandering space is exactly what
        # the quotient reaches: W_eff = W as subspaces.
        residuals["wandering_effective_equals_wandering"] = projector_residual(w_eff, w_window)

    return StructuralReport(residuals, dims, STRUCTURAL_THRESHOLD)


def ahern_clark_growth(sym: InnerSymbol, n_range) -> list[int]:
    """Quotient dimensions across truncation degrees, asserted increasing.

    The strict growth of dim Q with N is the desk-scale shadow of the
    infinite-dimensionality of quotient modules in several variables;
    constant symbols (trivial quotient) and one variable are excluded.
    Each dimension is D minus the numerical rank of the symbol matrix, read
    off its singular values alone.
    """
    if sym.n < 2:
        raise ValueError("dimension growth needs at least two variables")
    if is_constant(sym):
        raise ValueError("constant symbols have trivial quotients; excluded")
    dims = []
    for n_deg in n_range:
        space = build_space(sym.n, int(n_deg), sym.output_dim)
        mat, _, _ = symbol_matrix(space, sym)
        dims.append(space.dim - numerical_rank(np.linalg.svd(mat, compute_uv=False)))
    for a, b in zip(dims, dims[1:]):
        if b <= a:
            raise PolydiscError(f"quotient dimension failed to grow: {dims}")
    return dims
