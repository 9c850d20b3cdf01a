"""Evaluation over point stacks against the point-by-point loops it replaced.

The references below are the loops CharFn.eval, eval_symbol and the
torus-grid inner check used to run one point at a time.  A stack must give
the same bits as its points taken one by one, whatever the chunking; so
must eval_raw and eval_pair_blaschke on a point stack paired with a stack
of h vectors.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polydisc.hardy
import polydisc.linalg
import polydisc.tuples
from polydisc.battery import _pair_form_gaps
from polydisc.charfn import (
    RESOLVENT_COND_LIMIT,
    build_charfn,
    coincidence_from_unitary,
    eval_onevar,
    eval_pair_blaschke,
    eval_raw,
    inner_residual,
)
from polydisc.defects import build_defects
from polydisc.errors import NotUnitary, ShapeMismatch, SingularResolvent, SymbolNotInner
from polydisc.hardy import (
    InnerSymbol,
    blaschke_symbol,
    blockdiag_symbol,
    build_space,
    charfn_symbol,
    check_inner,
    eval_symbol,
    inner_residual_symbol,
    model_tuple,
    monomial_symbol,
    product_symbol,
    quotient_mask,
    quotient_model,
    torus_grid,
    unitary_symbol,
)
from polydisc.linalg import STACK_BYTE_BUDGET, spec_norm, spec_norms
from polydisc.sampling import random_commuting_tuple, random_nodes, random_pure_contraction, random_unitary
from polydisc.tuples import CTuple, classify, is_beurling, is_pure, is_szego, szego_tuple_from_nodes, validate

# (degree, symbol) of windowed quotient models whose tuples have dim <= 6;
# the block-diagonal ones give 2 x 2 characteristic functions
MODEL_CASES = (
    (2, monomial_symbol(2, (1, 1))),
    (3, monomial_symbol(2, (1, 0))),
    (2, blockdiag_symbol([monomial_symbol(2, (1, 0)), monomial_symbol(2, (0, 1))])),
    (2, blockdiag_symbol([monomial_symbol(2, (1, 0)), monomial_symbol(2, (1, 0))])),
    (1, monomial_symbol(3, (1, 0, 0))),
)


def sample_charfn(case: int, seed: int, dim: int):
    """A characteristic function with n <= 3 and tuple dim <= 6: a pure
    contraction of size dim for case 0, else a windowed quotient model
    conjugated by a random unitary, so that its matrices are dense."""
    rng = np.random.default_rng(seed)
    if case == 0:
        return build_charfn(validate([random_pure_contraction(rng, dim)]))
    degree, sym = MODEL_CASES[case - 1]
    model = quotient_model(build_space(sym.n, degree, sym.output_dim), sym)
    mt = model_tuple(model)
    sigma = random_unitary(rng, mt.dim)
    t = validate([sigma @ m @ sigma.conj().T for m in mt])
    mask = sigma @ quotient_mask(model) @ sigma.conj().T
    return build_charfn(t, build_defects(t, mask))


def repeated_points(rng, count: int, n: int, pool: int, radius: float = 0.95) -> np.ndarray:
    """count points whose coordinates are drawn from pool values per variable."""
    values = radius * rng.random((pool, n)) * np.exp(2j * np.pi * rng.random((pool, n)))
    return values[rng.integers(0, pool, (count, n)), np.arange(n)]


def ref_eval(f, w) -> np.ndarray:
    """Theta_T(w) at one point, as the per-point loop computed it."""
    t, d = f.tuple, f.tuple.dim
    w = np.asarray(w, dtype=np.complex128)
    factors = []
    for k in range(t.n):
        fk = np.eye(d, dtype=np.complex128) - w[k] * t[k].conj().T
        cond = float(np.linalg.cond(fk))
        if not np.isfinite(cond) or cond > RESOLVENT_COND_LIMIT:
            raise SingularResolvent(k, cond)
        factors.append(fk)
    h = f.preimages
    total = np.zeros((d, h.shape[1]), dtype=np.complex128)
    for j in range(t.n):
        u = h[j * d : (j + 1) * d]
        for i in range(t.n):
            if i != j:
                u = factors[i] @ u
        total += w[j] * u - t[j] @ u
    for k in range(t.n):
        total = np.linalg.solve(factors[k], total)
    return f.output_basis.basis.conj().T @ (f.defects.first_kind[0] @ total)


def ref_eval_symbol(sym: InnerSymbol, w) -> np.ndarray:
    """The symbol at one point, as the per-point recursion computed it."""
    w = np.asarray(w, dtype=np.complex128)
    if sym.kind == "monomial":
        return np.array([[np.prod(w ** np.array(sym.exponent))]], dtype=np.complex128)
    if sym.kind == "blaschke1":
        z = w[sym.variable]
        val = 1.0 + 0.0j
        for a in sym.zeros:
            val *= (z - a) / (1.0 - np.conj(a) * z)
        return np.array([[val]])
    if sym.kind == "unitary":
        return sym.matrix.copy()
    if sym.kind == "blockdiag":
        out = np.zeros((sym.output_dim, sym.input_dim), dtype=np.complex128)
        ro = ci = 0
        for c in sym.children:
            out[ro : ro + c.output_dim, ci : ci + c.input_dim] = ref_eval_symbol(c, w)
            ro += c.output_dim
            ci += c.input_dim
        return out
    if sym.kind == "product":
        out = ref_eval_symbol(sym.children[0], w)
        for c in sym.children[1:]:
            out = out @ ref_eval_symbol(c, w)
        return out
    return ref_eval(sym.charfn, w)


def ref_inner_residual(sym: InnerSymbol, points) -> tuple[float, tuple]:
    """Worst ||Theta^H Theta - I|| over the points, one point at a time, as
    the largest |eigenvalue| of the Hermitian deviation."""
    eye = np.eye(sym.input_dim)
    worst, worst_pt = 0.0, None
    for z in points:
        val = ref_eval_symbol(sym, z)
        res = float(np.abs(np.linalg.eigvalsh(val.conj().T @ val - eye)).max())
        if worst_pt is None or res > worst:
            worst, worst_pt = res, tuple(z)
    return worst, worst_pt


def random_symbol(rng, n: int, dim: int, depth: int) -> InnerSymbol:
    """A random square grammar tree of size dim, every kind reachable."""
    kinds = ["unitary"] + (["monomial", "blaschke1"] if dim == 1 else []) + (["blockdiag", "product"] if depth else [])
    kind = kinds[rng.integers(len(kinds))]
    if kind == "monomial":
        return monomial_symbol(n, rng.integers(0, 3, n))
    if kind == "blaschke1":
        zeros = 0.9 * rng.random(rng.integers(0, 3)) * np.exp(2j * np.pi * rng.random(1))
        return blaschke_symbol(n, int(rng.integers(n)), zeros)
    if kind == "unitary":
        return unitary_symbol(n, random_unitary(rng, dim))
    if kind == "blockdiag":
        cuts = np.sort(rng.choice(np.arange(1, dim), size=rng.integers(0, dim), replace=False)) if dim > 1 else []
        sizes = np.diff(np.concatenate([[0], cuts, [dim]])).astype(int)
        return blockdiag_symbol([random_symbol(rng, n, int(s), depth - 1) for s in sizes])
    return product_symbol([random_symbol(rng, n, dim, depth - 1) for _ in range(rng.integers(1, 4))])


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, len(MODEL_CASES)), seed=st.integers(0, 2**32 - 1),
       dim=st.integers(1, 6), count=st.integers(1, 12), pool=st.integers(1, 4))
def test_charfn_stack_equals_points(case, seed, dim, count, pool):
    f = sample_charfn(case, seed, dim)
    w = repeated_points(np.random.default_rng(seed + 1), count, f.n, pool)
    stack = f.eval(w)
    assert stack.shape == (count, f.output_dim, f.input_dim)
    for p in range(count):
        one = f.eval(w[p])
        np.testing.assert_array_equal(stack[p], one)
        np.testing.assert_array_equal(one, ref_eval(f, w[p]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), dim=st.integers(1, 4),
       depth=st.integers(0, 3), count=st.integers(1, 12), pool=st.integers(1, 4))
def test_symbol_stack_equals_points(seed, n, dim, depth, count, pool):
    rng = np.random.default_rng(seed)
    sym = random_symbol(rng, n, dim, depth)
    w = repeated_points(rng, count, n, pool)
    stack = eval_symbol(sym, w)
    for p in range(count):
        np.testing.assert_array_equal(stack[p], eval_symbol(sym, w[p]))
        np.testing.assert_array_equal(stack[p], ref_eval_symbol(sym, w[p]))
    assert inner_residual_symbol(sym, w) == ref_inner_residual(sym, w)


@pytest.mark.parametrize("case", range(len(MODEL_CASES) + 1))
def test_charfn_symbol_grid_equals_points(case):
    f = sample_charfn(case, 7, 3)
    grid = torus_grid(f.n, 6)
    sym = charfn_symbol(f)
    np.testing.assert_array_equal(eval_symbol(sym, grid), [ref_eval(f, z) for z in grid])
    assert inner_residual_symbol(sym, grid) == ref_inner_residual(sym, grid)
    assert inner_residual(f, grid) == ref_inner_residual(sym, grid)[0]


def test_onevar_stack_equals_points():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 5):
        f = build_charfn(validate([random_pure_contraction(rng, dim)]))
        w = repeated_points(rng, 9, 1, 3)
        stack = eval_onevar(f, w)
        for p in range(len(w)):
            np.testing.assert_array_equal(stack[p], eval_onevar(f, w[p]))


def test_stack_longer_than_a_chunk(monkeypatch):
    f = sample_charfn(1, 3, 0)
    w = repeated_points(np.random.default_rng(2), 40, f.n, 5)
    sym = blockdiag_symbol([charfn_symbol(f), blaschke_symbol(f.n, 1, [0.4 - 0.2j])])
    whole, residual = f.eval(w), inner_residual_symbol(sym, w)
    monkeypatch.setattr(polydisc.linalg, "STACK_BYTE_BUDGET", 1000)  # a few points per chunk
    np.testing.assert_array_equal(f.eval(w), whole)
    np.testing.assert_array_equal(f.eval(w), [ref_eval(f, z) for z in w])
    assert inner_residual_symbol(sym, w) == residual == ref_inner_residual(sym, w)


def test_singular_point_raises_first_failure_of_the_loop():
    """A charfn whose tuple is swapped for diagonal contractions with known
    eigenvalues: the factor of variable k is singular where w_k is 1/conj(lambda)."""
    f = sample_charfn(1, 5, 0)
    lam = np.array([[0.9, 0.5, -0.2, 0.1, 0.3], [0.1j, -0.8, 0.5, 0.2, 0.4]])[:, : f.tuple.dim]
    g = dataclasses.replace(f, tuple=validate([np.diag(x) for x in lam]))
    regular = [0.3, -0.2j]
    w = np.array([regular, regular, [0.2, 1 / np.conj(lam[1, 1])], [1 / lam[0, 0], 1 / np.conj(lam[1, 1])]])
    with pytest.raises(SingularResolvent) as loop:
        [ref_eval(g, z) for z in w]
    with pytest.raises(SingularResolvent) as stack:
        g.eval(w)
    assert (stack.value.k, stack.value.cond) == (loop.value.k, loop.value.cond) == (1, loop.value.cond)
    with pytest.raises(SingularResolvent) as first_var:
        g.eval(w[3:])  # both factors singular at one point: variable 0 first
    assert first_var.value.k == 0


def gate_case(name: str):
    """(CharFn, point stack) pairs on which the bounded resolvent gate must
    agree with the exact per-point cond gate of ref_eval."""
    rng = np.random.default_rng(12)
    if name.startswith("contraction"):
        g = random_pure_contraction(rng, 4)
        f = build_charfn(validate([g * (float(name.split("-")[1]) / spec_norm(g))]))
    elif name == "shift-model":
        f = sample_charfn(1, 3, 0)
    else:
        # the diagonal tuples of test_singular_point_raises_first_failure_of_the_loop,
        # and one with an eigenvalue on the torus, singular at a grid point
        f = sample_charfn(1, 5, 0)
        lam = np.array([[0.9, 0.5, -0.2, 0.1, 0.3], [0.1j, -0.8, 0.5, 0.2, 0.4]])
        if name == "diagonal-torus":
            lam[1, 1] = torus_grid(1, 8)[3, 0]
        f = dataclasses.replace(f, tuple=validate([np.diag(x) for x in lam[:, : f.tuple.dim]]))
    grid = torus_grid(f.n, 8)
    interior = repeated_points(rng, 12, f.n, 12, radius=0.999)
    return f, {"interior": interior, "grid": grid, "mixed": np.concatenate([interior, grid])}


def gate_outcome(evaluate):
    try:
        return evaluate()
    except SingularResolvent as exc:
        return (exc.k, exc.cond)


@pytest.mark.parametrize("points", ["interior", "grid", "mixed"])
@pytest.mark.parametrize("name", ["contraction-0.5", "contraction-0.95", "contraction-1.0",
                                  "shift-model", "diagonal", "diagonal-torus"])
def test_bounded_gate_agrees_with_the_exact_gate(name, points):
    f, stacks = gate_case(name)
    w = stacks[points]
    stack = gate_outcome(lambda: f.eval(w))
    loop = gate_outcome(lambda: np.array([ref_eval(f, z) for z in w]))
    if isinstance(loop, tuple):
        assert stack == loop
    else:
        np.testing.assert_array_equal(stack, loop)
    if name == "diagonal-torus" and points != "interior":
        assert loop[0] == 1


def sample_pair(kind: int, seed: int, dim: int):
    """A Szego pair of size dim: exactly commuting contractions (kind 0) or
    the compression tuple of dim kernel nodes (kind 1), as in c04."""
    rng = np.random.default_rng(seed)
    if kind == 0:
        return validate(random_commuting_tuple(rng, 2, dim, norm_max=0.65))
    return szego_tuple_from_nodes(random_nodes(rng, dim, 2))


def random_h(rng, count: int, t) -> np.ndarray:
    return rng.standard_normal((count, 2 * t.dim)) + 1j * rng.standard_normal((count, 2 * t.dim))


@settings(max_examples=40, deadline=None)
@given(kind=st.integers(0, 1), seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       count=st.integers(1, 12), pool=st.integers(1, 4))
def test_pair_forms_stack_equal_points(kind, seed, dim, count, pool):
    t = sample_pair(kind, seed, dim)
    rng = np.random.default_rng(seed + 1)
    z = repeated_points(rng, count, 2, pool, radius=0.9)
    h = random_h(rng, count, t)
    for fn in (eval_raw, eval_pair_blaschke):
        stack = fn(t, z, h)
        assert stack.shape == (count, dim)
        for p in range(count):
            np.testing.assert_array_equal(stack[p], fn(t, z[p], h[p]))


def test_pair_forms_stack_longer_than_a_chunk(monkeypatch):
    t = sample_pair(0, 3, 4)
    rng = np.random.default_rng(8)
    z, h = repeated_points(rng, 30, 2, 6), random_h(rng, 30, t)
    whole = [eval_raw(t, z, h), eval_pair_blaschke(t, z, h)]
    monkeypatch.setattr(polydisc.linalg, "STACK_BYTE_BUDGET", 1000)  # a few points per chunk
    np.testing.assert_array_equal(eval_raw(t, z, h), whole[0])
    np.testing.assert_array_equal(eval_pair_blaschke(t, z, h), whole[1])


def test_pair_forms_h_stack_must_match_points():
    t = sample_pair(1, 2, 3)
    rng = np.random.default_rng(0)
    z = repeated_points(rng, 5, 2, 5)
    for fn in (eval_raw, eval_pair_blaschke):
        with pytest.raises(ShapeMismatch):
            fn(t, z, random_h(rng, 4, t))  # one h short
        with pytest.raises(ShapeMismatch):
            fn(t, z, random_h(rng, 6, t))  # one h too many
        with pytest.raises(ShapeMismatch):
            fn(t, z[:1], random_h(rng, 1, t)[0])  # a stack of one point takes a stack of h


def test_pair_forms_raise_first_failure_of_the_loop():
    """Diagonal contractions with known eigenvalues: the factor of variable k
    is singular where z_k is 1/conj(lambda)."""
    lam = np.array([[0.9, 0.5, -0.2], [0.1j, -0.8, 0.5]])
    t = validate([np.diag(x) for x in lam])
    regular = [0.3, -0.2j]
    z = np.array([regular, regular, [0.2, 1 / np.conj(lam[1, 1])], [1 / lam[0, 0], 1 / np.conj(lam[1, 1])]])
    h = random_h(np.random.default_rng(1), len(z), t)
    for fn in (eval_raw, eval_pair_blaschke):
        with pytest.raises(SingularResolvent) as loop:
            [fn(t, zp, hp) for zp, hp in zip(z, h)]
        with pytest.raises(SingularResolvent) as stack:
            fn(t, z, h)
        assert (stack.value.k, stack.value.cond) == (loop.value.k, loop.value.cond) == (1, loop.value.cond)
        with pytest.raises(SingularResolvent) as first_var:
            fn(t, z[3:], h[3:])  # both factors singular at one point: variable 0 first
        assert first_var.value.k == 0


@pytest.mark.parametrize("kind", [0, 1])
def test_pair_form_gaps_match_the_point_loop(kind):
    """c04 draws z, then h, point by point, as its per-point loop did, and
    reads the same norms from one stacked call of each form."""
    t = sample_pair(kind, 11, 4)
    rng = np.random.default_rng(12)
    loop = []
    for _ in range(20):
        z = 0.9 * rng.random(2) * np.exp(2j * np.pi * rng.random(2))
        h = rng.standard_normal(2 * t.dim) + 1j * rng.standard_normal(2 * t.dim)
        loop.append(float(np.linalg.norm(eval_raw(t, z, h) - eval_pair_blaschke(t, z, h))))
    assert _pair_form_gaps(t, np.random.default_rng(12)) == loop


def test_pair_identity_fails_for_a_noncommuting_pair():
    """The two forms agree only because the resolvent factors commute: a
    non-commuting pair with a PSD Szego inverse (built past validate) takes
    the batched c04 difference over its unchanged 1e-11 gate."""
    rng = np.random.default_rng(6)
    a, b = (0.4 * random_pure_contraction(rng, 3, norm_max=1.0) for _ in range(2))
    assert spec_norm(a @ b - b @ a) > 1e-3
    t = CTuple(2, 3, (a, b))
    assert max(_pair_form_gaps(t, np.random.default_rng(42))) > 1e-11
    assert max(_pair_form_gaps(sample_pair(0, 6, 3), np.random.default_rng(42))) < 1e-11


def test_inner_check_memory_stays_within_budget():
    sym = unitary_symbol(3, random_unitary(np.random.default_rng(0), 40))
    grid = torus_grid(3, 32)
    tracemalloc.start()
    try:
        worst = check_inner(sym)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst <= 1e-13
    # a constant symbol is evaluated at one point; over the whole grid its
    # Gram stack alone would be 32^3 * 40^2 * 16 bytes, about 840 MB
    assert peak < 4 * STACK_BYTE_BUDGET + grid.nbytes


def test_inner_check_memory_nonconstant_symbol():
    # a 40 x 40 symbol that depends on the point, so every grid point is evaluated
    u = random_unitary(np.random.default_rng(1), 40)
    sym = product_symbol([unitary_symbol(3, u), blockdiag_symbol([monomial_symbol(3, (1, 0, 2))] * 40)])
    grid = torus_grid(3, 12)
    tracemalloc.start()
    try:
        worst = check_inner(sym, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst <= 1e-13
    # unchunked, the Gram stack alone would be 12^3 * 40^2 * 16 bytes, about 44 MB
    assert peak < 4 * STACK_BYTE_BUDGET + grid.nbytes


def test_inner_residual_is_the_spectral_norm():
    # off the torus the residual is of order one: the Hermitian eigenvalue
    # reading agrees with the SVD norm at every point to roundoff
    rng = np.random.default_rng(12)
    for dim, depth in ((1, 2), (2, 2), (5, 3)):
        sym = random_symbol(rng, 2, dim, depth)
        w = repeated_points(rng, 9, 2, 9)
        vals = eval_symbol(sym, w)
        svd = [spec_norm(v.conj().T @ v - np.eye(dim)) for v in vals]
        assert inner_residual_symbol(sym, w)[0] == pytest.approx(max(svd), rel=1e-13, abs=1e-15)


def test_constant_symbol_evaluated_once(monkeypatch):
    rng = np.random.default_rng(6)
    sym = product_symbol([unitary_symbol(2, random_unitary(rng, 3)), unitary_symbol(2, random_unitary(rng, 3))])
    grid = torus_grid(2, 16)
    seen = []

    def counted(s, w, _original=polydisc.hardy.eval_symbol):
        seen.append(len(w))
        return _original(s, w)

    monkeypatch.setattr(polydisc.hardy, "eval_symbol", counted)
    worst, point = inner_residual_symbol(sym, grid)
    assert seen == [1] and point == tuple(grid[0])
    monkeypatch.undo()
    assert (worst, point) == ref_inner_residual(sym, grid)


def test_torus_grid_is_product_order():
    for n, m in ((1, 6), (2, 5), (3, 4)):
        angles = [np.exp(2j * np.pi * k / m) for k in range(m)]
        grid = torus_grid(n, m)
        assert grid.shape == (m**n, n)
        np.testing.assert_array_equal(grid, list(itertools.product(np.exp(2j * np.pi * np.arange(m) / m), repeat=n)))
        np.testing.assert_allclose(grid, list(itertools.product(angles, repeat=n)), atol=1e-15)


def test_nan_residual_fails_the_gate():
    # at 1e200 the Gram entry overflows to inf and its spectral norm is NaN;
    # NaN ranks as the worst residual, even next to a larger finite one
    with np.errstate(over="ignore", invalid="ignore"):
        worst, point = inner_residual_symbol(monomial_symbol(1, (1,)), [[2.0], [1e200], [0.5]])
        assert np.isnan(worst) and point == (1e200,)
        bogus = InnerSymbol("unitary", 1, 1, 1, matrix=np.array([[1e200 + 0j]]))
        with pytest.raises(SymbolNotInner):
            check_inner(bogus, 8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotUnitary):
        unitary_symbol(1, [[1e200]])  # U U^H overflows, so the residual is NaN
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotUnitary):
        coincidence_from_unitary(validate([np.array([[0.5]])]), [[1e200]])


def test_spec_norms_match_spec_norm():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 3, 4)) + 1j * rng.standard_normal((7, 3, 4))
    np.testing.assert_array_equal(spec_norms(a), [spec_norm(x) for x in a])
    assert spec_norms(np.zeros((5, 0, 2))).tolist() == [0.0] * 5


def test_classify_computes_each_object_once(monkeypatch):
    calls = {"szego_inverse": 0, "spectral_radii": 0}
    for name in calls:
        original = getattr(polydisc.tuples, name)

        def counted(t, _original=original, _name=name):
            calls[_name] += 1
            return _original(t)

        monkeypatch.setattr(polydisc.tuples, name, counted)
    t = validate([random_pure_contraction(np.random.default_rng(9), 4), np.zeros((4, 4))])
    c = classify(t)
    assert calls == {"szego_inverse": 1, "spectral_radii": 1}
    monkeypatch.undo()
    assert (c.is_pure, c.spectral_radii) == is_pure(t)
    assert (c.is_szego, c.szego_min_eig) == is_szego(t)
    assert (c.is_beurling, c.beurling_residual) == (is_beurling(t).holds, is_beurling(t).residual)
