import collections
import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import polydisc.hardy
from polydisc.errors import (
    BadIndex,
    DimensionOverflow,
    IncompatibleDims,
    NotUnitary,
    ParseError,
    PolydiscError,
    SymbolNotInner,
)
from polydisc.hardy import (
    InnerSymbol,
    ahern_clark_growth,
    blaschke_symbol,
    blockdiag_symbol,
    build_space,
    check_inner,
    eval_symbol,
    gather_blocks,
    inner_residual_symbol,
    is_constant,
    model_tuple,
    monomial_symbol,
    offset_ranks,
    product_symbol,
    quotient_mask,
    quotient_model,
    reach_vector,
    row_mask,
    shift_apply,
    structural_checks,
    symbol_from_json,
    symbol_matrix,
    symbol_taylor,
    symbol_to_json,
    torus_grid,
    unitary_symbol,
    wandering_subspaces,
    window_isometry,
    window_rows,
)
from polydisc.cli import main
from polydisc.linalg import (
    Subspace,
    containment_residual,
    null_space,
    phase_fix,
    projector_residual,
    range_basis,
    spec_norm,
)
from polydisc.tuples import classical_defect_sq


def dense_shift(space, i):
    """The D x D matrix of M_{z_i}, read off its action on the identity."""
    return shift_apply(space, i, np.eye(space.dim))


def monomials(space):
    """The exponents of the space in rank order, as tuples."""
    return [tuple(k) for k in space.exps.tolist()]


def restriction(big, small):
    """Isometric inclusion of a lower-degree truncation into a higher one."""
    rows = big.position(small.exps, 0)[:, None] + np.arange(small.coeff_dim)
    return np.eye(big.dim)[:, rows.ravel()]


def test_build_space_dims_and_order():
    s = build_space(1, 3, 1)
    assert s.dim == 4
    assert monomials(s) == [(0,), (1,), (2,), (3,)]
    assert build_space(2, 2, 1).dim == 9
    assert build_space(2, 2, 3).dim == 27
    s2 = build_space(2, 2, 1)
    monos = monomials(s2)
    degrees = [sum(k) for k in monos]
    assert degrees == sorted(degrees)  # graded ordering
    assert monos[0] == (0, 0)
    # lexicographic within a degree
    assert monos.index((0, 1)) < monos.index((1, 0))


def test_build_space_overflow_and_bad_args():
    # 4001^2 monomials: the index arrays need 8 * 4001^2 * 7 bytes, 855 MiB,
    # over BYTE_BUDGET, refused before the exponent box exists
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflow):
            build_space(2, 4000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    for args in ((0, 2, 1), (2, 0, 1), (2, 2, 0)):
        with pytest.raises(BadIndex):
            build_space(*args)


def test_torus_grid_refused_before_allocating():
    # 10^7 points per axis at n = 3 would need 10^21 points; 200^3 points
    # (8 x 10^6) need 549 MiB of indices and points, over BYTE_BUDGET
    tracemalloc.start()
    try:
        for n, per_axis in ((3, 10**7), (3, 200), (2, 3000)):
            with pytest.raises(DimensionOverflow):
                torus_grid(n, per_axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert torus_grid(3, 150).shape == (150**3, 3)  # 232 MiB: inside the budget


def test_build_space_keeps_only_the_index_arrays():
    # D = 10^6: the exps and rank_of arrays take 30.5 MiB;
    # a second copy of the exponents as Python tuples kept 99 MiB
    tracemalloc.start()
    try:
        space = build_space(3, 99, 1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert space.mono_count == 100**3
    assert kept < 40 * 2**20


def test_shift_matrix_one_variable():
    s = build_space(1, 2, 1)
    m = dense_shift(s, 0)
    e = np.eye(3)
    np.testing.assert_allclose(m @ e[:, 0], e[:, 1], atol=0)
    np.testing.assert_allclose(m @ e[:, 2], np.zeros(3), atol=0)
    with pytest.raises(BadIndex):
        shift_apply(s, 1, e)


def test_shifts_doubly_commute_on_window():
    s = build_space(2, 3, 1)
    m1, m2 = dense_shift(s, 0), dense_shift(s, 1)
    np.testing.assert_allclose(m1 @ m2, m2 @ m1, atol=0)
    keep = row_mask(s, 2)
    cross = m1.conj().T @ m2 - m2 @ m1.conj().T
    assert spec_norm(cross[np.ix_(keep, keep)]) <= 1e-14


def test_shift_adjoint_defect_is_top_projector():
    s = build_space(2, 3, 1)
    for i in range(2):
        m = dense_shift(s, i)
        defect = np.eye(s.dim) - m.conj().T @ m
        expected = np.zeros(s.dim)
        for k in monomials(s):
            if k[i] == s.N:
                expected[s.position(k, 0)] = 1.0
        np.testing.assert_allclose(defect, np.diag(expected), atol=1e-14)


def test_window_mask_projector():
    s = build_space(2, 3, 2)
    keep = row_mask(s, (2, 1))
    assert keep.dtype == bool and keep.shape == (s.dim,)
    assert keep.sum() == 3 * 2 * 2  # k1 <= 2, k2 <= 1, both coeff slots
    monos = monomials(s)
    for pos in np.flatnonzero(keep):
        k = monos[pos // s.coeff_dim]
        assert k[0] <= 2 and k[1] <= 1
    assert not row_mask(s, (-1, 3)).any()
    assert row_mask(s, 3).all()
    with pytest.raises(ValueError):
        row_mask(s, (1, 2, 3))


def test_restriction_matrix_isometry():
    small = build_space(2, 2, 2)
    big = build_space(2, 4, 2)
    r = restriction(big, small)
    np.testing.assert_allclose(r.conj().T @ r, np.eye(small.dim), atol=0)
    for k in monomials(small):
        for c in range(small.coeff_dim):
            assert r[big.position(k, c), small.position(k, c)] == 1.0


def test_symbol_constructors_and_predicates():
    mono = monomial_symbol(2, (1, 0))
    bla = blaschke_symbol(1, 0, [0.5])
    uni = unitary_symbol(2, np.eye(2))
    assert is_constant(uni) and not is_constant(mono)
    assert reach_vector(mono) == (1.0, 0.0)
    assert reach_vector(bla)[0] == np.inf
    assert reach_vector(monomial_symbol(2, (2, 1))) == (2.0, 1.0)
    prod = product_symbol([mono, monomial_symbol(2, (0, 1))])
    assert reach_vector(prod) == (1.0, 1.0)
    diag = blockdiag_symbol([monomial_symbol(2, (1, 1)), unitary_symbol(2, np.eye(1))])
    assert reach_vector(diag) == (1.0, 1.0)
    assert diag.input_dim == 2 and diag.output_dim == 2
    with pytest.raises(BadIndex):
        monomial_symbol(2, (1,))
    with pytest.raises(ValueError):
        blaschke_symbol(1, 0, [1.5])
    with pytest.raises(NotUnitary):
        unitary_symbol(1, [[0.5]])
    with pytest.raises(IncompatibleDims):
        product_symbol([diag, blockdiag_symbol([monomial_symbol(2, (1, 0))])])


def test_eval_symbol_values():
    w = np.array([0.3 + 0.1j, -0.2j])
    mono = monomial_symbol(2, (2, 1))
    np.testing.assert_allclose(eval_symbol(mono, w), [[w[0] ** 2 * w[1]]], atol=1e-15)
    a = 0.5 + 0.2j
    bla = blaschke_symbol(2, 1, [a])
    expected = (w[1] - a) / (1 - np.conj(a) * w[1])
    np.testing.assert_allclose(eval_symbol(bla, w), [[expected]], atol=1e-15)
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(eval_symbol(unitary_symbol(2, u), w), u, atol=0)
    diag = blockdiag_symbol([mono, unitary_symbol(2, np.eye(1))])
    val = eval_symbol(diag, w)
    assert val.shape == (2, 2)
    np.testing.assert_allclose(val, np.diag([w[0] ** 2 * w[1], 1.0]), atol=1e-15)
    prod = product_symbol([mono, bla])
    np.testing.assert_allclose(
        eval_symbol(prod, w), eval_symbol(mono, w) * eval_symbol(bla, w), atol=1e-15
    )


def fft_taylor_coeffs(sym, n_coeffs, radius=0.8, samples=512):
    """Independent 1-d Taylor coefficients via scaled FFT on a circle."""
    theta = 2 * np.pi * np.arange(samples) / samples
    vals = np.array([eval_symbol(sym, [radius * np.exp(1j * t)])[0, 0] for t in theta])
    raw = np.fft.fft(vals) / samples
    return raw[:n_coeffs] / radius ** np.arange(n_coeffs)


def test_blaschke_taylor_against_fft():
    a = 0.5 - 0.3j
    sym = blaschke_symbol(1, 0, [a])
    space = build_space(1, 12, 1)
    mat, _, tail = symbol_matrix(space, sym)
    # first column of the matrix holds the Taylor coefficients of b
    got = mat[:, 0]
    oracle = fft_taylor_coeffs(sym, 13)
    np.testing.assert_allclose(got, oracle, atol=1e-12)
    assert tail >= abs(oracle[12]) * 0.1  # certified bound is not fake


def test_two_factor_blaschke_taylor():
    sym = blaschke_symbol(1, 0, [0.4, -0.3 + 0.2j])
    space = build_space(1, 15, 1)
    mat, _, tail = symbol_matrix(space, sym)
    oracle = fft_taylor_coeffs(sym, 16)
    np.testing.assert_allclose(mat[:, 0], oracle, atol=1e-12)
    assert 0 < tail < 1.0


def long_series(zeros, terms=4000):
    """The Taylor coefficients of prod_a (z - a)/(1 - conj(a) z) to degree
    terms - 1, by convolving the closed-form series of each factor."""
    out = np.ones(1, dtype=complex)
    for a in zeros:
        factor = (1 - abs(a) ** 2) * np.conj(a) ** (np.arange(terms) - 1.0)
        factor[0] = -a
        out = np.convolve(out, factor)[:terms]
    return out


@pytest.mark.parametrize("zeros, degree, want", [([0.5, 0.5], 3, 1.34765625), ([0.3, -0.4j], 2, 1.196)])
def test_product_tail_bounds_the_discarded_coefficients(zeros, degree, want):
    # The l1 mass of the product's coefficients beyond the box, from a
    # 4000-term convolution, is at most the certified tail: 0.9375 and 0.621
    # here.  Without the in-box pairs whose degree passes N the tails read
    # 0.75 and 0.569, below that mass.
    _, _, tail = symbol_taylor(blaschke_symbol(1, 0, zeros), 1, degree)
    beyond = float(np.abs(long_series(zeros)[degree + 1 :]).sum())
    assert beyond <= tail
    assert tail == pytest.approx(want, abs=1e-3)


def test_product_tail_stays_zero_for_exact_tables():
    # Graded products overflow the box without a tail: the exact window
    # keeps those degrees out of every reading.
    for sym in (product_symbol([monomial_symbol(2, (1, 1)), monomial_symbol(2, (1, 0))]),
                product_symbol([blaschke_symbol(2, 0, [0.0, 0.0]), monomial_symbol(2, (2, 1))])):
        assert symbol_taylor(sym, 2, 2)[2] == 0.0


def test_symbol_matrix_monomial_is_shift():
    s = build_space(2, 4, 1)
    mat, reach, tail = symbol_matrix(s, monomial_symbol(2, (1, 0)))
    np.testing.assert_allclose(mat, dense_shift(s, 0), atol=0)
    assert reach == (1.0, 0.0) and tail == 0.0


def test_symbol_matrix_unitary_is_kron():
    s = build_space(2, 2, 2)
    u = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    mat, reach, tail = symbol_matrix(s, unitary_symbol(2, u))
    np.testing.assert_allclose(mat, np.kron(np.eye(s.mono_count), u), atol=0)
    assert reach == (0.0, 0.0) and tail == 0.0


def test_symbol_matrix_dim_mismatch():
    s = build_space(2, 2, 3)
    with pytest.raises(IncompatibleDims):
        symbol_matrix(s, monomial_symbol(2, (1, 0)))


def test_inner_residual_and_gate():
    assert inner_residual_symbol(monomial_symbol(2, (1, 1)), torus_grid(2, 8))[0] <= 1e-14
    assert inner_residual_symbol(blaschke_symbol(1, 0, [0.5, 0.3j]), torus_grid(1, 16))[0] <= 1e-13
    check_inner(monomial_symbol(1, (2,)), 8)
    bogus = InnerSymbol("unitary", 1, 1, 1, matrix=np.array([[0.5 + 0j]]))
    with pytest.raises(SymbolNotInner) as exc:
        check_inner(bogus, 8)
    assert exc.value.residual == pytest.approx(0.75)


def test_symbol_json_round_trip():
    sym = blockdiag_symbol(
        [
            product_symbol([monomial_symbol(2, (1, 0)), blaschke_symbol(2, 1, [0.3 + 0.1j])]),
            unitary_symbol(2, np.array([[0.0, 1.0], [1.0, 0.0]])),
        ]
    )
    back = symbol_from_json(symbol_to_json(sym))
    w = np.array([0.2 - 0.1j, 0.4j])
    np.testing.assert_allclose(eval_symbol(back, w), eval_symbol(sym, w), atol=0)


def test_symbol_json_errors():
    with pytest.raises(ParseError):
        symbol_from_json({"kind": "mystery", "n": 1})
    with pytest.raises(ParseError):
        symbol_from_json({"kind": "monomial", "n": 2})
    with pytest.raises(ParseError):
        symbol_from_json([])


def test_quotient_model_z1():
    n_deg = 5
    s = build_space(2, n_deg, 1)
    m = quotient_model(s, monomial_symbol(2, (1, 0)))
    assert m.quotient_dim == n_deg + 1
    # quotient = span of pure z2 powers
    expected = np.zeros((s.dim, n_deg + 1), dtype=complex)
    for b in range(n_deg + 1):
        expected[s.position((0, b), 0), b] = 1.0
    assert projector_residual(m.quotient_basis, Subspace(s.dim, expected)) <= 1e-12
    c1, c2 = m.model_ops
    assert spec_norm(c1) <= 1e-12
    assert np.allclose(np.linalg.matrix_power(c2, n_deg + 1), 0, atol=1e-12)
    assert spec_norm(c2) == pytest.approx(1.0, abs=1e-12)
    assert m.exact_window == (n_deg - 1, n_deg - 1)


def test_quotient_model_constant_unitary():
    s = build_space(2, 3, 2)
    m = quotient_model(s, unitary_symbol(2, np.eye(2)))
    assert m.quotient_dim == 0
    report = structural_checks(m)
    assert report.passed and report.residuals == {}
    assert report.worst() == ("", 0.0)


def test_quotient_model_z1z2_dimension():
    n_deg = 4
    s = build_space(2, n_deg, 1)
    m = quotient_model(s, monomial_symbol(2, (1, 1)))
    assert m.quotient_dim == 2 * n_deg + 1
    mono_in_ideal = [k for k in monomials(s) if k[0] >= 1 and k[1] >= 1]
    assert m.submodule_basis.dim == len(mono_in_ideal)


def test_model_tuple_and_mask_graded():
    s = build_space(2, 4, 1)
    m = quotient_model(s, monomial_symbol(2, (1, 1)))
    t = model_tuple(m)
    assert t.n == 2 and t.dim == m.quotient_dim
    mask = quotient_mask(m, 0)
    np.testing.assert_allclose(mask @ mask, mask, atol=1e-12)
    smaller = quotient_mask(m, 1)
    assert np.trace(smaller).real < np.trace(mask).real


def test_quotient_mask_rejects_nongraded():
    # deep enough truncation that the numerical quotient captures the
    # Blaschke kernel vector, which is not a coordinate subspace; a deep
    # shrink then exposes its tail mass and the transported window stops
    # being a projector
    s = build_space(1, 20, 1)
    m = quotient_model(s, blaschke_symbol(1, 0, [0.3]))
    assert m.quotient_dim == 1
    with pytest.raises(PolydiscError):
        quotient_mask(m, 12)


@pytest.mark.parametrize("in_q, in_s", [((0, 0), (2, 6)), ((0, 6), (2, 1))], ids=["s-near-1", "s-near-0"])
def test_window_isometry_spans_the_nearest_projector(in_q, in_s):
    # Q rotated by theta from z^in_q (a monomial of Q) towards z^in_s (one of
    # S), one in the shrink-1 window (caps (3, 4)) and one not: Q_K gets a
    # singular value cos theta or sin theta.  Past the 1e-10 gate V V^H is
    # within 2e-10 of the mask, so a singular value near 0 is not kept as
    # window, whatever the rank cut.
    model = quotient_model(build_space(2, 6, 1), monomial_symbol(2, (2, 1)))
    space, q = model.space, model.quotient_basis.basis
    a, b = space.position(in_q, 0), space.position(in_s, 0)
    for theta, refused in ((1e-6, False), (1e-3, True)):
        rotation = np.eye(space.dim, dtype=complex)
        rotation[np.ix_([a, b], [a, b])] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        broken = dataclasses.replace(model, quotient_basis=Subspace(space.dim, rotation @ q))
        if refused:
            with pytest.raises(PolydiscError):
                window_isometry(broken, 1)
            continue
        v = window_isometry(broken, 1)
        assert v.shape[1] == window_isometry(model, 1).shape[1]
        q_k = broken.quotient_basis.basis[window_rows(broken, 1)]
        assert spec_norm(q_k.conj().T @ q_k - v @ v.conj().T) <= 2e-10


def test_wandering_subspace_examples():
    n_deg = 5
    s = build_space(2, n_deg, 1)
    m = quotient_model(s, monomial_symbol(2, (1, 0)))
    w = wandering_subspaces(m)[(0, 1)]
    zvec = np.zeros((s.dim, 1), dtype=complex)
    zvec[s.position((1, 0), 0), 0] = 1.0
    keep = row_mask(s, n_deg - 2)
    windowed = range_basis(w.basis[keep])
    assert windowed.dim == 1
    assert containment_residual(zvec[keep], windowed) <= 1e-10

    mu = quotient_model(s_small := build_space(2, 3, 2), unitary_symbol(2, np.eye(2)))
    w_const = wandering_subspaces(mu)[(0, 1)]
    assert w_const.dim == 2  # the constants of the coefficient space
    consts = np.zeros((s_small.dim, 2), dtype=complex)
    consts[s_small.position((0, 0), 0), 0] = 1.0
    consts[s_small.position((0, 0), 1), 1] = 1.0
    assert projector_residual(w_const, Subspace(s_small.dim, consts)) <= 1e-10

    mzz = quotient_model(s, monomial_symbol(2, (1, 1)))
    w1 = wandering_subspaces(mzz)[(0,)]
    window = row_mask(s, n_deg - 2)
    got = range_basis(w1.basis[window])
    expected_cols = []
    for b in range(1, n_deg - 1):
        v = np.zeros(s.dim, dtype=complex)
        v[s.position((1, b), 0)] = 1.0
        expected_cols.append(v)
    expected = range_basis(np.array(expected_cols).T[window])
    assert projector_residual(got, expected) <= 1e-10
    assert list(wandering_subspaces(m)) == [(0,), (1,), (0, 1)]  # every nonempty index set


@pytest.mark.parametrize("n, degree, exponent", [(2, 4, (2, 1)), (3, 3, (1, 1, 1))])
def test_wandering_subspaces_take_no_range_basis(monkeypatch, n, degree, exponent):
    """wandering_subspaces reads each M_i S through (M_i S)^H S and takes no
    range basis of it, and structural_checks builds the wandering subspaces
    once per model."""
    model = quotient_model(build_space(n, degree, 1), monomial_symbol(n, exponent))
    calls = {"range_basis": 0, "wandering_subspaces": 0}
    for name in calls:
        original = getattr(polydisc.hardy, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(polydisc.hardy, name, counted)
    polydisc.hardy.wandering_subspaces(model)
    assert calls == {"range_basis": 0, "wandering_subspaces": 1}
    assert structural_checks(model).passed
    assert calls["wandering_subspaces"] == 2


def test_structural_checks_factor_each_windowed_subspace_once(monkeypatch):
    """At n = 3, structural_checks spans the window rows of each W_P once per
    window and builds the truncated defect space D_{i,C} once per variable:
    no K_0 or K_1 row selection of a W_P reaches range_basis twice, and each
    z_j W_P is gathered once and spanned by range_basis.  At degree 5 every
    W_P has nonzero rows in K_1 (caps (2, 3, 3), which hold z^(2,1,1)), so
    no two of these selections share their bits."""
    model = quotient_model(build_space(3, 5, 1), monomial_symbol(3, (2, 1, 1)))
    # each W_P's K_0 and K_1 rows and Theta's K_0 rows, by shape and bits; W and
    # Theta e are both spanned by z^(2,1,1), one unit vector
    keep0 = window_rows(model, 0)
    selections = [model.theta_cols[keep0]] + [
        wp.basis[window_rows(model, shrink)] for wp in wandering_subspaces(model).values() for shrink in (0, 1)]
    windowed = collections.Counter((rows.shape, rows.tobytes()) for rows in selections)
    spans, defects, calls = collections.Counter(), [], {"range_basis": 0}
    full_truncated_defect = polydisc.hardy.full_truncated_defect
    range_basis = polydisc.hardy.range_basis

    def counted_defect(t, i):
        defects.append(i)
        return full_truncated_defect(t, i)

    def counted_basis(a, *args, **kwargs):
        calls["range_basis"] += 1
        spans[a.shape, a.tobytes()] += 1
        return range_basis(a, *args, **kwargs)

    monkeypatch.setattr(polydisc.hardy, "full_truncated_defect", counted_defect)
    monkeypatch.setattr(polydisc.hardy, "range_basis", counted_basis)
    assert structural_checks(model).passed
    assert len(windowed) == 14  # the 7 K_0 and 7 K_1 selections of W_P; theta shares W's bits
    assert {key: spans[key] for key in windowed} == dict(windowed)
    assert defects == [0, 1, 2]
    # 14 W_P spans, theta, 9 splits, 3 D_i, 3 D_{i,C}, 3 pulled, 9 gathered z_j W_P
    # and W_eff; no M_i S and no joint defect
    assert calls["range_basis"] == 14 + 1 + 9 + 19


@pytest.mark.parametrize(
    "sym_name",
    ["z1", "z1z2", "z1sq_z2", "diag_z1z2_1"],
)
@pytest.mark.parametrize("n_deg", [4, 6])
def test_structural_checks_graded_models(sym_name, n_deg):
    symbols = {
        "z1": monomial_symbol(2, (1, 0)),
        "z1z2": monomial_symbol(2, (1, 1)),
        "z1sq_z2": monomial_symbol(2, (2, 1)),
        "diag_z1z2_1": blockdiag_symbol(
            [monomial_symbol(2, (1, 1)), unitary_symbol(2, np.eye(1))]
        ),
    }
    sym = symbols[sym_name]
    s = build_space(2, n_deg, sym.output_dim)
    m = quotient_model(s, sym)
    report = structural_checks(m)
    worst_name, worst_val = report.worst()
    assert report.passed, f"{sym_name} N={n_deg}: {worst_name}={worst_val:.3e}"
    assert report.dims["wandering_effective"] == report.dims["joint_defect"]
    if sym_name != "diag_z1z2_1":
        assert report.dims["wandering"] == report.dims["joint_defect"]


def test_structural_checks_residuals_tight_for_z1():
    s = build_space(2, 6, 1)
    report = structural_checks(quotient_model(s, monomial_symbol(2, (1, 0))))
    assert all(v <= 1e-10 for v in report.residuals.values())
    assert report.dims["wandering"] == 1
    assert report.dims["joint_defect"] == 1
    # Q is spanned by z_2^b, b <= 6, and the shrunk windows keep b <= 4 and b <= 3
    assert (report.dims["window1"], report.dims["window2"]) == (5, 4)


def test_structural_checks_report_an_empty_shrink2_window():
    # caps (1, 2, 2): the shrink-2 window holds no row, so the readings
    # taken in it (model_ops_commute, defects_annihilate, ...) read 0.0
    sym = blockdiag_symbol([monomial_symbol(3, (2, 1, 1)), unitary_symbol(3, np.eye(1))])
    model = quotient_model(build_space(3, 3, 2), sym)
    assert model.exact_window == (1, 2, 2)
    report = structural_checks(model)
    assert report.dims["window2"] == 0 < report.dims["window1"]
    assert report.residuals["model_ops_commute"] == 0.0
    assert report.passed


def test_equivalence_battery_fails_on_full_bishift():
    # The full truncated bishift is the quotient of a two-generator ideal,
    # which is not a Beurling quotient; without the window all three
    # equivalent Beurling conditions fail, provided multiplication is
    # honest (computed in a bigger truncation, not silently truncated).
    n_deg = 3
    small = build_space(2, n_deg, 1)
    big = build_space(2, n_deg + 1, 1)
    r = restriction(big, small)
    t1 = dense_shift(small, 0)
    t2 = dense_shift(small, 1)
    d1 = classical_defect_sq(t1)
    d2 = classical_defect_sq(t2)
    # (2) defect squares do not annihilate each other
    assert spec_norm(d1 @ d2) == pytest.approx(1.0)
    # (3) T1 is not an isometry on the defect space of T2
    space2 = range_basis(d2)
    gram = (t1 @ space2.basis).conj().T @ (t1 @ space2.basis)
    assert spec_norm(gram - np.eye(space2.dim)) == pytest.approx(1.0)
    # (4) honest multiplication by z1 pushes the defect space out of itself
    lifted = shift_apply(big, 0, r @ space2.basis)
    target = Subspace(big.dim, r @ space2.basis)
    assert containment_residual(lifted, target) > 0.5


def test_masked_identity_checker_across_truncations():
    # window self-consistency: the same windowed operator computed at N
    # and at N+1 agrees exactly after restriction
    n_deg = 4
    sym = monomial_symbol(2, (1, 1))
    small_space = build_space(2, n_deg, 1)
    big_space = build_space(2, n_deg + 1, 1)
    m_small = quotient_model(small_space, sym)
    m_big = quotient_model(big_space, sym)
    r = restriction(big_space, small_space)
    window = np.diag(row_mask(small_space, n_deg - 2).astype(float))

    def ambient_defect(model, i):
        t = model_tuple(model)
        q = model.quotient_basis.basis
        from polydisc.defects import full_truncated_defect

        return q @ full_truncated_defect(t, i) @ q.conj().T

    for i in range(2):
        a_small = ambient_defect(m_small, i)
        a_big = r.conj().T @ ambient_defect(m_big, i) @ r
        assert spec_norm(window @ (a_small - a_big) @ window) <= 1e-13


@pytest.mark.parametrize(
    "sym",
    [
        monomial_symbol(2, (2, 1)),
        blockdiag_symbol([monomial_symbol(2, (1, 1)), unitary_symbol(2, np.eye(1))]),
        product_symbol([monomial_symbol(2, (1, 0)), monomial_symbol(2, (1, 1))]),
        blaschke_symbol(2, 1, [0.0, 0.0]),
        product_symbol([monomial_symbol(3, (1, 0, 1)), blaschke_symbol(3, 1, [0.0])]),
    ],
    ids=["monomial", "blockdiag", "product", "blaschke-at-0", "n3-product"],
)
def test_growth_is_the_null_space_dimension(sym):
    """D - rank from the singular values alone gives the dimension of the
    null space of the adjoint symbol matrix, the quotient's own rule."""
    degrees = range(2, 7) if sym.n == 2 else range(2, 5)
    want = []
    for deg in degrees:
        mat, _, _ = symbol_matrix(build_space(sym.n, deg, sym.output_dim), sym)
        want.append(null_space(mat.conj().T).dim)
    assert ahern_clark_growth(sym, degrees) == want


@pytest.mark.parametrize("a, b", [(0.3, -0.5j), (0.2 + 0.4j, -0.6), (0.0, 0.7 - 0.1j), (-0.3, -0.3)])
def test_blaschke_series_is_the_product_of_its_factors(a, b):
    """A two-zero Blaschke table is, bit for bit, the product rule applied
    to the two one-zero tables."""
    n, v, N = 2, 1, 9
    coeffs, l1, tail = symbol_taylor(blaschke_symbol(n, v, [a, b]), n, N)
    pair = product_symbol([blaschke_symbol(n, v, [a]), blaschke_symbol(n, v, [b])])
    p_coeffs, p_l1, p_tail = symbol_taylor(pair, n, N)
    assert (l1, tail) == (p_l1, p_tail)
    assert list(coeffs) == list(p_coeffs)
    for beta, block in coeffs.items():
        assert block.tobytes() == p_coeffs[beta].tobytes()


@pytest.mark.parametrize("n, degree, alpha", [(2, 5, (2, 1)), (3, 3, (1, 2, 1))])
def test_structural_checks_eigendecompose_only_the_wandering_grams(monkeypatch, n, degree, alpha):
    """structural_checks takes 2^n - 1 eigendecompositions, one per Gram
    matrix of wandering_subspaces, and none of the joint defect."""
    model = quotient_model(build_space(n, degree, 1), monomial_symbol(n, alpha))
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert structural_checks(model).passed
    dim_s = model.submodule_basis.dim
    assert shapes == [(dim_s, dim_s)] * (2**n - 1)


def test_ahern_clark_growth():
    assert ahern_clark_growth(monomial_symbol(2, (1, 0)), range(1, 7)) == [2, 3, 4, 5, 6, 7]
    assert ahern_clark_growth(monomial_symbol(2, (1, 1)), range(1, 6)) == [3, 5, 7, 9, 11]
    diag = blockdiag_symbol([monomial_symbol(2, (1, 1)), unitary_symbol(2, np.eye(1))])
    assert ahern_clark_growth(diag, range(1, 5)) == [3, 5, 7, 9]
    with pytest.raises(ValueError):
        ahern_clark_growth(unitary_symbol(2, np.eye(2)), range(1, 4))
    with pytest.raises(ValueError):
        ahern_clark_growth(monomial_symbol(1, (1,)), range(1, 4))


def test_mono_shift_drops_top():
    s = build_space(2, 2, 1)

    def z11(v):  # multiplication by z^(1,1): row k + (1,1) takes row k
        return gather_blocks(s, offset_ranks(s, (-1, -1)), v[:, None])[:, 0]

    ranks = {k: i for i, k in enumerate(monomials(s))}
    v = np.zeros(s.mono_count)
    v[ranks[(2, 1)]] = 1.0
    np.testing.assert_allclose(z11(v), np.zeros(s.mono_count), atol=0)
    v2 = np.zeros(s.mono_count)
    v2[ranks[(1, 0)]] = 1.0
    out = z11(v2)
    assert out[ranks[(2, 1)]] == 1.0 and np.sum(np.abs(out)) == 1.0


@pytest.mark.parametrize("k", [0, 7, 19, 24, 37, 43, 56])
def test_structural_checks_pass_for_every_constant_phase(k):
    # the phase of the constant block changes no subspace, only bases, so
    # roundoff columns of a shifted wandering basis must read as roundoff
    phase = unitary_symbol(2, np.array([[np.exp(2j * np.pi * k / 60)]]))
    sym = blockdiag_symbol([monomial_symbol(2, (2, 1)), phase])
    report = structural_checks(quotient_model(build_space(2, 10, 2), sym))
    assert report.passed, report.worst()


@pytest.mark.parametrize("sym, degree", [
    (monomial_symbol(3, (1, 2, 1)), 5),
    (blockdiag_symbol([monomial_symbol(2, (1, 2)), unitary_symbol(2, np.eye(1))]), 6),
])
def test_structural_checks_do_not_depend_on_the_submodule_basis(sym, degree):
    # another orthonormal basis of S: the right singular vectors of the
    # symbol matrix's adjoint; the verdict must not move with it
    model = quotient_model(build_space(sym.n, degree, sym.output_dim), sym)
    _, _, vh = np.linalg.svd(symbol_matrix(model.space, sym)[0].conj().T, full_matrices=False)
    other = Subspace(model.space.dim, phase_fix(vh[: model.submodule_basis.dim].conj().T))
    assert projector_residual(other, model.submodule_basis) <= 1e-12
    report = structural_checks(dataclasses.replace(model, submodule_basis=other))
    assert report.passed, report.worst()
    assert report.worst()[1] <= 1e-12


def _rotation(theta):
    return unitary_symbol(2, np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]))


_Z1_1 = blockdiag_symbol([monomial_symbol(2, (1, 0)), unitary_symbol(2, np.eye(1))])


@pytest.mark.parametrize("factors, overlap", [
    # diag(z1, 1) diag(1, z2) = diag(z1, z2): Theta(0) = 0, so no constant lies
    # in S although every factor has a constant block
    ([_Z1_1, blockdiag_symbol([unitary_symbol(2, np.eye(1)), monomial_symbol(2, (0, 1))])], 0.0),
    # diag(z1, 1) diag(z2, 1) = diag(z1 z2, 1): ||Theta(0)|| = 1 and e_2 lies in S
    ([_Z1_1, blockdiag_symbol([monomial_symbol(2, (0, 1)), unitary_symbol(2, np.eye(1))])], 1.0),
    # diag(z1, 1) R diag(z1, 1): Theta(0) = diag(0, 1) R diag(0, 1) has norm cos 1
    ([_Z1_1, _rotation(1.0), _Z1_1], np.cos(1.0)),
])
def test_structural_checks_minimality_follows_theta_at_zero(factors, overlap):
    model = quotient_model(build_space(2, 6, 2), product_symbol(factors))
    report = structural_checks(model)
    assert report.passed, report.worst()
    assert report.worst()[1] <= 1e-12
    assert spec_norm(model.submodule_basis.basis[:2]) == pytest.approx(overlap, abs=1e-12)
    assert ("wandering_effective_equals_wandering" in report.residuals) == (overlap < 1.0)


def test_oversized_hardy_model_refused_before_allocation(tmp_path):
    # n = 2 at degree 300: D = 90,601 has index arrays well inside BYTE_BUDGET, but the symbol
    # matrix alone would take D^2 complex entries, 131 GB
    sym = monomial_symbol(2, (1, 1))
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol_to_json(sym)), encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflow):
            quotient_model(build_space(2, 300, 1), sym)
        assert main(["hardy", str(path), "--degree", "300"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**26  # the exponent tables of the space, nothing of size D^2
    model = quotient_model(build_space(2, 10, 1), sym)  # well inside BYTE_BUDGET
    assert model.space.dim == 121
