import numpy as np
import pytest

from polydisc import linalg
from polydisc.errors import NotHermitian, NotPSD, NotSquare, ShapeMismatch
from polydisc.linalg import (
    DEFAULT_TOL,
    TOL_PSD_CLAMP,
    TOL_PURE,
    TOL_RANK,
    Subspace,
    containment_residual,
    herm_eig,
    loewner_leq,
    null_space,
    phase_fix,
    projector_residual,
    psd_sqrt,
    range_basis,
    spec_norm,
    zero_cut,
)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    b = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return b @ b.conj().T


def test_tolerances_defaults():
    # the one settable tolerance and the three cuts that no caller sets
    assert DEFAULT_TOL == 1e-10
    assert TOL_RANK == 1e-9
    assert TOL_PSD_CLAMP == 1e-10
    assert TOL_PURE == 1e-8


def test_spec_norm_matches_svd():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    s = np.linalg.svd(a, compute_uv=False)
    assert spec_norm(a) == pytest.approx(s[0])
    assert spec_norm(np.zeros((3, 0))) == 0.0


def test_herm_eig_descending_and_reconstructs():
    rng = np.random.default_rng(1)
    for n in (1, 4, 7):
        a = random_hermitian(rng, n)
        vals, vecs = herm_eig(a)
        assert np.all(np.diff(vals) <= 1e-12)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-12)


def test_herm_eig_rejects_nonhermitian_and_nonsquare():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSquare):
        herm_eig(np.zeros((2, 3)))


def test_herm_eig_symmetry_check_only_off_the_exact_hermitian_part(monkeypatch):
    """An exactly Hermitian input skips the two norms of the symmetry check;
    any other input is still judged by them, so a non-Hermitian one raises."""
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 5)
    assert np.array_equal(linalg.hermitian_part(a), a)
    calls = []
    monkeypatch.setattr(linalg, "spec_norm", lambda x: calls.append(x) or spec_norm(x))
    vals, _ = herm_eig(a)
    assert calls == []
    np.testing.assert_array_equal(vals, np.linalg.eigh(a)[0][::-1])
    near = a.copy()
    near[0, 1] += 1e-13  # inside the 1e-10 gate: decomposed as its Hermitian part
    np.testing.assert_array_equal(herm_eig(near)[0], herm_eig(linalg.hermitian_part(near))[0])
    assert len(calls) == 2
    for bad in (a + 1e-6j * np.eye(5), a + np.triu(np.full((5, 5), 1e-3), 1)):
        with pytest.raises(NotHermitian):
            herm_eig(bad)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(2)
    for n in (1, 3, 6):
        a = random_psd(rng, n)
        r = psd_sqrt(a)
        np.testing.assert_allclose(r @ r, a, atol=1e-10 * max(spec_norm(a), 1.0))
        np.testing.assert_allclose(r, r.conj().T, atol=1e-13)


def test_psd_sqrt_clamps_tiny_negatives():
    a = np.diag([1.0, -1e-12])
    r = psd_sqrt(a)
    assert r[1, 1] == pytest.approx(0.0, abs=1e-8)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD) as exc:
        psd_sqrt(np.diag([1.0, -1e-3]))
    assert exc.value.min_eig == pytest.approx(-1e-3)
    with pytest.raises(NotPSD):  # ten times the clamp window at norm 1
        psd_sqrt(np.diag([1.0, -1e-9]))


def test_psd_sqrt_clamps_roundoff_of_a_zero_matrix():
    # a defect that is zero up to roundoff: the window is TOL_PSD_CLAMP at scale 1
    rng = np.random.default_rng(8)
    a = 1e-15 * random_hermitian(rng, 4)
    assert spec_norm(psd_sqrt(a)) < 1e-7
    with pytest.raises(NotPSD):
        psd_sqrt(a - 1e-9 * np.eye(4))


def test_zero_cut_is_relative_above_scale_one():
    assert zero_cut(0.0, 1e-9) == zero_cut(1e-12, 1e-9) == zero_cut(1.0, 1e-9) == 1e-9
    assert zero_cut(1e3, 1e-9) == pytest.approx(1e-6)
    rng = np.random.default_rng(9)
    noise = 1e-16 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    assert range_basis(noise).dim == 0
    assert null_space(noise).dim == 5
    assert range_basis(1e3 * np.diag([1.0, 1e-8, 0.0])).dim == 2  # 1e-5 clears the cut 1e-6


def test_phase_fix_pivot_is_real_positive():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    fixed = phase_fix(v)
    for c in range(4):
        mags = np.abs(fixed[:, c])
        pivot = int(np.argmax(mags > 1e-10 * mags.max()))
        assert fixed[pivot, c].imag == pytest.approx(0.0, abs=1e-12)
        assert fixed[pivot, c].real > 0
    # columns only change by a unit phase
    for c in range(4):
        assert abs(abs(np.vdot(v[:, c], fixed[:, c])) - np.linalg.norm(v[:, c]) ** 2) < 1e-10


def phase_fix_by_column(v):
    """The per-column loop phase_fix replaced, kept as its bit-level reference."""
    v = np.asarray(v, dtype=np.complex128).copy()
    for c in range(v.shape[1]):
        col = v[:, c]
        mags = np.abs(col)
        top = mags.max(initial=0.0)
        if top == 0.0:
            continue
        pivot = int(np.argmax(mags > 1e-10 * top))
        phase = col[pivot] / abs(col[pivot])
        v[:, c] = col * np.conj(phase)
    return v


def test_phase_fix_is_the_column_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    cases = [np.zeros((0, 3)), np.zeros((4, 0)), np.zeros((0, 0)), np.ones((1, 1)), np.full((3, 2), -0.0 + 0j)]
    for k in range(400):
        rows, cols = (int(rng.integers(0, 3)), int(rng.integers(0, 3))) if k % 4 == 0 else (
            int(rng.integers(1, 220)), int(rng.integers(1, 40)))
        v = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        if k % 5 == 1:
            v *= 1e-200  # tiny: the 1e-10 pivot rule is relative to the column max
        if k % 5 == 2 and cols:
            v[:, rng.integers(0, cols)] = complex(-0.0, -0.0)  # a zero column keeps its signed zeros
        if k % 5 == 3:
            v[rng.random((rows, cols)) < 0.5] = 0.0  # zero leading entries move the pivot
        if k % 5 == 4:
            v[: rows // 2] *= 1e-12  # leading entries under the pivot rule
        cases.append(np.asfortranarray(v) if k % 7 == 0 else v.real.copy() if k % 11 == 0 else v)
    for v in cases:
        got, want = phase_fix(v), phase_fix_by_column(v)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_range_basis_rank_and_determinism():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    a = b @ b.conj().T
    sub = range_basis(a)
    assert sub.dim == 3
    assert sub.ambient_dim == 8
    np.testing.assert_allclose(sub.basis.conj().T @ sub.basis, np.eye(3), atol=1e-12)
    again = range_basis(a.copy())
    np.testing.assert_allclose(sub.basis, again.basis, atol=0)
    # spans the columns of b
    assert containment_residual(b, sub) < 1e-10


def test_range_basis_zero_matrix():
    sub = range_basis(np.zeros((4, 4)))
    assert sub.dim == 0
    assert sub.ambient_dim == 4


def test_null_space_annihilates():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    ns = null_space(a)
    assert ns.dim == 3
    assert spec_norm(a @ ns.basis) < 1e-10 * spec_norm(a)


def test_loewner_leq_verdicts():
    rng = np.random.default_rng(6)
    a = random_psd(rng, 5)
    verdict = loewner_leq(a, a + 0.1 * np.eye(5))
    assert verdict.holds
    assert verdict.witness_min_eig == pytest.approx(0.1, abs=1e-10)
    verdict = loewner_leq(a + 0.1 * np.eye(5), a)
    assert not verdict.holds
    assert verdict.witness_min_eig == pytest.approx(-0.1, abs=1e-10)
    with pytest.raises(ShapeMismatch):
        loewner_leq(np.eye(2), np.eye(3))


def test_loewner_leq_tolerates_roundoff():
    rng = np.random.default_rng(7)
    a = random_psd(rng, 4)
    jitter = 1e-13 * random_hermitian(rng, 4)
    assert loewner_leq(a + jitter, a).holds


def test_projector_residual_and_complement():
    eye = np.eye(5, dtype=np.complex128)
    u = Subspace(5, eye[:, :2])
    v = Subspace(5, eye[:, 2:4])
    w = Subspace(5, eye[:, :4])
    assert projector_residual(u, u) == pytest.approx(0.0, abs=1e-14)
    assert projector_residual(u, v) == pytest.approx(1.0, abs=1e-12)
    assert projector_residual(u, w) == pytest.approx(1.0, abs=1e-12)


def test_containment_residual_detects_escape():
    eye = np.eye(3, dtype=np.complex128)
    sub = Subspace(3, eye[:, :1])
    inside = np.array([[2.0], [0.0], [0.0]], dtype=np.complex128)
    outside = np.array([[0.0], [1.0], [0.0]], dtype=np.complex128)
    assert containment_residual(inside, sub) < 1e-14
    assert containment_residual(outside, sub) == pytest.approx(1.0)


@pytest.mark.parametrize("theta", [1e-7, 0.3, 1.2])
def test_containment_residual_of_a_unit_column_is_its_sine(theta):
    sub = Subspace(3, np.eye(3, dtype=np.complex128)[:, :1])
    col = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]], dtype=np.complex128)
    assert containment_residual(col, sub) == pytest.approx(np.sin(theta), rel=1e-9)
    # scale 1: a column longer than 1 reads its sine, not its distance
    assert containment_residual(5.0 * col, sub) == pytest.approx(np.sin(theta), rel=1e-9)


def test_containment_residual_of_a_small_column_is_its_distance():
    # no column is skipped or rescaled: a genuine escape of norm 1e-6 still
    # fails a 1e-8 gate, and roundoff of norm 1e-12 stays under it
    sub = Subspace(3, np.eye(3, dtype=np.complex128)[:, :1])
    small = np.array([[0.0, 0.0], [1e-6, 0.0], [0.0, 1e-12]], dtype=np.complex128)
    assert containment_residual(small[:, :1], sub) == pytest.approx(1e-6)
    assert containment_residual(small, sub) > 1e-8
    assert containment_residual(small[:, 1:], sub) == pytest.approx(1e-12)


def test_default_tol_singleton():
    assert linalg.DEFAULT_TOL is DEFAULT_TOL
    assert isinstance(DEFAULT_TOL, float)
