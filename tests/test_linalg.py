"""Eigensolver, singular values, PSD square root, trace norm and partial transpose."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bell_phi_plus,
    blocks_of,
    partial_transpose_a,
    random_density_matrix,
    random_hermitian,
    random_unitary,
    random_x_state,
    trace_norm,
)
import qcorr
from qcorr import linalg, measures, states
from qcorr import (
    NotHermitian,
    NotPSD,
    XColumns,
    concurrence_general,
    concurrence_x,
    correlated_coherence_general,
    correlations,
    hermitian_eigenvalues,
    is_x_shaped,
    l1_coherence,
    lqu,
    make_mixture,
    make_werner,
    min_trace_general,
    negativity,
    partial_transpose_b,
    psd_sqrt,
    validate,
)


# (size, blocks of the nonzero pattern): the X pattern, two interleaved
# blocks, a 3x3 matrix with an isolated index, one pair among isolated
# indices and a 3x3 block beside an isolated index
BLOCK_PATTERNS = [
    (4, [[0, 3], [1, 2]]),
    (4, [[0, 2], [1, 3]]),
    (3, [[0, 2], [1]]),
    (4, [[0], [1, 3], [2]]),
    (4, [[0, 1, 3], [2]]),
]


def random_block_hermitian(rng, n, blocks):
    m = np.zeros((n, n), dtype=complex)
    for b in blocks:
        m[np.ix_(b, b)] = random_hermitian(rng, len(b))
    return m


def charpoly_roots_by_bisection(mat, tol=1e-12):
    """Independent eigenvalue oracle: bracket sign changes of det(M - x I).

    Works for simple eigenvalues, which random Hermitian draws have almost
    surely. The bracketing grid spans the Gershgorin bound.
    """
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    bound = float(np.abs(mat).sum(axis=1).max()) + 1.0

    def det(x):
        return float(np.linalg.det(mat - x * np.eye(n)).real)

    grid = np.linspace(-bound, bound, 4001)
    vals = [det(x) for x in grid]
    roots = []
    for lo, hi, flo, fhi in zip(grid, grid[1:], vals, vals[1:]):
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0.0:
            a, b, fa = lo, hi, flo
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = det(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return np.array(sorted(roots))


def _root_mode_eigenvalues(m):
    """The eigenvalues that the square-root solve finds beside the root, sorted:
    the solver's other answer for the same matrices, routed as ``psd_sqrt``
    routes them (X blocks with their roots, LAPACK ``eigh`` otherwise)."""
    def x_group(g):
        return linalg._eigen_of_columns(linalg.x_columns(g), True)[:1]

    a = np.asarray(m, dtype=complex)
    return np.sort(linalg._per_route(a, x_group, lambda g: np.linalg.eigh(g)[:1])[0], axis=-1)


def test_identity_eigensystem():
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4, dtype=complex)), np.ones(4))


def test_field_hamiltonian_spectrum():
    lam = hermitian_eigenvalues(np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex))
    np.testing.assert_allclose(lam, [-1.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_eigenvalues_match_charpoly_bisection():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = random_hermitian(rng, 4)
        oracle = charpoly_roots_by_bisection(m)
        assert len(oracle) == 4
        np.testing.assert_allclose(hermitian_eigenvalues(m), oracle, atol=1e-10)


def test_x_state_blocks_stay_exact():
    rng = np.random.default_rng(29)
    for _ in range(50):
        assert is_x_shaped(psd_sqrt(random_x_state(rng).to_matrix()))


def test_mixture_zero_eigenvalues_are_exact():
    lam = hermitian_eigenvalues(make_mixture(0.2).to_matrix())
    np.testing.assert_array_equal(lam[:2], [0.0, 0.0])
    np.testing.assert_allclose(lam[2:], [0.2, 0.8], atol=1e-15)
    # the Bell singlet has an exactly singular 2x2 block, and a power-of-two
    # scale moves every eigenvalue by that power exactly
    lam = hermitian_eigenvalues(make_werner(1.0).to_matrix())
    np.testing.assert_array_equal(lam[:3], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(lam[3:], [1.0], atol=1e-15)
    for e in (900, -900):
        lam = hermitian_eigenvalues(np.ldexp(make_mixture(0.2).to_matrix().real, e))
        np.testing.assert_array_equal(lam[:2], [0.0, 0.0])
        np.testing.assert_allclose(np.ldexp(lam[2:], -e), [0.2, 0.8], atol=1e-15)


def _small_block(rng, kind, size, hermitian):
    """One diagonal block of a small-block test matrix; 'rank_one' blocks are
    built from small Gaussian integers, so they are singular in floating point
    too."""
    if kind == "zero":
        return np.zeros((size, size), dtype=complex)
    if kind == "rank_one":
        u, v = rng.integers(-3, 4, size=(2, size)) + 1j * rng.integers(-3, 4, size=(2, size))
        return np.outer(u, u.conj() if hermitian else v)
    if kind == "diagonal":
        return np.diag(rng.standard_normal(size)).astype(complex)
    m = random_hermitian(rng, size) if hermitian else (
        rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    if kind == "equal_diagonal":  # a = d: the eigenvector formula's h = 0 branch
        m[np.diag_indices(size)] = m[0, 0].real
    if kind == "triangular" and size == 2:  # upper or lower: one off-diagonal entry zero
        m[(1, 0) if rng.random() < 0.5 else (0, 1)] = 0.0
    return m


# the blocks that the solver takes in closed form: the X pattern of a 4x4
# matrix, its only closed-form structure
CLOSED_FORM_BLOCKS = [[0, 3], [1, 2]]
SMALL_BLOCK_KINDS = ["random", "rank_one", "diagonal", "zero", "equal_diagonal", "repeat"]


@st.composite
def small_block_matrices(draw, hermitian):
    """(matrix, blocks, exponent, unscaled matrix): a 4x4 matrix that is zero
    outside CLOSED_FORM_BLOCKS, scaled by 2**exponent; each X block may split
    into two 1x1 blocks. Blocks of kind 'repeat' copy the previous block of
    their size, so the spectrum is degenerate."""
    blocks = []
    for b in CLOSED_FORM_BLOCKS:
        blocks += [[i] for i in b] if draw(st.booleans()) else [b]
    kinds = SMALL_BLOCK_KINDS + ([] if hermitian else ["triangular"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, last = np.zeros((4, 4), dtype=complex), {}
    for b in blocks:
        kind = draw(st.sampled_from(kinds))
        block = (last.get(len(b)) if kind == "repeat" else None)
        if block is None:
            block = _small_block(rng, "random" if kind == "repeat" else kind, len(b), hermitian)
        m[np.ix_(b, b)] = last[len(b)] = block
    e = draw(st.sampled_from([0, 900, -900]))
    return np.ldexp(m.real, e) + 1j * np.ldexp(m.imag, e), blocks, e, m


def beside_a_dense_matrix(m):
    """The stack [m, ones]: the matrix of ones is not X-shaped and takes
    LAPACK, so m is solved in a stack split between the two routes."""
    return np.array([m, np.ones_like(m)])


@settings(max_examples=300, deadline=None)
@given(small_block_matrices(hermitian=True))
def test_small_block_eigensystem_matches_eigh_of_each_block(case):
    m, blocks, e, unscaled = case
    lam = hermitian_eigenvalues(m)
    per_block = [np.linalg.eigvalsh(unscaled[np.ix_(b, b)]) for b in blocks]
    expected = np.ldexp(np.sort(np.concatenate(per_block)), e)
    np.testing.assert_allclose(lam, expected, rtol=0.0, atol=1e-14 * np.abs(m).max())
    assert np.all(np.diff(lam) >= 0.0)
    # an exactly singular block keeps an exact zero eigenvalue
    rank = sum(np.linalg.matrix_rank(unscaled[np.ix_(b, b)], tol=1e-9) for b in blocks)
    assert np.count_nonzero(lam == 0.0) >= len(m) - rank
    # a matrix gets the same eigenvalues in a stack as alone
    np.testing.assert_array_equal(hermitian_eigenvalues(beside_a_dense_matrix(m))[0], lam)


@settings(max_examples=200, deadline=None)
@given(small_block_matrices(hermitian=True), st.booleans())
def test_eigenvalues_alone_equal_the_eigensystem_eigenvalues_on_small_blocks(case, real):
    # the eigenvalue mode and the square-root mode solve closed-form blocks alike
    m = case[0].real if real else case[0]
    lam = hermitian_eigenvalues(m)
    assert lam.dtype == np.float64
    np.testing.assert_array_equal(lam, _root_mode_eigenvalues(m))
    np.testing.assert_array_equal(hermitian_eigenvalues(beside_a_dense_matrix(m))[0], lam)


def test_eigenvalues_alone_match_the_eigensystem_on_lapack_patterns():
    # eigvalsh in the eigenvalue mode against eigh in the square-root mode
    rng = np.random.default_rng(43)
    mats = [random_hermitian(rng, n) for n in (3, 4) for _ in range(40)]
    mats += [random_block_hermitian(rng, n, blocks) for n, blocks in BLOCK_PATTERNS
             if max(map(len, blocks)) > 2 for _ in range(40)]
    mats += [m.real for m in mats]  # real symmetric input, 3x3 included
    for m in mats:
        lam = hermitian_eigenvalues(m)
        assert lam.dtype == np.float64
        expected = _root_mode_eigenvalues(m)
        np.testing.assert_allclose(lam, expected, rtol=0.0, atol=1e-14 * np.abs(m).max())
    stack = np.array([m for m in mats if m.shape == (3, 3)])
    np.testing.assert_array_equal(hermitian_eigenvalues(stack),
                                  [hermitian_eigenvalues(m) for m in stack])


def test_small_block_eigenvalue_has_the_error_of_its_determinant():
    # near-rank-one blocks with one small diagonal entry: the smaller eigenvalue
    # is det / lambda_big, whose error is that of a*d - |b|^2 alone, far below
    # the eps * lambda_big of mid - r
    rng = np.random.default_rng(37)
    u = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    u[:, 1] *= 10.0 ** rng.uniform(-8.0, 0.0, 500)
    blocks = u[:, :, None] * u[:, None, :].conj()
    blocks[:, 1, 0] = blocks[:, 0, 1].conj()
    x = np.zeros((500, 4, 4), dtype=complex)  # the block as both X blocks: lo, lo, hi, hi
    for b in CLOSED_FORM_BLOCKS:
        x[:, np.array(b)[:, None], b] = blocks
    lam = hermitian_eigenvalues(x)[:, ::3]
    for (a, b), (_, d), (lo, hi) in zip(blocks[:, 0], blocks[:, 1], lam):
        det = (Fraction(a.real) * Fraction(d.real) - Fraction(b.real) ** 2
               - Fraction(b.imag) ** 2)
        bound = 4.0 * np.finfo(float).eps * (a.real * d.real + abs(b) ** 2) / hi
        assert abs(Fraction(lo) - det / Fraction(hi)) <= bound


@settings(max_examples=300, deadline=None)
@given(small_block_matrices(hermitian=False))
def test_small_block_singular_values_match_svd_of_each_block(case):
    # the closed-form kernel on each X block [[m_ii, m_ij], [m_ji, m_jj]]
    m, blocks, e, unscaled = case
    s = np.sort(np.concatenate([linalg._singular_values_2x2(m[i, i], m[i, j], m[j, i], m[j, j])
                                for i, j in CLOSED_FORM_BLOCKS]))[::-1]
    per_block = [np.linalg.svd(unscaled[np.ix_(b, b)], compute_uv=False) for b in blocks]
    expected = np.ldexp(np.sort(np.concatenate(per_block))[::-1], e)
    np.testing.assert_allclose(s, expected, rtol=0.0, atol=1e-14 * expected[0])
    rank = sum(np.linalg.matrix_rank(unscaled[np.ix_(b, b)], tol=1e-9) for b in blocks)
    assert np.count_nonzero(s == 0.0) >= len(m) - rank


def test_singular_values_keep_lapack_on_larger_blocks():
    # the one singular-value problem left, the spin-flip product: the roots of dense
    # states get svd of the dense product bit for bit beside an X root
    rng = np.random.default_rng(31)
    roots = psd_sqrt(np.array([random_density_matrix(rng, 4) for _ in range(5)]
                              + [random_x_state(rng).to_matrix()]))
    dense = (roots[:5, :, ::-1] * linalg._SPIN_FLIP_SIGNS) @ roots[:5].conj()
    np.testing.assert_array_equal(linalg._spin_flip_singular_values(roots)[:5],
                                  np.linalg.svd(dense, compute_uv=False))
    with pytest.raises(ValueError, match="sizes 2..4"):
        linalg._spin_flip_singular_values(np.eye(5))


def _lapack_square_root(m):
    """V diag(sqrt(w)) V^dag of one ``np.linalg.eigh`` call on the whole matrix,
    w clamped at zero, made exactly Hermitian: the solver's LAPACK route."""
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) * 0.5


def _same(got, expected):
    """Equal bit for bit, shape and dtype included."""
    return (got.shape, got.dtype, got.tobytes()) == (expected.shape, expected.dtype,
                                                     expected.tobytes())


def test_matrices_outside_the_closed_form_blocks_get_lapack_bit_for_bit():
    # every matrix that is not X-shaped gets eigvalsh (of a Hermitian h) and the
    # eigh root (of h h^dag) as they are, alone and in a stack: 4x4 block-sparse
    # and dense matrices beside X-shaped ones, and 2x2 and 3x3 matrices of every
    # block shape and block kind beside dense ones. An empty stack of any size
    # gets LAPACK's empty results
    rng = np.random.default_rng(47)
    cases = []  # (h, g, the matrix beside them in a stack)
    for n, blocks in BLOCK_PATTERNS[1:] + [(4, [[0, 1, 2, 3]]), (3, [[0, 1, 2]])]:
        h = random_block_hermitian(rng, n, blocks)
        cases.append((h, h, random_block_hermitian(rng, 4, CLOSED_FORM_BLOCKS) if n == 4
                      else random_hermitian(rng, n)))
    for blocks in ([[0, 1]], [[0], [1]], [[0, 1], [2]], [[0], [1], [2]]):
        n = sum(map(len, blocks))
        for kind in SMALL_BLOCK_KINDS[:-1] + ["triangular"]:  # a triangular h is not Hermitian
            h, g = np.zeros((2, n, n), dtype=complex)
            for b in blocks:
                h[np.ix_(b, b)] = _small_block(rng, kind.replace("triangular", "random"), len(b),
                                               hermitian=True)
                g[np.ix_(b, b)] = _small_block(rng, kind, len(b), hermitian=False)
            cases.append((h, g, random_hermitian(rng, n)))
    for h, g, beside in cases:
        m, dense = h @ h.conj().T, beside @ beside.conj().T
        lam, root = np.linalg.eigvalsh(h), _lapack_square_root(m)
        for got in (hermitian_eigenvalues(h), hermitian_eigenvalues(np.array([beside, h]))[1]):
            assert _same(got, lam)
        for got in (psd_sqrt(m), psd_sqrt(np.array([dense, m, dense]))[1]):
            assert _same(got, root)
        assert _same(hermitian_eigenvalues(h.real), np.linalg.eigvalsh(h.real))
    for n in (2, 3, 4):
        empty = np.zeros((0, n, n))
        assert _same(hermitian_eigenvalues(empty), np.linalg.eigvalsh(empty))
        assert _same(psd_sqrt(empty), np.zeros((0, n, n), dtype=complex))


def test_not_hermitian_rejected():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(m)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        m = np.eye(4, dtype=complex)
        m[2, 1] = bad
        with pytest.raises(NotHermitian, match=r"entry \(2, 1\).*not finite"):
            hermitian_eigenvalues(m)
    m = np.eye(4, dtype=complex)
    m[1, 1] = np.inf  # inf - inf in M - M^dag must not leak a numpy warning
    for fn in (hermitian_eigenvalues, psd_sqrt, trace_norm, negativity):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match=r"entry \(1, 1\).*not finite"):
                fn(m)


# the eight entries off the X pattern
OFF_X = np.argwhere(~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]))


def test_negative_zeros_off_the_x_pattern_keep_the_closed_forms():
    # the one X check (``is_x_shaped``, which states re-exports) counts -0.0 as
    # a zero: validate, correlations and the solvers give a matrix with -0.0 in
    # every entry off the X pattern exactly what they give it with +0.0, which
    # LAPACK's round-off would not
    assert qcorr.is_x_shaped is states.is_x_shaped is linalg.is_x_shaped
    assert qcorr.XColumns is states.XColumns is linalg.XColumns
    assert qcorr.x_columns is states.x_columns is linalg.x_columns
    rng = np.random.default_rng(53)
    plus = np.array([random_x_state(rng).to_matrix() for _ in range(20)])
    minus = plus.copy()
    minus[:, OFF_X[:, 0], OFF_X[:, 1]] = complex(-0.0, -0.0)
    assert np.signbit(minus.real).any() and np.signbit(minus.imag).any()
    def x_group(x, roots):  # the checked XColumns and roots of the X group
        groups.append([np.asarray(a).tobytes() for a in (*x, *roots)])
        return ()

    def dense_group(mats, roots):
        raise AssertionError("a matrix took the dense route")

    for m, p in ((minus, plus), (minus[3], plus[3])):
        assert is_x_shaped(m).all() and validate(m) is m
        groups = []
        for stack in (m, p):
            linalg._per_route(stack, *states._checked(x_group, dense_group))
        assert len(groups) == 2 and groups[0] == groups[1]  # one group, on the X route
        assert np.array(correlations(m)._values()).tobytes() == np.array(
            correlations(p)._values()).tobytes()
        for fn in (psd_sqrt, hermitian_eigenvalues):
            assert fn(m).tobytes() == fn(p).tobytes()


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan)])
def test_a_nan_off_the_x_pattern_is_named_by_not_hermitian(bad):
    # a NaN is not a zero of the X check: the matrix takes the dense route,
    # whose Hermiticity check names the entry, alone and inside a stack
    rho = make_werner(0.3).to_matrix()
    for i, j in OFF_X:
        m = rho.copy()
        m[i, j] = bad
        assert not is_x_shaped(m)
        for fn in (validate, correlations, psd_sqrt, hermitian_eigenvalues):
            for arg, index in ((m, 0), (np.array([rho, rho, m, rho]), 2)):
                with pytest.raises(NotHermitian, match=rf"entry \({i}, {j}\) = .* not finite") as info:
                    fn(arg)
                assert info.value.index == index


def test_hermiticity_bound_is_inclusive():
    # |M - M^dag| = HERMITICITY_TOL exactly, in one entry, passes; the next
    # double fails, and in a stack it does not drag the matrix at the bound along
    tol = linalg.HERMITICITY_TOL
    at = np.array([[0.0, tol], [0.0, 1.0]])
    past = np.array([[0.0, np.nextafter(tol, 1.0)], [0.0, 1.0]])
    hermitian_eigenvalues(at)
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(past)
    with pytest.raises(NotHermitian) as failure:
        hermitian_eigenvalues(np.array([at, past]))
    assert failure.value.index == 1


def test_public_entries_keep_their_hermiticity_check():
    # the private solver entries skip the check; the public ones must not
    rho = np.stack([make_mixture(0.5).to_matrix()] * 3)
    rho[1, 0, 1] = 1e-6
    for fn in (negativity, lqu, psd_sqrt, hermitian_eigenvalues):
        with pytest.raises(NotHermitian, match=r"1\.000e-06 exceeds") as info:
            fn(rho)
        assert info.value.index == 1


def _dense_square_root(m):
    """(V diag(sqrt(w)) V^dag with w clamped at zero and the result made
    exactly Hermitian, ascending w) from ``np.linalg.eigh`` of each block of
    the nonzero pattern: a reference for the square root that does not call
    the module."""
    m = np.asarray(m, dtype=complex)
    root, lam = np.zeros_like(m), []
    for b in blocks_of(m):
        w, v = np.linalg.eigh(m[np.ix_(b, b)])
        r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        root[np.ix_(b, b)] = (r + r.conj().T) * 0.5
        lam.extend(w)
    return root, np.sort(lam)


def small_block_psd(case):
    """(PSD matrix, blocks, its unscaled form) from a ``small_block_matrices``
    case: G G^dag keeps the blocks, and a rank-one block of small Gaussian
    integers stays exactly singular. The scale 2**e with even e is exact."""
    _, blocks, e, g = case
    psd = g @ g.conj().T
    psd = (psd + psd.conj().T) / 2.0
    return np.ldexp(psd.real, e) + 1j * np.ldexp(psd.imag, e), blocks, psd


@settings(max_examples=300, deadline=None)
@given(small_block_matrices(hermitian=True))
def test_block_square_root_matches_the_dense_square_root(case):
    # the closed-form root of 1x1 and 2x2 blocks against V diag(sqrt(w)) V^dag
    # of LAPACK's eigenpairs: a few ulps of the largest root eigenvalue, plus
    # the gap between the two solvers' sqrt(w), which near a singular block
    # is as large as sqrt(eps) times it (LAPACK's round-off eigenvalue there)
    m, blocks, unscaled = small_block_psd(case)
    root = psd_sqrt(m)
    lam = np.clip(hermitian_eigenvalues(m), 0.0, None)
    dense, dense_lam = _dense_square_root(m)
    gap = np.abs(np.sqrt(lam) - np.sqrt(np.clip(dense_lam, 0.0, None))).max()
    assert np.abs(root - dense).max() <= 8.0 * np.finfo(float).eps * np.sqrt(lam[-1]) + gap
    # exactly Hermitian, every structural zero kept, and it squares back
    np.testing.assert_array_equal(root, root.conj().T)
    np.testing.assert_array_equal(root[m == 0], 0.0)
    assert np.abs(root @ root - m).max() <= 1e-14 * np.abs(m).max()
    # a block whose off-diagonal entry is exactly zero has the roots of its
    # diagonal entries, bit for bit, alone and beside a dense matrix
    for b in blocks:
        if len(b) == 2 and m[b[1], b[0]] == 0:
            np.testing.assert_array_equal(root[np.ix_(b, b)], np.diag(np.sqrt(m.real[b, b])))
    np.testing.assert_array_equal(psd_sqrt(beside_a_dense_matrix(m))[0], root)


def test_square_root_of_larger_blocks_is_the_dense_square_root_bit_for_bit():
    rng = np.random.default_rng(5)
    for m in [random_density_matrix(rng, rank) for rank in (1, 2, 4) for _ in range(10)]:
        assert psd_sqrt(m).tobytes() == _dense_square_root(m)[0].tobytes()
    # a 3x3 block beside an isolated index: the solver's eigh takes the whole
    # matrix, the reference the block alone, so they agree to ulps
    for g in (random_block_hermitian(rng, 4, [[0, 1, 3], [2]]) for _ in range(10)):
        m = g @ g.conj().T
        top = np.sqrt(np.linalg.eigvalsh(m)[-1])
        assert np.abs(psd_sqrt(m) - _dense_square_root(m)[0]).max() <= 8.0 * np.finfo(float).eps * top


def test_square_roots_of_a_mixed_stack_are_those_of_each_matrix():
    # X states with zero coherences, a rank-one outer block and a diagonal
    # sample beside dense states: each pattern group takes its own route
    rng = np.random.default_rng(17)
    x = random_x_state(rng)
    mats = [random_x_state(rng).to_matrix() for _ in range(5)]
    mats += [make_mixture(1.0).to_matrix(), make_werner(1.0).to_matrix(), np.eye(4) / 4.0]
    mats += [XColumns(x.rho11, x.rho22, x.rho33, x.rho44, np.sqrt(x.rho11 * x.rho44), 0.0)
             .to_matrix()]
    mats += [random_density_matrix(rng, rank) for rank in (1, 3, 4)]
    stack = np.array([mats[i] for i in rng.permutation(len(mats))])
    roots = psd_sqrt(stack)
    for m, root in zip(stack, roots):
        assert root.tobytes() == psd_sqrt(m).tobytes()
    # the X members alone form one closed-form group, as on an evolve stack
    x_rows = is_x_shaped(stack)
    for m, root in zip(stack[x_rows], psd_sqrt(stack[x_rows])):
        assert root.tobytes() == psd_sqrt(m).tobytes()


@settings(max_examples=300, deadline=None)
@given(small_block_matrices(hermitian=True))
def test_block_spin_flip_product_matches_the_dense_product(case):
    # the singular values of S (sy ox sy) S*, S = sqrt(rho) inside the X pattern,
    # from its six X entries, against those of the dense complex product
    m = small_block_psd(case)[0]
    root = psd_sqrt(m)
    assert is_x_shaped(root)
    dense = np.linalg.svd((root[..., ::-1] * linalg._SPIN_FLIP_SIGNS) @ root.conj(),
                          compute_uv=False)
    lam = linalg._spin_flip_singular_values(root)
    assert np.abs(lam - dense).max() <= 8.0 * np.finfo(float).eps * max(dense[0], np.abs(m).max())
    assert np.all(np.diff(lam) <= 0.0)
    np.testing.assert_array_equal(linalg._spin_flip_singular_values(
        psd_sqrt(beside_a_dense_matrix(m)))[0], lam)


@settings(max_examples=300, deadline=None)
@given(small_block_matrices(hermitian=True))
def test_x_entry_routes_equal_the_public_dense_routes(case):
    # the general routes that ``correlations`` takes on the XColumns of X-shaped
    # matrices against the public functions on the matrices: the root,
    # concurrence, negativity and the CC and l1 columns (one sum) bit for bit,
    # LQU and MIN within 4 ulps of the matrix's scale (their W and Gram entries
    # come from the X entries directly, not from Pauli coordinates). At 2**900 the
    # Gram matrix of the MIN overflows on both routes, so MIN is compared below
    # that scale only
    m, _, e = small_block_psd(case)[0], *case[1:3]
    x = linalg.x_columns(m[None])
    root = linalg._x_root(x)
    assert np.array(root).tobytes() == np.array(linalg.x_columns(psd_sqrt(m)[None])).tobytes()
    checks = []  # (name, closed form, reference) of each cross-check
    with pytest.MonkeyPatch.context() as patch, np.errstate(
            **dict.fromkeys(("over", "invalid"), "ignore" if e == 900 else "raise")):
        patch.setattr(measures, "check_routes", checks.extend)
        *_, cc, l1 = measures._x_values(x, root)
    conc, _, neg, unc, mt = (reference for _, _, reference in checks)
    assert conc.tobytes() == np.atleast_1d(concurrence_general(m)).tobytes()
    assert neg.tobytes() == np.atleast_1d(negativity(m)).tobytes()
    assert cc.tobytes() == np.atleast_1d(correlated_coherence_general(m)).tobytes()
    assert l1.tobytes() == np.atleast_1d(l1_coherence(m)).tobytes()
    eps = np.finfo(float).eps
    assert abs(unc[0] - lqu(m)) <= 4.0 * eps * max(1.0, np.abs(m).max())
    if e < 900:
        assert abs(mt[0] - min_trace_general(m)) <= 4.0 * eps * np.abs(m).max()


def test_spin_flip_product_of_larger_blocks_is_the_dense_product_bit_for_bit():
    rng = np.random.default_rng(9)
    roots = psd_sqrt(np.array([random_density_matrix(rng, rank) for rank in (1, 2, 4, 4)]))
    dense = np.linalg.svd((roots[..., ::-1] * linalg._SPIN_FLIP_SIGNS) @ roots.conj(),
                          compute_uv=False)
    assert linalg._spin_flip_singular_values(roots).tobytes() == dense.tobytes()


# the 10 ways to split {0, 1, 2, 3} into blocks of size 1 or 2
SMALL_BLOCK_SPLITS = [[[0], [1], [2], [3]]]
SMALL_BLOCK_SPLITS += [[[i, j]] + [[k] for k in range(4) if k not in (i, j)]
                       for i in range(4) for j in range(i + 1, 4)]
SMALL_BLOCK_SPLITS += [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]


def test_spin_flip_product_has_small_blocks_only_inside_the_x_pattern():
    # a PSD root S with exactly the pattern of each split: M = S (sy ox sy) S* has
    # only blocks of size 1 or 2 exactly when S lies inside the X pattern, which
    # then takes the six X entries of M; every other S takes the dense product
    rng = np.random.default_rng(13)
    roots = []
    for blocks in SMALL_BLOCK_SPLITS:
        g = random_block_hermitian(rng, 4, blocks)
        roots.append(g @ g.conj().T)
    roots = np.array(roots)
    assert len({(r != 0).tobytes() for r in roots}) == 10
    dense = (roots[..., ::-1] * linalg._SPIN_FLIP_SIGNS) @ roots.conj()
    lam = linalg._spin_flip_singular_values(roots)
    for root, m, lam_root in zip(roots, dense, lam):
        inside_x = bool(is_x_shaped(root))
        assert (max(map(len, blocks_of(m))) <= 2) == inside_x
        expected = np.linalg.svd(m, compute_uv=False)
        if inside_x:
            assert np.abs(lam_root - expected).max() <= 8.0 * np.finfo(float).eps * expected[0]
        else:
            assert lam_root.tobytes() == expected.tobytes()
        assert linalg._spin_flip_singular_values(root).tobytes() == lam_root.tobytes()


def test_eigenvector_block_root_of_a_clamped_block_stays_bounded():
    # the t = 60250 sample of j = 0, delta = 0, omega = gamma = 1e-3, nbar = 0 from
    # random_x_state seed 0: the inner block's lower eigenvalue is clamped from
    # -2.8e-17. The root from the block's eigenpairs stays within the root's scale;
    # the Cayley-Hamilton root (A + s_lo s_up I) / (s_lo + s_up) divides by the tiny
    # s_up there and misses the concurrence cross-check
    x = XColumns(2.7755575615628914e-17, 0.0, -2.7755575615628914e-17, 1.0,
                 -1.016e-27 + 5.554e-28j, -1.199e-28 - 8.835e-28j)
    m = x.to_matrix()
    root = psd_sqrt(m)
    assert np.abs(root).max() <= 1.0
    assert np.abs(root @ root - m).max() <= np.finfo(float).eps
    conc = correlations(m).concurrence
    assert conc == concurrence_x(x) and conc < 1e-26


def test_unsupported_size_rejected():
    with pytest.raises(ValueError, match="sizes 2..4"):
        hermitian_eigenvalues(np.eye(5, dtype=complex))


def test_zero_matrix():
    np.testing.assert_allclose(hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))


def test_psd_sqrt_identity_and_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(
        psd_sqrt(np.diag([4.0, 1.0, 0.0, 9.0])), np.diag([2.0, 1.0, 0.0, 3.0]), atol=1e-13
    )


def test_psd_sqrt_of_mixture_squares_back():
    rho = make_mixture(0.5).to_matrix()
    root = psd_sqrt(rho)
    assert np.abs(root @ root - rho).max() <= 1e-12


def test_psd_sqrt_random_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = random_hermitian(rng, 4)
        w, v = np.linalg.eigh(m)
        psd = (v * np.abs(w)) @ v.conj().T
        root = psd_sqrt(psd)
        assert np.abs(root @ root - psd).max() <= 1e-10 * max(1.0, np.abs(psd).max())
        assert np.abs(root - root.conj().T).max() <= 1e-13


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, 1.0, 1.0, -1e-6]))
    # a minimum eigenvalue of exactly -PSD_TOL is round-off; the next double below is not
    assert np.array_equal(psd_sqrt(np.diag([1.0, -linalg.PSD_TOL])), np.diag([1.0, 0.0]))
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, np.nextafter(-linalg.PSD_TOL, -1.0)]))


@pytest.mark.parametrize("f, m, message", [
    (linalg.require_hermitian, np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
    (partial_transpose_b, np.eye(2), "expected a 4x4 matrix, got shape (2, 2)"),
    (validate, np.eye(2) / 2.0, "expected a 4x4 matrix, got shape (2, 2)"),
], ids=["require_hermitian", "partial_transpose_b", "validate"])
def test_a_matrix_of_the_wrong_shape_is_refused(f, m, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        f(m)


def test_trace_norm_values():
    assert trace_norm(np.eye(4)) == pytest.approx(4.0, abs=1e-13)
    pt = partial_transpose_b(bell_phi_plus())
    lam = hermitian_eigenvalues(pt)
    np.testing.assert_allclose(sorted(lam), [-0.5, 0.5, 0.5, 0.5], atol=1e-13)
    assert trace_norm(pt) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_of_density_matrices_is_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = random_x_state(rng).to_matrix()
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_dominates_trace():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = random_hermitian(rng, 4)
        assert trace_norm(m) >= abs(np.trace(m).real) - 1e-12
    # equality iff sign-definite
    definite = np.diag([0.5, 1.0, 2.0, 0.25])
    assert trace_norm(definite) == pytest.approx(abs(np.trace(definite).real), abs=1e-12)
    indefinite = np.diag([1.0, -1.0, 2.0, 0.5])
    assert trace_norm(indefinite) > abs(np.trace(indefinite).real) + 0.5


def test_partial_transpose_definition_entrywise():
    # oracle: index-level definition out[(i,l),(j,k)] = in[(i,k),(j,l)]
    rng = np.random.default_rng(13)
    rho = random_x_state(rng).to_matrix()
    pt = partial_transpose_b(rho)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for ll in range(2):
                    assert pt[2 * i + ll, 2 * j + k] == rho[2 * i + k, 2 * j + ll]


def test_partial_transpose_diagonal_invariance_and_involution():
    rng = np.random.default_rng(17)
    diag = np.diag(rng.random(4)).astype(complex)
    np.testing.assert_array_equal(partial_transpose_b(diag), diag)
    rho = random_x_state(rng).to_matrix()
    np.testing.assert_array_equal(partial_transpose_b(partial_transpose_b(rho)), rho)
    general = np.array([random_density_matrix(rng, rank) for rank in (1, 2, 3, 4)])
    np.testing.assert_array_equal(partial_transpose_b(partial_transpose_b(general)), general)


def test_partial_transpose_swaps_x_coherences():
    rng = np.random.default_rng(19)
    x = random_x_state(rng)
    pt = partial_transpose_b(x.to_matrix())
    # the anti-diagonal coherence moves into the inner block and vice versa
    assert pt[0, 3] == x.rho23
    assert pt[1, 2] == x.rho14
    assert pt[0, 0] == x.rho11 and pt[3, 3] == x.rho44


def test_bell_partial_transpose_minimum_eigenvalue():
    lam = hermitian_eigenvalues(partial_transpose_b(bell_phi_plus()))
    assert lam[0] == pytest.approx(-0.5, abs=1e-13)


def test_partial_transpose_spectrum_party_independent():
    rng = np.random.default_rng(23)
    states = [random_x_state(rng).to_matrix() for _ in range(25)]
    states += [random_density_matrix(rng, rank) for rank in (1, 2, 3, 4) for _ in range(25)]
    for rho in states:
        lam_b = hermitian_eigenvalues(partial_transpose_b(rho))
        lam_a = hermitian_eigenvalues(partial_transpose_a(rho))
        np.testing.assert_allclose(lam_b, lam_a, atol=1e-12)
        assert abs(np.trace(partial_transpose_b(rho)) - 1.0) <= 1e-14
        # local unitaries U_A ox U_B leave the spectrum of the partial transpose alone
        u = np.kron(*random_unitary(rng, (2,)))
        lam_u = hermitian_eigenvalues(partial_transpose_b(u @ rho @ u.conj().T))
        np.testing.assert_allclose(lam_u, lam_b, rtol=0.0, atol=1e-12)
