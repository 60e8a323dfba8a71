"""Stacked evaluation: a stack of states gives what its matrices give one at a
time, and a failing sample is named by its position (and, in evolve, its time)."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_block_supported,
    blocks_of,
    degenerate_marginal_state,
    random_balanced_x_state,
    random_density_matrix,
    random_rank_one_x_state,
    random_x_state,
    rank_deficient_x_state,
    valid_x,
)
from qcorr import (
    CrossCheckFailure,
    ModelParams,
    NotHermitian,
    NotPSD,
    StepRejected,
    TraceNotOne,
    XColumns,
    concurrence_general,
    correlated_coherence_general,
    correlations,
    evolve,
    hermitian_eigenvalues,
    l1_coherence,
    log_negativity,
    lqu,
    make_mixture,
    make_werner,
    min_trace_general,
    negativity,
    partial_transpose_b,
    psd_sqrt,
    validate,
)
from qcorr import linalg, measures, states
from qcorr.dynamics import _evaluate_samples


def x_state_with_zeros(rng, zero14: bool, zero23: bool) -> np.ndarray:
    x = random_x_state(rng)
    return valid_x(x.rho11, x.rho22, x.rho33, x.rho44,
                   0.0 if zero14 else x.rho14, 0.0 if zero23 else x.rho23).to_matrix()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), counts=st.lists(st.integers(0, 3), min_size=8, max_size=8),
       data=st.data())
def test_stack_matches_one_matrix_at_a_time(seed, counts, data):
    # X rows of every branch (zero coherences, rank-one and rank-deficient blocks,
    # balanced x = 0) beside dense rows: each row, X or dense, gets bit for bit
    # what it gets alone. Then, with invalid rows injected, one per drawn fault at a random
    # position, the first in flat order raises as it does alone, named by its position
    rng = np.random.default_rng(seed)
    makers = [
        lambda: x_state_with_zeros(rng, zero14=False, zero23=True),
        lambda: x_state_with_zeros(rng, zero14=True, zero23=False),
        lambda: x_state_with_zeros(rng, zero14=True, zero23=True),
        lambda: rank_deficient_x_state(rng),
        lambda: random_rank_one_x_state(rng).to_matrix(),
        lambda: random_balanced_x_state(rng).to_matrix(),
        lambda: random_density_matrix(rng),
        lambda: degenerate_marginal_state(rng),
    ]
    mats = [make() for make, count in zip(makers, counts) for _ in range(count)]
    mats.append(make_mixture(rng.uniform(0.0, 1.0)).to_matrix())
    stack = np.array([mats[i] for i in rng.permutation(len(mats))])

    columns = correlations(stack)
    table = np.array(columns.as_tuple())
    assert table.shape == (7, len(stack))
    for i, rho in enumerate(stack):
        assert table[:, i].tobytes() == np.array(correlations(rho).as_tuple()).tobytes()
    assert columns.l1_coherence.tobytes() == l1_coherence(stack).tobytes()

    # every X-shaped matrix keeps its exact zeros, and each matrix gets the
    # result it gets on its own: the square roots of the states and of their
    # roots, and the eigenvalues of the partial transposes
    for mats in (stack, psd_sqrt(stack)):
        for m, root in zip(mats, psd_sqrt(mats)):
            assert_block_supported(root, blocks_of(m))
            np.testing.assert_array_equal(root, psd_sqrt(m))
    pts = partial_transpose_b(stack)
    for m, lam in zip(pts, hermitian_eigenvalues(pts)):
        np.testing.assert_array_equal(lam, hermitian_eigenvalues(m))

    faults = data.draw(st.lists(st.sampled_from(["hermitian", "trace", "psd", "nan"]), unique=True))
    first = len(stack)
    for fault in faults:
        at = data.draw(st.integers(0, len(stack) - 1))
        stack[at] = faulty_sample(data.draw(st.sampled_from(["x", "dense"])), fault)
        first = min(first, at)
    if faults:
        with pytest.raises((NotHermitian, TraceNotOne, NotPSD)) as alone:
            correlations(stack[first])
        with pytest.raises(type(alone.value)) as info:
            correlations(stack)
        assert (info.value.index, str(info.value)) == (first, str(alone.value))


def test_square_roots_on_lapack_patterns_are_hermitian_and_stack():
    # matrices with an entry outside the X pattern go to LAPACK eigh: each root
    # is exactly Hermitian, squares back, and is the same bytes stacked (beside
    # X states) as alone
    rng = np.random.default_rng(41)
    mats = []
    for blocks in ([[0, 1, 2, 3]], [[0, 1, 3], [2]], [[1, 2, 3], [0]], [[0, 2], [1, 3]]):
        for rank in (1, 2, 4):
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            full, m = g @ g.conj().T, np.zeros((4, 4), dtype=complex)
            for b in blocks:
                m[np.ix_(b, b)] = full[np.ix_(b, b)]
            mats.append((m + m.conj().T) / 2.0)
    mats += [random_x_state(rng).to_matrix() for _ in range(4)]
    stack = np.array([mats[i] for i in rng.permutation(len(mats))])
    for m, root in zip(stack, psd_sqrt(stack)):
        np.testing.assert_array_equal(root, root.conj().T)
        assert np.abs(root @ root - m).max() <= 1e-13 * np.abs(m).max()
        assert root.tobytes() == psd_sqrt(m).tobytes()


def test_each_eigenproblem_is_solved_once(monkeypatch):
    # a dense evolve diagonalizes its sample stack once, for validation, and
    # the general routes reuse the square root it returns; the initial state
    # is validated as sample 0 of the stack, with no solve of its own. A dense
    # square root is LAPACK eigh's, so count the eigh calls
    shapes, eigh = [], np.linalg.eigh

    def recorded(a):
        shapes.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    rho = random_density_matrix(np.random.default_rng(3))
    traj = evolve(rho, ModelParams(nbar=0.5), t_max=1.0, dt=0.01, stride=1)
    assert shapes == [(len(traj.times), 4, 4)]
    monkeypatch.undo()

    # the fig1 stack is X-shaped throughout, with several nonzero patterns
    # (sample 0 is the w = 1/2 mixture, rho33 = rho23 = 0): no stacked solve
    # takes a 4x4 matrix (LAPACK's), and each 2x2 block problem is solved once
    # for the whole stack, in closed form
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append((name, len(args[0])))
            return fn(*args, **kwargs)
        return call

    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "svd"),
                         (linalg, "_hermitian_2x2"), (measures, "_hermitian_2x2"),
                         (linalg, "_singular_values_2x2")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    traj = evolve(make_mixture(0.5).to_matrix(), ModelParams(), t_max=100.0, dt=1e-3,
                  stride=100)
    assert len({(m != 0).tobytes() for m in traj.states}) > 1
    stacked = sorted(name for name, n in calls if n == len(traj.times))
    # the roots of validation's two blocks, the two partial-transpose blocks and
    # the blocks of W and the MIN Gram matrix; the spin flip's two blocks
    assert stacked == ["_hermitian_2x2"] * 6 + ["_singular_values_2x2"] * 2


# one fixed invalid sample per fault, X-shaped and dense, with the class and
# message it raised before validation solved its stack without a second check
_X_SAMPLE = XColumns(0.4, 0.3, 0.2, 0.1, 0.1 + 0.05j, 0.1 - 0.1j).to_matrix()
_PSI = np.array([1.0, 2j, 3.0, 4.0 - 1j]) / np.sqrt(31.0)
_DENSE_SAMPLE = 0.225 * np.eye(4) + 0.1 * np.outer(_PSI, _PSI.conj())  # no zero entry
_HERMITIAN_MESSAGE = "max |M - M^dag| entry = 1.000e-06 exceeds 1.0e-10"
_NAN_MESSAGE = "entry (2, 1) = (nan+0j) is not finite"
PINNED_FAULTS = {
    ("x", "hermitian"): (NotHermitian, _HERMITIAN_MESSAGE),
    ("x", "trace"): (TraceNotOne, "trace = (1.5+0j), |trace - 1| = 5.000e-01"),
    ("x", "psd"): (NotPSD, "minimum eigenvalue -4.095e-01 below -1.0e-10"),
    ("x", "nan"): (NotHermitian, _NAN_MESSAGE),
    ("dense", "hermitian"): (NotHermitian, _HERMITIAN_MESSAGE),
    ("dense", "trace"): (TraceNotOne,
                         "trace = (1.5-1.6087965854621213e-18j), |trace - 1| = 5.000e-01"),
    ("dense", "psd"): (NotPSD, "minimum eigenvalue -2.250e-01 below -1.0e-10"),
    ("dense", "nan"): (NotHermitian, _NAN_MESSAGE),
}


def faulty_sample(kind: str, fault: str) -> np.ndarray:
    m = (_X_SAMPLE if kind == "x" else _DENSE_SAMPLE).copy()
    if fault == "hermitian":
        m[0, 3] += 1e-6
    elif fault == "trace":
        m *= 1.5
    elif fault == "psd":
        m += np.diag([0.5, 0.0, 0.0, -0.5])
    else:
        m[2, 1] = np.nan
    return m


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), data=st.data())
@pytest.mark.parametrize("kind", ["x", "dense", "mixed"])
def test_injected_fault_raises_its_pinned_class_index_and_message(kind, seed, n, data):
    # a fault at a random index of a valid stack, and maybe a second fault of
    # another kind after it: the first one raises, as it did before; a mixed
    # stack holds X and dense states, and its faulty samples are either
    rng = np.random.default_rng(seed)
    kinds = [kind if kind != "mixed" else data.draw(st.sampled_from(["x", "dense"]))
             for _ in range(n)]
    stack = np.array([random_x_state(rng).to_matrix() if k == "x" else random_density_matrix(rng)
                      for k in kinds])
    faults = data.draw(st.permutations(["hermitian", "trace", "psd", "nan"]))
    first = data.draw(st.integers(0, n - 1))
    stack[first] = faulty_sample(kinds[first], faults[0])
    if first + 1 < n and data.draw(st.booleans()):
        second = data.draw(st.integers(first + 1, n - 1))
        stack[second] = faulty_sample(kinds[second], faults[1])
    error, message = PINNED_FAULTS[kinds[first], faults[0]]
    for fn in (validate, correlations):
        with pytest.raises(error) as info:
            fn(stack)
        assert (info.value.index, str(info.value)) == (first, message)


def x_dense_and_mixed_stacks() -> dict:
    rng = np.random.default_rng(61)
    x = np.array([random_x_state(rng).to_matrix() for _ in range(4)])
    dense = np.array([random_density_matrix(rng) for _ in range(4)])
    return {"x": x, "dense": dense, "mixed": np.array([x[0], dense[0], dense[1], x[1], x[2]])}


@pytest.mark.parametrize("kind", ["x", "dense", "mixed"])
def test_validate_and_correlations_test_the_x_shape_once(monkeypatch, kind):
    # one router splits the stack once per call: no solver tests a group again
    stack, calls, real = x_dense_and_mixed_stacks()[kind], [], linalg.is_x_shaped

    def counted(rho):
        calls.append(np.shape(rho))
        return real(rho)

    for module in (linalg, states):
        monkeypatch.setattr(module, "is_x_shaped", counted)
    for fn in (validate, correlations):
        calls.clear()
        fn(stack)
        assert calls == [stack.shape]


def _unreachable(what):
    def call(*args, **kwargs):
        raise AssertionError(f"{what} was called")
    return call


def test_an_x_stack_makes_no_lapack_call(monkeypatch):
    stack = x_dense_and_mixed_stacks()["x"]
    for name in ("eigh", "eigvalsh", "svd", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, _unreachable(f"np.linalg.{name}"))
    validate(stack)
    correlations(stack)
    for fn in (psd_sqrt, hermitian_eigenvalues, concurrence_general, negativity):
        fn(stack)
    hermitian_eigenvalues(partial_transpose_b(stack))
    evolve(make_mixture(0.5).to_matrix(), ModelParams(nbar=0.3), t_max=10.0, dt=0.01, stride=10)


def test_a_dense_stack_never_reaches_the_x_block_kernels(monkeypatch):
    stack = x_dense_and_mixed_stacks()["dense"]
    for module, name in ((linalg, "_hermitian_2x2"), (measures, "_hermitian_2x2"),
                         (linalg, "_singular_values_2x2")):
        monkeypatch.setattr(module, name, _unreachable(name))
    validate(stack)
    correlations(stack)
    for fn in (psd_sqrt, hermitian_eigenvalues, concurrence_general, negativity, lqu,
               min_trace_general):
        fn(stack)
    evolve(stack[0], ModelParams(nbar=0.3), t_max=1.0, dt=0.01, stride=10)


@pytest.mark.parametrize("x_first", [True, False])
def test_a_mixed_stack_raises_its_first_failing_row(monkeypatch, x_first):
    # the X group's cross-check miss and the dense group's NotPSD each raise in
    # their group, and the router raises the one at the earlier row of the stack;
    # validate alone raises the NotPSD
    x_rows, _ = full_rank_x_stack(2)
    assert not measures.balanced(linalg.x_columns(x_rows)).any()
    dense_rows = np.array([random_density_matrix(np.random.default_rng(5)),
                           faulty_sample("dense", "psd")])
    stack = np.concatenate([x_rows, dense_rows] if x_first else [dense_rows, x_rows])
    real, tol = measures.min_trace, measures.CROSS_CHECK_TOL["min_trace"]
    # the second X row misses, as in test_each_closed_form_off_by_twice_its_tolerance_fails_its_check
    monkeypatch.setattr(measures, "min_trace",
                        lambda x: real(x) + 2.0 * tol * (np.arange(np.size(x.rho14)) == 1))
    error, message = PINNED_FAULTS["dense", "psd"]
    with pytest.raises(CrossCheckFailure if x_first else error) as info:
        correlations(stack)
    assert info.value.index == 1
    if x_first:
        assert str(info.value).startswith("min_trace: closed form")
    for bad in (stack, stack.reshape(2, 2, 4, 4)):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            validate(bad)
        assert info.value.index == (3 if x_first else 1)


def full_rank_x_stack(n=8, seed=31):
    rng = np.random.default_rng(seed)
    return np.array([random_x_state(rng).to_matrix() for _ in range(n)]), 0.5 * np.arange(n)


def test_evaluate_samples_matches_per_sample_correlations():
    states, times = full_rank_x_stack()
    columns = _evaluate_samples(times, states)
    for k, rho in enumerate(states):
        row = [c[k] for c in columns.as_tuple()]
        np.testing.assert_allclose(row, correlations(rho).as_tuple(), atol=1e-12)


def test_near_x_states_take_the_general_routes():
    # off-X entries of 1e-10 with random phases: not X-shaped, so no closed
    # form ignores them and nothing is cross-checked; each row is its general
    # route, within the measures' sensitivity of the X projection's values
    rng = np.random.default_rng(29)
    werner = make_werner(0.3).to_matrix()
    off_x = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
    upper = np.triu(1e-10 * np.exp(2j * np.pi * rng.random((50, 4, 4))) * off_x)
    stack = werner + upper + upper.conj().swapaxes(1, 2)
    columns = correlations(stack)
    general = (concurrence_general, negativity, log_negativity, lqu, min_trace_general,
               correlated_coherence_general, l1_coherence)
    for got, route in zip(columns.as_tuple(), general):
        np.testing.assert_allclose(got, route(stack), rtol=0.0, atol=1e-15)
    projection = correlations(werner).as_tuple()
    for got, want in zip(columns.as_tuple(), projection):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)


def test_cross_check_input_names_its_sample(monkeypatch):
    states, times = full_rank_x_stack()
    # the closed-form MIN of sample 4 alone misses its general route by 1.6e-10
    real = measures.min_trace
    monkeypatch.setattr(measures, "min_trace",
                        lambda x: real(x) + 1.6e-10 * (np.arange(np.size(x.rho14)) == 4))
    with pytest.raises(CrossCheckFailure) as info:
        correlations(states)
    assert info.value.index == 4
    message = str(info.value)
    tolerance = f"tolerance {measures.CROSS_CHECK_TOL['min_trace']:.1e}"
    assert message.startswith("min_trace:") and tolerance in message
    with pytest.raises(CrossCheckFailure, match=r"^at t = 2: min_trace: .* differ by 1\.6"):
        _evaluate_samples(times, states)
    # an invalid matrix is named by its flat position too, and validation
    # comes first; in time order the earlier cross-check miss still wins
    states[6] *= 1.001
    with pytest.raises(TraceNotOne, match=r"\|trace - 1\| = 1\.000e-03") as info:
        correlations(states.reshape(2, 4, 4, 4))
    assert info.value.index == 6
    with pytest.raises(CrossCheckFailure, match=r"^at t = 2: min_trace"):
        _evaluate_samples(times, states)
    # without a miss, a failed validation raises StepRejected at its sample's
    # time, the earlier of two failures wins, and an all-NaN sample is not finite
    monkeypatch.undo()
    states, times = full_rank_x_stack()
    states[5, 2, 2] += 1e-3
    states[2, 0, 0] += 1e-3
    with pytest.raises(StepRejected, match=r"t = 1: trace = .*\|trace - 1\| = 1\.000e-03") as info:
        _evaluate_samples(times, states)
    assert info.value.time == times[2]
    states, times = full_rank_x_stack()
    states[3] = np.nan
    with pytest.raises(StepRejected, match=r"t = 1\.5: entry \(0, 0\) = .* is not finite"):
        _evaluate_samples(times, states)


@pytest.mark.parametrize("name, check", [
    ("concurrence_x", "concurrence"), ("concurrence_dicke", "concurrence (Dicke basis)"),
    ("negativity_x", "negativity"), ("lqu_x", "lqu"),
    ("correlated_coherence", "min_trace"), ("min_trace", "min_trace"),
])
def test_each_closed_form_off_by_twice_its_tolerance_fails_its_check(monkeypatch, name, check):
    # every closed form stays checked on X rows: off by 2 CROSS_CHECK_TOL, it
    # misses its general route at the first X row, named by its stack position
    # behind a dense row, which is not cross-checked. CC is checked as the MIN,
    # which is CC on a row whose marginal of A is not degenerate
    states, _ = full_rank_x_stack()
    assert not measures.balanced(linalg.x_columns(states[0]))
    stack = np.concatenate([[random_density_matrix(np.random.default_rng(5))], states])
    real = getattr(measures, name)
    monkeypatch.setattr(measures, name, lambda x: real(x) + 2.0 * measures.CROSS_CHECK_TOL[check])
    with pytest.raises(CrossCheckFailure, match=f"^{re.escape(check)}: closed form") as info:
        correlations(stack)
    assert info.value.index == 1


def test_x_rows_report_the_trace_np_trace_sums():
    # X rows sum their diagonal, imaginary parts included, in np.trace's order:
    # a failing trace reads as the dense check reports it, for one matrix and
    # for a stack (k, 4, 4) whose failing matrix sits at a nonzero position
    rng = np.random.default_rng(53)
    for _ in range(300):
        diag = rng.random(4) * 10.0 ** rng.integers(-8, 1, 4) + 1j * rng.uniform(-5e-11, 5e-11, 4)
        m = np.diag(diag)
        with pytest.raises(TraceNotOne, match=re.escape(f"trace = {complex(np.trace(m))!r}, ")):
            validate(m)
        k = int(rng.integers(1, 6))
        stack = np.array([make_werner(0.2).to_matrix()] * k + [m, np.diag(diag[::-1])])
        trace = complex(np.trace(stack, axis1=1, axis2=2)[k])
        with pytest.raises(TraceNotOne, match=re.escape(f"trace = {trace!r}, ")) as info:
            validate(stack)
        assert info.value.index == k


def random_x_stack(rng, n: int) -> np.ndarray:
    pops = rng.random((4, n)) + 0.05
    pops /= pops.sum(axis=0)
    phases = np.exp(2j * np.pi * rng.random((2, n)))
    rho14 = np.sqrt(pops[0] * pops[3]) * rng.random(n) * phases[0]
    rho23 = np.sqrt(pops[1] * pops[2]) * rng.random(n) * phases[1]
    return XColumns(*pops, rho14, rho23).to_matrix()


def random_dense_stack(rng, n: int) -> np.ndarray:
    m = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    rho = m @ m.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("make, n", [(random_x_stack, 20_000), (random_dense_stack, 4_000)])
def test_correlations_peak_memory_is_bounded_by_its_input(make, n):
    # the routes' temporaries set the peak: the X stack measures about 2.9x, the dense 4.3x
    stack = make(np.random.default_rng(7), n)
    correlations(stack[:3])  # one-off caches and imports stay out of the peak
    tracemalloc.start()
    try:
        correlations(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * stack.nbytes
