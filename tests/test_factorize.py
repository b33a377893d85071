import gc
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhattrib import factorize
from hhattrib.corpus import (
    Binning, Household, Households, bin_column, derive_binning, make_dataset,
)
from hhattrib.evaluate import FittedPipeline, PipelineConfig, classify_events
from hhattrib.factorize import (
    FactorParams, TemporalFactorModel, Xorshift64Star, _init_factors,
    cost, fit_lowrank_temporal, load_model, predict, residuals, ridge_solve,
    save_model,
)

from conftest import DAY, DAY0, Rating, anon_event, as_columns, as_test_columns, bin_of, event


def naive_cost(model, train):
    """Independent double-loop evaluation of the training objective."""
    U, V, Z = model.user_factors, model.movie_factors, model.user_bias
    total = 0.0
    for ev in train:
        b = bin_of(ev.timestamp, model.binning) - 1
        pred = Z[b][ev.user]
        for ell in range(model.rank):
            pred += U[b][ev.user][ell] * V[b][ev.movie][ell]
        total += 0.5 * (ev.rating - pred) ** 2
    p = model.params
    for tensor, lam, xi in ((U, p.reg_lambda, p.xi_u),
                            (V, p.reg_lambda, p.xi_v),
                            (Z, 0.0, p.xi_z)):
        flat = [tensor[b] for b in range(model.bin_count)]
        for block in flat:
            for value in np.asarray(block).ravel():
                total += 0.5 * lam * value * value
        for b in range(model.bin_count - 1):
            diff = np.asarray(flat[b + 1]) - np.asarray(flat[b])
            for value in diff.ravel():
                total += 0.5 * xi * value * value
    return total


def spd_solve(gram, rhs, alpha):
    """(gram + alpha I)^-1 rhs for one system, the oracle of ridge_solve.

    scipy's Cholesky, or the minimum-norm answer by pseudo-inverse when the
    factorization raises or a squared pivot is at most 1e-12 of the largest
    diagonal entry (ridge_solve's singularity test and cutoff).
    """
    system = gram + alpha * np.eye(len(gram))
    scale = max(float(np.max(np.diagonal(system), initial=0.0)), 1e-300)
    try:
        factor = scipy.linalg.cho_factor(system, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        factor = None
    if factor is None or np.min(np.diagonal(factor[0]) ** 2, initial=scale) <= 1e-12 * scale:
        return np.linalg.pinv(system, rcond=1e-12, hermitian=True) @ rhs
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def _normal_equations(A, x, y, beta):
    """Gram matrix A A^T and right-hand side A x + beta y of one ridge row."""
    A, x = np.asarray(A, dtype=float), np.asarray(x, dtype=float)
    rhs = A @ x if beta == 0.0 else A @ x + beta * np.asarray(y, dtype=float)
    return A @ A.T, rhs


def smoothed_ridge_solve(A, x, y, alpha, beta):
    """(A A^T + alpha I)^-1 (A x + beta y), the minimizer of
    0.5||A^T w - x||^2 + (alpha/2)||w||^2 - beta y.w: one row of a block update
    pulled toward y, solved by spd_solve."""
    return spd_solve(*_normal_equations(A, x, y, beta), alpha)


def stack_solve(A, x, alpha, y=None, beta=0.0):
    """The same system through ridge_solve, as a stack of one."""
    gram, rhs = _normal_equations(A, x, y, beta)
    return ridge_solve(gram[None], rhs[None], alpha)[0]


def reference_block(U, V, Z, kind, b, events, bins, params):
    """Refresh bin b of U, V or Z (kind "u", "v" or "z") row by row, in place.

    Every row is solved on its own with smoothed_ridge_solve; bins holds
    each event's zero-based bin.
    """
    T, m, n = U.shape[0], U.shape[1], V.shape[1]
    mine = [ev for ev, eb in zip(events, bins) if eb == b]

    def update(tensor, row, A, x, base_shift, xi):
        neighbors = [tensor[c, row] for c in (b - 1, b + 1) if 0 <= c < T]
        if A.shape[1] == 0 and not (neighbors and xi != 0.0):
            return
        pull = sum(neighbors) if neighbors else None
        new = smoothed_ridge_solve(A, x, pull, base_shift + len(neighbors) * xi,
                                   xi if neighbors else 0.0)
        tensor[b, row] = new if tensor.ndim == 3 else new[0]

    lam = params.reg_lambda
    if kind == "u":
        for i in range(m):
            evs = [ev for ev in mine if ev.user == i]
            x = np.array([ev.rating for ev in evs]) - Z[b, i]
            update(U, i, V[b, [ev.movie for ev in evs]].T, x, lam, params.xi_u)
    elif kind == "v":
        for j in range(n):
            evs = [ev for ev in mine if ev.movie == j]
            users = [ev.user for ev in evs]
            x = np.array([ev.rating for ev in evs]) - Z[b, users]
            update(V, j, U[b, users].T, x, lam, params.xi_v)
    else:
        for i in range(m):
            evs = [ev for ev in mine if ev.user == i]
            x = np.array([ev.rating for ev in evs])
            resid = x - V[b, [ev.movie for ev in evs]] @ U[b, i]
            update(Z, i, np.ones((1, len(evs))), resid, 0.0, params.xi_z)


def reference_fit(events, params, m, n):
    """Row-by-row Gauss-Seidel sweep built from reference_block.

    The oracle for the stacked block updates, in the order the fitting
    routine documents.
    """
    T = params.bin_count
    binning = derive_binning(as_columns(events), T)
    U, V, Z = _init_factors(m, n, params.rank, T, params.seed)
    bins = [bin_of(ev.timestamp, binning) - 1 for ev in events]
    for _ in range(params.iterations):
        for b in range(T):
            for kind in "uvz":
                reference_block(U, V, Z, kind, b, events, bins, params)
    return U, V, Z


def random_instance(rng, max_users=12, max_movies=10, bins=3):
    m = int(rng.integers(4, max_users))
    n = int(rng.integers(4, max_movies))
    events = []
    pairs = set()
    for _ in range(int(rng.integers(3 * m, 6 * m))):
        u, v = int(rng.integers(m)), int(rng.integers(n))
        if (u, v) in pairs:
            continue
        pairs.add((u, v))
        events.append(event(u, v, rating=float(rng.uniform(5, 95)),
                            day=int(rng.integers(7)), week=int(rng.integers(20))))
    return m, n, events


# ---------------------------------------------------------------------------
# Ridge solvers
# ---------------------------------------------------------------------------

def test_ridge_identity():
    np.testing.assert_allclose(stack_solve(np.eye(2), [3.0, 4.0], 0.0), [3.0, 4.0])


def test_ridge_row_of_ones_is_mean():
    x = np.array([2.0, 8.0, 5.0])
    out = stack_solve(np.ones((1, 3)), x, 0.0)
    np.testing.assert_allclose(out, [x.mean()])


def test_ridge_matches_augmented_least_squares():
    # oracle: stack sqrt(alpha) * I under A^T and solve by QR-based lstsq
    rng = np.random.default_rng(1)
    for _ in range(40):
        r, k = int(rng.integers(1, 6)), int(rng.integers(1, 21))
        A = rng.normal(size=(r, k))
        x = rng.normal(size=k)
        alpha = float(rng.uniform(0.1, 5.0))
        design = np.vstack([A.T, np.sqrt(alpha) * np.eye(r)])
        target = np.concatenate([x, np.zeros(r)])
        expected = np.linalg.lstsq(design, target, rcond=None)[0]
        np.testing.assert_allclose(stack_solve(A, x, alpha), expected, atol=1e-6)


def test_ridge_matches_derivative_free_minimizer():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 5))
    x = rng.normal(size=5)
    alpha = 0.7

    def objective(w):
        return 0.5 * np.sum((A.T @ w - x) ** 2) + 0.5 * alpha * np.sum(w ** 2)

    oracle = scipy.optimize.minimize(
        objective, np.zeros(3), method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20_000},
    )
    np.testing.assert_allclose(stack_solve(A, x, alpha), oracle.x, atol=1e-6)


def test_ridge_singular_falls_back_to_pseudo_inverse():
    A = np.zeros((3, 2))
    out = stack_solve(A, np.ones(2), 0.0)
    np.testing.assert_allclose(out, np.zeros(3))
    # rank-deficient with a consistent system: minimum-norm solution
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = stack_solve(A, np.array([1.0, 1.0]), 0.0)
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)


def test_smoothed_reduces_to_ridge_bitwise():
    # beta = 0 leaves the plain ridge answer, and solving the 20 systems as
    # one stack changes no bit of any system's answer
    rng = np.random.default_rng(3)
    grams, rhs, plain = [], [], []
    for _ in range(20):
        A = rng.normal(size=(4, 7))
        x = rng.normal(size=7)
        y = rng.normal(size=4)
        plain.append(stack_solve(A, x, 0.9))
        assert np.array_equal(plain[-1], stack_solve(A, x, 0.9, y, 0.0))
        grams.append(A @ A.T)
        rhs.append(A @ x)
    assert np.array_equal(ridge_solve(np.array(grams), np.array(rhs), 0.9), plain)


def test_smoothed_pure_neighbor_pull():
    out = stack_solve(np.zeros((2, 1)), np.zeros(1), 1.0, [5.0, 6.0], 1.0)
    np.testing.assert_allclose(out, [5.0, 6.0])


def test_smoothed_matches_independent_linear_solve():
    rng = np.random.default_rng(5)
    for _ in range(40):
        r, k = int(rng.integers(1, 6)), int(rng.integers(1, 21))
        A = rng.normal(size=(r, k))
        x = rng.normal(size=k)
        y = rng.normal(size=r)
        alpha = float(rng.uniform(0.1, 5.0))
        beta = float(rng.uniform(0.0, 3.0))
        design = np.vstack([A.T, np.sqrt(alpha) * np.eye(r)])
        target = np.concatenate([x, (beta / np.sqrt(alpha)) * y])
        expected = np.linalg.lstsq(design, target, rcond=None)[0]
        np.testing.assert_allclose(stack_solve(A, x, alpha, y, beta), expected, atol=1e-6)
        np.testing.assert_allclose(smoothed_ridge_solve(A, x, y, alpha, beta), expected,
                                   atol=1e-6)


def _mixed_stacks():
    """(name, grams, rhs, alpha, factorization raises) stacks mixing strong
    and weak systems."""
    rng = np.random.default_rng(31)
    strong = [(lambda A: A @ A.T)(rng.normal(size=(3, 6))) for _ in range(4)]
    ones = np.ones((3, 3)) / 3.0   # rank 1: rhs along (1, 1, 1) is consistent
    # a squared pivot of 1e-14: the factorization succeeds, the pivot test fails
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    return [
        ("zero grams next to strong systems",
         np.array([strong[0], np.zeros((3, 3)), strong[1], np.zeros((3, 3)), strong[2]]),
         rng.normal(size=(5, 3)), 0.0, True),
        ("rank-deficient grams, consistent right-hand sides",
         np.array([strong[3], ones, 2.0 * ones, strong[0]]),
         np.array([rng.normal(size=3), np.ones(3), np.full(3, 4.0), rng.normal(size=3)]),
         0.0, True),
        ("weak pivots next to strong systems",
         np.array([near, np.eye(2), 3.0 * near, np.array([[2.0, 1.0], [1.0, 2.0]])]),
         np.array([[1.0, 1.0], [2.0, -1.0], [3.0, 3.0], [1.0, -2.0]]), 0.0, False),
        ("an indefinite system",
         np.array([strong[1], np.diag([1.0, -1e-3, 2.0]), strong[2]]),
         rng.normal(size=(3, 3)), 0.0, True),
        ("alpha lifts every system",
         np.array([strong[0], np.zeros((3, 3)), ones]), rng.normal(size=(3, 3)), 0.5,
         False),
    ]


@pytest.mark.parametrize("name, grams, rhs, alpha, raises", _mixed_stacks(),
                         ids=[case[0] for case in _mixed_stacks()])
def test_stacked_fallback_matches_scalar_oracle(name, grams, rhs, alpha, raises):
    # each system of a mixed stack agrees with spd_solve on its own: strong
    # systems through solve, weak ones (or the whole stack, when the stacked
    # factorization raises) through the pseudo-inverse's minimum-norm answer
    systems = grams + alpha * np.eye(grams.shape[-1])
    if raises:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(systems)
    else:
        np.linalg.cholesky(systems)
    got = ridge_solve(grams, rhs, alpha)
    want = np.array([spd_solve(g, x, alpha) for g, x in zip(grams, rhs)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    if name == "weak pivots next to strong systems":
        # solve would answer (1, 0) and (1, 0); the minimum norm is (0.5, 0.5)
        np.testing.assert_allclose(got[[0, 2]], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def random_gram_stack(rng, count, rank):
    """Gram matrices A A^T of random (rank, j) designs, j from 0 (an all-zero
    gram) to 2 * rank, so that some are singular, scaled across nine decades."""
    grams = []
    for _ in range(count):
        A = rng.normal(size=(rank, int(rng.integers(0, 2 * rank + 1))))
        grams.append(10.0 ** rng.uniform(-3, 6) * (A @ A.T))
    return np.array(grams)


@pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-12, 1.0 + 1e-6, 10.0])
def test_ridge_shift_floor_needs_no_pivot_test(factor):
    # alpha at and just above _SAFE_SHIFT of the stack's largest gram
    # diagonal: the pivot test marks no system weak, and the one-solve path
    # gives the pivot path's bits
    rng = np.random.default_rng(43)
    for rank in (1, 2, 4, 10):
        grams = random_gram_stack(rng, 80, rank)
        rhs = rng.normal(size=(80, rank))
        alpha = factor * factorize._SAFE_SHIFT * np.max(
            np.diagonal(grams, axis1=1, axis2=2))
        assert not factorize._weak_systems(grams + alpha * np.eye(rank)).any()
        one_solve = ridge_solve(grams, rhs, alpha)
        with mock.patch.object(factorize, "_SAFE_SHIFT", np.inf):   # the pivot path
            pivoted = ridge_solve(grams, rhs, alpha)
        assert one_solve.tobytes() == pivoted.tobytes()


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def test_single_event_interpolation():
    train = [event(0, 0, rating=80.0)]
    params = FactorParams(rank=1, reg_lambda=0.0, bin_count=1, iterations=40, seed=2)
    model = fit_lowrank_temporal(as_columns(train), params)
    assert predict(model, 0, 0, train[0].timestamp) == pytest.approx(80.0, abs=1e-9)
    assert cost(model, as_columns(train)) == pytest.approx(0.0, abs=1e-12)


def test_rank1_completion_recovers_heldout():
    rng = np.random.default_rng(4)
    a = rng.uniform(1, 2, size=10)
    b = rng.uniform(20, 40, size=8)
    truth = np.outer(a, b)  # rank-1, entries in [20, 80]
    mask = rng.random((10, 8)) < 0.8
    mask[:, 0] = True
    mask[0, :] = True
    train = [event(i, j, rating=float(truth[i, j]), day=(i + j) % 7)
             for i in range(10) for j in range(8) if mask[i, j]]
    params = FactorParams(rank=1, reg_lambda=1e-6, bin_count=1,
                          iterations=100, seed=1)
    model = fit_lowrank_temporal(as_columns(train), params, user_count=10, movie_count=8)
    heldout = [(i, j) for i in range(10) for j in range(8) if not mask[i, j]]
    errors = [truth[i, j] - predict(model, i, j, DAY0) for i, j in heldout]
    rmse = float(np.sqrt(np.mean(np.square(errors))))
    assert rmse < 1.0


def test_cost_non_increasing_every_block_lowrank():
    rng = np.random.default_rng(8)
    m, n, events = random_instance(rng)
    train = as_columns(events)
    params = FactorParams(rank=2, bin_count=1, iterations=4, seed=3)
    seen = []
    fit_lowrank_temporal(train, params, m, n,
                block_hook=lambda tag, b, mod: seen.append(cost(mod, train)))
    diffs = np.diff(seen)
    assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(seen[:-1])))


def test_cost_non_increasing_every_block_temporal():
    rng = np.random.default_rng(9)
    for _ in range(3):
        m, n, events = random_instance(rng)
        train = as_columns(events)
        params = FactorParams(rank=2, bin_count=3, iterations=3, seed=6,
                              xi_u=2.0, xi_v=5.0, xi_z=4.0)
        seen = []
        fit_lowrank_temporal(train, params, m, n,
                             block_hook=lambda tag, b, mod: seen.append(cost(mod, train)))
        diffs = np.diff(seen)
        assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(seen[:-1])))


# (user, movie, rating, t) with t = 7 * week + day; with reg_lambda 0 several
# users take the pseudo-inverse branch, whose cutoff must drop the rounding
# noise of their summed Gram matrices
PINV_RATINGS = [
    (5, 2, 54.783, 4), (3, 0, 1.0, 28), (0, 2, 17.668, 34), (2, 0, 48.465, 21),
    (0, 4, 9.657, 35), (0, 2, 71.959, 28), (1, 1, 71.547, 18), (1, 1, 22.001, 40),
    (4, 3, 8.751, 27), (1, 1, 57.51, 39), (0, 4, 25.018, 37), (3, 1, 1.0, 8),
    (0, 2, 66.772, 37), (2, 4, 1.0, 23), (2, 1, 78.266, 30), (5, 2, 1.0, 16),
]


def test_cost_non_increasing_every_block_with_pseudo_inverse():
    train = as_columns(event(u, v, rating=x, day=t % 7, week=t // 7)
                       for u, v, x, t in PINV_RATINGS)
    params = FactorParams(rank=3, reg_lambda=0.0, xi_u=3.0, xi_v=6.0, xi_z=3.0,
                          bin_count=1, iterations=2, seed=2)
    seen = []
    fit_lowrank_temporal(train, params, 7, 6,
                         block_hook=lambda tag, b, mod: seen.append(cost(mod, train)))
    diffs = np.diff(seen)
    assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(seen[:-1])))


def test_t1_temporal_equals_lowrank_exactly():
    # one bin has no neighbor, so the smoothing weights change no bit of the
    # fit: the flat model is the temporal model at T = 1
    rng = np.random.default_rng(10)
    m, n, events = random_instance(rng)
    train = as_columns(events)
    for seed in (0, 1):
        params = FactorParams(rank=3, bin_count=1, iterations=5, seed=seed,
                              xi_u=0.0, xi_v=0.0, xi_z=0.0)
        a = fit_lowrank_temporal(train, params, m, n)
        b = fit_lowrank_temporal(train, FactorParams(rank=3, bin_count=1, iterations=5,
                                                      seed=seed, xi_u=5e5, xi_v=2e6,
                                                      xi_z=1e6), m, n)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.movie_factors, b.movie_factors)
        assert np.array_equal(a.user_bias, b.user_bias)


# (user, movie, rating, t): user 0 rates movie 0 three times in the first of
# three bins and twice in the last, so event counts differ from pair counts
REPEATED_RATINGS = [
    (0, 0, 20.0, 0), (0, 0, 80.0, 1), (0, 0, 55.0, 2), (0, 1, 40.0, 3),
    (1, 0, 70.0, 0), (1, 2, 30.0, 4), (1, 2, 90.0, 5), (2, 1, 10.0, 6),
    (1, 1, 25.0, 9), (1, 1, 75.0, 10), (2, 2, 45.0, 11), (0, 2, 60.0, 12),
    (2, 1, 35.0, 14), (2, 1, 60.0, 15), (1, 2, 50.0, 18), (0, 0, 45.0, 20),
    (0, 0, 65.0, 20),
]

# (user, movie, rating, t): users 0..4 rate movies 0..3 in days 0..12, three
# pairs twice, and six more events fall in days 14..40. In the 7 x 6 grid of
# the fits below, one bin (29 events) and the first of three bins (23) are
# at least half full and take dense matrices; the later two bins (3 events
# each) stay sparse
DENSE_RATINGS = [(u, v, float(5 + (37 * u + 11 * v) % 95), (u + 3 * v) % 13)
                 for u in range(5) for v in range(4)] + [
    (0, 0, 90.0, 7), (2, 3, 15.0, 1), (4, 1, 65.0, 12),
    (5, 4, 30.0, 14), (1, 4, 70.0, 20), (5, 0, 50.0, 26),
    (3, 2, 85.0, 27), (5, 4, 20.0, 33), (0, 4, 40.0, 40),
]


@given(
    ratings=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4),
                               st.floats(1.0, 100.0), st.integers(0, 40)),
                     min_size=1, max_size=30),
    bins=st.integers(1, 4),
    rank=st.integers(1, 3),
    reg_lambda=st.sampled_from([0.0, 1.0]),
    xi=st.sampled_from([0.0, 3.0]),
    seed=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
@example(ratings=[(0, 2, 1.0, 0), (0, 4, 1.0, 0), (1, 2, 1.0, 0)], bins=1, rank=3,
         reg_lambda=0.0, xi=0.0, seed=1)
@example(ratings=[(0, 2, 49.25, 0), (0, 4, 1.0, 0), (1, 1, 16.0, 0), (1, 2, 46.5, 0),
                  (1, 4, 77.0, 0), (2, 2, 1.0, 0)],
         bins=1, rank=2, reg_lambda=0.0, xi=0.0, seed=2)
@example(ratings=PINV_RATINGS, bins=1, rank=3, reg_lambda=0.0, xi=3.0, seed=2)
@example(ratings=REPEATED_RATINGS, bins=1, rank=2, reg_lambda=1.0, xi=2.0, seed=4)
@example(ratings=REPEATED_RATINGS, bins=3, rank=2, reg_lambda=1.0, xi=2.0, seed=4)
@example(ratings=DENSE_RATINGS, bins=1, rank=2, reg_lambda=1.0, xi=2.0, seed=4)
@example(ratings=DENSE_RATINGS, bins=1, rank=3, reg_lambda=0.0, xi=0.0, seed=1)
@example(ratings=DENSE_RATINGS, bins=3, rank=2, reg_lambda=1.0, xi=2.0, seed=4)
def test_stacked_fit_matches_row_by_row_reference(ratings, bins, rank, reg_lambda,
                                                  xi, seed):
    # users 0..6 and movies 0..5: some never rate, others skip some bins;
    # with reg_lambda 0 a user with fewer ratings than the rank takes the
    # pseudo-inverse branch
    events = [event(u, v, rating=x, day=t % 7, week=t // 7) for u, v, x, t in ratings]
    train = as_columns(events)
    params = FactorParams(rank=rank, reg_lambda=reg_lambda, xi_u=xi, xi_v=2 * xi,
                          xi_z=xi, bin_count=bins, iterations=2, seed=seed)
    if reg_lambda > 0.0:
        model = fit_lowrank_temporal(train, params, 7, 6)
        expected = reference_fit(events, params, 7, 6)
        for got, want in zip((model.user_factors, model.movie_factors,
                              model.user_bias), expected):
            np.testing.assert_allclose(got, want, rtol=1e-9,
                                       atol=1e-9 * max(1.0, float(np.max(np.abs(want)))))
        return
    # Without lambda a block's minimizer need not be unique and can be
    # ill-conditioned, so the two paths' factors may part while their costs
    # agree. Compare each block's cost with one reference block applied to
    # the stacked fit's state before it.
    after = []
    model = fit_lowrank_temporal(
        train, params, 7, 6, block_hook=lambda kind, b, mod: after.append((kind, b, (
            mod.user_factors.copy(), mod.movie_factors.copy(), mod.user_bias.copy()))))
    event_bins = [bin_of(ev.timestamp, model.binning) - 1 for ev in events]
    state = _init_factors(7, 6, rank, bins, seed)
    for kind, b, tensors in after:
        U, V, Z = (t.copy() for t in state)
        reference_block(U, V, Z, kind, b - 1, events, event_bins, params)
        got = cost(TemporalFactorModel(*tensors, model.binning, params), train)
        want = cost(TemporalFactorModel(U, V, Z, model.binning, params), train)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (kind, b)
        state = tensors


@pytest.mark.parametrize("xi_v", [0.0, 5.0])
def test_movie_without_events_in_a_bin(xi_v):
    # movie 3 is rated in the first and last of three bins only, movie 4 never
    events = [event(u, v, rating=30.0 + 10 * u + 5 * v, day=(u + v) % 7, week=w)
              for w in (0, 4, 8) for u in range(3) for v in range(3)]
    events += [event(0, 3, rating=70.0, week=0), event(1, 3, rating=20.0, week=8)]
    params = FactorParams(rank=2, xi_v=xi_v, bin_count=3, iterations=2, seed=3)
    before_v = []

    def hook(kind, b, mod):
        if kind == "u" and b == 2:
            before_v.append(mod.movie_factors.copy())

    model = fit_lowrank_temporal(as_columns(events), params, 3, 5, block_hook=hook)
    assert {bin_of(ev.timestamp, model.binning)
            for ev in events if ev.movie == 3} == {1, 3}
    init_v = _init_factors(3, 5, 2, 3, params.seed)[1]
    V = model.movie_factors
    if xi_v == 0.0:
        assert np.array_equal(V[1, 3], init_v[1, 3])
        assert np.array_equal(V[:, 4], init_v[:, 4])
        return
    # pulled toward its neighbors: (lambda + 2 xi) v = xi (below + above),
    # with the bin below refreshed this iteration and the bin above not yet
    last = before_v[-1]
    pulled = xi_v * (last[0, 3] + last[2, 3]) / (params.reg_lambda + 2 * xi_v)
    np.testing.assert_allclose(V[1, 3], pulled, rtol=1e-12)
    assert not np.allclose(V[1, 3], init_v[1, 3])
    assert not np.allclose(V[:, 4], init_v[:, 4])
    expected = reference_fit(events, params, 3, 5)
    np.testing.assert_allclose(V, expected[1], rtol=1e-9, atol=1e-12)


def test_large_xi_flattens_bins():
    rng = np.random.default_rng(11)
    m, n, events = random_instance(rng, max_users=16, max_movies=12)
    params = FactorParams(rank=2, xi_u=1e6, xi_v=1e6, xi_z=1e6,
                          bin_count=5, iterations=50, seed=4)
    model = fit_lowrank_temporal(as_columns(events), params, m, n)
    U = model.user_factors
    worst = max(np.linalg.norm(U[b + 1] - U[b]) for b in range(4))
    assert worst < 1e-3 * np.linalg.norm(U[0])


def test_block_update_first_order_optimality():
    rng = np.random.default_rng(12)
    m, n, events = random_instance(rng)
    params = FactorParams(rank=2, bin_count=2, iterations=2, seed=7,
                          xi_u=3.0, xi_v=3.0, xi_z=3.0)
    snapshots = []

    def hook(tag, b, model):
        if not snapshots:
            snapshots.append((tag, b,
                              model.user_factors.copy(),
                              model.movie_factors.copy(),
                              model.user_bias.copy()))

    train = as_columns(events)
    model = fit_lowrank_temporal(train, params, m, n, block_hook=hook)
    tag, b, U, V, Z = snapshots[0]
    assert tag == "u" and b == 1
    frozen = TemporalFactorModel(U, V, Z, model.binning, params)
    base = cost(frozen, train)
    user = events[0].user
    for _ in range(20):
        bumped = U.copy()
        direction = rng.normal(size=2)
        bumped[0, user] += 1e-3 * direction / np.linalg.norm(direction)
        perturbed = TemporalFactorModel(bumped, V, Z, model.binning, params)
        assert cost(perturbed, train) >= base - 1e-12 * base


def test_fit_deterministic():
    rng = np.random.default_rng(13)
    m, n, events = random_instance(rng)
    train = as_columns(events)
    params = FactorParams(rank=2, bin_count=3, iterations=3, seed=21)
    a = fit_lowrank_temporal(train, params, m, n)
    b = fit_lowrank_temporal(train, params, m, n)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.movie_factors, b.movie_factors)
    assert np.array_equal(a.user_bias, b.user_bias)


def test_user_without_events_keeps_initialization():
    events = [event(0, m, rating=60.0, day=m % 7) for m in range(6)]
    params = FactorParams(rank=2, bin_count=1, iterations=3, seed=5)
    model = fit_lowrank_temporal(as_columns(events), params, user_count=3, movie_count=6)
    assert model.user_bias[0, 2] == 50.0  # user 2 never rated anything


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_lowrank_temporal(as_columns([]), FactorParams(bin_count=1))
    with pytest.raises(ValueError):
        FactorParams(iterations=0)


@pytest.mark.parametrize("ratings, message", [
    # 2 events in a 2 x 2 grid take dense matrices, where movie 3 of user 0
    # would land in the cell of movie 1 of user 1
    ([(0, 0), (0, 3)], r"^movie 3 outside \[0, 2\)$"),
    ([(0, 0), (2, 1)], r"^user 2 outside \[0, 2\)$"),
])
def test_fit_rejects_ids_outside_the_grid(ratings, message):
    with pytest.raises(ValueError, match=message):
        fit_lowrank_temporal(as_columns(event(u, v) for u, v in ratings),
                             FactorParams(rank=1, bin_count=1, iterations=1), 2, 2)


# ---------------------------------------------------------------------------
# Cost and prediction
# ---------------------------------------------------------------------------

def _zero_model(m=2, n=2, r=2, bins=1, bias=0.0, **params):
    factor_params = FactorParams(rank=r, bin_count=bins, iterations=1,
                                 **params)
    binning = Binning(bins, 0, 10 ** 10)
    return TemporalFactorModel(
        np.zeros((bins, m, r)), np.zeros((bins, n, r)),
        np.full((bins, m), bias), binning, factor_params,
    )


def test_cost_single_event_zero_model():
    model = _zero_model(reg_lambda=0.0)
    train = as_columns([Rating(0, 0, 50.0, 5)])
    assert cost(model, train) == pytest.approx(1250.0)


def test_cost_zero_at_perfect_fit():
    model = _zero_model(bias=60.0, reg_lambda=0.0, xi_z=0.0)
    train = as_columns([Rating(0, 0, 60.0, 5), Rating(1, 1, 60.0, 7)])
    assert cost(model, train) == 0.0


def test_cost_matches_naive_oracle():
    rng = np.random.default_rng(14)
    for _ in range(5):
        m, n, events = random_instance(rng)
        params = FactorParams(rank=2, bin_count=3, iterations=2, seed=2,
                              xi_u=1.5, xi_v=2.5, xi_z=0.5)
        train = as_columns(events)
        model = fit_lowrank_temporal(train, params, m, n)
        fast = cost(model, train)
        slow = naive_cost(model, events)
        assert fast == pytest.approx(slow, rel=1e-9)


def test_predict_trivial_values():
    model = _zero_model(bias=50.0)
    assert predict(model, 0, 0, 3) == 50.0
    model.user_factors[0, 0] = [1.0, 2.0]
    model.movie_factors[0, 0] = [3.0, 4.0]
    model.user_bias[0, 0] = 5.0
    assert predict(model, 0, 0, 3) == pytest.approx(16.0)


def test_predict_depends_only_on_bin():
    model = _zero_model(bins=1, bias=42.0)
    assert predict(model, 0, 0, 0) == predict(model, 0, 0, 999)
    with pytest.raises(ValueError):
        predict(model, 5, 0, 0)


def test_predict_unknown_movie_is_bin_bias(caplog):
    rng = np.random.default_rng(23)
    m, n, events = random_instance(rng)
    params = FactorParams(rank=2, bin_count=3, iterations=2, seed=4)
    model = fit_lowrank_temporal(as_columns(events), params, m, n)
    for ev in events:
        b = bin_of(ev.timestamp, model.binning) - 1
        for movie in (n, n + 7):
            assert predict(model, ev.user, movie, ev.timestamp) == model.user_bias[b, ev.user]
    with pytest.raises(ValueError, match="movie"):
        predict(model, 0, -1, DAY0)
    # one record per unknown entry of movies, however many users it is broadcast to
    with caplog.at_level(logging.DEBUG, logger="hhattrib.factorize"):
        predict(model, [[0, 1]], [[n]], [[DAY0]])
        predict(model, [[0, 1]], [[0]], [[DAY0]])
    records = [r for r in caplog.records if "unknown to the factor model" in r.getMessage()]
    assert len(records) == 1


def test_residuals_gather_matches_predict():
    rng = np.random.default_rng(19)
    m, n, events = random_instance(rng)
    params = FactorParams(rank=2, bin_count=3, iterations=2, seed=4)
    train = as_columns(events)
    model = fit_lowrank_temporal(train, params, m, n)
    expected = [ev.rating - predict(model, ev.user, ev.movie, ev.timestamp)
                for ev in events]
    np.testing.assert_allclose(residuals(train, model), expected, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="movie"):
        residuals(as_columns([event(0, n)]), model)
    with pytest.raises(ValueError, match="user"):
        residuals(as_columns([event(-1, 0)]), model)


def oracle_predict(model, users, movies, stamps):
    """predict by two-array gathers from the (T, m, r) and (T, n, r) tensors:
    the oracle of its flat-row gathers."""
    users, movies = np.asarray(users, dtype=np.intp), np.asarray(movies, dtype=np.intp)
    known = movies < model.movie_count
    bins = bin_column(stamps, model.binning)
    bias = model.user_bias[bins, users]
    products = np.einsum("...r,...r->...", model.user_factors[bins, users],
                         model.movie_factors[bins, np.where(known, movies, 0)])
    return np.where(known, bias + products, bias)


@pytest.mark.parametrize("bins", [1, 12])
def test_predict_matches_the_two_array_gather(bins):
    rng = np.random.default_rng(bins)
    m, n, rank, count = 9, 7, 3, 60
    model = TemporalFactorModel(
        rng.normal(size=(bins, m, rank)), rng.normal(size=(bins, n, rank)),
        rng.uniform(0, 100, size=(bins, m)), Binning(bins, DAY0, 70 * DAY),
        FactorParams(rank=rank, bin_count=bins))
    stamps = DAY0 + rng.integers(-DAY, 80 * DAY, count)   # some clamped to an end bin
    movies = rng.integers(0, n + 3, count)                # some unknown to the model
    members = rng.integers(-1, m, (count, 4))             # -1 pads, as in _gap_matrix
    members[:, 0] = rng.integers(0, m, count)
    for case in ((members[:, 0], movies, stamps),
                 (np.where(members >= 0, members, members[:, :1]), movies[:, None],
                  stamps[:, None]),
                 (members[:, 0], movies[:1], stamps[:, None]),
                 (members[0, 0], movies[0], stamps[0]),
                 ([[0, 1]], [[n]], [[DAY0]])):
        got, want = predict(model, *case), oracle_predict(model, *case)
        assert got.shape == want.shape and np.array_equal(got, want)


@given(
    ratings=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4),
                               st.floats(1.0, 100.0), st.integers(0, 40)),
                     min_size=1, max_size=30),
    bins=st.integers(1, 4),
    rank=st.integers(1, 3),
    seed=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
@example(ratings=REPEATED_RATINGS, bins=3, rank=2, seed=4)
def test_progress_cost_is_cost_and_leaves_the_fit(ratings, bins, rank, seed):
    # the fit scores itself from each event's flat rows; cost() goes through
    # predict: both must give the same bits, and reading the cost must not
    # move a factor
    train = as_columns([event(u, v, rating=x, day=t % 7, week=t // 7)
                        for u, v, x, t in ratings])
    params = FactorParams(rank=rank, xi_u=1.5, xi_v=2.5, xi_z=0.5, bin_count=bins,
                          iterations=3, seed=seed)
    seen = []
    model = fit_lowrank_temporal(train, params, 7, 6, progress=lambda k, mod, value: (
        seen.append((k, value, cost(mod, train)))))
    assert [k for k, _, _ in seen] == [1, 2, 3]
    assert all(value == want for _, value, want in seen)
    assert_same_model(model, fit_lowrank_temporal(train, params, 7, 6))


# ---------------------------------------------------------------------------
# Residual classifier
# ---------------------------------------------------------------------------

def classify_residual(predictions, household, ev, alpha):
    """The residual classifier on one event, under a one-bin model that
    predicts predictions[user] for every movie."""
    model = TemporalFactorModel(
        np.zeros((1, len(predictions), 1)), np.zeros((1, 2, 1)),
        np.array([predictions], dtype=float), Binning(1, 0, 10 ** 10),
        FactorParams(rank=1, bin_count=1, iterations=1))
    fitted = FittedPipeline(PipelineConfig("residual", alpha=alpha),
                            Households({household.id: household}), model.binning, model)
    return classify_events(fitted, as_test_columns([ev]))[0][0]


def test_classifier_alpha_rules(pair_household):
    # observed 10: member 0 predicts 12 (gap 2), member 1 predicts 17 (gap 7)
    ev = anon_event(0, 0, rating=10.0)
    for alpha, member in ((1.0, 0), (10.0, 1), (0.0, 0), (3.4, 0), (3.6, 1)):
        assert classify_residual([12.0, 17.0], pair_household, ev, alpha) == member


def test_classifier_rest_tie_breaks_to_smaller_id():
    ev = anon_event(0, 0, rating=40.0)  # gaps: 40, 10, 10
    assert classify_residual([0.0, 30.0, 30.0], Household(0, (0, 2, 1)), ev, 1.0) == 1


# ---------------------------------------------------------------------------
# RNG and serialization
# ---------------------------------------------------------------------------

class ScalarXorshift64Star(Xorshift64Star):
    """The stream one value at a time, as the README writes it: the oracle of
    Xorshift64Star.uniforms."""

    def next_uint64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & (2 ** 64 - 1)
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & (2 ** 64 - 1)

    def uniform(self) -> float:
        """One double in [0, 1), from the top 53 bits of the next output."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def uniforms(self, count: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(count)], dtype=float)


def test_xorshift_stream_properties():
    gen = Xorshift64Star(123)
    values = gen.uniforms(2000)
    assert np.all((0.0 <= values) & (values < 1.0))
    assert abs(values.mean() - 0.5) < 0.05
    again = Xorshift64Star(123).uniforms(2000)
    assert np.array_equal(values, again)
    assert not np.array_equal(values, Xorshift64Star(124).uniforms(2000))


@given(st.one_of(st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1)),
       st.lists(st.one_of(st.integers(0, 70), st.integers(0, 10 ** 5)),
                min_size=1, max_size=2))
@example(0, [0, 1])
@example(2 ** 64 - 1, [10 ** 5])
@example(5, [432, 1144])      # a 1-bin rank-4 fit of 108 users and 286 movies
@example(9, [63, 64, 65])     # around a change of lane length
@example(3, [18, 3, 2])
@settings(max_examples=40, deadline=None)
def test_uniforms_match_the_scalar_stream(seed, counts):
    # calls back to back, as the user then the movie factors draw: each call
    # gives the scalar loop's doubles and leaves the generator in its state
    gen, oracle = Xorshift64Star(seed), ScalarXorshift64Star(seed)
    for count in counts:
        got = gen.uniforms(count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == oracle.uniforms(count).tobytes()
        assert gen._state == oracle._state


def test_init_factors_match_the_scalar_stream():
    got = _init_factors(13, 7, 3, 5, 11)
    with mock.patch.object(factorize, "Xorshift64Star", ScalarXorshift64Star):
        want = _init_factors(13, 7, 3, 5, 11)
    for ours, theirs in zip(got, want, strict=True):
        assert ours.tobytes() == theirs.tobytes()


def test_uniforms_impossible_count_fails_at_once():
    # the lane output is allocated before any jump-ahead work
    with pytest.raises(MemoryError):
        Xorshift64Star(0).uniforms(10 ** 18)


def test_model_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    m, n, events = random_instance(rng)
    params = FactorParams(rank=2, bin_count=3, iterations=2, seed=9)
    model = fit_lowrank_temporal(as_columns(events), params, m, n)
    path = tmp_path / "model.txt"
    save_model(model, path)
    again = load_model(path)
    assert np.array_equal(model.user_factors, again.user_factors)
    assert np.array_equal(model.movie_factors, again.movie_factors)
    assert np.array_equal(model.user_bias, again.user_bias)
    assert again.params == params
    assert again.binning == model.binning
    save_model(again, tmp_path / "model2.txt")
    assert (tmp_path / "model.txt").read_bytes() == (tmp_path / "model2.txt").read_bytes()


def generator_dump_array(fh, name, values):
    """One array line, one repr per value through a generator: the oracle of
    the sliced writer."""
    fh.write(name + " " + " ".join(repr(float(v)) for v in values) + "\n")


def edge_model(m=5, n=3, rank=2, bins=3, seed=19):
    """A model whose arrays hold -0.0, the smallest subnormal and 1e308."""
    rng = np.random.default_rng(seed)
    U, V = rng.normal(size=(bins, m, rank)), rng.normal(size=(bins, n, rank)) * 1e-3
    Z = rng.uniform(0, 100, size=(bins, m))
    U.flat[:3] = [-0.0, 5e-324, 1e308]
    V.flat[-2:] = [-5e-324, -0.0]
    Z.flat[1] = -1e308
    return TemporalFactorModel(U, V, Z, Binning(bins, 10, 1000),
                               FactorParams(rank=rank, bin_count=bins, seed=seed))


def assert_same_model(got, want):
    for name in ("user_factors", "movie_factors", "user_bias"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.binning, got.params) == (want.binning, want.params)


@pytest.mark.parametrize("slice_size", [1, 2, 3, 7, 14, 29, 30, 31, 1 << 12])
def test_model_file_bytes_match_the_generator_writer(tmp_path, slice_size):
    # U has 30 values and Z 15: slices that divide them, that leave one
    # over, and that are longer
    model = edge_model()
    with mock.patch.object(factorize, "_dump_array", generator_dump_array):
        save_model(model, tmp_path / "want.txt")
    with mock.patch.object(factorize, "_SLICE", slice_size):
        save_model(model, tmp_path / "got.txt")
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
    flat = {"U": model.user_factors.transpose(1, 2, 0).ravel(),
            "V": model.movie_factors.transpose(1, 2, 0).ravel(),
            "Z": model.user_bias.transpose(1, 0).ravel()}
    # the longest other line, "params ...\n", is 36 characters: pieces of at
    # least that cut array values, and one piece holds a whole line; a
    # shorter piece cuts a line the array reader only takes whole, so the
    # whole-line reader takes the file
    for piece in (3, 35, 36, 41, 64, 1 << 16):
        with mock.patch.object(factorize, "_PIECE", piece):
            with open(tmp_path / "got.txt", encoding="utf-8") as fh:
                fields = factorize._array_fields(fh)
            if piece < 36:
                assert fields is None
            else:
                for name, values in flat.items():
                    assert fields[name].tobytes() == values.tobytes(), name
            assert_same_model(load_model(tmp_path / "got.txt"), model)


def test_model_file_memory_is_sliced(tmp_path):
    # writing and reading hold the arrays, a copy of at most one more, and a
    # slice or piece of text: never a string per value or the whole file
    model = edge_model(m=5000, n=300, rank=4, bins=12)
    arrays = sum(a.nbytes for a in (model.user_factors, model.movie_factors,
                                    model.user_bias))
    path = tmp_path / "model.txt"
    for action in (lambda: save_model(model, path), lambda: load_model(path)):
        gc.collect()
        tracemalloc.start()
        try:
            action()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * arrays + (2 << 20), (peak, arrays)


MODEL_EDITS = ["x", " ", "  ", "\n", "\x0c", "\x1c", "\x85", "\u2028", "\t", "_", "e", "-",
               ".", "nan", "inf", "1e", "\u0663", "\xa0", "U ", "Z 1", "#", "\r", "\x00"]


@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(MODEL_EDITS + [""])),
                min_size=1, max_size=3),
       st.sampled_from([5, 40, 1 << 16]))
@example([(0, "")], 1 << 16)
@settings(max_examples=150, deadline=None)
def test_load_model_matches_the_whole_line_reader(tmp_path_factory, edits, piece):
    # a model file with characters inserted ("" deletes one): the array
    # reader gives the whole-line reader's model or raises its message
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(edge_model(m=3, n=2, rank=2, bins=2), path)
    text = path.read_text()
    for at, edit in edits:
        at %= len(text) + 1
        text = text[:at] + edit + text[at + (not edit):]
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    # an array reader that refuses every file leaves the whole-line reader
    for fields in (lambda fh: None, factorize._array_fields):
        with mock.patch.object(factorize, "_array_fields", fields), \
                mock.patch.object(factorize, "_PIECE", piece):
            try:
                outcomes.append(load_model(path))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
    want, got = outcomes
    if isinstance(want, TemporalFactorModel):
        assert isinstance(got, TemporalFactorModel), got
        assert_same_model(got, want)
    else:
        assert got == want


def test_weekday_binned_factor_variant():
    """A 7-bin model keyed to the weekday instead of the date."""
    rng = np.random.default_rng(16)
    m, n, events = random_instance(rng)
    params = FactorParams(rank=2, bin_count=7, iterations=3, seed=1)
    binning = Binning(7, 0, 7 * 86_400, kind="weekday")
    model = fit_lowrank_temporal(as_columns(events), params, m, n, binning=binning)
    assert model.binning.kind == "weekday"
    ev = events[0]
    same_weekday = predict(model, ev.user, ev.movie, ev.timestamp + 14 * 86_400)
    assert predict(model, ev.user, ev.movie, ev.timestamp) == same_weekday


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a model\n")
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize("keep, field", [(4, "U"), (2, "params"), (1, "dims")])
def test_load_model_names_missing_field(tmp_path, keep, field):
    rng = np.random.default_rng(17)
    m, n, events = random_instance(rng)
    path = tmp_path / "model.txt"
    save_model(fit_lowrank_temporal(as_columns(events), FactorParams(
        rank=2, bin_count=2, iterations=1), m, n), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:keep]) + "\n")  # cut after line `keep`
    with pytest.raises(ValueError, match=f"{path}: missing field '{field}'"):
        load_model(path)


def test_load_model_checks_lengths_and_values(tmp_path):
    rng = np.random.default_rng(18)
    m, n, events = random_instance(rng)
    path = tmp_path / "model.txt"
    save_model(fit_lowrank_temporal(as_columns(events), FactorParams(
        rank=2, bin_count=2, iterations=1), m, n), path)
    lines = path.read_text().splitlines()
    short = lines[:6] + [lines[6].rsplit(" ", 1)[0]]   # one Z value missing
    path.write_text("\n".join(short) + "\n")
    with pytest.raises(ValueError, match="field 'Z' has"):
        load_model(path)
    bad = lines[:4] + ["U " + " ".join(["x"] * (len(lines[4].split()) - 1))] + lines[5:]
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError, match="field 'U'"):
        load_model(path)
