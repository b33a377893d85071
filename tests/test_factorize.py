import logging

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhattrib.corpus import (
    Binning, Household, RatingEvent, bin_of, derive_binning, make_dataset,
)
from hhattrib.evaluate import FittedPipeline, PipelineConfig, classify_events
from hhattrib.factorize import (
    FactorParams, TemporalFactorModel, Xorshift64Star, _init_factors,
    cost, fit_lowrank, fit_lowrank_temporal, load_model,
    predict, residuals, ridge_solve, save_model,
    smoothed_ridge_solve,
)

from conftest import DAY0, anon_event, event


def naive_cost(model, train):
    """Independent double-loop evaluation of the training objective."""
    from hhattrib.corpus import bin_of

    U, V, Z = model.user_factors, model.movie_factors, model.user_bias
    total = 0.0
    for ev in train:
        b = bin_of(ev.timestamp, model.binning, clamp=True) - 1
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
    binning = derive_binning(events, T)
    U, V, Z = _init_factors(m, n, params.rank, T, params.seed)
    bins = [bin_of(ev.timestamp, binning, clamp=True) - 1 for ev in events]
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
    np.testing.assert_allclose(ridge_solve(np.eye(2), [3.0, 4.0], 0.0), [3.0, 4.0])


def test_ridge_row_of_ones_is_mean():
    x = np.array([2.0, 8.0, 5.0])
    out = ridge_solve(np.ones((1, 3)), x, 0.0)
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
        np.testing.assert_allclose(ridge_solve(A, x, alpha), expected, atol=1e-6)


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
    np.testing.assert_allclose(ridge_solve(A, x, alpha), oracle.x, atol=1e-6)


def test_ridge_singular_falls_back_to_pseudo_inverse():
    A = np.zeros((3, 2))
    out = ridge_solve(A, np.ones(2), 0.0)
    np.testing.assert_allclose(out, np.zeros(3))
    # rank-deficient with a consistent system: minimum-norm solution
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = ridge_solve(A, np.array([1.0, 1.0]), 0.0)
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)


def test_smoothed_reduces_to_ridge_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.normal(size=(4, 7))
        x = rng.normal(size=7)
        y = rng.normal(size=4)
        plain = ridge_solve(A, x, 0.9)
        smoothed = smoothed_ridge_solve(A, x, y, 0.9, 0.0)
        assert np.array_equal(plain, smoothed)


def test_smoothed_pure_neighbor_pull():
    out = smoothed_ridge_solve(np.zeros((2, 1)), np.zeros(1), [5.0, 6.0], 1.0, 1.0)
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
        got = smoothed_ridge_solve(A, x, y, alpha, beta)
        np.testing.assert_allclose(got, expected, atol=1e-6)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def test_single_event_interpolation():
    train = [event(0, 0, rating=80.0)]
    params = FactorParams(rank=1, reg_lambda=0.0, bin_count=1, iterations=40, seed=2)
    model = fit_lowrank(train, params)
    assert predict(model, 0, 0, train[0].timestamp) == pytest.approx(80.0, abs=1e-9)
    assert cost(model, train) == pytest.approx(0.0, abs=1e-12)


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
    model = fit_lowrank(train, params, user_count=10, movie_count=8)
    heldout = [(i, j) for i in range(10) for j in range(8) if not mask[i, j]]
    errors = [truth[i, j] - predict(model, i, j, DAY0) for i, j in heldout]
    rmse = float(np.sqrt(np.mean(np.square(errors))))
    assert rmse < 1.0


def test_cost_non_increasing_every_block_lowrank():
    rng = np.random.default_rng(8)
    m, n, events = random_instance(rng)
    params = FactorParams(rank=2, bin_count=1, iterations=4, seed=3)
    seen = []
    fit_lowrank(events, params, m, n,
                block_hook=lambda tag, b, mod: seen.append(cost(mod, events)))
    diffs = np.diff(seen)
    assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(seen[:-1])))


def test_cost_non_increasing_every_block_temporal():
    rng = np.random.default_rng(9)
    for _ in range(3):
        m, n, events = random_instance(rng)
        params = FactorParams(rank=2, bin_count=3, iterations=3, seed=6,
                              xi_u=2.0, xi_v=5.0, xi_z=4.0)
        seen = []
        fit_lowrank_temporal(events, params, m, n,
                             block_hook=lambda tag, b, mod: seen.append(cost(mod, events)))
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
    events = [event(u, v, rating=x, day=t % 7, week=t // 7) for u, v, x, t in PINV_RATINGS]
    params = FactorParams(rank=3, reg_lambda=0.0, xi_u=3.0, xi_v=6.0, xi_z=3.0,
                          bin_count=1, iterations=2, seed=2)
    seen = []
    fit_lowrank_temporal(events, params, 7, 6,
                         block_hook=lambda tag, b, mod: seen.append(cost(mod, events)))
    diffs = np.diff(seen)
    assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(seen[:-1])))


def test_t1_temporal_equals_lowrank_exactly():
    rng = np.random.default_rng(10)
    m, n, events = random_instance(rng)
    for seed in (0, 1):
        params = FactorParams(rank=3, bin_count=1, iterations=5, seed=seed)
        a = fit_lowrank(events, params, m, n)
        b = fit_lowrank_temporal(events, params, m, n)
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
def test_stacked_fit_matches_row_by_row_reference(ratings, bins, rank, reg_lambda,
                                                  xi, seed):
    # users 0..6 and movies 0..5: some never rate, others skip some bins;
    # with reg_lambda 0 a user with fewer ratings than the rank takes the
    # pseudo-inverse branch
    events = [event(u, v, rating=x, day=t % 7, week=t // 7) for u, v, x, t in ratings]
    params = FactorParams(rank=rank, reg_lambda=reg_lambda, xi_u=xi, xi_v=2 * xi,
                          xi_z=xi, bin_count=bins, iterations=2, seed=seed)
    if reg_lambda > 0.0:
        model = fit_lowrank_temporal(events, params, 7, 6)
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
        events, params, 7, 6, block_hook=lambda kind, b, mod: after.append((kind, b, (
            mod.user_factors.copy(), mod.movie_factors.copy(), mod.user_bias.copy()))))
    event_bins = [bin_of(ev.timestamp, model.binning, clamp=True) - 1 for ev in events]
    state = _init_factors(7, 6, rank, bins, seed)
    for kind, b, tensors in after:
        U, V, Z = (t.copy() for t in state)
        reference_block(U, V, Z, kind, b - 1, events, event_bins, params)
        got = cost(TemporalFactorModel(*tensors, model.binning, params), events)
        want = cost(TemporalFactorModel(U, V, Z, model.binning, params), events)
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

    model = fit_lowrank_temporal(events, params, 3, 5, block_hook=hook)
    assert {bin_of(ev.timestamp, model.binning, clamp=True)
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
    model = fit_lowrank_temporal(events, params, m, n)
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

    model = fit_lowrank_temporal(events, params, m, n, block_hook=hook)
    tag, b, U, V, Z = snapshots[0]
    assert tag == "u" and b == 1
    frozen = TemporalFactorModel(U, V, Z, model.binning, params)
    base = cost(frozen, events)
    user = events[0].user
    for _ in range(20):
        bumped = U.copy()
        direction = rng.normal(size=2)
        bumped[0, user] += 1e-3 * direction / np.linalg.norm(direction)
        perturbed = TemporalFactorModel(bumped, V, Z, model.binning, params)
        assert cost(perturbed, events) >= base - 1e-12 * base


def test_fit_deterministic():
    rng = np.random.default_rng(13)
    m, n, events = random_instance(rng)
    params = FactorParams(rank=2, bin_count=3, iterations=3, seed=21)
    a = fit_lowrank_temporal(events, params, m, n)
    b = fit_lowrank_temporal(events, params, m, n)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.movie_factors, b.movie_factors)
    assert np.array_equal(a.user_bias, b.user_bias)


def test_user_without_events_keeps_initialization():
    events = [event(0, m, rating=60.0, day=m % 7) for m in range(6)]
    params = FactorParams(rank=2, bin_count=1, iterations=3, seed=5)
    model = fit_lowrank(events, params, user_count=3, movie_count=6)
    assert model.user_bias[0, 2] == 50.0  # user 2 never rated anything


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_lowrank([], FactorParams(bin_count=1))
    with pytest.raises(ValueError):
        fit_lowrank([event(0, 0)], FactorParams(bin_count=4))
    with pytest.raises(ValueError):
        FactorParams(iterations=0)


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
    train = [RatingEvent(0, 0, 50.0, 5)]
    assert cost(model, train) == pytest.approx(1250.0)


def test_cost_zero_at_perfect_fit():
    model = _zero_model(bias=60.0, reg_lambda=0.0, xi_z=0.0)
    train = [RatingEvent(0, 0, 60.0, 5), RatingEvent(1, 1, 60.0, 7)]
    assert cost(model, train) == 0.0


def test_cost_matches_naive_oracle():
    rng = np.random.default_rng(14)
    for _ in range(5):
        m, n, events = random_instance(rng)
        params = FactorParams(rank=2, bin_count=3, iterations=2, seed=2,
                              xi_u=1.5, xi_v=2.5, xi_z=0.5)
        model = fit_lowrank_temporal(events, params, m, n)
        fast = cost(model, events)
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
    model = fit_lowrank_temporal(events, params, m, n)
    for ev in events:
        b = bin_of(ev.timestamp, model.binning, clamp=True) - 1
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
    model = fit_lowrank_temporal(events, params, m, n)
    expected = [ev.rating - predict(model, ev.user, ev.movie, ev.timestamp)
                for ev in events]
    np.testing.assert_allclose(residuals(events, model), expected, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="movie"):
        residuals([event(0, n)], model)
    with pytest.raises(ValueError, match="user"):
        residuals([event(-1, 0)], model)


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
                            {household.id: household}, model.binning, model)
    return classify_events(fitted, [ev])[0][0]


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

def test_xorshift_stream_properties():
    gen = Xorshift64Star(123)
    values = gen.uniforms(2000)
    assert np.all((0.0 <= values) & (values < 1.0))
    assert abs(values.mean() - 0.5) < 0.05
    again = Xorshift64Star(123).uniforms(2000)
    assert np.array_equal(values, again)
    assert not np.array_equal(values, Xorshift64Star(124).uniforms(2000))


def test_model_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    m, n, events = random_instance(rng)
    params = FactorParams(rank=2, bin_count=3, iterations=2, seed=9)
    model = fit_lowrank_temporal(events, params, m, n)
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


def test_weekday_binned_factor_variant():
    """A 7-bin model keyed to the weekday instead of the date."""
    rng = np.random.default_rng(16)
    m, n, events = random_instance(rng)
    params = FactorParams(rank=2, bin_count=7, iterations=3, seed=1)
    binning = Binning(7, 0, 7 * 86_400, kind="weekday")
    model = fit_lowrank_temporal(events, params, m, n, binning=binning)
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
    save_model(fit_lowrank_temporal(events, FactorParams(rank=2, bin_count=2,
                                                         iterations=1), m, n), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:keep]) + "\n")  # cut after line `keep`
    with pytest.raises(ValueError, match=f"{path}: missing field '{field}'"):
        load_model(path)


def test_load_model_checks_lengths_and_values(tmp_path):
    rng = np.random.default_rng(18)
    m, n, events = random_instance(rng)
    path = tmp_path / "model.txt"
    save_model(fit_lowrank_temporal(events, FactorParams(rank=2, bin_count=2,
                                                         iterations=1), m, n), path)
    lines = path.read_text().splitlines()
    short = lines[:6] + [lines[6].rsplit(" ", 1)[0]]   # one Z value missing
    path.write_text("\n".join(short) + "\n")
    with pytest.raises(ValueError, match="field 'Z' has"):
        load_model(path)
    bad = lines[:4] + ["U " + " ".join(["x"] * (len(lines[4].split()) - 1))] + lines[5:]
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError, match="field 'U'"):
        load_model(path)
