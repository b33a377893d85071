"""Low-rank rating models fit by alternating ridge block updates.

One fitting routine serves every model: user factors, movie factors, and
user biases vary across time bins, with a quadratic penalty tying adjacent
bins together; with one bin it is the time-independent factorization.
Every block update is an exact minimizer of the full objective over that
block, so the training cost is non-increasing after each one. The rows of
a block do not depend on each other, so each block is solved as one stack
of small ridge systems, whose Gram matrices and right-hand sides are products
of each bin's sparse event-count and rating-sum matrices with the factors.

`predict` scores any array of (user, movie, stamp) triples at once; the
residual classifier and the Gaussian scores read their rating gaps from it.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .corpus import Binning, EventColumns, bin_column, derive_binning

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """Minimal xorshift64* uniform generator.

    Used only for factor initialization so that the init stream is exactly
    reproducible from the written description in the README, independent
    of any library's generator internals. The raw seed is conditioned
    through one splitmix64 step to avoid weak small-integer states.
    """

    def __init__(self, seed: int):
        z = (int(seed) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        self._state = z if z != 0 else 0x9E3779B97F4A7C15

    def next_uint64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self) -> float:
        """One double in [0, 1), from the top 53 bits of the next output."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def uniforms(self, count: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(count)], dtype=float)


@dataclass(frozen=True)
class FactorParams:
    """Fitting hyper-parameters (defaults follow the tuned reference setup)."""

    rank: int = 10
    reg_lambda: float = 1.0
    xi_u: float = 10.0
    xi_v: float = 40.0
    xi_z: float = 40.0
    bin_count: int = 12
    iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1 or self.iterations < 1 or self.bin_count < 1:
            raise ValueError(f"rank/iterations/bin_count must be >= 1 in {self}")
        if min(self.reg_lambda, self.xi_u, self.xi_v, self.xi_z) < 0:
            raise ValueError(f"regularization weights must be >= 0 in {self}")


@dataclass(frozen=True, eq=False)
class TemporalFactorModel:
    """Per-bin user factors, movie factors, and user biases.

    Arrays are indexed bin-first: user_factors[b, i] is user i's factor
    vector in bin b+1, movie_factors[b, j] is movie j's, and user_bias[b, i]
    the additive bias. bin_count == 1 is the time-independent model.
    """

    user_factors: np.ndarray   # (T, m, r)
    movie_factors: np.ndarray  # (T, n, r)
    user_bias: np.ndarray      # (T, m)
    binning: Binning
    params: FactorParams

    def __post_init__(self):
        if self.user_factors.shape[0] != self.binning.bin_count:
            raise ValueError("tensor bin dimension disagrees with binning")
        for arr in (self.user_factors, self.movie_factors, self.user_bias):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite factor entries")

    @property
    def user_count(self) -> int:
        return self.user_factors.shape[1]

    @property
    def movie_count(self) -> int:
        return self.movie_factors.shape[1]

    @property
    def rank(self) -> int:
        return self.user_factors.shape[2]

    @property
    def bin_count(self) -> int:
        return self.user_factors.shape[0]


# ---------------------------------------------------------------------------
# Ridge block solvers
# ---------------------------------------------------------------------------

def _spd_solve(gram: np.ndarray, rhs: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (gram + alpha I) w = rhs via Cholesky, pseudo-inverse on failure.

    The pseudo-inverse branch returns the minimum-norm solution; it is only
    reachable when alpha == 0 leaves the Gram matrix (numerically)
    singular, which the factor's pivots detect even when the LAPACK
    routine itself does not raise. Its cutoff is the pivot test's 1e-12:
    smaller eigenvalues are rounding noise, and inverting them raises the cost.
    """
    system = gram.copy()
    system[np.diag_indices_from(system)] += alpha
    try:
        factor = scipy.linalg.cho_factor(system, lower=True, check_finite=False)
        pivots = np.diagonal(factor[0]) ** 2
        scale = max(float(np.max(np.diagonal(system), initial=0.0)), 1e-300)
        if float(np.min(pivots, initial=scale)) <= 1e-12 * scale:
            raise scipy.linalg.LinAlgError("numerically singular system")
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    except scipy.linalg.LinAlgError:
        return np.linalg.pinv(system, rcond=1e-12, hermitian=True) @ rhs


def _stacked_spd_solve(grams: np.ndarray, rhs: np.ndarray, alpha: float) -> np.ndarray:
    """_spd_solve over a (k, r, r) stack: one Cholesky, one solve.

    Systems whose pivots fail _spd_solve's singularity test go through
    _spd_solve one by one, and so does the whole stack if the stacked
    factorization raises (in practice only with alpha == 0).
    """
    systems = grams + alpha * np.eye(grams.shape[-1])
    try:
        pivots = np.diagonal(np.linalg.cholesky(systems), axis1=1, axis2=2) ** 2
    except np.linalg.LinAlgError:
        weak = np.ones(len(systems), dtype=bool)
    else:
        scale = np.maximum(np.max(np.diagonal(systems, axis1=1, axis2=2), axis=1), 1e-300)
        weak = np.min(pivots, axis=1) <= 1e-12 * scale
    out = np.empty_like(rhs)
    strong = ~weak
    out[strong] = np.linalg.solve(systems[strong], rhs[strong, :, None])[..., 0]
    for k in np.flatnonzero(weak):
        out[k] = _spd_solve(grams[k], rhs[k], alpha)
    return out


def ridge_solve(A: np.ndarray, x: np.ndarray, alpha: float) -> np.ndarray:
    """Minimizer of 0.5||A^T w - x||^2 + (alpha/2)||w||^2.

    A has one row per latent coordinate and one column per observation,
    so the solution is (A A^T + alpha I)^-1 A x.
    """
    return smoothed_ridge_solve(A, x, None, alpha, 0.0)


def smoothed_ridge_solve(A, x, y, alpha: float, beta: float) -> np.ndarray:
    """(A A^T + alpha I)^-1 (A x + beta y): a ridge solve pulled toward y.

    With beta == 0, y is ignored and this is ridge_solve(A, x, alpha).
    This is the one-row reference for the stacked block updates.
    """
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    rhs = A @ x
    if beta != 0.0:
        rhs = rhs + beta * np.asarray(y, dtype=float)
    gram = A @ A.T
    return _spd_solve(gram, rhs, alpha)


# ---------------------------------------------------------------------------
# Alternating minimization
# ---------------------------------------------------------------------------

def _init_factors(m, n, rank, bins, seed):
    """Seeded uniform init: users before movies, row-major, bins fastest."""
    gen = Xorshift64Star(seed)
    u = gen.uniforms(m * rank * bins).reshape(m, rank, bins)
    v = gen.uniforms(n * rank * bins).reshape(n, rank, bins)
    user_factors = np.ascontiguousarray(u.transpose(2, 0, 1)) / math.sqrt(m)
    movie_factors = np.ascontiguousarray(v.transpose(2, 0, 1)) / math.sqrt(n)
    user_bias = np.full((bins, m), 50.0)
    return user_factors, movie_factors, user_bias


def _grams(counts, factors):
    """Per-row Gram matrices sum_j counts[i, j] f_j f_j^T, as a (rows, r, r) stack."""
    rank = factors.shape[1]
    outer = (factors[:, :, None] * factors[:, None, :]).reshape(-1, rank * rank)
    return (counts @ outer).reshape(-1, rank, rank)


def _refresh(tensor, b, grams, rhs, active, base_shift, xi):
    """Solve the ridge systems of bin b of a factor or bias tensor, in place.

    Rows with events (the mask active) are refreshed, every row when xi
    pulls toward a neighbor bin: xi times the neighbors' sum joins rhs and
    xi per neighbor joins base_shift. A 1-d grams holds bias rows' event
    counts; count + shift > 0 on every refreshed row, so each is a division.
    """
    neighbors = [tensor[c] for c in (b - 1, b + 1) if 0 <= c < tensor.shape[0]]
    shift = base_shift + len(neighbors) * xi
    if neighbors and xi != 0.0:
        active, rhs = slice(None), rhs + xi * sum(neighbors)
    if grams.ndim == 1:
        tensor[b, active] = rhs[active] / (grams[active] + shift)
    else:
        tensor[b, active] = _stacked_spd_solve(grams[active], rhs[active], shift)


def fit_lowrank(train, params: FactorParams, user_count=None, movie_count=None,
                block_hook=None, progress=None) -> TemporalFactorModel:
    """The time-independent fit: fit_lowrank_temporal with bin_count == 1."""
    if params.bin_count != 1:
        raise ValueError("fit_lowrank requires bin_count == 1")
    return fit_lowrank_temporal(train, params, user_count, movie_count,
                                block_hook=block_hook, progress=progress)


def fit_lowrank_temporal(train, params: FactorParams, user_count=None,
                         movie_count=None, binning=None, block_hook=None,
                         progress=None) -> TemporalFactorModel:
    """Time-dependent alternating minimization over bins 1..T.

    Bins are swept in order inside each iteration; within a bin all user
    factors, then all movie factors, then all user biases are refreshed.
    A row's update depends on no other row of its block, so each block is
    one stacked solve and the sweep is still row-by-row Gauss-Seidel.
    Each bin's events are summed once into sparse user x movie matrices of
    event counts and rating sums, which the blocks multiply by the factors.
    Each update solves its ridge subproblem with the diagonal shift raised
    by xi per existing neighbor bin and the right-hand side pulled toward
    the sum of the neighboring bins' current vectors (the bin below has
    already been refreshed this iteration, the bin above has not). Bias
    updates carry no lambda shrinkage, only the smoothing term.

    Factors start from seeded uniforms scaled by 1/sqrt(m) and 1/sqrt(n);
    biases start at 50. A user or movie with no ratings in a bin keeps its
    values unless a smoothing term pulls it toward its neighbors.
    After each iteration, progress (if given) receives the iteration
    number, the model and its training cost.
    """
    columns = EventColumns.of(train)
    if not columns.user.size:
        raise ValueError("empty training set")
    T = params.bin_count
    if binning is None:
        binning = derive_binning(columns, T)
    if binning.bin_count != T:
        raise ValueError("binning bin_count disagrees with params")
    users, movies, ratings = columns.user, columns.movie, columns.rating
    bins = bin_column(columns.stamp, binning)
    m = user_count if user_count is not None else int(users.max()) + 1
    n = movie_count if movie_count is not None else int(movies.max()) + 1
    U, V, Z = _init_factors(m, n, params.rank, T, params.seed)
    model = TemporalFactorModel(U, V, Z, binning, params)
    lam, hook = params.reg_lambda, block_hook or (lambda *_: None)
    per_bin = []
    for b in range(T):
        in_bin = bins == b
        u, v, x = users[in_bin], movies[in_bin], ratings[in_bin]
        C, X = (scipy.sparse.csr_array((w, (u, v)), (m, n)) for w in (np.ones(len(u)), x))
        count = np.bincount(u, minlength=m)  # events, not distinct pairs
        per_bin.append((C, X, C.T, X.T, count, np.bincount(u, x, m),
                        count > 0, np.bincount(v, minlength=n) > 0))

    for k in range(params.iterations):
        for b, (C, X, Ct, Xt, count, total, user_rows, movie_rows) in enumerate(per_bin):
            Ub, Vb, Zb = U[b], V[b], Z[b]  # views: each block reads the last update
            _refresh(U, b, _grams(C, Vb), X @ Vb - Zb[:, None] * (C @ Vb), user_rows,
                     lam, params.xi_u)
            hook("u", b + 1, model)
            _refresh(V, b, _grams(Ct, Ub), Xt @ Ub - Ct @ (Zb[:, None] * Ub), movie_rows,
                     lam, params.xi_v)
            hook("v", b + 1, model)
            _refresh(Z, b, count, total - np.einsum("ir,ir->i", Ub, C @ Vb), user_rows,
                     0.0, params.xi_z)
            hook("z", b + 1, model)
        if progress:
            progress(k + 1, model, cost(model, columns))
    return model


def residuals(train, model: TemporalFactorModel) -> np.ndarray:
    """Observed minus predicted rating for every event, in order.

    Raises ValueError for a user or movie outside the model.
    """
    columns = EventColumns.of(train)
    unknown = columns.movie[columns.movie >= model.movie_count]
    if len(unknown):
        raise ValueError(f"movie {unknown[0]} outside [0, {model.movie_count})")
    return columns.rating - predict(model, columns.user, columns.movie, columns.stamp)


def cost(model: TemporalFactorModel, train) -> float:
    """Regularized squared-error objective the fitting routine minimizes."""
    total = 0.5 * float(np.sum(residuals(train, model) ** 2))
    p = model.params
    for tensor, lam, xi in (
        (model.user_factors, p.reg_lambda, p.xi_u),
        (model.movie_factors, p.reg_lambda, p.xi_v),
        (model.user_bias, 0.0, p.xi_z),
    ):
        total += 0.5 * lam * float(np.sum(tensor ** 2))
        if model.bin_count > 1:
            total += 0.5 * xi * float(np.sum(np.diff(tensor, axis=0) ** 2))
    return total


def predict(model: TemporalFactorModel, users, movies, stamps) -> np.ndarray:
    """Predicted ratings of (user, movie) pairs at their stamps' bins, unclamped.

    The three arrays are broadcast together. A movie unknown to the model
    predicts the user's bin bias, with one debug record per unknown entry
    of ``movies``; a user outside the model or a negative movie raises
    ValueError.
    """
    users = np.asarray(users, dtype=np.intp)
    movies = np.asarray(movies, dtype=np.intp)
    for name, outside, count in (
            ("user", users[(users < 0) | (users >= model.user_count)], model.user_count),
            ("movie", movies[movies < 0], model.movie_count)):
        if len(outside):
            raise ValueError(f"{name} {outside[0]} outside [0, {count})")
    known = movies < model.movie_count
    for movie in movies[~known].tolist():
        log.debug("movie %s unknown to the factor model, user bias only", movie)
    bins = bin_column(stamps, model.binning)
    bias = model.user_bias[bins, users]
    products = np.einsum("...r,...r->...", model.user_factors[bins, users],
                         model.movie_factors[bins, np.where(known, movies, 0)])
    return np.where(known, bias + products, bias)


# ---------------------------------------------------------------------------
# Serialization (layout documented in the README)
# ---------------------------------------------------------------------------

_MODEL_MAGIC = "temporal-factor-model 1"


def _dump_array(fh, name, values):
    fh.write(name + " " + " ".join(repr(float(v)) for v in values) + "\n")


def save_model(model: TemporalFactorModel, path) -> None:
    """Write the model as a line-oriented text file (README: model format)."""
    p, b = model.params, model.binning
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MODEL_MAGIC + "\n")
        fh.write(f"dims {model.user_count} {model.movie_count} "
                 f"{model.rank} {model.bin_count}\n")
        fh.write(f"params {p.rank} {repr(p.reg_lambda)} {repr(p.xi_u)} "
                 f"{repr(p.xi_v)} {repr(p.xi_z)} {p.bin_count} {p.iterations} "
                 f"{p.seed}\n")
        fh.write(f"binning {b.kind} {b.bin_count} {b.origin} {b.span}\n")
        _dump_array(fh, "U", model.user_factors.transpose(1, 2, 0).ravel())
        _dump_array(fh, "V", model.movie_factors.transpose(1, 2, 0).ravel())
        _dump_array(fh, "Z", model.user_bias.transpose(1, 0).ravel())


def load_model(path) -> TemporalFactorModel:
    """Read a model written by save_model.

    Raises ValueError naming the file and the field when the magic line
    or a field is missing, malformed, or of the wrong length for dims.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a factor model file")
    fields = {}
    for line in lines[1:]:
        name, _, rest = line.partition(" ")
        fields[name] = rest.split()

    def field(name, length, convert):
        values = fields.get(name)
        if values is None:
            raise ValueError(f"{path}: missing field {name!r}")
        if len(values) != length:
            raise ValueError(f"{path}: field {name!r} has {len(values)} values, "
                             f"expected {length}")
        try:
            return convert(values)
        except ValueError as exc:
            raise ValueError(f"{path}: field {name!r}: {exc}") from None

    m, n, r, T = dims = field("dims", 4, lambda dv: [int(v) for v in dv])
    if min(dims) < 1:
        raise ValueError(f"{path}: field 'dims' has a size below 1")
    params = field("params", 8, lambda pv: FactorParams(
        rank=int(pv[0]), reg_lambda=float(pv[1]), xi_u=float(pv[2]),
        xi_v=float(pv[3]), xi_z=float(pv[4]), bin_count=int(pv[5]),
        iterations=int(pv[6]), seed=int(pv[7]),
    ))
    binning = field("binning", 4, lambda bv: Binning(
        int(bv[1]), int(bv[2]), int(bv[3]), kind=bv[0]))
    U = field("U", m * r * T, lambda v: np.array(v, dtype=float))
    V = field("V", n * r * T, lambda v: np.array(v, dtype=float))
    Z = field("Z", m * T, lambda v: np.array(v, dtype=float))
    try:
        return TemporalFactorModel(
            np.ascontiguousarray(U.reshape(m, r, T).transpose(2, 0, 1)),
            np.ascontiguousarray(V.reshape(n, r, T).transpose(2, 0, 1)),
            np.ascontiguousarray(Z.reshape(m, T).transpose(1, 0)), binning, params,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
