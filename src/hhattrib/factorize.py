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

import io
import logging
import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import Binning, EventColumns, bin_column, derive_binning

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_BITS = np.arange(64, dtype=np.uint64)


def _xorshift(words: np.ndarray) -> np.ndarray:
    """One xorshift64 state step of each word of a uint64 array, in place."""
    words ^= words >> np.uint64(12)
    words ^= words << np.uint64(25)
    words ^= words >> np.uint64(27)
    return words


def _gf2_apply(matrix: np.ndarray, words: np.ndarray) -> np.ndarray:
    """A 64x64 GF(2) matrix, held as the images of the unit words (matrix[b]
    is the image of bit b), applied to each word of a uint64 array."""
    bits = (words[:, None] >> _BITS) & np.uint64(1)
    return np.bitwise_xor.reduce(matrix * bits, axis=1)


# the state step taken 2**k times, as a GF(2) matrix, by k; filled by squaring
_JUMPS = {0: _xorshift(np.uint64(1) << _BITS)}


def _jump(k: int) -> np.ndarray:
    if k not in _JUMPS:
        half = _jump(k - 1)
        _JUMPS[k] = _gf2_apply(half, half)
    return _JUMPS[k]


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

    def uniforms(self, count: int) -> np.ndarray:
        """The stream's next ``count`` doubles in [0, 1), each from the top 53
        bits of the next output, as the README's one-at-a-time loop draws them;
        the state afterwards is that loop's.

        The draws are cut into lanes of 2**k consecutive steps, k about half
        of log2(count) less 2, which balances the per-step numpy calls against
        the jump-ahead work. Lane i starts 2**k * i steps ahead, reached by
        jump matrices from the lanes before it (lane 1 from lane 0, lanes 2-3
        from lanes 0-1, ...); then every lane steps at once.
        """
        log2_steps = max(0, round(math.log2(max(count, 1)) / 2) - 2)
        steps = 1 << log2_steps
        lanes = -(-count // steps)
        states = np.empty((steps, lanes), np.uint64)   # fails here if it cannot be mapped
        words = np.empty(lanes, np.uint64)
        words[:1] = self._state
        filled, k = 1, log2_steps
        while filled < lanes:
            more = min(filled, lanes - filled)
            words[filled:filled + more] = _gf2_apply(_jump(k), words[:more])
            filled, k = filled + more, k + 1
        for row in states:
            row[...] = _xorshift(words)
        if count:
            self._state = int(states[(count - 1) % steps, (count - 1) // steps])
        states *= np.uint64(0x2545F4914F6CDD1D)
        states >>= np.uint64(11)
        values = np.empty((lanes, steps))
        np.multiply(states.T, 2.0 ** -53, out=values)
        return values.ravel()[:count]


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

_SAFE_SHIFT = 1e-10   # alpha at least this share of the largest gram diagonal needs no pivot test


def ridge_solve(grams: np.ndarray, rhs: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (grams[k] + alpha I) w_k = rhs[k] for every system of a (k, r, r) stack
    of Gram (positive semidefinite) matrices.

    A system whose smallest squared Cholesky pivot is at most 1e-12 of its
    largest diagonal entry is numerically singular, even when LAPACK does not
    raise. With alpha > 0 every squared pivot is at least about alpha, so
    when alpha is at least `_SAFE_SHIFT` of the stack's largest gram diagonal
    no system can fail that test and one solve answers the stack. Otherwise a
    stacked Cholesky reads the pivots (`_weak_systems`) and one solve answers
    the systems that pass; a single system is a stack of one. The weak
    systems, or the whole stack if the stacked factorization raises, take
    one batched pseudo-inverse and so the minimum-norm solution. Its cutoff
    is the pivot test's 1e-12: smaller eigenvalues are rounding noise, and
    inverting them raises the cost.
    """
    systems = grams + alpha * np.eye(grams.shape[-1])
    if alpha > 0 and alpha >= _SAFE_SHIFT * np.max(np.diagonal(grams, axis1=1, axis2=2),
                                                   initial=0.0):
        return np.linalg.solve(systems, rhs[..., None])[..., 0]
    weak = _weak_systems(systems)
    out = np.empty_like(rhs)
    strong = ~weak
    out[strong] = np.linalg.solve(systems[strong], rhs[strong, :, None])[..., 0]
    if weak.any():
        inverse = np.linalg.pinv(systems[weak], rcond=1e-12, hermitian=True)
        out[weak] = (inverse @ rhs[weak, :, None])[..., 0]
    return out


def _weak_systems(systems: np.ndarray) -> np.ndarray:
    """Which systems of a stack fail the pivot test: every one if the stacked
    Cholesky raises."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(systems), axis1=1, axis2=2) ** 2
    except np.linalg.LinAlgError:
        return np.ones(len(systems), dtype=bool)
    scale = np.maximum(np.max(np.diagonal(systems, axis1=1, axis2=2), axis=1), 1e-300)
    return np.min(pivots, axis=1) <= 1e-12 * scale


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
        tensor[b, active] = ridge_solve(grams[active], rhs[active], shift)


def fit_lowrank_temporal(train: EventColumns, params: FactorParams, user_count=None,
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
    import scipy.sparse   # here, not at import: about 22 MB resident, needed by fits only
    if not train.user.size:
        raise ValueError("empty training set")
    T = params.bin_count
    if binning is None:
        binning = derive_binning(train, T)
    if binning.bin_count != T:
        raise ValueError("binning bin_count disagrees with params")
    users, movies, ratings = train.user, train.movie, train.rating
    bins = bin_column(train.stamp, binning)
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

    if progress:   # each event's row of the (T*m, r) and (T*n, r) views, for its cost
        rows = bins * m + users, bins * n + movies
    # C @ V[b] from bin b's last Z block: V[b] does not change before its next U block
    CV = [C @ V[b] for b, (C, *_) in enumerate(per_bin)]
    for k in range(params.iterations):
        for b, (C, X, Ct, Xt, count, total, user_rows, movie_rows) in enumerate(per_bin):
            Ub, Vb, Zb = U[b], V[b], Z[b]  # views: each block reads the last update
            _refresh(U, b, _grams(C, Vb), X @ Vb - Zb[:, None] * CV[b], user_rows,
                     lam, params.xi_u)
            hook("u", b + 1, model)
            _refresh(V, b, _grams(Ct, Ub), Xt @ Ub - Ct @ (Zb[:, None] * Ub), movie_rows,
                     lam, params.xi_v)
            hook("v", b + 1, model)
            CV[b] = C @ Vb
            _refresh(Z, b, count, total - np.einsum("ir,ir->i", Ub, CV[b]), user_rows,
                     0.0, params.xi_z)
            hook("z", b + 1, model)
        if progress:
            progress(k + 1, model, _objective(model, ratings - _fitted(model, *rows)))
    return model


def residuals(train: EventColumns, model: TemporalFactorModel) -> np.ndarray:
    """Observed minus predicted rating for every event, in order.

    Raises ValueError for a user or movie outside the model.
    """
    unknown = train.movie[train.movie >= model.movie_count]
    if len(unknown):
        raise ValueError(f"movie {unknown[0]} outside [0, {model.movie_count})")
    return train.rating - predict(model, train.user, train.movie, train.stamp)


def cost(model: TemporalFactorModel, train) -> float:
    """Regularized squared-error objective the fitting routine minimizes."""
    return _objective(model, residuals(train, model))


def _objective(model: TemporalFactorModel, errors: np.ndarray) -> float:
    """`cost` of the model given its training residuals."""
    total = 0.5 * float(np.sum(errors ** 2))
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
    rows = bin_column(stamps, model.binning)   # each bin, then each user's row
    movie_rows = rows * model.movie_count + np.where(known, movies, 0)
    rows = rows * model.user_count + users
    fitted = _fitted(model, rows, movie_rows)
    return fitted if known.all() else np.where(known, fitted, model.user_bias.ravel().take(rows))


def _fitted(model: TemporalFactorModel, user_rows, movie_rows) -> np.ndarray:
    """Bias plus factor product at rows of the (T*m, r) and (T*n, r) views,
    row b*m + i being user i in bin b (b*n + j movie j)."""
    rank = model.rank
    products = np.einsum("...r,...r->...",
                         model.user_factors.reshape(-1, rank).take(user_rows, axis=0),
                         model.movie_factors.reshape(-1, rank).take(movie_rows, axis=0))
    return model.user_bias.ravel().take(user_rows) + products


# ---------------------------------------------------------------------------
# Serialization (layout documented in the README)
# ---------------------------------------------------------------------------

_MODEL_MAGIC = "temporal-factor-model 1"
_ARRAYS = ("U", "V", "Z")
_SLICE = 1 << 12   # values of a model array formatted at a time
_PIECE = 1 << 16   # characters of a model array line parsed at a time
_FLOAT_TEXT = re.compile(r"[0-9.e+\-naif ]*")   # what repr floats and spaces are made of


def _dump_array(fh, name, values):
    """``name`` and the reprs of ``values`` on one line, a slice at a time."""
    fh.write(name)
    for start in range(0, max(len(values), 1), _SLICE):   # "name \n" for an empty array
        fh.write(" " + " ".join(map(repr, values[start:start + _SLICE].tolist())))
    fh.write("\n")


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


def _model_fields(path) -> dict:
    """Each line after the magic line by its first token: the other tokens,
    the last line of a name winning. `_array_fields` reads the file first and
    gives U, V and Z as float arrays; if it refuses the file, the file is
    read again here as whole lines of tokens."""
    with open(path, "r", encoding="utf-8") as fh:
        fields = _array_fields(fh)
    if fields is not None:
        return fields
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a factor model file")
    return {name: rest.split() for name, _, rest in (line.partition(" ") for line in lines[1:])}


def _array_fields(fh) -> dict | None:
    """`_model_fields` of an open file whose U, V and Z lines are parsed
    `_PIECE` characters at a time by `np.loadtxt`, with no string per value;
    None for a first line other than the magic line, for a piece of another
    line that is not one whole line as `str.splitlines` splits (a line
    longer than a piece, a last line with no line break), or for a piece of
    an array line with a character a repr float does not use (which could
    split lines or tokens unlike `str.split`) or with a token that does not
    parse."""
    try:
        if fh.readline() not in (_MODEL_MAGIC + "\n", _MODEL_MAGIC):
            return None
        fields = {}
        while piece := fh.readline(_PIECE):
            name, space, rest = piece.partition(" ")
            if not (space and name in _ARRAYS):
                if piece.splitlines() != [piece[:-1]]:   # one line, whole
                    return None
                name, _, rest = piece[:-1].partition(" ")
                fields[name] = rest.split()
                continue
            parts, text = [], rest
            while True:
                last = piece.endswith("\n") or len(piece) < _PIECE   # the line ends here
                text, _, carry = (text.rstrip("\n"), "", "") if last else text.rpartition(" ")
                if not _FLOAT_TEXT.fullmatch(text):
                    return None
                if text.strip(" "):
                    parts.append(np.loadtxt(io.StringIO(text), comments=None, ndmin=1))
                if last:
                    break
                piece = fh.readline(_PIECE)
                text = carry + piece
            fields[name] = np.concatenate([np.empty(0), *parts])
    except ValueError:   # a value loadtxt refuses, or bytes that are not UTF-8
        return None
    return fields


def load_model(path) -> TemporalFactorModel:
    """Read a model written by save_model.

    Raises ValueError naming the file and the field when the magic line
    or a field is missing, malformed, or of the wrong length for dims.
    """
    fields = _model_fields(path)

    def field(name, length, convert):
        values = fields.pop(name, None)
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
    tensors = []   # field() pops each array, so its file-order values go once transposed
    for name, shape, axes in (("U", (m, r, T), (2, 0, 1)), ("V", (n, r, T), (2, 0, 1)),
                              ("Z", (m, T), (1, 0))):
        values = field(name, math.prod(shape), lambda v: np.asarray(v, dtype=float))
        tensors.append(np.ascontiguousarray(values.reshape(shape).transpose(axes)))
    try:
        return TemporalFactorModel(*tensors, binning, params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
