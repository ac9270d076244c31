"""Task-oriented feature compression.

Features are clustered with density peaks over k-nearest-neighbor densities
(DPC-KNN), merged by per-cluster averaging, quantized to integers, routed to
the per-dimension discretized-Laplacian entropy model that prices them
cheapest, and range-coded into a checksummed container.

Conventions that affect bitstreams, all fixed on purpose:
  - quantization is np.rint (halves to even);
  - every tie (cluster centers, assignment, routing) breaks toward the
    lowest index;
  - each dimension's symbol alphabet is [round(mu) - q_range,
    round(mu) + q_range] plus one escape symbol, and an escaped value is
    coded as the escape symbol followed by its 32-bit two's-complement value
    as raw bits;
  - symbol i is [cum[i], cum[i + 1]) of the coder's 2^16 total: the pmf
    scaled to it, each frequency at least 1, the remainder on the largest.

Clustering holds no N x N distance matrix. Per block of 64 rows, one matrix
product gives approximate squared distances with a proven error bound, and
only the pairs that bound leaves in doubt get an exact distance, summed by
np.sum as the definition sums it, so its memory is a few 64 x N buffers;
see dpc_knn_cluster.

A model builds its tables once, on first use, and keeps them: its bin table
(routing prices rows from it), one int32 cumulative table (encode gathers
symbol intervals from it with numpy) and a symbol index over 256 slices of
the total (decode looks a value's slice up and bisects only a slice that
more than one symbol meets). The range coder is still called once per
symbol and once per raw escape bit.
"""

from __future__ import annotations

import bisect
import math
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .container import Reader, header, read_file, write_file
from .errors import (
    InvalidInputError,
    InvariantViolationError,
    IoError,
    MalformedBitstreamError,
)
from .numerics import Rng, require_int, require_matrix, require_vector
from .rangecoder import TOTAL, RangeDecoder, RangeEncoder

B_MIN = 1e-3
_FEAT_MAGIC = b"FEAT"
_TOFC_MAGIC = b"TOFC"
_TOFC_HEAD = "HHB"  # cluster count, dim, model count
_RAW_BITS = 32
# Rows whose approximate distances dpc_knn_cluster holds at a time.
_ROW_BLOCK = 64
# Squared differences _Distances.exact holds at a time: its scratch stays two
# gathers of this many floats, whatever d and the number of pairs are.
_TILE = 1 << 16
# Bin-table entries _bin_table fills per step (at least one dimension's row):
# its temporaries stay a few times this, whatever d and q_range are.
_BIN_ENTRIES = 1 << 16
# dpc_knn_cluster's point limit, counted as the bytes of an N x N float64
# distance matrix: 2^30 admits N <= 11,585. It holds no such matrix, only a few
# _ROW_BLOCK x N buffers; the limit stays a documented contract.
_DISTANCE_BYTES = 1 << 30
# The widest alphabet, 2*q_range + 2 entries, that fits the coder's TOTAL.
Q_RANGE_MAX = (TOTAL - 2) // 2
# Bound on |mu|, so that every alphabet lo..lo + 2*q_range + 1 fits int64.
_MU_LIMIT = 2.0**62


@dataclass(frozen=True, eq=False)
class FeatureSet:
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", require_matrix(self.features, "features"))
        if min(self.features.shape) < 1:
            raise InvalidInputError("feature set needs at least one row and one column")

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class ClusterResult:
    center_indices: list[int]
    assignment: np.ndarray
    merged: np.ndarray
    rho: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True, eq=False)
class LaplacianModel:
    """Per-dimension Laplace(mu, b) entropy model with integer-bin pmf.

    mu and b are read-only copies of the caller's arrays, so the model stays
    the one its checks passed. Its bin table, cumulative coding table and
    decoding symbol index are derived from them on first use and kept for the
    model's lifetime, read-only.
    """

    mu: np.ndarray
    b: np.ndarray
    id: int
    q_range: int = 255

    def __post_init__(self):
        object.__setattr__(self, "mu", _frozen(require_vector(self.mu, "mu").copy()))
        object.__setattr__(self, "b", _frozen(require_vector(self.b, "b").copy()))
        if self.mu.shape != self.b.shape:
            raise InvalidInputError("mu and b must be equal-length vectors")
        if (self.b < B_MIN).any():
            raise InvalidInputError(f"scale parameters must be >= {B_MIN}")
        require_int("id", self.id, 0)
        require_int("q_range", self.q_range, 1)
        if self.q_range > Q_RANGE_MAX:
            raise InvalidInputError(f"q_range must be <= {Q_RANGE_MAX}, got {self.q_range}")
        if (np.abs(self.mu) >= _MU_LIMIT).any():
            raise InvalidInputError("mu must lie in (-2**62, 2**62)")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def __reduce__(self):
        # A pickled or deep-copied model is built afresh through the checks,
        # so its parameters are read-only too and its tables its own.
        return type(self), (self.mu, self.b, self.id, self.q_range)

    @cached_property
    def _bins(self) -> tuple[np.ndarray, np.ndarray]:
        """The model's (lo, p) bin table, see _bin_table; code lengths read only this."""
        lo, p = _bin_table(self)
        return _frozen(lo), _frozen(p)

    @cached_property
    def _cum(self) -> np.ndarray:
        """(d, 2*q_range + 3) int32 coding table: symbol i of dimension j,
        the in-range symbols then the escape, is [cum[j, i], cum[j, i + 1])
        of the range coder's TOTAL.

        All dimensions are scaled to TOTAL, floored at 1 and repaired on
        their largest frequency together, from the bin table. A q_range so
        wide that the floor of 1 per symbol overdraws the total raises
        InvalidInputError naming the first such dimension, on every use.
        """
        freqs = np.maximum(1, np.rint(self._bins[1] * TOTAL)).astype(np.int64)
        dims = np.arange(self.dim)
        top = np.argmax(freqs, axis=1)
        freqs[dims, top] += TOTAL - freqs.sum(axis=1)
        overdrawn = np.flatnonzero(freqs[dims, top] < 1)
        if overdrawn.size:
            raise InvalidInputError(
                f"model {self.id} dimension {overdrawn[0]}: q_range {self.q_range} leaves too "
                "little of the 2^16 frequency total to give every symbol a frequency >= 1"
            )
        if freqs.min() < 1 or (freqs.sum(axis=1) != TOTAL).any():
            raise InvariantViolationError("frequency table repair failed")
        cum = np.zeros((self.dim, freqs.shape[1] + 1), dtype=np.int32)
        np.cumsum(freqs, axis=1, out=cum[:, 1:])
        return _frozen(cum)

    @cached_property
    def _starts(self) -> np.ndarray:
        """(d, 257) int32 symbol index: starts[j, b] is the symbol of
        dimension j whose interval holds the value 256*b, so a value v lies in
        the symbols starts[j, v >> 8] through starts[j, (v >> 8) + 1].

        The last column names the end of the table, 2*q_range + 2, which is
        2^16 at Q_RANGE_MAX: no 16-bit type holds it.
        """
        cum = self._cum
        edges = np.arange(257) << 8
        starts = np.empty((self.dim, 257), dtype=np.int32)
        for j in range(self.dim):
            starts[j] = np.searchsorted(cum[j], edges, side="right") - 1
        return _frozen(starts)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only."""
    arr.flags.writeable = False
    return arr


def _laplace_cdf(x, mu, b):
    z = (np.asarray(x, dtype=np.float64) - mu) / b
    below = 0.5 * np.exp(np.minimum(z, 0.0))
    above = 1.0 - 0.5 * np.exp(np.minimum(-z, 0.0))
    return np.where(z < 0.0, below, above)


def _bin_table(model: LaplacianModel) -> tuple[np.ndarray, np.ndarray]:
    """(lo, p): row j holds the masses of dimension j's unit bins lo[j]..lo[j] +
    2*q_range, then its escape mass; lo has shape (d,), p (d, 2*q_range + 2).

    The Laplace CDF is evaluated over the bin edges of as many dimensions as
    fit _BIN_ENTRIES at a time (one dimension if its row alone is wider),
    never once per dimension. Every operation is elementwise, so the table
    equals the one a single pass over all d x (2*q_range + 2) edges gives.
    """
    q = model.q_range
    width = 2 * q + 2
    lo = np.rint(model.mu).astype(np.int64) - q
    offsets = np.arange(width)
    p = np.empty((model.dim, width))
    step = max(1, _BIN_ENTRIES // width)
    for start in range(0, model.dim, step):
        rows = slice(start, start + step)
        edges = (lo[rows, None] + offsets) - 0.5
        cdf = _laplace_cdf(edges, model.mu[rows, None], model.b[rows, None])
        np.subtract(cdf[:, 1:], cdf[:, :-1], out=p[rows, :-1])
        p[rows, -1] = cdf[:, 0] + (1.0 - cdf[:, -1])
    return lo, p


def fit_laplacian(calib: np.ndarray, model_id: int, q_range: int = 255) -> LaplacianModel:
    """Per-dimension maximum-likelihood fit: median location, MAD scale."""
    require_matrix(calib, "calib")
    if calib.shape[0] < 2:
        raise InvalidInputError("calibration needs at least two rows")
    mu = np.median(calib, axis=0)
    b = np.maximum(np.mean(np.abs(calib - mu), axis=0), B_MIN)
    return LaplacianModel(mu=mu, b=b, id=model_id, q_range=q_range)


def fit_laplacian_models(fs: FeatureSet, num_models: int) -> tuple[LaplacianModel, ...]:
    """num_models fits, model e on the rows r with r % num_models == e.

    Each model needs at least two rows, so 1 <= num_models <= N/2.
    """
    require_int("num_models", num_models, 1)
    if num_models > fs.count // 2:
        raise InvalidInputError(
            f"num_models must be in [1, N/2] = [1, {fs.count // 2}], got {num_models}"
        )
    rows = np.arange(fs.count)
    return tuple(fit_laplacian(fs.features[rows % num_models == e], e) for e in range(num_models))


def quantize(values: np.ndarray) -> np.ndarray:
    """Integer symbols by rounding halves to even."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvalidInputError("values must be finite")
    rounded = np.rint(arr)
    if rounded.size and not (rounded.min() >= -(2.0**63) and rounded.max() < 2.0**63):
        raise InvalidInputError("values must round into the int64 range")
    return rounded.astype(np.int64)


def _as_symbol_rows(symbols, dim: int) -> np.ndarray:
    arr = np.asarray(symbols)
    if arr.size == 0:
        return np.zeros((0, dim), dtype=np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        raise InvalidInputError("symbols must be integers; quantize first")
    if arr.size % dim != 0:
        raise InvalidInputError(f"symbol count {arr.size} not a multiple of dim {dim}")
    return arr.reshape(-1, dim).astype(np.int64)


def _row_bits(rows: np.ndarray, model: LaplacianModel) -> np.ndarray:
    """Ideal code length of each row, summed over dimensions in order.

    A symbol costs -log2 of its bin mass; an escaped one -log2 of the escape
    mass plus its 32 raw bits. Each row's masses are gathered from the bin
    table first, so -log2 runs over M x d values, never the whole table; the
    sum then adds them one dimension at a time, as np.sum's pairwise order
    would round differently.
    """
    lo, p = model._bins
    esc = p.shape[1] - 1
    inside = (rows >= lo) & (rows < lo + esc)
    with np.errstate(divide="ignore"):
        picked = -np.log2(p[np.arange(model.dim), np.where(inside, rows - lo, esc)])
    picked[~inside] += _RAW_BITS
    bits = np.zeros(rows.shape[0])
    for j in range(model.dim):
        bits += picked[:, j]
    return bits


def estimate_rate(symbols, model: LaplacianModel) -> float:
    """Ideal code length in bits: -log2 pmf per symbol, +32 per escape."""
    return float(_row_bits(_as_symbol_rows(symbols, model.dim), model).sum())


def route(symbols: np.ndarray, models) -> tuple[np.ndarray, np.ndarray]:
    """(ids, bits): each quantized row's cheapest model and its code length there.

    symbols is an M x d integer matrix; models are checked as encode checks
    them. One E x M table of row code lengths is built; ids[r] is the first
    argmin over models, and model ids equal list positions, so ties go to
    the lowest id. bits[r] is row r's code length under models[ids[r]],
    equal to estimate_rate(symbols[r], models[ids[r]]).
    """
    arr = np.asarray(symbols)
    if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.integer):
        raise InvalidInputError("symbols must be a 2-D integer array")
    _validate_models(models, arr.shape[1])
    rows = arr.astype(np.int64, copy=False)
    rates = np.array([_row_bits(rows, model) for model in models])
    ids = np.argmin(rates, axis=0)
    return ids, rates[ids, np.arange(rows.shape[0])]


def balance_metric(selection_counts) -> float:
    """Squared deviation of model-usage frequencies from uniform."""
    counts = np.asarray(selection_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 1 or (counts < 0).any():
        raise InvalidInputError("selection_counts must be non-negative, one per model")
    total = float(counts.sum())
    if total <= 0:
        raise InvalidInputError("total selection count must be >= 1")
    f = counts / total
    return float(np.sum((f - 1.0 / counts.size) ** 2))


class _Distances:
    """Squared distances between the rows of a feature matrix: approximate
    ones a row block at a time, each with a bound on its error, and exact
    ones on demand.

    approx(rows, right) gives rows' block of left @ right. With d2 the exact
    squared distance (see exact) and g = (left @ right)[i, j],

        g - slack[i]  <=  2^(2*scale) * d2[i, j]  <=  g + slack[i] + spread

    whatever order a BLAS adds the product in. The rows are scaled by
    2^scale, which brings the largest |x| into [1/2, 1) so that nothing
    overflows, centred on their mean so that a common offset does not swamp
    the differences, and augmented to [z, |z|^2, 1] on the left and
    [-2z, 1, (1 - beta)|z|^2] on the right, beta = 8(d + 4) * 2^-53.

    A dot product of d + 2 terms is off by at most (d + 2) * 2^-53 times the
    sum of its terms' magnitudes, here at most 2(|z_i|^2 + |z_j|^2); with
    the rounding of the norms, of the centring and of the exact sum itself,
    |g + beta |z_j|^2 - 2^(2*scale) d2| is at most (5d + 13) * 2^-53 times
    |z_i|^2 + |z_j|^2, under beta times it. Moving beta |z_j|^2 into the
    product leaves slack[i] = beta |z_i|^2 per row, so an outlier widens
    only its own rows' bounds below, and spread = 2 beta max |z|^2 above.
    Each bound is over 1.5 times the worst case, which also covers the
    rounding of the thresholds built from it. A rounding to a subnormal
    adds at most 2^-1074, scaled by 2^(2*scale) on the exact side: slack
    adds (d + 4) * 2^(2*scale - 1069), capped at (d + 4) * 2^900, reached
    only when every exact distance underflows to 0.
    """

    def __init__(self, feats: np.ndarray):
        n, d = feats.shape
        top = float(np.abs(feats).max())
        self.scale = -math.frexp(top)[1] if top > 0 else 0
        with np.errstate(under="ignore"):
            z = np.ldexp(feats, self.scale)
            z -= z.mean(axis=0)
            norms = np.einsum("ij,ij->i", z, z)
        beta = 8 * (d + 4) * 2.0**-53
        self.left = np.empty((n, d + 2))
        self.left[:, :d] = z
        self.left[:, d] = norms
        self.left[:, d + 1] = 1.0
        self.right = np.empty((d + 2, n))
        np.multiply(z.T, -2.0, out=self.right[:d])
        self.right[d] = 1.0
        np.multiply(norms, 1.0 - beta, out=self.right[d + 1])
        self.slack = beta * norms + math.ldexp(d + 4, min(2 * max(self.scale, 0) - 1069, 900))
        self.spread = 2 * beta * float(norms.max())
        self.feats = feats
        self._block = np.empty(_ROW_BLOCK * n)

    def approx(self, rows: np.ndarray, right: np.ndarray) -> np.ndarray:
        """rows' approximations to right's columns, in a buffer the next call reuses."""
        g = self._block[: rows.size * right.shape[1]].reshape(rows.size, right.shape[1])
        with np.errstate(under="ignore"):
            return np.matmul(self.left[rows], right, out=g)

    def scaled(self, sq: np.ndarray) -> np.ndarray:
        """Exact squared distances on the approximations' scale."""
        with np.errstate(under="ignore"):
            return np.ldexp(sq, 2 * self.scale)

    def exact(self, rows: np.ndarray, others: np.ndarray) -> np.ndarray:
        """Exact squared distances of the pairs rows[p], others[p].

        Each pair's squared differences fill one contiguous row, which
        np.sum(..., axis=1) adds as it adds a row of the definition's
        np.sum((feats - feats[i]) ** 2, axis=1), so the values are equal bit
        for bit (a - b is exactly -(b - a)). A step gathers at most _TILE // d
        pairs per side and subtracts in place. An overflowing square or sum
        is left as inf.
        """
        out = np.empty(rows.size)
        step = max(1, _TILE // self.feats.shape[1])
        with np.errstate(over="ignore"):
            for p in range(0, rows.size, step):
                diff = self.feats[rows[p : p + step]]
                diff -= self.feats[others[p : p + step]]
                np.square(diff, out=diff)
                np.sum(diff, axis=1, out=out[p : p + step])
        return out

    def masked(self, rows, others, mask):
        """(hits, sq): the flat positions of mask's true entries, in
        row-major order, and the exact squared distance of each, mask[i, j]
        standing for the pair rows[i], others[j]."""
        hits = np.flatnonzero(mask)
        at, to = np.divmod(hits, mask.shape[1])
        return hits, self.exact(rows[at], others[to])


def _knn_and_reach(dist: _Distances, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(knn, reach): each row's k + 1 smallest exact squared distances,
    sorted (the first is 0: the row itself or a duplicate), and its largest
    approximation to a later row.

    Only values are kept, so ties need no tie-break. The k + 1 smallest
    approximations are taken exactly first; then the other columns whose
    approximation may still beat the (k + 1)-th exact value, none if it is 0.
    """
    n = len(dist.left)
    everyone = np.arange(n)
    later = np.triu(np.ones((_ROW_BLOCK, _ROW_BLOCK), dtype=bool), 1)
    spare = np.empty(_ROW_BLOCK * n)
    knn = np.empty((n, k + 1))
    reach = np.full(n, -np.inf)
    for s in range(0, n, _ROW_BLOCK):
        rows = everyone[s : s + _ROW_BLOCK]
        r = len(rows)
        g = dist.approx(rows, dist.right)
        own = np.where(later[:r, :r], g[:, s : s + r], -np.inf).max(axis=1)
        reach[s : s + r] = np.maximum(own, g[:, s + r :].max(axis=1)) if s + r < n else own
        part = spare[: g.size].reshape(g.shape)
        np.copyto(part, g)
        part.partition(k, axis=1)
        first = g <= part[:, k, None]
        if np.count_nonzero(first) == r * (k + 1):
            near = np.flatnonzero(first) % n
        else:
            # A tie at the (k + 1)-th approximation: argpartition picks k + 1.
            near = np.argpartition(g, k, axis=1)[:, : k + 1].ravel()
            first = np.zeros_like(first)
            first[rows.repeat(k + 1) - s, near] = True
        sq = dist.exact(rows.repeat(k + 1), near).reshape(r, k + 1)
        kth = sq.max(axis=1)
        cut = np.where(kth > 0, dist.scaled(kth) + dist.slack[rows], -np.inf)
        more = part[:, k + 1 :].min(axis=1, initial=np.inf) < cut
        if more.any():
            hits, extra = dist.masked(rows[more], everyone,
                                      (g[more] < cut[more, None]) & ~first[more])
            at = np.flatnonzero(more)[hits // n]
            counts = np.bincount(at, minlength=r)
            pad = np.full((r, k + 1 + counts.max()), np.inf)
            pad[:, : k + 1] = sq
            pad[at, k + 1 + np.arange(hits.size) - (counts.cumsum() - counts)[at]] = extra
            pad.partition(k, axis=1)
            sq = pad[:, : k + 1]
        knn[s : s + r] = sq
    knn.sort(axis=1)
    return knn, reach


def _farthest_sq(dist: _Distances, reach: np.ndarray) -> float:
    """The largest exact squared distance between two rows: that of the
    farthest approximation, then of every pair that may exceed it.

    The features' bounding box bounds every pair's exact value: each
    |a - b| rounds to at most max - min, squares are monotone, and the d
    non-negative terms add in the same order. So a first value equal to
    the box's is the largest, as for identical rows, where the
    approximations' bound can never prove a maximum of 0.
    """
    n = len(dist.left)
    everyone = np.arange(n)
    a = int(np.argmax(reach))
    b = a + 1 + int(np.argmax(dist.approx(everyone[a : a + 1], dist.right[:, a + 1 :])))
    top = float(dist.exact(everyone[a : a + 1], everyone[b : b + 1])[0])
    with np.errstate(over="ignore"):
        box = float(np.sum(np.ptp(dist.feats, axis=0) ** 2))
    if top == box:
        return top
    floor = dist.scaled(top)
    rival = np.flatnonzero(reach + dist.slack + dist.spread > floor)
    for p in range(0, rival.size, _ROW_BLOCK):
        rows = rival[p : p + _ROW_BLOCK]
        lo = rows[0] + 1
        g = dist.approx(rows, dist.right[:, lo:])
        g += (dist.slack[rows] + dist.spread)[:, None]
        mask = (g > floor) & (everyone[None, lo:] > rows[:, None])
        top = max(top, dist.masked(rows, everyone[lo:], mask)[1].max(initial=top))
    return top


def _nearest_denser_sq(dist: _Distances, rho: np.ndarray) -> np.ndarray:
    """Each row's smallest exact squared distance to a row of strictly
    larger rho, inf for the densest.

    In descending rho order each row's denser rows are a prefix, denser[q]
    long. The smallest approximation is taken exactly first; then the
    other denser rows that may still beat it, none if it is 0.
    """
    n = len(rho)
    order = np.argsort(-rho, kind="stable")
    ranked = -rho[order]
    denser = np.searchsorted(ranked, ranked)
    right = dist.right[:, order]
    nearest = np.full(n, np.inf)
    for s in range(int(np.count_nonzero(denser == 0)), n, _ROW_BLOCK):
        rows = order[s : s + _ROW_BLOCK]
        prefix = denser[s : s + _ROW_BLOCK]
        shared, width = int(prefix[0]), int(prefix[-1])
        g = dist.approx(rows, right[:, :width])
        g[:, shared:][np.arange(shared, width) >= prefix[:, None]] = np.inf
        best = np.argmin(g, axis=1)
        sq = dist.exact(rows, order[best])
        g[np.arange(len(rows)), best] = np.inf
        cut = np.where(sq > 0, dist.scaled(sq) + dist.slack[rows], -np.inf)
        hits, extra = dist.masked(rows, order[:width], g < cut[:, None])
        np.minimum.at(sq, hits // width, extra)
        nearest[rows] = sq
    return nearest


def _nearest_center(dist: _Distances, centers: list[int]) -> np.ndarray:
    """Each row's position in centers of its nearest center by rooted
    distance, the lowest position on a tie.

    pick, the lowest-placed center whose approximation is within twice the
    bound of the smallest, is taken exactly first. Two squared distances can
    round to one distance, and a tie goes to the lower position: so a
    lower-placed center stays in while its root may round to pick's (twice
    the bound plus a relative 2^-48 covers that), a higher-placed one only
    while it may be strictly closer.
    """
    n = len(dist.left)
    at = np.array(centers)
    right = dist.right[:, at]
    ranks = np.arange(len(at))
    assignment = np.empty(n, dtype=np.int64)
    for s in range(0, n, _ROW_BLOCK):
        rows = np.arange(s, min(s + _ROW_BLOCK, n))
        r = len(rows)
        slack = dist.slack[rows]
        g = dist.approx(rows, right)
        pick = np.argmax(g <= (g.min(axis=1) + 2 * slack)[:, None], axis=1)
        sq = dist.exact(rows, at[pick])
        base = dist.scaled(sq)
        closer = np.where(sq > 0, base + slack, -np.inf)
        g[np.arange(r), pick] = np.inf
        within = base * (1 + 2.0**-48) + 2 * slack
        need = (g < closer[:, None]) | (g < within[:, None]) & (ranks < pick[:, None])
        hits, extra = dist.masked(rows, at, need)
        if hits.size:
            g.fill(np.inf)
            g[np.arange(r), pick] = np.sqrt(sq)
            g.ravel()[hits] = np.sqrt(extra)
            pick = np.argmin(g, axis=1)
        assignment[s : s + r] = pick
    return assignment


def dpc_knn_cluster(fs: FeatureSet, k_neighbors: int, num_centers: int) -> ClusterResult:
    """Density-peak clustering with KNN densities, then per-cluster averaging.

    rho_i = exp(-mean squared distance to the k nearest neighbors), delta_i =
    distance to the closest strictly denser point (points without one,
    including the densest, get the maximum pairwise distance). Centers are
    the top num_centers by rho*delta, every point joins its nearest center,
    and a center whose cluster ends up empty keeps its own feature row.

    Every decision is made on exact squared distances, each pair's d
    squares added by np.sum(..., axis=1) over one contiguous row (see
    _Distances.exact), so the results equal the literal definitions bit
    for bit.
    Few pairs need one. Per block of _ROW_BLOCK rows, one matrix product
    gives approximate squared distances with a bound on their error (see
    _Distances). Each of the four searches (the k + 1 nearest, the farthest
    pair, the nearest denser point, the nearest center) takes its
    approximate winners exactly, then the pairs whose approximation lies
    within the bound of beating them. Any other pair is provably no closer
    (for the farthest pair, no farther), so it cannot change a value, and
    no outcome depends on the BLAS or its thread count. Square roots are
    taken of minima and gathered values only: sqrt is monotone and
    correctly rounded, so the root of a minimum is the minimum of the roots.

    Memory is a few _ROW_BLOCK x N buffers, a few copies of the features
    and the exact sums' scratch of two gathers of at most _TILE floats,
    about 64 * 8 * N bytes per buffer, whatever num_centers is. More points than
    an N x N matrix of _DISTANCE_BYTES holds (N > 11,585) are rejected with
    InvalidInputError before anything N-sized is allocated.

    Features so far apart that a squared distance overflows float64 are
    rejected with InvalidInputError: the features are finite, so an
    infinite distance can only be an overflow, and it would make
    rho * delta NaN.
    """
    for name, value in (("k_neighbors", k_neighbors), ("num_centers", num_centers)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInputError(f"{name} must be an int, got {value!r}")
    feats = fs.features
    n = fs.count
    if not 1 <= num_centers <= n:
        raise InvalidInputError(f"num_centers must be in [1, {n}]")
    if n == 1:
        return ClusterResult(
            center_indices=[0],
            assignment=np.zeros(1, dtype=np.int64),
            merged=feats.copy(),
            rho=np.ones(1),
            delta=np.zeros(1),
        )
    if not 1 <= k_neighbors < n:
        raise InvalidInputError(f"k_neighbors must be in [1, {n - 1}]")
    if 8 * n * n > _DISTANCE_BYTES:
        raise InvalidInputError(
            f"{n} points need {8 * n * n} bytes of pairwise distances; "
            f"clustering holds at most {_DISTANCE_BYTES}"
        )
    dist = _Distances(feats)
    knn, reach = _knn_and_reach(dist, k_neighbors)
    max_pair = float(np.sqrt(_farthest_sq(dist, reach)))
    if not np.isfinite(max_pair):
        raise InvalidInputError(
            "features are too far apart: a squared pairwise distance overflows float64"
        )
    # The mean over the k nearest adds what a full sort of each row would.
    # Its sum may overflow to inf, which is rho 0, as far as float64 can say.
    with np.errstate(over="ignore"):
        rho = np.exp(-np.mean(knn[:, 1:], axis=1))
    delta = np.sqrt(_nearest_denser_sq(dist, rho))
    # Points with no strictly denser point, the densest included.
    delta[rho == rho.max()] = max_pair
    gamma = rho * delta
    order = np.argsort(-gamma, kind="stable")
    centers = [int(i) for i in order[:num_centers]]
    assignment = _nearest_center(dist, centers)
    merged = np.empty((num_centers, feats.shape[1]))
    # A stable sort keeps each cluster's rows in index order, contiguous, as
    # a boolean mask would gather them, so each mean adds alike. The mean of
    # one row is that row, bit for bit, so only larger clusters take a mean.
    members = feats[np.argsort(assignment, kind="stable")]
    sizes = np.bincount(assignment, minlength=num_centers)
    stops = np.cumsum(sizes)
    merged[sizes == 1] = members[stops[sizes == 1] - 1]
    merged[sizes == 0] = feats[np.array(centers)[sizes == 0]]
    for c in np.flatnonzero(sizes > 1).tolist():
        merged[c] = members[stops[c] - sizes[c] : stops[c]].mean(axis=0)
    return ClusterResult(
        center_indices=centers,
        assignment=assignment,
        merged=merged,
        rho=rho,
        delta=delta,
    )


@dataclass(frozen=True)
class Bitstream:
    """Range-coded symbols plus the header needed to decode them."""

    dim: int
    num_models: int
    model_ids: tuple[int, ...]
    payload: bytes

    @property
    def num_clusters(self) -> int:
        return len(self.model_ids)

    def to_bytes(self) -> bytes:
        head = header(
            _TOFC_MAGIC, _TOFC_HEAD, self.num_clusters, self.dim, self.num_models
        ) + bytes(self.model_ids)
        crc = zlib.crc32(head + self.payload) & 0xFFFFFFFF
        return head + crc.to_bytes(4, "little") + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        reader = Reader(data, _TOFC_MAGIC, _TOFC_HEAD, MalformedBitstreamError)
        m, dim, num_models = reader.fields
        model_ids = tuple(reader.take(m, "model ids"))
        ids_end = reader.offset
        (crc,) = reader.unpack("I", "checksum")
        payload = reader.take(len(data) - reader.offset, "payload")
        if zlib.crc32(data[:ids_end] + payload) & 0xFFFFFFFF != crc:
            raise MalformedBitstreamError("checksum mismatch")
        return cls(
            dim=dim,
            num_models=num_models,
            model_ids=model_ids,
            payload=payload,
        )


def _validate_models(models, dim: int | None = None):
    """A list or tuple of LaplacianModels with ids 0..E-1, all of dim (the
    first model's if None)."""
    if not isinstance(models, (list, tuple)):
        raise InvalidInputError(
            f"models must be a list or tuple of LaplacianModels, got {type(models).__name__}"
        )
    if not models:
        raise InvalidInputError("need at least one model")
    if len(models) > 255:
        raise InvalidInputError("at most 255 models fit the container")
    for pos, model in enumerate(models):
        if not isinstance(model, LaplacianModel):
            raise InvalidInputError(f"models[{pos}] must be a LaplacianModel, got {model!r}")
        if dim is None:
            dim = model.dim
        if model.id != pos:
            raise InvalidInputError("model ids must equal their list positions")
        if model.dim != dim:
            raise InvalidInputError(
                f"model {pos} has dim {model.dim}, symbols have dim {dim}"
            )


def encode(symbols: np.ndarray, models, routing) -> Bitstream:
    """Range-code quantized rows, each under its routed model, row-major."""
    arr = np.asarray(symbols)
    if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.integer):
        raise InvalidInputError("symbols must be a 2-D integer array")
    m, d = arr.shape
    if m > 65535 or d > 65535 or d < 1:
        raise InvalidInputError("symbol matrix does not fit the container limits")
    _validate_models(models, d)
    if not (isinstance(routing, (list, tuple))
            or isinstance(routing, np.ndarray) and routing.ndim == 1):
        raise InvalidInputError(
            f"routing must be a list, tuple or 1-D array of model ids, got {routing!r}"
        )
    ids = []
    for pos, e in enumerate(routing):
        if not isinstance(e, (int, np.integer)) or isinstance(e, bool) or not 0 <= e < len(models):
            raise InvalidInputError(
                f"routing[{pos}] must be an int model id in 0..{len(models) - 1}, got {e!r}"
            )
        ids.append(int(e))
    if len(ids) != m:
        raise InvalidInputError(f"routing must name a model per row ({m})")
    if arr.size and not (int(arr.min()) >= -(1 << 31) and int(arr.max()) < 1 << 31):
        raise InvalidInputError("symbols must lie in [-2**31, 2**31); escapes store 32 bits")
    rows = arr.astype(np.int64)
    routed = np.array(ids, dtype=np.intp)
    dims = np.arange(d)
    lo, hi = np.empty((2, m, d), dtype=np.int32)
    # Every listed model must be codable, whether or not a row routes to it.
    for model in models:
        cum = model._cum
        mine = routed == model.id
        esc = cum.shape[1] - 2
        idx = rows[mine] - model._bins[0]
        idx[(idx < 0) | (idx >= esc)] = esc
        lo[mine] = cum[dims, idx]
        hi[mine] = cum[dims, idx + 1]
    enc = RangeEncoder()
    put, put_raw = enc.encode, enc.encode_raw
    # Each alphabet ends in its escape, the only symbol whose interval ends at TOTAL.
    for q, a, b in zip(rows.ravel().tolist(), lo.ravel().tolist(), hi.ravel().tolist()):
        put(a, b)
        if b == TOTAL:
            put_raw(q & 0xFFFFFFFF, _RAW_BITS)
    return Bitstream(
        dim=d,
        num_models=len(models),
        model_ids=tuple(ids),
        payload=enc.finish(),
    )


def decode(bs: Bitstream, models) -> np.ndarray:
    """Exact quantized symbols back from a bitstream."""
    _validate_models(models, bs.dim)
    if len(models) != bs.num_models:
        raise InvalidInputError(
            f"bitstream was coded with {bs.num_models} models, got {len(models)}"
        )
    if any(not 0 <= e < len(models) for e in bs.model_ids):
        raise MalformedBitstreamError("routing references an unknown model id")
    tables = []
    for model in models:
        cum = model._cum
        rows = zip(model._bins[0].tolist(), map(memoryview, cum), map(memoryview, model._starts))
        tables.append((cum.shape[1] - 2, list(rows)))
    dec = RangeDecoder(bs.payload)
    decode_freq, decode_update, decode_raw = dec.decode_freq, dec.decode_update, dec.decode_raw
    bisect_right = bisect.bisect_right
    out = []
    put = out.append
    for e in bs.model_ids:
        esc, rows = tables[e]
        for lo, cum, starts in rows:
            v = decode_freq()
            # The symbol is bisect_right(cum, v) - 1; its 256-wide bucket of
            # values narrows the search, to one symbol when the bucket lies
            # inside one interval.
            idx = starts[v >> 8]
            end = starts[(v >> 8) + 1]
            if idx != end:
                idx = bisect_right(cum, v, idx + 1, end + 1) - 1
            decode_update(cum[idx], cum[idx + 1])
            if idx == esc:
                raw = decode_raw(_RAW_BITS)
                put(raw - (1 << 32) if raw >= (1 << 31) else raw)
            else:
                put(lo + idx)
    return np.array(out, dtype=np.int64).reshape(bs.num_clusters, bs.dim)


@dataclass(frozen=True)
class TofcConfig:
    num_centers: int
    k_neighbors: int
    models: tuple[LaplacianModel, ...]

    def __post_init__(self):
        require_int("num_centers", self.num_centers, 1)
        require_int("k_neighbors", self.k_neighbors, 1)
        _validate_models(self.models)


def tofc_pipeline(fs: FeatureSet, cfg: TofcConfig):
    """Cluster, merge, quantize, route, encode; returns (Bitstream, stats)."""
    if cfg.models[0].dim != fs.dim:
        raise InvalidInputError("entropy models do not match the feature dimension")
    clusters = dpc_knn_cluster(fs, cfg.k_neighbors, cfg.num_centers)
    symbols = quantize(clusters.merged)
    routing, bits = route(symbols, cfg.models)
    bs = encode(symbols, cfg.models, routing)
    # Summed in row order; np.sum's pairwise order would round differently.
    est_bits = sum(bits.tolist())
    counts = np.bincount(routing, minlength=len(cfg.models))
    stats = {
        "M": symbols.shape[0],
        "bytes": len(bs.payload),
        "est_bits": float(est_bits),
        "balance": balance_metric(counts),
    }
    return bs, stats


def make_blob_features(num_points: int, dim: int, num_groups: int, rng: Rng) -> FeatureSet:
    """Synthetic grouped features: group centers plus per-point noise."""
    if num_points < 1 or dim < 1 or num_groups < 1:
        raise InvalidInputError("num_points, dim, num_groups must all be >= 1")
    centers = rng.normal_matrix(num_groups, dim) * 8.0
    noise = rng.normal_matrix(num_points, dim) * 0.5
    groups = np.arange(num_points) % num_groups
    return FeatureSet(features=centers[groups] + noise)


def save_features(path, fs: FeatureSet):
    """Binary feature file: FEAT magic, version, counts, float32 rows.

    A value outside float32's finite range raises InvalidInputError before
    anything is written: stored as float32 it would become inf, which
    load_features rejects.
    """
    with np.errstate(over="ignore"):
        rows = fs.features.astype("<f4")
    if not np.isfinite(rows).all():
        limit = float(np.finfo(np.float32).max)
        raise InvalidInputError(
            f"features outside the float32 range [-{limit:.7g}, {limit:.7g}] cannot be saved"
        )
    head = header(_FEAT_MAGIC, "II", fs.count, fs.dim)
    write_file(path, head, rows.tobytes(order="C"))


def load_features(path) -> FeatureSet:
    reader = Reader(read_file(path), _FEAT_MAGIC, "II")
    n, d = reader.fields
    feats = reader.matrix(n, d, "features", dtype="<f4")
    reader.end()
    return FeatureSet(features=feats)


def load_features_csv(path) -> FeatureSet:
    try:
        rows = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise IoError(f"cannot read features: {exc}") from exc
    except ValueError as exc:
        raise InvalidInputError(f"malformed feature csv: {exc}") from exc
    return FeatureSet(features=rows)
