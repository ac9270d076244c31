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
  - frequency tables scale the model pmf to a total of 2^16 with every entry
    at least 1, repairing the rounding remainder on the largest entry.

Clustering holds each pairwise squared distance once, in upper row blocks
(about 4*N^2 bytes), and fills them through one fixed-size tile of squared
differences, so its scratch does not grow with d; see dpc_knn_cluster.

A model builds its tables once, on first use, and keeps them: its bin table
(routing prices rows from it) and int32 coding tables (encode gathers each
symbol's interval from them with numpy, decode bisects their rows). The
range coder is still called once per symbol and once per raw escape bit.
"""

from __future__ import annotations

import bisect
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
from .rangecoder import RangeDecoder, RangeEncoder

B_MIN = 1e-3
_TOTAL = 1 << 16
_FEAT_MAGIC = b"FEAT"
_TOFC_MAGIC = b"TOFC"
_TOFC_HEAD = "HHB"  # cluster count, dim, model count
_RAW_BITS = 32
# Rows of the pairwise-distance matrix filled per step in dpc_knn_cluster.
_ROW_BLOCK = 64
# Squared differences dpc_knn_cluster holds at a time (at least 128, one
# column of _plane_sum's widest run): its scratch stays this, whatever d and N are.
_TILE = 1 << 16
# Bin-table entries _bin_table fills per step (at least one dimension's row):
# its temporaries stay a few times this, whatever d and q_range are.
_BIN_ENTRIES = 1 << 16
# Bytes dpc_knn_cluster may spend on distances, counted as an N x N float64
# matrix (it holds about half of that): 2^30 admits N <= 11,585.
_DISTANCE_BYTES = 1 << 30
# The widest alphabet, 2*q_range + 2 entries, that fits the 2^16 frequency total.
Q_RANGE_MAX = (_TOTAL - 2) // 2
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
    the one its checks passed. Its bin table and coding tables are derived
    from them on first use and kept for the model's lifetime.
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
    def _codes(self) -> tuple[np.ndarray, np.ndarray]:
        """(freqs, cum): int32 coding tables, row j dimension j's alphabet.

        freqs (d, 2*q_range + 2) holds the in-range symbols' frequencies, then
        the escape's, each row summing to exactly 2^16; cum (d, 2*q_range + 3)
        their running sums from 0. All dimensions are scaled, floored at 1 and
        repaired on their largest entry together, from the bin table. A q_range
        so wide that the floor of 1 per entry overdraws the total raises
        InvalidInputError naming the first such dimension, on every use.
        """
        p = self._bins[1]
        freqs = np.maximum(1, np.rint(p * _TOTAL)).astype(np.int64)
        dims = np.arange(self.dim)
        top = np.argmax(freqs, axis=1)
        freqs[dims, top] += _TOTAL - freqs.sum(axis=1)
        overdrawn = np.flatnonzero(freqs[dims, top] < 1)
        if overdrawn.size:
            raise InvalidInputError(
                f"model {self.id} dimension {overdrawn[0]}: q_range {self.q_range} leaves too "
                "little of the 2^16 frequency total to give every symbol a frequency >= 1"
            )
        if freqs.min() < 1 or (freqs.sum(axis=1) != _TOTAL).any():
            raise InvariantViolationError("frequency table repair failed")
        cum = np.zeros((self.dim, freqs.shape[1] + 1), dtype=np.int32)
        np.cumsum(freqs, axis=1, out=cum[:, 1:])
        return _frozen(freqs.astype(np.int32)), _frozen(cum)


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


def _plane_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray, tile: np.ndarray) -> None:
    """out = the sum over j of (a[j] - b[j])**2, added in np.sum's order.

    a is (n, r, 1) and b (n, 1, c); the n squared difference planes go into
    the scratch buffer tile, which must hold min(n, 128) * r * c floats.
    This is the order of numpy's contiguous add.reduce, so out equals np.sum
    over a trailing axis of n squares bit for bit: fewer than 8 terms left
    to right; up to 128 terms as 8 running sums over j = k, k + 8, ...,
    combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest left to
    right; more terms split at n/2 rounded down to a multiple of 8, and each
    half summed alike.
    """
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        _plane_sum(a[:half], b[:half], out, tile)
        rest = np.empty(out.shape)
        _plane_sum(a[half:], b[half:], rest, tile)
        out += rest
        return
    p = tile[: n * out.size].reshape(n, *out.shape)
    # Copying the row side in and subtracting the column side in place runs
    # numpy's contiguous loops; the values are exactly a[j] - b[j].
    np.copyto(p, a)
    p -= b
    np.square(p, out=p)
    if n < 8:
        tail = 1
        np.copyto(out, p[0])
    else:
        tail = n - n % 8
        r = p[:8]
        for j in range(8, tail, 8):
            r += p[j : j + 8]
        r[0::2] += r[1::2]
        r[0::4] += r[2::4]
        np.add(r[0], r[4], out=out)
    for j in range(tail, n):
        out += p[j]


def _sq_distances(feats: np.ndarray, k: int, blocks: list[slice]):
    """(upper, knn): the upper row blocks of the squared distances, and each
    row's k + 1 smallest squared distances, sorted.

    upper[b] is d2[blk, blk.start:] for blocks[b] = blk, the block's columns
    from its first row on; the rest of its rows sits transposed in the
    blocks above it. Column 0 of knn is a zero distance (the point itself or
    a duplicate). An overflowing square or sum is left as inf, for the
    caller to reject.
    """
    n, d = feats.shape
    cols = np.ascontiguousarray(feats.T)
    # A tile spans as many of a block's columns as _TILE holds at _plane_sum's
    # widest run of 128 dimensions, and as many rows as fit beside them.
    run = min(d, 128)
    tile = np.empty(_TILE)
    rows = np.empty((_ROW_BLOCK, n))
    upper = []
    knn = np.empty((n, k + 1))
    with np.errstate(over="ignore"):
        for blk in blocks:
            s = blk.start
            full = rows[: min(blk.stop, n) - s]
            block = np.empty((len(full), n - s))
            width = min(n - s, _TILE // run)
            height = _TILE // (run * width)
            for r in range(0, len(full), height):
                for c in range(0, n - s, width):
                    _plane_sum(cols[:, s + r : s + min(r + height, len(full)), None],
                               cols[:, None, s + c : s + c + width],
                               block[r : r + height, c : c + width], tile)
            # The block's full rows: the columns left of it are columns of
            # the blocks above, transposed.
            for above, done in zip(blocks, upper):
                full[:, above] = done[:, s - above.start : s - above.start + len(full)].T
            full[:, s:] = block
            full.partition(k, axis=1)
            knn[blk] = full[:, : k + 1]
            upper.append(block)
    knn.sort(axis=1)
    return upper, knn


def dpc_knn_cluster(fs: FeatureSet, k_neighbors: int, num_centers: int) -> ClusterResult:
    """Density-peak clustering with KNN densities, then per-cluster averaging.

    rho_i = exp(-mean squared distance to the k nearest neighbors), delta_i =
    distance to the closest strictly denser point (points without one,
    including the densest, get the maximum pairwise distance). Centers are
    the top num_centers by rho*delta, every point joins its nearest center,
    and a center whose cluster ends up empty keeps its own feature row.

    Memory grows as N(N + _ROW_BLOCK)/2 floats plus one _ROW_BLOCK x N
    buffer and one tile of _TILE floats, whatever d and num_centers are. Each pair's squared
    distance is computed and held once: a block of _ROW_BLOCK rows keeps
    only its columns from its first row on (upper row blocks, see
    _sq_distances), filled one tile of rows x columns x dimensions at a
    time. Each pair's d squares are added in the order np.sum(..., axis=-1)
    adds them (numpy's pairwise add.reduce, see _plane_sum), so every
    distance equals the full row sum bit for bit. In round-to-nearest a - b
    is exactly -(b - a), so a block's column read as a row equals the one a
    full row would compute. knn reads each block's full rows, assembled in
    the _ROW_BLOCK x N buffer; delta reads the blocks in place, each block
    row-wise for its own rows and column-wise for the rows past it; the
    assignment gathers one block's rows at a time of distances to the
    centers. Square roots are taken of minima and gathered values only:
    sqrt is monotone and correctly rounded, so the root of a minimum is the
    minimum of the roots.

    More points than an N x N matrix of _DISTANCE_BYTES holds (N > 11,585)
    are rejected with InvalidInputError before any distance block is allocated.

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
    blocks = [slice(s, s + _ROW_BLOCK) for s in range(0, n, _ROW_BLOCK)]
    upper, knn = _sq_distances(feats, k_neighbors, blocks)
    max_pair = float(np.sqrt(max(block.max() for block in upper)))
    if not np.isfinite(max_pair):
        raise InvalidInputError(
            "features are too far apart: a squared pairwise distance overflows float64"
        )
    # The mean over the k nearest adds what a full sort of each row would.
    # Its sum may overflow to inf, which is rho 0, as far as float64 can say.
    with np.errstate(over="ignore"):
        rho = np.exp(-np.mean(knn[:, 1:], axis=1))
    nearest_denser = np.full(n, np.inf)
    for blk, block in zip(blocks, upper):
        s, past = blk.start, blk.start + block.shape[0]
        mine, later = nearest_denser[blk], nearest_denser[past:]
        denser = np.where(rho[None, s:] > rho[blk, None], block, np.inf)
        np.minimum(mine, denser.min(axis=1), out=mine)
        denser = np.where(rho[blk, None] > rho[None, past:], block[:, past - s :], np.inf)
        np.minimum(later, denser.min(axis=0), out=later)
    delta = np.sqrt(nearest_denser)
    # Points with no strictly denser point, the densest included.
    delta[rho == rho.max()] = max_pair
    gamma = rho * delta
    order = np.argsort(-gamma, kind="stable")
    centers = [int(i) for i in order[:num_centers]]
    at = np.array(centers)
    # Positions in centers of the centers among each block's rows.
    owned = [np.flatnonzero((at >= blk.start) & (at < blk.stop)) for blk in blocks]
    assignment = np.empty(n, dtype=np.int64)
    near = np.empty((_ROW_BLOCK, num_centers))
    for b, (blk, block) in enumerate(zip(blocks, upper)):
        s = blk.start
        mine = near[: block.shape[0]]
        # Centers above the block: its rows are columns of the centers' blocks.
        for above, done, pos in zip(blocks[:b], upper, owned):
            mine[:, pos] = done[at[pos] - above.start, s - above.start : s - above.start + len(mine)].T
        right = at >= s
        mine[:, right] = block[:, at[right] - s]
        # Two squared distances can round to one distance: compare the roots.
        assignment[blk] = np.argmin(np.sqrt(mine, out=mine), axis=1)
    merged = np.empty((num_centers, feats.shape[1]))
    # A stable sort keeps each cluster's rows in index order, contiguous, as
    # a boolean mask would gather them, so each mean adds alike.
    members = feats[np.argsort(assignment, kind="stable")]
    bounds = np.cumsum(np.bincount(assignment, minlength=num_centers)).tolist()
    for c, (start, stop) in enumerate(zip([0] + bounds, bounds)):
        merged[c] = members[start:stop].mean(axis=0) if stop > start else feats[centers[c]]
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
    cum_lo = np.empty((m, d), dtype=np.int32)
    freq = np.empty((m, d), dtype=np.int32)
    escaped = np.empty((m, d), dtype=bool)
    # Every listed model must be codable, whether or not a row routes to it.
    for model in models:
        freqs, cum = model._codes
        mine = routed == model.id
        esc = freqs.shape[1] - 1
        idx = rows[mine] - model._bins[0]
        outside = (idx < 0) | (idx >= esc)
        idx[outside] = esc
        cum_lo[mine] = cum[dims, idx]
        freq[mine] = freqs[dims, idx]
        escaped[mine] = outside
    enc = RangeEncoder()
    for q, c, f, x in zip(rows.ravel().tolist(), cum_lo.ravel().tolist(),
                          freq.ravel().tolist(), escaped.ravel().tolist()):
        enc.encode(c, f, _TOTAL)
        if x:
            enc.encode_raw(q & 0xFFFFFFFF, _RAW_BITS)
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
        freqs, cum = model._codes
        rows = zip(model._bins[0].tolist(), map(memoryview, freqs), map(memoryview, cum))
        tables.append((freqs.shape[1] - 1, list(rows)))
    dec = RangeDecoder(bs.payload)
    out = []
    for e in bs.model_ids:
        esc, rows = tables[e]
        for lo, freqs, cum in rows:
            idx = bisect.bisect_right(cum, dec.decode_freq(_TOTAL)) - 1
            dec.decode_update(cum[idx], freqs[idx])
            if idx == esc:
                raw = dec.decode_raw(_RAW_BITS)
                out.append(raw - (1 << 32) if raw >= (1 << 31) else raw)
            else:
                out.append(lo + idx)
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
