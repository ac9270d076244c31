"""Weight decomposition for model families sharing calibration statistics.

A layer weight W (m x n) is factored through whitened activations: with
S S^T = X X^T + ridge*I (Cholesky), the reduced SVD of W S = U A V^T gives
factors

    w_u = U_h A_h^(1/2)        (m x h)
    w_v = A_h^(1/2) V_h^T S^-1 (h x n)

keeping the top h singular triplets. The squared reconstruction error on the
calibration features then equals the discarded singular energy exactly
(ridge 0, full-row-rank X), which is what makes budgeted rank allocation by
singular values sound. Residual stacking repeats the decomposition on
W - (partial sum) with the SAME whitening context, so earlier components are
frozen and a stack truncates by plain partial sums.

S^-1 is always applied through triangular solves; no inverse is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import Reader, header, read_file, write_file
from .errors import (
    BudgetTooSmallError,
    InvalidInputError,
    InvalidRankError,
)
from .numerics import (
    cholesky_lower,
    is_real,
    require_int,
    require_matrix,
    require_vector,
    solve_lower_triangular,
    svd_reduced,
)

_FAMD_MAGIC = b"FAMD"


@dataclass(frozen=True)
class WhiteningContext:
    """Cholesky factor of the (ridged) calibration covariance.

    s is n x n lower-triangular with s @ s.T = X @ X.T + ridge*I.
    """

    s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", require_matrix(self.s, "s"))

    @property
    def dim(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True)
class DecomposedLayer:
    """Two-factor replacement for a dense m x n layer: x -> w_u @ (w_v @ x).

    w_u is m x h and w_v is h x n, so the factors carry the layer's rank h
    (hidden_dim) and its dense shape (source_dims). An HPCD stack is a tuple
    of these, one per component.
    """

    w_u: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_u", require_matrix(self.w_u, "w_u"))
        object.__setattr__(self, "w_v", require_matrix(self.w_v, "w_v"))
        if self.w_u.shape[1] != self.w_v.shape[0]:
            raise InvalidInputError(
                f"w_u shape {self.w_u.shape} does not chain with w_v shape {self.w_v.shape}"
            )
        if not 1 <= self.hidden_dim <= min(self.source_dims):
            raise InvalidInputError(f"hidden_dim must be in 1..min(m, n), got {self.hidden_dim}")

    @property
    def hidden_dim(self) -> int:
        return self.w_u.shape[1]

    @property
    def source_dims(self) -> tuple[int, int]:
        return self.w_u.shape[0], self.w_v.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Low-rank product w_u @ (w_v @ x); x may be a vector or matrix."""
        return self.w_u @ (self.w_v @ x)

    def product(self) -> np.ndarray:
        """The dense m x n matrix w_u @ w_v this layer realizes."""
        return self.w_u @ self.w_v


def parameter_ratio(m: int, n: int, h: int) -> float:
    """Fraction of the dense layer's parameters kept: h*(m+n)/(m*n)."""
    for name, value in (("m", m), ("n", n), ("h", h)):
        require_int(name, value, 1)
    return h * (m + n) / (m * n)


def whiten(x, ridge: float | None = None) -> WhiteningContext:
    """Build a whitening context from calibration features (one per column).

    x is n x N with N >= 1. When ridge is omitted it defaults to
    1e-6 * trace(X X^T) / n, enough to make a rank-deficient covariance
    factorizable without noticeably perturbing a healthy one.
    """
    arr = require_matrix(x, "x")
    n, count = arr.shape
    if n < 1 or count < 1:
        raise InvalidInputError("x must have at least one row and one column")
    cov = arr @ arr.T
    if ridge is None:
        ridge = 1e-6 * float(np.trace(cov)) / n
    if not (is_real(ridge) and np.isfinite(ridge) and ridge >= 0.0):
        raise InvalidInputError(f"ridge must be a finite real >= 0, got {ridge!r}")
    return WhiteningContext(s=cholesky_lower(cov + float(ridge) * np.eye(n)))


def decompose_layer(w, ctx: WhiteningContext, h: int) -> DecomposedLayer:
    """Whitened-SVD factors of w keeping the top h singular components."""
    arr = require_matrix(w, "w")
    m, n = arr.shape
    if ctx.dim != n:
        raise InvalidInputError(
            f"context dimension {ctx.dim} does not match layer columns {n}"
        )
    if not isinstance(h, int) or isinstance(h, bool) or not 1 <= h <= min(m, n):
        raise InvalidRankError(f"h must be in 1..{min(m, n)}, got {h}")
    res = svd_reduced(arr @ ctx.s)
    sqrt_sigma = np.sqrt(res.sigma[:h])
    w_u = res.u[:, :h] * sqrt_sigma
    # w_v = diag(sqrt_sigma) V_h^T S^-1, via S^T y = (diag(sqrt_sigma) V_h^T)^T.
    scaled_vt = sqrt_sigma[:, None] * res.v[:, :h].T
    w_v = solve_lower_triangular(ctx.s, scaled_vt.T, transpose=True).T
    # Contiguous copies: BLAS picks layout-dependent code paths, and factor
    # layout must not depend on how the factors were produced.
    return DecomposedLayer(w_u=np.ascontiguousarray(w_u), w_v=np.ascontiguousarray(w_v))


def truncation_loss(sigma, h: int) -> float:
    """Sum of squared singular values beyond the first h."""
    vec = require_vector(sigma, "sigma")
    if np.any(vec < 0.0):
        raise InvalidInputError("sigma entries must be non-negative")
    if vec.size > 1 and np.any(np.diff(vec) > 1e-12 * max(1.0, float(vec[0]))):
        raise InvalidInputError("sigma must be non-increasing")
    if not isinstance(h, int) or isinstance(h, bool) or not 0 <= h <= vec.size:
        raise InvalidInputError(f"h must be in 0..{vec.size}, got {h}")
    return float(np.sum(vec[h:] ** 2))


def allocate_ranks(layer_sigmas, layer_dims, budget: int) -> list[int]:
    """Greedy budgeted rank allocation across layers; returns each layer's rank.

    Every layer starts at rank 1; each step grants +1 rank to the layer with
    the largest marginal gain per parameter, sigma_{h+1}^2 / (m+n), among the
    layers that can still grow within the remaining budget. Ties go to the
    lowest layer index. Gains are non-increasing per layer, so on equal-cost
    instances this greedy matches exhaustive search.
    """
    if len(layer_sigmas) != len(layer_dims) or not layer_dims:
        raise InvalidInputError("layer_sigmas and layer_dims must be equal-length, non-empty")
    sigmas = [require_vector(s, f"sigma[{i}]") for i, s in enumerate(layer_sigmas)]
    for i, dim in enumerate(layer_dims):
        if not isinstance(dim, (tuple, list)) or len(dim) != 2:
            raise InvalidInputError(f"layer_dims[{i}] must be an (m, n) pair, got {dim!r}")
        for name, value in zip("mn", dim):
            require_int(f"layer_dims[{i}].{name}", value, 1)
        if sigmas[i].size > min(dim):
            raise InvalidInputError(f"sigma[{i}] longer than min(m, n)")
    require_int("budget", budget, 0)

    steps = [m + n for m, n in layer_dims]
    base_cost = sum(steps)
    if budget < base_cost:
        raise BudgetTooSmallError(
            f"budget {budget} cannot cover rank 1 for every layer (needs {base_cost})"
        )
    ranks = [1] * len(steps)
    remaining = budget - base_cost
    while True:
        best = -1
        best_gain = -1.0
        for i, step in enumerate(steps):
            if ranks[i] >= sigmas[i].size or step > remaining:
                continue
            gain = float(sigmas[i][ranks[i]]) ** 2 / step
            if gain > best_gain:
                best = i
                best_gain = gain
        if best < 0:
            return ranks
        ranks[best] += 1
        remaining -= steps[best]


def hpcd_build(
    w, ctx: WhiteningContext, rank_per_component: int, num_components: int
) -> tuple[DecomposedLayer, ...]:
    """Stack of low-rank components fitted on successive residuals.

    Component 1 factors w itself; component k >= 2 factors the residual
    w - sum of earlier components, always under the SAME whitening context,
    so earlier components are never recomputed. Because the residual of an
    exact whitened SVD is the tail of the original SVD, each component picks
    up the next rank_per_component singular triplets of w @ S.
    """
    arr = require_matrix(w, "w")
    require_int("rank_per_component", rank_per_component, 1)
    require_int("num_components", num_components, 1)
    components = []
    residual = arr
    for _ in range(num_components):
        layer = decompose_layer(residual, ctx, rank_per_component)
        components.append(layer)
        residual = residual - layer.product()
    return tuple(components)


def hpcd_truncate(stack: tuple[DecomposedLayer, ...], k: int) -> np.ndarray:
    """Dense matrix realized by the first k components."""
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= len(stack):
        raise InvalidInputError(f"k must be in 1..{len(stack)}, got {k}")
    total = np.zeros(stack[0].source_dims)
    for layer in stack[:k]:
        total += layer.product()
    return total


def save_layer(layer: DecomposedLayer, path) -> None:
    """Write a DecomposedLayer as a flat binary container.

    Layout: magic "FAMD", version byte, then m, n, h as unsigned 32-bit
    little-endian, then w_u and w_v as row-major 64-bit little-endian floats.
    """
    m, n = layer.source_dims
    write_file(
        path,
        header(_FAMD_MAGIC, "III", m, n, layer.hidden_dim),
        np.ascontiguousarray(layer.w_u, dtype="<f8").tobytes(),
        np.ascontiguousarray(layer.w_v, dtype="<f8").tobytes(),
    )


def load_layer(path) -> DecomposedLayer:
    """Read a DecomposedLayer written by save_layer.

    A NaN or infinite weight raises InvalidInputError naming w_u or w_v.
    """
    reader = Reader(read_file(path), _FAMD_MAGIC, "III")
    m, n, h = reader.fields
    w_u = reader.matrix(m, h, "w_u")
    w_v = reader.matrix(h, n, "w_v")
    reader.end()
    return DecomposedLayer(w_u=w_u, w_v=w_v)
