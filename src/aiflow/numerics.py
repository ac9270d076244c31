"""Dense linear algebra and deterministic randomness for desk-scale experiments.

Matrices are plain 2-D float64 numpy arrays (row-major). Public entry points
validate shape and finiteness and raise InvalidInputError rather than letting
numpy surface cryptic failures. Factorizations follow fixed conventions so
results are reproducible byte-for-byte on one platform and to tight tolerances
across platforms:

- svd_reduced keeps r = min(m, n) singular triplets, sigma non-increasing,
  and flips signs so the first nonzero entry of each left-singular column is
  non-negative.
- cholesky_lower reports the failing pivot index on non-SPD input.
- solve_lower_triangular refuses zero/near-zero diagonals instead of returning
  garbage.

Rng is a 64-bit xorshift generator (xorshift64*, Vigna's multiplier) seeded
through one splitmix64 step. The update rule is written out below and is the
whole cross-platform contract: identical seed, identical sequence.

Bulk draws (Rng.uniforms, Rng.normal_matrix) are bit-equal to the same
number of scalar uniform()/normal() calls and leave the generator in the same
state. The xorshift step is linear over GF(2), so T^m, m steps at once, is a
64 x 64 bit matrix; it is applied to a uint64 array as the XOR of 8 gathers
from 256-entry tables, one per input byte. A chunk of states starts with 64
scalar steps and then doubles: states[m:2m] = T^m(states[:m]) for m = 64,
128, ... (jump ahead as in Haramoto et al. 2008, INFORMS J. Comput. 20:385).
The output multiply, the shift and the scaling are exact in uint64 and
float64 arithmetic, so numpy reproduces the scalar values.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SingularTriangularError,
)

_MASK64 = (1 << 64) - 1
_MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)  # numpy cannot index a larger array
_EPS = 2.220446049250313e-16  # float64 machine epsilon
# Bulk draws work in chunks of at most this many states, so temporaries stay
# bounded and jump tables are needed only up to T^(_CHUNK / 2).
_CHUNK = 1 << 16
_SEED_RUN = 64  # states of a chunk made by the scalar step before doubling


def require_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array with finite entries, or raise."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return arr


def require_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array with finite entries, or raise."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return arr


def require_int(name: str, value, minimum: int) -> None:
    """A non-bool int >= minimum, or an InvalidInputError naming the field."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidInputError(f"{name} must be an int >= {minimum}, got {value!r}")


def is_real(value) -> bool:
    """Whether value is a real number (numpy scalars included) and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _splitmix64(x: int) -> int:
    """One splitmix64 output for input x (used for seeding and stream splitting)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _jump(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T^m applied to each uint64 in x; table[j, v] is T^m(v << 8j)."""
    octets = np.asarray(x, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = table[0][octets[:, 0]]
    for j in range(1, 8):
        out ^= table[j][octets[:, j]]
    return out


@functools.cache
def _jump_table(level: int) -> np.ndarray:
    """The 8 x 256 table of T^(_SEED_RUN * 2**level), built on first use."""
    if level:
        # T^2m = T^m o T^m: the level below applied to its own entries.
        half = _jump_table(level - 1)
        table = _jump(half, half.reshape(-1)).reshape(8, 256)
    else:
        # Every entry's input v << 8j, stepped _SEED_RUN times.
        shifts = np.uint64(8) * np.arange(8, dtype=np.uint64)[:, None]
        table = np.arange(256, dtype=np.uint64) << shifts
        for _ in range(_SEED_RUN):
            table ^= table >> np.uint64(12)
            table ^= table << np.uint64(25)  # numpy drops the bits shifted past 64
            table ^= table >> np.uint64(27)
    table.setflags(write=False)  # cached, so shared by every generator
    return table


class Rng:
    """Deterministic xorshift64* generator.

    State update (all arithmetic mod 2**64):
        state ^= state >> 12
        state ^= state << 25
        state ^= state >> 27
        output = state * 0x2545F4914F6CDD1D

    The initial state is splitmix64(seed), replaced by a fixed nonzero
    constant if that lands on zero (xorshift state must never be zero).
    uniform() maps the top 53 output bits onto [0, 1); normal() is the
    Box-Muller transform drawing two uniforms per pair (u1 first, angle
    second) with the second deviate cached.
    """

    __slots__ = ("_state", "_cached_normal")

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise InvalidInputError("seed must be an int")
        if not 0 <= seed <= _MASK64:
            raise InvalidInputError("seed must fit in 64 bits")
        self._state = _splitmix64(seed) or 0x9E3779B97F4A7C15
        self._cached_normal: float | None = None

    def _next64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self) -> float:
        """Next real in [0, 1) with 53-bit resolution."""
        return (self._next64() >> 11) * (2.0 ** -53)

    def normal(self) -> float:
        """Next standard normal deviate (Box-Muller, second value cached)."""
        if self._cached_normal is not None:
            z = self._cached_normal
            self._cached_normal = None
            return z
        u1 = 1.0 - self.uniform()  # (0, 1]: keeps log() finite
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._cached_normal = radius * math.sin(theta)
        return radius * math.cos(theta)

    def spawn(self, key: int) -> "Rng":
        """Derive an independent child stream from the current state and a key.

        Does not advance this generator. The child seed is
        splitmix64(state XOR splitmix64(key)), so distinct keys give
        decorrelated streams and the derivation is reproducible.
        """
        if not isinstance(key, int) or isinstance(key, bool) or key < 0:
            raise InvalidInputError("spawn key must be a non-negative int")
        return Rng(_splitmix64(self._state ^ _splitmix64(key & _MASK64)))

    def _states(self, count: int) -> np.ndarray:
        """The next `count` (1.._CHUNK) states as uint64; advances the generator."""
        states = np.empty(count, dtype=np.uint64)
        head = min(count, _SEED_RUN)
        x, mask, run = self._state, _MASK64, []
        for _ in range(head):
            x ^= x >> 12
            x ^= (x << 25) & mask
            x ^= x >> 27
            run.append(x)
        states[:head] = run
        done, level = head, 0
        while done < count:
            step = min(done, count - done)
            states[done : done + step] = _jump(_jump_table(level), states[:step])
            done += step
            level += 1
        self._state = int(states[-1])
        return states

    def uniforms(self, n: int) -> np.ndarray:
        """The next n uniform() values as a float64 array, bit for bit."""
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
            raise InvalidInputError(f"draw count must be >= 0 and an int, got {n!r}")
        if int(n) * 8 > _MAX_ARRAY_BYTES:
            raise InvalidInputError(f"draw count {n!r} is too large to index")
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, _CHUNK):
            words = self._states(min(_CHUNK, n - start))
            words *= np.uint64(0x2545F4914F6CDD1D)  # wraps mod 2**64 like the mask
            words >>= np.uint64(11)
            np.multiply(words, 2.0 ** -53, out=out[start : start + words.size])
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols matrix of standard normals, drawn row-major.

        Equal bit for bit to rows*cols successive normal() calls, cached
        deviate included on entry and on exit. Each chunk draws its uniforms
        in bulk and pairs them as normal() does.
        """
        for size in (rows, cols):
            if not isinstance(size, (int, np.integer)) or isinstance(size, bool) or size < 0:
                raise InvalidInputError(
                    f"matrix size must be >= 0 and an int, got {rows!r} x {cols!r}"
                )
        if int(rows) * int(cols) * 8 > _MAX_ARRAY_BYTES:
            raise InvalidInputError(f"matrix size {rows!r} x {cols!r} is too large to index")
        out = np.empty((rows, cols), dtype=np.float64)
        flat = out.reshape(-1)
        size, i = flat.size, 0
        if size and self._cached_normal is not None:
            flat[0] = self._cached_normal
            self._cached_normal = None
            i = 1
        while i < size:
            pairs = min((size - i + 1) // 2, _CHUNK // 2)
            u = self.uniforms(2 * pairs)
            # 1.0 - u, sqrt, 2*pi*u and the products are correctly rounded
            # IEEE operations, so numpy gives normal()'s doubles. log, cos and
            # sin carry no such guarantee: numpy's SIMD kernels differ from
            # libm in the last bit on some inputs, so they go through math.
            u1 = 1.0 - u[0::2]  # (0, 1]: keeps log() finite
            log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, pairs)
            radius = np.sqrt(-2.0 * log_u1)
            theta = (2.0 * math.pi * u[1::2]).tolist()
            z = np.empty(2 * pairs, dtype=np.float64)
            z[0::2] = radius * np.fromiter(map(math.cos, theta), np.float64, pairs)
            z[1::2] = radius * np.fromiter(map(math.sin, theta), np.float64, pairs)
            take = min(2 * pairs, size - i)
            flat[i : i + take] = z[:take]
            if take < z.size:
                self._cached_normal = float(z[-1])
            i += take
        return out


@dataclass(frozen=True)
class SvdResult:
    """Reduced SVD a = u @ diag(sigma) @ v.T with r = min(m, n) triplets.

    u is m x r and v is n x r, both with orthonormal columns; sigma is
    non-increasing and non-negative.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd_reduced(a) -> SvdResult:
    """Reduced singular value decomposition with a fixed sign convention.

    The first nonzero entry of each column of u is made non-negative (the
    matching column of v is flipped with it), which pins the otherwise
    arbitrary per-column sign and keeps factorizations comparable across
    runs.
    """
    arr = require_matrix(a, "a")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError("a must have at least one row and one column")
    u, sigma, vh = np.linalg.svd(arr, full_matrices=False)
    v = vh.T.copy()
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        nonzero = np.nonzero(col)[0]
        if nonzero.size and col[nonzero[0]] < 0.0:
            u[:, j] = -col
            v[:, j] = -v[:, j]
    return SvdResult(u=u, sigma=sigma, v=v)


def cholesky_lower(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T = a for symmetric positive definite a.

    a must be square and symmetric to 1e-9 (absolute, relative to its largest
    entry). A pivot <= 0 raises NotPositiveDefiniteError carrying the pivot
    index.
    """
    arr = require_matrix(a, "a")
    n, m = arr.shape
    if n != m:
        raise InvalidInputError(f"a must be square, got {arr.shape}")
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0
    if not np.allclose(arr, arr.T, atol=1e-9 * max(1.0, scale), rtol=0.0):
        raise InvalidInputError("a must be symmetric")
    lower = np.zeros_like(arr)
    for j in range(n):
        pivot = arr[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(j, float(pivot))
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (arr[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def solve_lower_triangular(s, b, transpose: bool = False) -> np.ndarray:
    """Solve s @ y = b (or s.T @ y = b when transpose=True) for lower-triangular s.

    b may be a vector or a matrix of right-hand sides (one per column). The
    diagonal is checked against n*eps*max|diag|; entries at or below that are
    treated as singular.
    """
    tri = require_matrix(s, "s")
    n, m = tri.shape
    if n != m:
        raise InvalidInputError(f"s must be square, got {tri.shape}")
    rhs = np.asarray(b, dtype=np.float64)
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs.reshape(-1, 1)
    rhs = require_matrix(rhs, "b")
    if rhs.shape[0] != n:
        raise InvalidInputError(f"b has {rhs.shape[0]} rows, expected {n}")
    diag = np.abs(np.diag(tri))
    floor = n * _EPS * (float(diag.max()) if n else 0.0)
    bad = np.nonzero(diag <= floor)[0]
    if bad.size:
        idx = int(bad[0])
        raise SingularTriangularError(idx, float(tri[idx, idx]))

    y = np.empty_like(rhs)
    if not transpose:
        for i in range(n):
            y[i] = (rhs[i] - tri[i, :i] @ y[:i]) / tri[i, i]
    else:
        # s.T is upper triangular: back substitution from the last row.
        for i in range(n - 1, -1, -1):
            y[i] = (rhs[i] - tri[i + 1 :, i] @ y[i + 1 :]) / tri[i, i]
    return y[:, 0] if vector_rhs else y
