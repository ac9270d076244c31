"""Tests for dense linear algebra primitives and the deterministic generator."""

import math
import re

import numpy as np
import pytest

from aiflow.errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SingularTriangularError,
)
from aiflow.numerics import Rng, cholesky_lower, solve_lower_triangular, svd_reduced


# --- singular values -------------------------------------------------------

def test_svd_singular_values_match_characteristic_polynomial():
    # Oracle: eigenvalues of A.T @ A for A = [[3,0],[4,5]] solve
    # lambda^2 - tr*lambda + det = 0 with tr = 50, det = 225,
    # giving lambda = 45 and 5; singular values are their square roots.
    a = np.array([[3.0, 0.0], [4.0, 5.0]])
    gram = a.T @ a
    tr = gram[0, 0] + gram[1, 1]
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    expected = np.array([math.sqrt((tr + disc) / 2.0), math.sqrt((tr - disc) / 2.0)])
    assert np.allclose(expected, [math.sqrt(45.0), math.sqrt(5.0)], rtol=0, atol=1e-15)

    res = svd_reduced(a)
    assert np.allclose(res.sigma, expected, rtol=1e-12, atol=0)


def test_svd_of_diagonal_matrix():
    res = svd_reduced(np.diag([3.0, 2.0]))
    assert np.allclose(res.sigma, [3.0, 2.0], rtol=0, atol=1e-15)
    # Left/right factors are signed permutations; with the sign convention
    # they are exactly the identity here.
    assert np.allclose(res.u, np.eye(2), atol=1e-15)
    assert np.allclose(res.v, np.eye(2), atol=1e-15)


def test_svd_of_zero_matrix():
    res = svd_reduced(np.zeros((3, 2)))
    assert np.allclose(res.sigma, 0.0, atol=0.0)
    assert res.u.shape == (3, 2)
    assert res.v.shape == (2, 2)


def test_svd_reconstruction_and_orthonormality_seeded():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 33))
        a = rng.normal(size=(m, n))
        res = svd_reduced(a)
        r = min(m, n)
        assert res.u.shape == (m, r)
        assert res.v.shape == (n, r)
        recon = res.u @ np.diag(res.sigma) @ res.v.T
        norm = np.linalg.norm(a)
        assert np.linalg.norm(a - recon) <= 1e-10 * max(1.0, norm)
        assert np.allclose(res.u.T @ res.u, np.eye(r), atol=1e-10)
        assert np.allclose(res.v.T @ res.v, np.eye(r), atol=1e-10)
        assert np.all(np.diff(res.sigma) <= 1e-12 * max(1.0, res.sigma[0]))
        assert np.all(res.sigma >= 0.0)


def test_svd_sign_convention():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=(6, 4))
        res = svd_reduced(a)
        for j in range(res.u.shape[1]):
            col = res.u[:, j]
            nz = np.nonzero(col)[0]
            assert nz.size > 0
            assert col[nz[0]] >= 0.0


def test_svd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        svd_reduced(np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        svd_reduced(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidInputError):
        svd_reduced(np.zeros((0, 3)))


# --- Cholesky ---------------------------------------------------------------

def test_cholesky_worked_example():
    # Oracle by the defining equations: l00 = sqrt(4) = 2; l10 = 2/2 = 1;
    # l11 = sqrt(5 - 1) = 2.
    a = np.array([[4.0, 2.0], [2.0, 5.0]])
    lower = cholesky_lower(a)
    assert np.allclose(lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)


def test_cholesky_indefinite_reports_pivot():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot_index == 1


def test_cholesky_requires_symmetry_and_square():
    with pytest.raises(InvalidInputError):
        cholesky_lower(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        cholesky_lower(np.zeros((2, 3)))


def test_cholesky_roundtrip_seeded():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        b = rng.normal(size=(n, n + 2))
        a = b @ b.T + 1e-3 * np.eye(n)
        lower = cholesky_lower(a)
        assert np.allclose(np.triu(lower, 1), 0.0, atol=0.0)
        assert np.all(np.diag(lower) > 0.0)
        assert np.allclose(lower @ lower.T, a, atol=1e-9 * max(1.0, np.abs(a).max()))


# --- triangular solves ------------------------------------------------------

def test_solve_lower_triangular_worked_example():
    # Forward substitution by hand: y0 = 1/2; y1 = (1 - 1*y0)/1 = 1/2.
    s = np.array([[2.0, 0.0], [1.0, 1.0]])
    y = solve_lower_triangular(s, np.array([1.0, 1.0]))
    assert np.allclose(y, [0.5, 0.5], atol=1e-15)


def test_solve_lower_triangular_singular_diagonal():
    s = np.array([[1.0, 0.0], [3.0, 0.0]])
    with pytest.raises(SingularTriangularError) as exc:
        solve_lower_triangular(s, np.array([1.0, 1.0]))
    assert exc.value.index == 1


def test_solve_matrix_rhs_and_transpose_seeded():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        k = int(rng.integers(1, 6))
        s = np.tril(rng.normal(size=(n, n)))
        s[np.diag_indices(n)] = rng.uniform(0.5, 2.0, size=n) * np.where(
            rng.uniform(size=n) < 0.5, -1.0, 1.0
        )
        b = rng.normal(size=(n, k))
        y = solve_lower_triangular(s, b)
        assert np.allclose(s @ y, b, atol=1e-8 * max(1.0, np.abs(b).max()))
        yt = solve_lower_triangular(s, b, transpose=True)
        assert np.allclose(s.T @ yt, b, atol=1e-8 * max(1.0, np.abs(b).max()))


def test_solve_shape_mismatch():
    with pytest.raises(InvalidInputError):
        solve_lower_triangular(np.eye(2), np.ones(3))


# --- deterministic generator -------------------------------------------------

def _reference_sequence(seed, count):
    """Independent restatement of the documented update rule."""
    mask = (1 << 64) - 1

    def splitmix(x):
        x = (x + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    state = splitmix(seed) or 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        state ^= state >> 12
        state = (state ^ (state << 25)) & mask
        state ^= state >> 27
        word = (state * 0x2545F4914F6CDD1D) & mask
        out.append((word >> 11) * 2.0 ** -53)
    return out


def test_rng_matches_documented_rule():
    for seed in (0, 1, 42, 2**64 - 1):
        rng = Rng(seed)
        got = [rng.uniform() for _ in range(64)]
        assert got == _reference_sequence(seed, 64)


def test_rng_same_seed_same_sequence():
    a = Rng(2024)
    b = Rng(2024)
    assert [a.uniform() for _ in range(10_000)] == [b.uniform() for _ in range(10_000)]


def test_rng_uniform_range_and_mean():
    rng = Rng(7)
    xs = [rng.uniform() for _ in range(20_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.01


def test_rng_normals_match_box_muller_reference():
    # Recompute the pair from the two uniforms the generator consumes.
    probe = Rng(11)
    u1 = 1.0 - probe.uniform()
    u2 = probe.uniform()
    radius = math.sqrt(-2.0 * math.log(u1))
    expected = (radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2))
    rng = Rng(11)
    assert (rng.normal(), rng.normal()) == pytest.approx(expected, abs=0.0)


@pytest.mark.parametrize("rows, cols", [(3, 5), (4, 4), (1, 1), (0, 3), (6, 7)])
@pytest.mark.parametrize("primed", [False, True])
def test_normal_matrix_equals_successive_normal_calls(rows, cols, primed):
    # primed leaves a cached deviate for normal_matrix to carry in; an odd
    # remainder leaves one for the next normal() call to carry out.
    fast, slow = Rng(19), Rng(19)
    if primed:
        fast.normal()
        slow.normal()
    got = fast.normal_matrix(rows, cols)
    want = np.array([slow.normal() for _ in range(rows * cols)], dtype=np.float64)
    assert got.shape == (rows, cols)
    assert got.tobytes() == want.tobytes()
    assert [fast.normal() for _ in range(3)] == [slow.normal() for _ in range(3)]
    assert fast.uniform() == slow.uniform()


@pytest.mark.parametrize("rows, cols", [(-1, 3), (3, -1), (-2, -2)])
def test_normal_matrix_rejects_negative_size(rows, cols):
    rng = Rng(19)
    with pytest.raises(InvalidInputError, match="matrix size must be >= 0"):
        rng.normal_matrix(rows, cols)
    assert rng.uniform() == Rng(19).uniform()  # nothing drawn


@pytest.mark.parametrize("rows, cols", [(2.5, 3), ("2", 3), (3, 2.0), (True, 3), (None, 1)])
def test_normal_matrix_rejects_non_integer_size(rows, cols):
    rng = Rng(19)
    with pytest.raises(InvalidInputError, match="matrix size must be >= 0 and an int"):
        rng.normal_matrix(rows, cols)
    assert rng.uniform() == Rng(19).uniform()  # nothing drawn


def over_budget(what, nbytes):
    """The exact message of a bulk draw past the 2^30-byte budget, as a match pattern."""
    return "^" + re.escape(f"{what} needs {nbytes} bytes; one draw holds at most 1073741824") + "$"


@pytest.mark.parametrize("rows, cols", [(10**30, 2), (2, 10**30), (2**61, 1)])
def test_normal_matrix_rejects_sizes_numpy_cannot_index(rows, cols):
    rng = Rng(19)
    with pytest.raises(InvalidInputError,
                       match=over_budget(f"matrix size {rows} x {cols}", rows * cols * 8)):
        rng.normal_matrix(rows, cols)
    assert rng.uniform() == Rng(19).uniform()  # nothing drawn


# One value past 2^30 bytes is refused before anything is allocated or drawn.
@pytest.mark.parametrize("draw, what, nbytes", [
    (lambda rng: rng.uniforms(2**27 + 1), f"draw count {2**27 + 1}", 2**30 + 8),
    (lambda rng: rng.normal_matrix(2**14, 2**13 + 1), f"matrix size {2**14} x {2**13 + 1}",
     2**30 + 8 * 2**14),
], ids=["uniforms", "normal_matrix"])
def test_bulk_draw_past_the_budget_rejected(draw, what, nbytes):
    rng = Rng(19)
    with pytest.raises(InvalidInputError, match=over_budget(what, nbytes)):
        draw(rng)
    assert rng.uniform() == Rng(19).uniform()


def test_normal_matrix_accepts_numpy_int_sizes():
    got = Rng(19).normal_matrix(np.int64(2), np.int32(3))
    assert got.tobytes() == Rng(19).normal_matrix(2, 3).tobytes()


# Sizes at the edges of the bulk path: the 64-state scalar run, each
# doubling, and the 2**16-state chunk.
_BULK_EDGES = [0, 1, 63, 64, 65, 127, 128, 129, 4095, 4097, 2**16 + 3]


def _assert_same_generator(fast, slow):
    assert fast._state == slow._state
    assert fast._cached_normal == slow._cached_normal
    assert [fast.normal() for _ in range(3)] == [slow.normal() for _ in range(3)]
    assert fast.uniform() == slow.uniform()


@pytest.mark.parametrize("n", _BULK_EDGES)
def test_uniforms_equal_successive_uniform_calls(n):
    fast, slow = Rng(23), Rng(23)
    got = fast.uniforms(n)
    want = np.array([slow.uniform() for _ in range(n)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    _assert_same_generator(fast, slow)


@pytest.mark.parametrize("n", _BULK_EDGES + [2**17 + 1, 2**17 + 2])
@pytest.mark.parametrize("primed", [False, True])
def test_normal_matrix_equals_normal_calls_across_bulk_edges(n, primed):
    fast, slow = Rng(29), Rng(29)
    if primed:
        fast.normal()
        slow.normal()
    got = fast.normal_matrix(1, n)
    want = np.array([slow.normal() for _ in range(n)], dtype=np.float64)
    assert got.tobytes() == want.tobytes()
    _assert_same_generator(fast, slow)


def test_uniforms_after_a_cached_normal_leave_the_cache_alone():
    fast, slow = Rng(31), Rng(31)
    fast.normal()
    slow.normal()
    got = fast.uniforms(100)
    assert got.tolist() == [slow.uniform() for _ in range(100)]
    _assert_same_generator(fast, slow)


@pytest.mark.parametrize("n", [-1, True, False, 2.0, "3", None])
def test_uniforms_rejects_bad_count(n):
    rng = Rng(19)
    with pytest.raises(InvalidInputError, match="draw count must be >= 0 and an int"):
        rng.uniforms(n)
    assert rng.uniform() == Rng(19).uniform()  # nothing drawn


def test_uniforms_rejects_counts_numpy_cannot_index():
    rng = Rng(19)
    with pytest.raises(InvalidInputError, match=over_budget(f"draw count {2**61}", 2**64)):
        rng.uniforms(2**61)
    assert rng.uniform() == Rng(19).uniform()


def test_uniforms_accepts_numpy_int_count():
    assert Rng(19).uniforms(np.int64(70)).tobytes() == Rng(19).uniforms(70).tobytes()


def test_rng_normal_moments():
    rng = Rng(31)
    xs = [rng.normal() for _ in range(40_000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.02
    assert abs(var - 1.0) < 0.05


def test_rng_spawn_streams_are_distinct_and_stable():
    parent = Rng(5)
    child_a = parent.spawn(0)
    child_b = parent.spawn(1)
    again = parent.spawn(0)
    seq_a = [child_a.uniform() for _ in range(8)]
    seq_b = [child_b.uniform() for _ in range(8)]
    assert seq_a != seq_b
    assert seq_a == [again.uniform() for _ in range(8)]


def test_rng_rejects_bad_seed():
    with pytest.raises(InvalidInputError):
        Rng(-1)
    with pytest.raises(InvalidInputError):
        Rng(2**64)
    with pytest.raises(InvalidInputError):
        Rng(1.5)  # type: ignore[arg-type]
