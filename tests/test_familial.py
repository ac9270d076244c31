"""Tests for whitened decomposition, rank allocation, and residual stacking."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from aiflow.errors import (
    BudgetTooSmallError,
    InvalidInputError,
    InvalidRankError,
    NotPositiveDefiniteError,
)
from aiflow.familial import (
    DecomposedLayer,
    WhiteningContext,
    allocate_ranks,
    decompose_layer,
    hpcd_build,
    hpcd_truncate,
    load_layer,
    parameter_ratio,
    save_layer,
    truncation_loss,
    whiten,
)


def _whitened_sigma_sq(w, s):
    """Oracle for squared singular values of w @ s via a symmetric eigensolve."""
    ws = w @ s
    eigs = np.linalg.eigvalsh(ws.T @ ws if ws.shape[0] >= ws.shape[1] else ws @ ws.T)
    return np.sort(eigs)[::-1].clip(min=0.0)


# --- whitening ---------------------------------------------------------------

def test_whiten_identity_covariance():
    n = 5
    x = np.eye(n)
    ctx = whiten(x, ridge=0.25)
    assert np.allclose(ctx.s, math.sqrt(1.25) * np.eye(n), atol=1e-14)
    assert np.allclose(ctx.s @ ctx.s.T - x @ x.T, 0.25 * np.eye(n), rtol=0, atol=1e-14)


def test_whiten_near_singular_needs_ridge():
    x = np.array([[1.0, 1.0], [0.0, 0.0]])
    # Hand Cholesky of X X^T + 1e-6 I = [[2+1e-6, 0], [0, 1e-6]].
    ctx = whiten(x, ridge=1e-6)
    expected = np.array([[math.sqrt(2.0 + 1e-6), 0.0], [0.0, 1e-3]])
    assert np.allclose(ctx.s, expected, rtol=1e-12, atol=0)
    with pytest.raises(NotPositiveDefiniteError):
        whiten(x, ridge=0.0)


def test_whiten_factor_identity_seeded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        count = int(rng.integers(n, 2 * n + 4))
        x = rng.normal(size=(n, count))
        ctx = whiten(x, ridge=0.0)
        cov = x @ x.T
        scale = max(1.0, float(np.abs(cov).max()))
        assert np.allclose(ctx.s @ ctx.s.T, cov, atol=1e-8 * scale)


def test_whiten_default_ridge_and_rejects_nan():
    x = np.array([[2.0, 0.0], [0.0, 1.0]])
    ctx = whiten(x)
    ridged = ctx.s @ ctx.s.T - x @ x.T
    assert np.diag(ridged) == pytest.approx([1e-6 * 5.0 / 2.0] * 2, rel=1e-8)
    assert ridged[0, 1] == ridged[1, 0] == 0.0
    with pytest.raises(InvalidInputError):
        whiten(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        whiten(x, ridge=-1.0)


@pytest.mark.parametrize("ridge", ["1", True, [1.0], float("nan"), math.inf])
def test_whiten_ridge_must_be_a_finite_real(ridge):
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"ridge must be a finite real >= 0, got {ridge!r}")):
        whiten(np.eye(2), ridge=ridge)


def test_whitening_context_coerces_its_factor():
    ctx = WhiteningContext(s=[[2, 0], [1, 3]])
    assert ctx.s.dtype == np.float64 and ctx.dim == 2
    assert [f.name for f in dataclasses.fields(ctx)] == ["s"]
    with pytest.raises(InvalidInputError, match=r"^s contains NaN or Inf$"):
        WhiteningContext(s=[[np.nan]])
    with pytest.raises(InvalidInputError, match=re.escape("s must be 2-D, got shape (2,)")):
        WhiteningContext(s=[1.0, 2.0])


def test_whiten_accepts_numpy_and_int_ridges():
    ctx = whiten(np.eye(2), ridge=np.float32(0.25))
    assert ctx.s.dtype == np.float64
    assert np.array_equal(ctx.s, whiten(np.eye(2), ridge=0.25).s)
    assert np.array_equal(whiten(np.eye(2), ridge=0).s, np.eye(2))


# --- layer decomposition ------------------------------------------------------

def test_decompose_full_rank_reconstructs():
    rng = np.random.default_rng(10)
    w = rng.normal(size=(4, 4))
    x = rng.normal(size=(4, 9))
    ctx = whiten(x, ridge=0.0)
    layer = decompose_layer(w, ctx, 4)
    assert np.allclose(layer.product(), w, atol=1e-7)


def test_decompose_truncation_matches_discarded_energy():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(4, 4))
    x = rng.normal(size=(4, 12))
    ctx = whiten(x, ridge=0.0)
    layer = decompose_layer(w, ctx, 2)
    measured = np.linalg.norm(w @ x - layer.apply(x)) ** 2
    sigma_sq = _whitened_sigma_sq(w, ctx.s)
    predicted = float(sigma_sq[2] + sigma_sq[3])
    assert measured == pytest.approx(predicted, rel=1e-8)


def test_parameter_ratio_formula():
    assert parameter_ratio(1024, 1024, 256) == pytest.approx(0.5)
    assert parameter_ratio(4, 2, 1) == pytest.approx(6 / 8)
    with pytest.raises(InvalidInputError):
        parameter_ratio(0, 4, 1)


@pytest.mark.parametrize("args, field, value", [
    ((2.5, 3, 1), "m", 2.5),
    ((4, 3.0, 1), "n", 3.0),
    ((4, 3, True), "h", True),
    ((4, 3, None), "h", None),
])
def test_parameter_ratio_dimensions_must_be_ints(args, field, value):
    message = f"{field} must be an int >= 1, got {value!r}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        parameter_ratio(*args)


def test_decompose_rank_validation():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(3, 4))
    ctx = whiten(rng.normal(size=(4, 8)), ridge=0.0)
    for bad in (0, 4, -1):
        with pytest.raises(InvalidRankError):
            decompose_layer(w, ctx, bad)
    with pytest.raises(InvalidInputError):
        decompose_layer(rng.normal(size=(3, 5)), ctx, 1)


def test_discarded_energy_identity_every_rank_seeded():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, 13))
        x = rng.normal(size=(n, n + int(rng.integers(0, 8))))
        w = rng.normal(size=(m, n))
        ctx = whiten(x, ridge=0.0)
        sigma_sq = _whitened_sigma_sq(w, ctx.s)
        total = float(sigma_sq.sum())
        for h in range(1, min(m, n) + 1):
            layer = decompose_layer(w, ctx, h)
            measured = np.linalg.norm(w @ x - layer.apply(x)) ** 2
            predicted = float(sigma_sq[h:].sum())
            assert abs(measured - predicted) <= 1e-8 * max(total, 1e-12)


# --- truncation loss -----------------------------------------------------------

def test_truncation_loss_values():
    sigma = np.array([3.0, 2.0, 1.0])
    assert truncation_loss(sigma, 1) == pytest.approx(5.0)
    assert truncation_loss(sigma, 3) == 0.0
    assert truncation_loss(sigma, 0) == pytest.approx(14.0)


def test_truncation_loss_monotone_in_h():
    rng = np.random.default_rng(4)
    sigma = np.sort(rng.uniform(0, 5, size=10))[::-1]
    losses = [truncation_loss(sigma, h) for h in range(11)]
    assert all(a >= b for a, b in zip(losses, losses[1:]))


def test_truncation_loss_validation():
    with pytest.raises(InvalidInputError):
        truncation_loss(np.array([1.0, 2.0]), 1)
    with pytest.raises(InvalidInputError):
        truncation_loss(np.array([2.0, -1.0]), 1)
    with pytest.raises(InvalidInputError):
        truncation_loss(np.array([2.0, 1.0]), 3)


# --- rank allocation ------------------------------------------------------------

def test_allocate_single_layer_full_budget():
    sigma = np.array([4.0, 3.0, 2.0, 1.0])
    assert allocate_ranks([sigma], [(4, 4)], budget=4 * 8) == [4]


def test_allocate_tie_goes_to_lowest_index():
    sigma = np.array([3.0, 2.0])
    assert allocate_ranks([sigma, sigma], [(2, 2), (2, 2)], budget=2 * 4 + 4) == [2, 1]


def test_allocate_prefers_larger_marginal_gain():
    a = np.array([10.0, 1.0])
    b = np.array([5.0, 5.0])
    assert allocate_ranks([a, b], [(2, 2), (2, 2)], budget=2 * 4 + 4) == [1, 2]


def test_allocate_budget_too_small():
    with pytest.raises(BudgetTooSmallError):
        allocate_ranks([np.array([1.0])], [(3, 3)], budget=5)


@pytest.mark.parametrize("dims, budget, message", [
    ([(2.5, 3)], 100, "layer_dims[0].m must be an int >= 1, got 2.5"),
    ([(3, 0)], 100, "layer_dims[0].n must be an int >= 1, got 0"),
    ([(3, 3, 1)], 100, "layer_dims[0] must be an (m, n) pair, got (3, 3, 1)"),
    ([3], 100, "layer_dims[0] must be an (m, n) pair, got 3"),
    ([(3, 3)], 12.7, "budget must be an int >= 0, got 12.7"),
    ([(3, 3)], None, "budget must be an int >= 0, got None"),
    ([(3, 3)], True, "budget must be an int >= 0, got True"),
])
def test_allocate_integer_arguments_are_checked(dims, budget, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        allocate_ranks([np.array([2.0, 1.0])], dims, budget)


def test_allocate_respects_budget_and_matches_loss():
    rng = np.random.default_rng(17)
    for _ in range(30):
        layers = int(rng.integers(1, 4))
        dims = []
        sigmas = []
        for _ in range(layers):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            dims.append((m, n))
            sigmas.append(np.sort(rng.uniform(0, 4, size=min(m, n)))[::-1])
        base = sum(m + n for m, n in dims)
        budget = base + int(rng.integers(0, 30))
        ranks = allocate_ranks(sigmas, dims, budget)
        assert all(type(h) is int for h in ranks)
        spent = sum(h * (m + n) for h, (m, n) in zip(ranks, dims))
        assert spent <= budget
        for h, sig in zip(ranks, sigmas):
            assert 1 <= h <= sig.size


def test_allocate_matches_exhaustive_optimum_equal_dims():
    # Equal step costs: greedy by marginal gain is provably optimal because
    # per-layer gains are non-increasing. Exhaustive search over all rank
    # vectors is the oracle.
    import itertools

    rng = np.random.default_rng(23)
    for _ in range(25):
        layers = int(rng.integers(1, 4))
        m = n = int(rng.integers(2, 7))
        dims = [(m, n)] * layers
        sigmas = [np.sort(rng.uniform(0, 4, size=n))[::-1] for _ in range(layers)]
        max_steps = min(20, layers * (n - 1))
        budget = layers * (m + n) + int(rng.integers(0, max_steps + 1)) * (m + n)
        ranks = allocate_ranks(sigmas, dims, budget)
        greedy_total = sum(truncation_loss(s, h) for s, h in zip(sigmas, ranks))

        best = math.inf
        for combo in itertools.product(range(1, n + 1), repeat=layers):
            cost = sum(h * (m + n) for h in combo)
            if cost <= budget:
                total = sum(truncation_loss(s, h) for s, h in zip(sigmas, combo))
                best = min(best, total)
        assert greedy_total == pytest.approx(best, rel=1e-12, abs=1e-12)


# --- residual stacking -----------------------------------------------------------

def test_hpcd_recovers_rank2_matrix_with_two_rank1_components():
    rng = np.random.default_rng(31)
    w = np.outer(rng.normal(size=5), rng.normal(size=4)) + np.outer(
        rng.normal(size=5), rng.normal(size=4)
    )
    ctx = whiten(rng.normal(size=(4, 10)), ridge=0.0)
    stack = hpcd_build(w, ctx, rank_per_component=1, num_components=2)
    recon = hpcd_truncate(stack, 2)
    assert np.linalg.norm((w - recon) @ ctx.s) <= 1e-7
    assert np.allclose(recon, w, atol=1e-7)


def test_hpcd_single_component_equals_decompose():
    rng = np.random.default_rng(32)
    w = rng.normal(size=(4, 4))
    ctx = whiten(rng.normal(size=(4, 9)), ridge=0.0)
    stack = hpcd_build(w, ctx, rank_per_component=2, num_components=1)
    layer = decompose_layer(w, ctx, 2)
    assert isinstance(stack, tuple) and len(stack) == 1
    assert np.array_equal(stack[0].w_u, layer.w_u)
    assert np.array_equal(stack[0].w_v, layer.w_v)
    assert np.allclose(hpcd_truncate(stack, 1), layer.product(), atol=0.0)


def test_hpcd_full_rank_single_component_exact():
    rng = np.random.default_rng(33)
    w = rng.normal(size=(3, 5))
    ctx = whiten(rng.normal(size=(5, 11)), ridge=0.0)
    stack = hpcd_build(w, ctx, rank_per_component=3, num_components=1)
    assert np.allclose(hpcd_truncate(stack, 1), w, atol=1e-7)


def test_hpcd_residual_matches_singular_tail_seeded():
    rng = np.random.default_rng(34)
    for _ in range(20):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 11))
        r = int(rng.integers(1, min(m, n) + 1))
        k_max = max(1, min(m, n) // r + 1)
        w = rng.normal(size=(m, n))
        ctx = whiten(rng.normal(size=(n, n + 5)), ridge=0.0)
        stack = hpcd_build(w, ctx, rank_per_component=r, num_components=k_max)
        sigma_sq = _whitened_sigma_sq(w, ctx.s)
        total = max(float(sigma_sq.sum()), 1e-12)
        prev = math.inf
        for k in range(1, k_max + 1):
            resid = np.linalg.norm((w - hpcd_truncate(stack, k)) @ ctx.s)
            expected = math.sqrt(max(float(sigma_sq[min(k * r, sigma_sq.size):].sum()), 0.0))
            assert abs(resid - expected) <= 1e-7 * max(1.0, math.sqrt(total))
            assert resid <= prev + 1e-12
            prev = resid


def test_hpcd_truncate_validation():
    rng = np.random.default_rng(35)
    w = rng.normal(size=(3, 3))
    ctx = whiten(rng.normal(size=(3, 7)), ridge=0.0)
    stack = hpcd_build(w, ctx, 1, 2)
    with pytest.raises(InvalidInputError):
        hpcd_truncate(stack, 0)
    with pytest.raises(InvalidInputError):
        hpcd_truncate(stack, 3)


@pytest.mark.parametrize("field", ["rank_per_component", "num_components"])
@pytest.mark.parametrize("value", [True, 2.0, "2", None, 0])
def test_hpcd_build_counts_must_be_ints(field, value):
    rng = np.random.default_rng(36)
    w = rng.normal(size=(3, 3))
    ctx = whiten(rng.normal(size=(3, 7)), ridge=0.0)
    counts = {"rank_per_component": 1, "num_components": 2, field: value}
    message = f"{field} must be an int >= 1, got {value!r}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        hpcd_build(w, ctx, **counts)


# --- container roundtrip ----------------------------------------------------------

def test_layer_container_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    w = rng.normal(size=(6, 4))
    ctx = whiten(rng.normal(size=(4, 9)), ridge=0.0)
    layer = decompose_layer(w, ctx, 3)
    path = tmp_path / "layer.famd"
    save_layer(layer, path)
    loaded = load_layer(path)
    assert np.array_equal(loaded.w_u, layer.w_u)
    assert np.array_equal(loaded.w_v, layer.w_v)
    assert loaded.hidden_dim == 3
    assert loaded.source_dims == (6, 4)


def test_decomposed_layer_coerces_its_factors():
    layer = DecomposedLayer(w_u=[[1.0], [2.0]], w_v=[[3, 4]])
    assert layer.w_u.dtype == layer.w_v.dtype == np.float64
    assert [f.name for f in dataclasses.fields(layer)] == ["w_u", "w_v"]
    assert layer.hidden_dim == 1 and layer.source_dims == (2, 2)
    assert np.array_equal(layer.product(), [[3.0, 4.0], [6.0, 8.0]])


@pytest.mark.parametrize("factors, message", [
    ({"w_u": [[np.nan]]}, "w_u contains NaN or Inf"),
    ({"w_v": [[-np.inf]]}, "w_v contains NaN or Inf"),
    ({"w_u": [1.0]}, "w_u must be 2-D, got shape (1,)"),
    ({"w_v": [[[1.0]]]}, "w_v must be 2-D, got shape (1, 1, 1)"),
])
def test_decomposed_layer_rejects_bad_factors(factors, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        DecomposedLayer(**{"w_u": [[1.0]], "w_v": [[1.0]], **factors})


def test_decomposed_layer_factors_must_chain():
    message = "w_u shape (3, 2) does not chain with w_v shape (3, 4)"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        DecomposedLayer(w_u=np.ones((3, 2)), w_v=np.ones((3, 4)))


def test_decomposed_layer_rank_is_at_most_the_smaller_side():
    message = "hidden_dim must be in 1..min(m, n), got 3"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        DecomposedLayer(w_u=np.ones((2, 3)), w_v=np.ones((3, 4)))


def test_hpcd_components_roundtrip_through_the_layer_container(tmp_path):
    rng = np.random.default_rng(44)
    w = rng.normal(size=(6, 5))
    ctx = whiten(rng.normal(size=(5, 9)), ridge=0.0)
    stack = hpcd_build(w, ctx, rank_per_component=2, num_components=3)
    assert len(stack) == 3
    for k, layer in enumerate(stack):
        assert isinstance(layer, DecomposedLayer)
        assert layer.hidden_dim == 2 and layer.source_dims == (6, 5)
        path = tmp_path / f"component{k}.famd"
        save_layer(layer, path)
        loaded = load_layer(path)
        assert loaded.w_u.tobytes() == layer.w_u.tobytes()
        assert loaded.w_v.tobytes() == layer.w_v.tobytes()


@pytest.mark.parametrize("tensor, value", [("w_u", np.nan), ("w_v", -np.inf)])
def test_layer_container_rejects_non_finite_weights(tmp_path, tensor, value):
    rng = np.random.default_rng(43)
    layer = decompose_layer(rng.normal(size=(5, 4)), whiten(rng.normal(size=(4, 8))), 2)
    path = tmp_path / "bad.famd"
    save_layer(layer, path)
    # Write the bad weight into the saved file: a DecomposedLayer rejects one in memory.
    blob, weight = path.read_bytes(), struct.pack("<d", getattr(layer, tensor)[1, 0])
    assert blob.count(weight) == 1
    path.write_bytes(blob.replace(weight, struct.pack("<d", value)))
    with pytest.raises(InvalidInputError, match=f"^{tensor} contains NaN or Inf$"):
        load_layer(path)


def test_layer_container_rejects_corruption(tmp_path):
    rng = np.random.default_rng(42)
    w = rng.normal(size=(3, 3))
    ctx = whiten(rng.normal(size=(3, 7)), ridge=0.0)
    layer = decompose_layer(w, ctx, 2)
    path = tmp_path / "layer.famd"
    save_layer(layer, path)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    bad = tmp_path / "bad.famd"
    bad.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError):
        load_layer(bad)
    truncated = tmp_path / "short.famd"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InvalidInputError):
        load_layer(truncated)


@pytest.mark.parametrize("m, n", [(0, 0), (3, 4)])
def test_layer_container_rejects_rank_zero(tmp_path, m, n):
    path = tmp_path / "empty.famd"
    path.write_bytes(struct.pack("<4sBIII", b"FAMD", 1, m, n, 0))
    message = re.escape("hidden_dim must be in 1..min(m, n), got 0")
    with pytest.raises(InvalidInputError, match=message):
        load_layer(path)



# Documented input errors that no other test reaches, each with its exact message.
@pytest.mark.parametrize("call, message", [
    (lambda: whiten(np.zeros((0, 3))), "x must have at least one row and one column"),
    (lambda: whiten(np.zeros((3, 0))), "x must have at least one row and one column"),
    (lambda: allocate_ranks([], [], 10),
     "layer_sigmas and layer_dims must be equal-length, non-empty"),
    (lambda: allocate_ranks([[1.0]], [], 10),
     "layer_sigmas and layer_dims must be equal-length, non-empty"),
    (lambda: allocate_ranks([[1.0], [2.0]], [(4, 4)], 10),
     "layer_sigmas and layer_dims must be equal-length, non-empty"),
    (lambda: allocate_ranks([[3.0, 2.0, 1.0]], [(2, 5)], 100), "sigma[0] longer than min(m, n)"),
])
def test_documented_input_errors(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()
