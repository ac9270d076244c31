"""Feature compression tests: clustering oracle, entropy model, codec."""

import bisect
import copy
import inspect
import math
import pickle
import re
import struct
import tracemalloc
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest

from aiflow import tofc
from aiflow.errors import (
    InvalidInputError,
    IoError,
    MalformedBitstreamError,
)
from aiflow.numerics import MAX_ARRAY_BYTES, Rng
from aiflow.rangecoder import TOTAL, RangeDecoder, RangeEncoder
from aiflow.tofc import (
    B_MIN,
    Q_RANGE_MAX,
    Bitstream,
    FeatureSet,
    LaplacianModel,
    TofcConfig,
    balance_metric,
    check_point_count,
    decode,
    dpc_knn_cluster,
    encode,
    estimate_rate,
    fit_laplacian,
    fit_laplacian_models,
    load_features,
    load_features_csv,
    make_blob_features,
    quantize,
    route,
    save_features,
    tofc_pipeline,
    _ROW_BLOCK,
    _TILE,
    _Distances,
    _bin_table,
    _laplace_cdf,
    _row_bits,
)

from conftest import run_snippet


def oracle_dpc(feats, k, m):
    """Literal restatement of the clustering definitions, no shortcuts."""
    n = feats.shape[0]
    rows = [np.sum((feats - feats[i]) ** 2, axis=1) for i in range(n)]
    rho = np.empty(n)
    for i in range(n):
        others = np.sort(np.delete(rows[i], i))
        rho[i] = np.exp(-np.mean(others[:k]))
    dist_rows = [np.sqrt(r) for r in rows]
    max_pair = max(dist_rows[i][j] for i in range(n) for j in range(n))
    delta = np.empty(n)
    for i in range(n):
        cand = [dist_rows[i][j] for j in range(n) if rho[j] > rho[i]]
        delta[i] = min(cand) if cand else max_pair
    gamma = [rho[i] * delta[i] for i in range(n)]
    centers = sorted(range(n), key=lambda i: (-gamma[i], i))[:m]
    assign = np.empty(n, dtype=np.int64)
    for i in range(n):
        assign[i] = min(range(m), key=lambda c: (dist_rows[i][centers[c]], c))
    merged = np.empty((m, feats.shape[1]))
    for c in range(m):
        members = [i for i in range(n) if assign[i] == c]
        merged[c] = np.mean(feats[members], axis=0) if members else feats[centers[c]]
    return centers, assign, merged, rho, delta


def assert_matches_oracle(feats, k, m):
    """dpc_knn_cluster equals oracle_dpc in every field, without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dpc_knn_cluster(FeatureSet(features=feats), k, m)
    centers, assign, merged, rho, delta = oracle_dpc(feats, k, m)
    assert res.center_indices == centers
    assert np.array_equal(res.assignment, assign)
    assert np.array_equal(res.merged, merged)
    assert np.array_equal(res.rho, rho)
    assert np.array_equal(res.delta, delta)


def laplace_sample(mu, b, rng):
    u = rng.uniform()
    if u < 0.5:
        return mu + b * math.log(max(2.0 * u, 1e-300))
    return mu - b * math.log(max(2.0 * (1.0 - u), 1e-300))


def adversarial_features(case):
    """Seeded feature sets on which approximate distances are hardest to
    trust: exact ties, cancellation, far outliers, subnormal and huge
    scales, wide rows. Each spans at least three row blocks."""
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    n, d = 200, 8
    if case == "integer_grid":
        return rng.integers(-2, 3, size=(n, 3)).astype(float)
    if case == "duplicate_rows":
        feats = rng.normal(size=(n, d))
        feats[1::3] = feats[0:-1:3]
        feats[n - 1] = feats[5]
        return feats
    if case == "identical_rows":
        return np.full((n, 5), 1.0 / 3.0)
    if case == "offset_1e6":
        return 1e6 + rng.normal(size=(n, 16))
    if case == "outliers_x400":
        feats = rng.normal(size=(n, 16)) * 3.0
        feats[::13] *= 400.0
        return feats
    if case == "wide_d200":
        feats = rng.normal(size=(n, 200))
        feats[n // 2] = feats[0]
        return feats
    if case == "mixed_magnitudes":
        return rng.normal(size=(n, d)) * np.exp(rng.normal(size=(n, 1)) * 5.0)
    if case == "antipodes":
        # Opposite points on a sphere, radii a few ulps apart: every
        # opposite pair is the farthest to within the approximations' error.
        ring = rng.normal(size=(n // 2, 32))
        ring /= np.sqrt(np.sum(ring**2, axis=1, keepdims=True))
        ring *= 1.0 + 2.0**-52 * rng.integers(0, 64, size=(n // 2, 1))
        return np.vstack([ring, -ring])
    if case == "near_ties":
        # Rings of 24 around 8 hubs, radii a few ulps apart: nearest
        # neighbors, denser points and centers all tie to within rounding.
        hubs = rng.normal(size=(8, 1, 2)) * 10.0
        angle = rng.uniform(0.0, 2 * np.pi, size=(8, 24, 1))
        radius = 1.0 + 2.0**-52 * rng.integers(0, 8, size=(8, 24, 1))
        rings = hubs + radius * np.concatenate([np.cos(angle), np.sin(angle)], axis=2)
        return np.concatenate([hubs, rings], axis=1).reshape(n, 2)
    return rng.normal(size=(n, d)) * ADVERSARIAL[case]


# Named scales for plain normal features, and the cases built in
# adversarial_features.
ADVERSARIAL = {
    "scale_1e-160": 1e-160,
    "subnormal_1e-310": 1e-310,
    "scale_1e150": 1e150,
    **dict.fromkeys(["integer_grid", "duplicate_rows", "identical_rows", "offset_1e6",
                     "outliers_x400", "wide_d200", "mixed_magnitudes", "antipodes",
                     "near_ties"]),
}


class TestDpcKnn:
    def test_singleton(self):
        fs = FeatureSet(features=np.array([[3.0, 4.0]]))
        res = dpc_knn_cluster(fs, 1, 1)
        assert res.center_indices == [0]
        assert res.assignment.tolist() == [0]
        assert np.array_equal(res.merged, fs.features)

    def test_two_tight_groups(self):
        rng = Rng(17)
        a = np.zeros((3, 2)) + np.array(
            [[0.01 * (rng.uniform() - 0.5) for _ in range(2)] for _ in range(3)]
        )
        b = np.full((3, 2), 10.0) + np.array(
            [[0.01 * (rng.uniform() - 0.5) for _ in range(2)] for _ in range(3)]
        )
        fs = FeatureSet(features=np.vstack([a, b]))
        res = dpc_knn_cluster(fs, 2, 2)
        groups = {tuple(sorted(np.where(res.assignment == c)[0])) for c in range(2)}
        assert groups == {(0, 1, 2), (3, 4, 5)}
        for c in range(2):
            members = fs.features[res.assignment == c]
            ref = np.zeros(2) if 0 in np.where(res.assignment == c)[0] else np.full(2, 10.0)
            assert np.allclose(members.mean(axis=0), ref, atol=0.01)
            assert np.allclose(res.merged[c], members.mean(axis=0))

    def test_identical_points_tie_breaks(self):
        fs = FeatureSet(features=np.ones((5, 3)))
        res = dpc_knn_cluster(fs, 2, 2)
        assert res.center_indices == [0, 1]
        assert res.assignment.tolist() == [0, 0, 0, 0, 0]
        # The empty cluster keeps its center's own row.
        assert np.array_equal(res.merged[1], fs.features[1])

    def test_validation(self):
        fs = FeatureSet(features=np.random.default_rng(0).normal(size=(4, 2)))
        with pytest.raises(InvalidInputError):
            dpc_knn_cluster(fs, 1, 5)
        with pytest.raises(InvalidInputError):
            dpc_knn_cluster(fs, 1, 0)
        with pytest.raises(InvalidInputError):
            dpc_knn_cluster(fs, 4, 2)
        with pytest.raises(InvalidInputError):
            dpc_knn_cluster(fs, 0, 2)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3", None])
    @pytest.mark.parametrize("field", ["k_neighbors", "num_centers"])
    def test_counts_must_be_ints(self, field, value):
        # The other count is out of range for 20 points: types come first.
        counts = {"k_neighbors": 99, "num_centers": 99, field: value}
        fs = make_blob_features(20, 3, 2, Rng(1))
        message = re.escape(f"{field} must be an int, got {value!r}")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            dpc_knn_cluster(fs, **counts)

    def test_overflowing_distances_are_rejected(self):
        feats = Rng(3).normal_matrix(20, 3)
        feats[3], feats[7] = 1e200, -1e200
        message = "features are too far apart: a squared pairwise distance overflows float64"
        # The kernel's overflow is the error, not a numpy warning or a NaN gamma.
        with np.errstate(all="raise"), pytest.raises(InvalidInputError, match=f"^{message}$"):
            dpc_knn_cluster(FeatureSet(features=feats), 3, 4)

    def test_density_underflow_is_zero_without_a_warning(self):
        # Every squared distance is 0.98e308, still finite, but the sum of
        # three for their mean overflows: rho is exp(-inf), which is 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = dpc_knn_cluster(FeatureSet(features=np.eye(6) * 0.7e154), 3, 2)
        assert np.array_equal(res.rho, np.zeros(6))

    def test_matches_bruteforce_oracle(self):
        rng = Rng(909)
        for trial in range(200):
            n = 2 + int(rng.uniform() * 63)
            d = 1 + int(rng.uniform() * 8)
            feats = rng.normal_matrix(n, d) * 3.0
            if trial % 5 == 0:
                # Duplicated rows exercise the tie-break paths.
                feats[n // 2] = feats[0]
            k = 1 + int(rng.uniform() * min(8, n - 1))
            m = 1 + int(rng.uniform() * min(6, n))
            assert_matches_oracle(feats, k, m)

    @pytest.mark.parametrize("n", [63, 64, 65, 130, 200])
    def test_matches_oracle_across_row_blocks(self, n):
        # Distances are approximated in row blocks of 64; sizes around and past a
        # block edge, with duplicate rows and far outliers, must still equal
        # the oracle in every field.
        rng = Rng(4000 + n)
        feats = rng.normal_matrix(n, 5) * 3.0
        feats[n // 2] = feats[0]
        feats[n - 1] = feats[1]
        feats[n // 3] = feats[1]
        feats[7::41] *= 400.0
        for k, m in [(1, 1), (4, 7), (min(12, n - 1), n // 4), (n - 1, n)]:
            assert_matches_oracle(feats, k, m)

    def test_peak_memory_grows_as_n_squared_not_n_squared_d(self):
        # numpy reports its buffers to tracemalloc, so the traced peak is a
        # deterministic byte count. An N x N x d difference array alone
        # would be N^2*d*8 bytes.
        n, d = 512, 64
        fs = FeatureSet(features=Rng(5).normal_matrix(n, d))
        tracemalloc.start()
        try:
            dpc_knn_cluster(fs, 4, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * d * 8 / 4

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_matches_oracle_on_adversarial_inputs(self, case):
        # Only exact distances decide, so the approximations' rounding never
        # shows: every field equals the literal definitions, with k = n - 1,
        # one center and every point a center among the settings.
        feats = adversarial_features(case)
        n = len(feats)
        for k, m in [(n - 1, 1), (4, n), (1, 7)]:
            assert_matches_oracle(feats, k, m)

    @pytest.mark.parametrize("case", ["antipodes", "duplicate_rows", "integer_grid",
                                      "mixed_magnitudes", "near_ties", "outliers_x400"])
    def test_any_approximation_within_the_bound_gives_the_same_result(self, monkeypatch, case):
        # The approximations only prune. Their worst error is under 2/3 of
        # the bound, so seeded noise of 0.3 times it keeps every one within
        # the bound while reshuffling which pairs look closest or farthest.
        feats = adversarial_features(case)
        n = len(feats)
        noise = np.random.default_rng(n)
        approx = _Distances.approx

        def shaken(self, rows, right):
            g = approx(self, rows, right)
            g += noise.uniform(-0.3, 0.3, size=g.shape) * self.slack[rows, None]
            return g

        monkeypatch.setattr(_Distances, "approx", shaken)
        for k, m in [(n - 1, 1), (4, n), (1, 7)]:
            assert_matches_oracle(feats, k, m)

    def test_overflow_across_row_blocks_is_rejected_without_a_warning(self):
        # Scaling and the matrix product stay finite; only an exact sum
        # overflows, and that is the error.
        feats = Rng(8).normal_matrix(150, 6)
        feats[100], feats[140] = 1e200, -1e200
        message = "features are too far apart: a squared pairwise distance overflows float64"
        with np.errstate(all="raise"), pytest.raises(InvalidInputError, match=f"^{message}$"):
            dpc_knn_cluster(FeatureSet(features=feats), 4, 10)

    @pytest.mark.parametrize("offset", [0.0, 1e8, pytest.param(None, id="identical_rows")])
    def test_exact_pairs_grow_as_n_not_n_squared(self, monkeypatch, offset):
        # A full distance matrix is N^2/2 exact pairs, 524,288 here; the
        # approximations leave about k + 2 per point. Centring keeps a
        # common offset from widening the bound, and the features' bounding
        # box ends the farthest-pair search when all rows are identical.
        n, k = 1024, 4
        if offset is None:
            feats = np.full((n, 16), 1.0 / 3.0)
        else:
            feats = make_blob_features(n, 16, 8, Rng(6)).features + offset
        exact = _Distances.exact
        pairs = []

        def counted(self, rows, others):
            pairs.append(rows.size)
            return exact(self, rows, others)

        monkeypatch.setattr(_Distances, "exact", counted)
        dpc_knn_cluster(FeatureSet(features=feats), k, 128)
        assert sum(pairs) <= 2 * n * (k + 2)

    @pytest.mark.parametrize("m", [128, 1024])
    def test_peak_memory_is_a_few_row_blocks(self, m):
        # An N x N float64 matrix would be 8 MiB at N 1024, and so would an
        # N x M table of distances to the centers at M = N; a 64 x N block is
        # 0.5 MiB, and clustering holds a few of them.
        n, d = 1024, 16
        fs = make_blob_features(n, d, 8, Rng(6))
        tracemalloc.start()
        try:
            dpc_knn_cluster(fs, 4, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_rejects_more_points_than_the_distance_budget_holds(self):
        # One point past the largest N whose N x N float64 matrix fits the
        # budget: the check runs before any distance block, so the traced
        # peak stays at the N floats of the features.
        n = 11_586
        assert 8 * (n - 1) ** 2 <= MAX_ARRAY_BYTES < 8 * n * n
        check_point_count(n - 1)
        check_point_count(-n)  # a count below 1 is the caller's own rule
        fs = FeatureSet(features=np.arange(float(n))[:, None])
        message = f"{n} points need {8 * n * n} bytes of pairwise distances"
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=f"^{message}; "):
                dpc_knn_cluster(fs, 4, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestLaplacianFit:
    def test_constant_column_gets_scale_floor(self):
        calib = np.full((6, 1), 5.0)
        model = fit_laplacian(calib, 0)
        assert model.mu[0] == 5.0
        assert model.b[0] == B_MIN

    def test_hand_mle(self):
        calib = np.array([[-1.0], [0.0], [1.0]])
        model = fit_laplacian(calib, 0)
        assert model.mu[0] == 0.0
        assert model.b[0] == 2.0 / 3.0

    def test_single_row_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_laplacian(np.array([[1.0, 2.0]]), 0)

    def test_interleaved_models_fit_every_eth_row(self):
        fs = make_blob_features(10, 3, 2, Rng(4))
        models = fit_laplacian_models(fs, 3)
        assert [m.id for m in models] == [0, 1, 2]
        for e, model in enumerate(models):
            direct = fit_laplacian(fs.features[e::3], e)
            assert np.array_equal(model.mu, direct.mu)
            assert np.array_equal(model.b, direct.b)

    def test_model_count_between_one_and_half_the_rows(self):
        fs = make_blob_features(10, 3, 2, Rng(4))
        assert len(fit_laplacian_models(fs, 5)) == 5
        for num_models in (0, 6):
            with pytest.raises(InvalidInputError):
                fit_laplacian_models(fs, num_models)

    @pytest.mark.parametrize("num_models", [2.5, True])
    def test_model_count_must_be_an_int(self, num_models):
        fs = make_blob_features(10, 3, 2, Rng(4))
        message = re.escape(f"num_models must be an int >= 1, got {num_models!r}")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            fit_laplacian_models(fs, num_models)

    @pytest.mark.parametrize("kwargs, message", [
        ({"q_range": 2.5}, "q_range must be an int >= 1, got 2.5"),
        ({"q_range": True}, "q_range must be an int >= 1, got True"),
        ({"model_id": 1.5}, "id must be an int >= 0, got 1.5"),
    ])
    def test_model_id_and_range_must_be_ints(self, kwargs, message):
        calib = make_blob_features(10, 3, 2, Rng(4)).features
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            fit_laplacian(calib, **{"model_id": 0, **kwargs})

    def test_model_validation(self):
        with pytest.raises(InvalidInputError):
            LaplacianModel(mu=np.zeros(2), b=np.array([1.0, 1e-9]), id=0)
        with pytest.raises(InvalidInputError):
            LaplacianModel(mu=np.zeros(2), b=np.ones(3), id=0)
        with pytest.raises(InvalidInputError):
            LaplacianModel(mu=np.zeros(1), b=np.ones(1), id=-1)

    def test_q_range_is_bounded_by_the_frequency_total(self):
        assert Q_RANGE_MAX == 32767  # 2 * Q_RANGE_MAX + 2 entries fill 2^16 at 1 each
        LaplacianModel(mu=[0.0], b=[1.0], id=0, q_range=Q_RANGE_MAX)
        for q_range in (Q_RANGE_MAX + 1, 2**62):
            message = f"q_range must be <= 32767, got {q_range}"
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                LaplacianModel(mu=[0.0], b=[1.0], id=0, q_range=q_range)
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                fit_laplacian(np.array([[0.0], [1.0]]), 0, q_range)

    @pytest.mark.parametrize("mu", [2.0**62, -(2.0**62), 1e300])
    def test_location_is_bounded(self, mu):
        with pytest.raises(InvalidInputError, match=re.escape("mu must lie in (-2**62, 2**62)")):
            LaplacianModel(mu=[0.0, mu], b=[1.0, 1.0], id=0)

    def test_model_keeps_copies_of_its_parameters(self):
        # Changing the caller's arrays afterwards cannot undo the model's checks.
        mu, b = np.zeros(3), np.ones(3)
        model = LaplacianModel(mu=mu, b=b, id=0)
        symbols = np.array([[0, 1, -1]], dtype=np.int64)
        payload = encode(symbols, [model], [0]).payload
        b[1] = 0.0
        mu[0] = 1e300
        assert model.mu.tolist() == [0.0, 0.0, 0.0] and model.b.tolist() == [1.0, 1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = LaplacianModel(mu=np.zeros(3), b=np.ones(3), id=0)
            assert encode(symbols, [model], [0]).payload == payload
            assert encode(symbols, [fresh], [0]).payload == payload

    def test_model_parameters_are_read_only(self):
        model = LaplacianModel(mu=np.zeros(3), b=np.ones(3), id=0)
        model._cum
        copies = [copy.deepcopy(model), pickle.loads(pickle.dumps(model))]
        for m in [model, *copies]:
            for arr in (m.mu, m.b):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0
        for m in copies:
            assert (m.mu.tolist(), m.b.tolist(), m.id, m.q_range) == ([0.0] * 3, [1.0] * 3, 0, 255)
            assert "_cum" not in vars(m)  # derived again, from the copy's own parameters

    def test_model_coerces_its_parameters(self):
        model = LaplacianModel(mu=[0.0, 1], b=[1.0, 2.0], id=0)
        assert model.mu.dtype == model.b.dtype == np.float64
        assert model.dim == 2
        symbols = np.array([[0, 1]], dtype=np.int64)
        assert np.array_equal(decode(encode(symbols, [model], [0]), [model]), symbols)

    @pytest.mark.parametrize("params, message", [
        ({"mu": [np.nan]}, "mu contains NaN or Inf"),
        ({"b": [np.inf]}, "b contains NaN or Inf"),
        ({"mu": [[0.0]]}, "mu must be 1-D, got shape (1, 1)"),
        ({"b": 1.0}, "b must be 1-D, got shape ()"),
    ])
    def test_model_rejects_bad_parameters(self, params, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            LaplacianModel(**{"mu": [0.0], "b": [1.0], **params}, id=0)


def oracle_bin_masses(model, j):
    """(lo, p) of dimension j alone: the unit-bin masses, then the escape mass."""
    lo = int(np.rint(model.mu[j])) - model.q_range
    edges = np.arange(lo, lo + 2 * model.q_range + 2) - 0.5
    cdf = _laplace_cdf(edges, float(model.mu[j]), float(model.b[j]))
    return lo, np.append(np.diff(cdf), cdf[0] + (1.0 - cdf[-1]))


def oracle_row_bits(rows, model):
    """Code length of each row, built and summed one dimension at a time."""
    bits = np.zeros(rows.shape[0])
    for j in range(model.dim):
        lo, p = oracle_bin_masses(model, j)
        with np.errstate(divide="ignore"):
            cost = -np.log2(p)
        esc = p.size - 1
        cost[esc] += 32
        q = rows[:, j]
        bits += cost[np.where((q >= lo) & (q < lo + esc), q - lo, esc)]
    return bits


def oracle_coding_tables(model):
    """(lo, freqs, cum) per dimension, each table scaled and repaired on its own."""
    tables = []
    for j in range(model.dim):
        lo, p = oracle_bin_masses(model, j)
        freqs = np.maximum(1, np.rint(p * TOTAL)).astype(np.int64)
        top = int(np.argmax(freqs))
        freqs[top] += TOTAL - int(freqs.sum())
        if freqs[top] < 1:
            raise InvalidInputError(
                f"model {model.id} dimension {j}: q_range {model.q_range} leaves too little "
                "of the 2^16 frequency total to give every symbol a frequency >= 1"
            )
        cum = np.concatenate(([0], np.cumsum(freqs)))
        tables.append((lo, freqs.tolist(), cum.tolist()))
    return tables


def bin_mass(model, j, q):
    """The mass _bin_table gives symbol q in dimension j; out-of-range q read the escape."""
    lo, p = _bin_table(model)
    idx = q - int(lo[j])
    return float(p[j, idx] if 0 <= idx < p.shape[1] - 1 else p[j, -1])


def random_model(rng, d, q_range, model_id=0):
    mu = rng.normal(size=d) * 30.0
    b = np.exp(rng.normal(size=d) * 2.0) + B_MIN
    return LaplacianModel(mu=mu, b=b, id=model_id, q_range=q_range)


class TestOneTablePass:
    """Every table equals the one its dimension alone gives, bit for bit."""

    def test_bin_table_equals_the_per_dimension_masses(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            model = random_model(rng, int(rng.integers(1, 41)), int(rng.integers(1, 401)))
            lo, p = _bin_table(model)
            assert lo.shape == (model.dim,) and p.shape == (model.dim, 2 * model.q_range + 2)
            for j in range(model.dim):
                want_lo, want_p = oracle_bin_masses(model, j)
                assert int(lo[j]) == want_lo
                assert p[j].tobytes() == want_p.tobytes()

    def test_row_bits_equal_the_per_dimension_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            model = random_model(rng, int(rng.integers(1, 41)), int(rng.integers(1, 401)))
            m = int(rng.integers(0, 30))
            rows = np.rint(model.mu + 4.0 * model.b * rng.normal(size=(m, model.dim)))
            rows = rows.astype(np.int64)
            if m:
                rows[0, 0] = np.iinfo(np.int64).min  # escapes at both ends of int64
                rows[-1, -1] = np.iinfo(np.int64).max
            assert _row_bits(rows, model).tobytes() == oracle_row_bits(rows, model).tobytes()

    def test_coding_tables_equal_the_per_dimension_tables(self):
        # Up to 2,000 the widest alphabets overdraw the total on some dimension.
        rng = np.random.default_rng(14)
        for _ in range(60):
            model = random_model(rng, int(rng.integers(1, 41)), int(rng.integers(1, 2001)))
            try:
                want = oracle_coding_tables(model)
            except InvalidInputError as exc:
                for _ in range(2):  # a failed build is not kept: each use raises
                    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(exc))}$"):
                        model._cum
            else:
                cum = model._cum
                assert cum.dtype == np.int32 and cum.shape == (model.dim, 2 * model.q_range + 3)
                assert not cum.flags.writeable
                got = [(int(lo), np.diff(c).tolist(), c.tolist())
                       for lo, c in zip(model._bins[0], cum)]
                assert got == want
                assert model._cum is cum

    def test_too_wide_q_range_names_the_first_failing_dimension(self):
        # Dimensions 2 and 4 are too wide for the frequency total; 0, 1, 3 fit.
        b = np.array([1.0, 1.0, 20.0, 1.0, 20.0])
        model = LaplacianModel(mu=np.zeros(5), b=b, id=3, q_range=1000)
        with pytest.raises(InvalidInputError) as want:
            oracle_coding_tables(model)
        assert "dimension 2:" in str(want.value)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(want.value))}$"):
            model._cum

    def test_one_cdf_evaluation_per_model_table(self, monkeypatch):
        # A model's tables are built once, on first use, and kept: two
        # pipelines (route and encode) and two decodes on the same models
        # evaluate each model's CDF once, over all its dimensions.
        calls = []

        def counted(*args):
            calls.append(args)
            return _laplace_cdf(*args)

        monkeypatch.setattr(tofc, "_laplace_cdf", counted)
        fs = make_blob_features(48, 6, 3, Rng(8))
        models = fit_laplacian_models(fs, 3)
        assert not calls  # nothing is built with the model
        for m in (12, 20):
            bs, _ = tofc_pipeline(fs, TofcConfig(m, 3, models))
            decode(bs, models)
        assert len(calls) == len(models)

    @pytest.mark.parametrize("entries", [7, 600, 2002 * 3, tofc._BIN_ENTRIES])
    def test_chunked_bin_table_equals_the_one_piece_table(self, monkeypatch, entries):
        # Budgets below one row, of a few rows, and not dividing d.
        monkeypatch.setattr(tofc, "_BIN_ENTRIES", entries)
        rng = np.random.default_rng(15)
        models = [random_model(rng, 70, 1000), random_model(rng, 3, 20000),
                  random_model(rng, 33, int(rng.integers(1, 300)))]
        for model in models:
            lo, p = _bin_table(model)
            want_lo, want_p = one_piece_bin_table(model)
            assert lo.tobytes() == want_lo.tobytes()
            assert p.tobytes() == want_p.tobytes()

    def test_bin_table_peak_memory_is_the_table_plus_the_budget(self):
        # A single pass over all d x (2*q_range + 2) edges held about six
        # tables' worth at once (82 MB here). Beyond the table, a chunk's CDF
        # temporaries hold about seven arrays of _BIN_ENTRIES float64s.
        model = LaplacianModel(mu=np.zeros(32), b=np.ones(32), id=0, q_range=Q_RANGE_MAX)
        tracemalloc.start()
        try:
            lo, p = _bin_table(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.nbytes + lo.nbytes + 12 * 8 * tofc._BIN_ENTRIES


def one_piece_bin_table(model):
    """The bin table from one CDF evaluation over every dimension's edges."""
    q = model.q_range
    lo = np.rint(model.mu).astype(np.int64) - q
    edges = (lo[:, None] + np.arange(2 * q + 2)) - 0.5
    cdf = _laplace_cdf(edges, model.mu[:, None], model.b[:, None])
    p = np.empty_like(cdf)
    np.subtract(cdf[:, 1:], cdf[:, :-1], out=p[:, :-1])
    p[:, -1] = cdf[:, 0] + (1.0 - cdf[:, -1])
    return lo, p


def oracle_encode(symbols, models, routing, coder=RangeEncoder):
    """The payload of a per-symbol loop over each dimension's own tables."""
    tables = [oracle_coding_tables(model) for model in models]
    enc = coder()
    for row, e in zip(symbols.tolist(), routing):
        for q, (lo, freqs, cum) in zip(row, tables[e]):
            idx = q - lo
            esc = len(freqs) - 1
            if 0 <= idx < esc:
                enc.encode(cum[idx], cum[idx] + freqs[idx])
            else:
                enc.encode(cum[esc], cum[esc] + freqs[esc])
                enc.encode_raw(q & 0xFFFFFFFF, 32)
    return enc.finish()


def oracle_decode(payload, models, routing, dim, coder=RangeDecoder):
    """Symbols back from a payload, one bisect per symbol on per-dimension lists."""
    tables = [oracle_coding_tables(model) for model in models]
    dec = coder(payload)
    out = np.empty((len(routing), dim), dtype=np.int64)
    for r, e in enumerate(routing):
        for j, (lo, freqs, cum) in enumerate(tables[e]):
            idx = bisect.bisect_right(cum, dec.decode_freq()) - 1
            dec.decode_update(cum[idx], cum[idx] + freqs[idx])
            if idx == len(freqs) - 1:
                raw = dec.decode_raw(32)
                out[r, j] = raw - (1 << 32) if raw >= (1 << 31) else raw
            else:
                out[r, j] = lo + idx
    return out


class TestCodingLoopOracle:
    """encode and decode equal the per-symbol loop over per-dimension tables."""

    def test_bytes_and_symbols_equal_the_per_symbol_loop(self):
        rng = np.random.default_rng(16)
        extremes = np.array([-(1 << 31), (1 << 31) - 1])
        for case in range(80):
            d = int(rng.integers(1, 13))
            q_range = int(rng.choice([1, 2, int(rng.integers(3, 300))]))
            models = []
            while len(models) < int(rng.integers(1, 5)):
                model = random_model(rng, d, q_range, len(models))
                try:
                    oracle_coding_tables(model)
                except InvalidInputError:
                    continue  # too wide to code; the table tests cover that
                models.append(model)
            m = 0 if case % 10 == 0 else int(rng.integers(1, 20))
            # Routing leaves some listed models unused.
            routing = rng.integers(0, max(1, len(models) - 1), size=m).tolist()
            mu = np.array([models[e].mu for e in routing]).reshape(m, d)
            b = np.array([models[e].b for e in routing]).reshape(m, d)
            symbols = np.rint(mu + b * rng.laplace(size=(m, d)) * 2.0).astype(np.int64)
            symbols[rng.random(size=(m, d)) < 0.05] += 3 * q_range  # escapes
            symbols = np.clip(symbols, *extremes)
            ends = rng.random(size=(m, d)) < 0.1
            symbols[ends] = rng.choice(extremes, size=int(ends.sum()))
            bs = encode(symbols, models, routing)
            assert bs.payload == oracle_encode(symbols, models, routing)
            got = decode(bs, models)
            assert got.dtype == np.int64 and got.shape == (m, d)
            assert got.tobytes() == symbols.tobytes()
            assert oracle_decode(bs.payload, models, routing, d).tobytes() == symbols.tobytes()


def index_lookup(starts, cum, v):
    """decode's symbol search: v's bucket of the index, then a bisect
    bounded to the bucket's symbols when it holds more than one."""
    idx, end = starts[v >> 8], starts[(v >> 8) + 1]
    if idx != end:
        idx = bisect.bisect_right(cum, v, idx + 1, end + 1) - 1
    return idx


class TestSymbolIndex:
    """decode's bucketed index finds the symbol a full bisect finds."""

    # Tiny and wide scales. At Q_RANGE_MAX every frequency must be 1, which
    # only models far narrower than a bin leave codable.
    @pytest.mark.parametrize("q_range, b", [
        (1, B_MIN), (1, 1.0), (1, 1e4), (255, B_MIN), (255, 50.0), (255, 1e4),
        (Q_RANGE_MAX, B_MIN),
    ])
    def test_lookup_equals_searchsorted_for_every_value(self, q_range, b):
        mu = np.array([0.0, -7.6, 1e6 + 0.25])
        model = LaplacianModel(mu=mu, b=np.full(3, b) * [1.0, 1.5, 1.3], id=0, q_range=q_range)
        cum = model._cum
        starts = model._starts
        values = np.arange(TOTAL)
        for j in range(model.dim):
            want = np.searchsorted(cum[j], values, side="right") - 1
            idx, end = starts[j, values >> 8], starts[j, (values >> 8) + 1]
            alone = idx == end
            assert (idx[alone] == want[alone]).all()
            row, index = memoryview(cum[j]), memoryview(starts[j])
            for v in np.flatnonzero(~alone).tolist():
                assert index_lookup(index, row, v) == want[v]

    def test_index_is_built_once_read_only_int32(self):
        model = LaplacianModel(mu=np.zeros(5), b=np.full(5, B_MIN), id=0, q_range=Q_RANGE_MAX)
        starts = model._starts
        assert model._starts is starts
        assert starts.shape == (5, 257) and starts.dtype == np.int32
        assert not starts.flags.writeable
        with pytest.raises(ValueError):
            starts[0, 0] = 1
        # The end of a 2^16-symbol table: a 16-bit entry would wrap it to 0.
        assert (starts[:, -1] == 2 * Q_RANGE_MAX + 2).all()

    def test_decode_bisects_for_few_symbols(self, monkeypatch):
        # A full bisect per symbol would make this every one of N x d.
        calls = []
        bisect_right = bisect.bisect_right

        def counted(*args):
            calls.append(args)
            return bisect_right(*args)

        fs = make_blob_features(256, 32, 8, Rng(33))
        models = fit_laplacian_models(fs, 3)
        bs, _ = tofc_pipeline(fs, TofcConfig(256, 4, models))
        want = decode(bs, models)
        monkeypatch.setattr(tofc.bisect, "bisect_right", counted)
        assert decode(bs, models).tobytes() == want.tobytes()
        assert want.size == 256 * 32
        assert len(calls) < want.size / 2


class ReferenceEncoder:
    """The range encoder as first written, one _shift_low call per
    renormalized byte and range // 2^16 per symbol: an oracle that shares no
    code with RangeEncoder."""

    def __init__(self):
        self.low = 0
        self.range = 0xFFFFFFFF
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()
        self._finished = False

    def _shift_low(self):
        if (self.low & 0xFFFFFFFF) < 0xFF000000 or self.low > 0xFFFFFFFF:
            carry = self.low >> 32
            self.out.append((self.cache + carry) & 0xFF)
            filler = 0x00 if carry else 0xFF
            for _ in range(self.cache_size - 1):
                self.out.append(filler)
            self.cache = (self.low >> 24) & 0xFF
            self.cache_size = 0
        self.cache_size += 1
        self.low = (self.low << 8) & 0xFFFFFFFF

    def encode(self, lo, hi):
        if self._finished:
            raise InvalidInputError("encoder already finished")
        if hi - lo < 1 or lo < 0 or hi > 1 << 16:
            raise InvalidInputError("invalid frequency interval")
        r = self.range // (1 << 16)
        self.low += r * lo
        self.range = r * (hi - lo)
        while self.range < 1 << 24:
            self.range = (self.range << 8) & 0xFFFFFFFF
            self._shift_low()

    def encode_raw(self, value, num_bits):
        for i in reversed(range(num_bits)):
            bit = (value >> i) & 1
            self.encode(bit << 15, (bit + 1) << 15)

    def finish(self):
        if not self._finished:
            for _ in range(5):
                self._shift_low()
            self._finished = True
        return bytes(self.out)


class ReferenceDecoder:
    """The range decoder as first written, one _next_byte call per byte."""

    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.range = 0xFFFFFFFF
        self.code = 0
        self._next_byte()
        for _ in range(4):
            self.code = ((self.code << 8) | self._next_byte()) & 0xFFFFFFFF

    def _next_byte(self):
        if self.pos < len(self.data):
            b = self.data[self.pos]
            self.pos += 1
            return b
        return 0

    def decode_freq(self):
        self._r = self.range // (1 << 16)
        return min(self.code // self._r, (1 << 16) - 1)

    def decode_update(self, lo, hi):
        self.code -= self._r * lo
        self.range = self._r * (hi - lo)
        while self.range < 1 << 24:
            self.code = ((self.code << 8) | self._next_byte()) & 0xFFFFFFFF
            self.range = (self.range << 8) & 0xFFFFFFFF

    def decode_raw(self, num_bits):
        value = 0
        for _ in range(num_bits):
            v = self.decode_freq()
            bit = 1 if v >= 1 << 15 else 0
            self.decode_update(bit << 15, (bit + 1) << 15)
            value = (value << 1) | bit
        return value


class CarryCountingEncoder(ReferenceEncoder):
    """Records the length of the 0xFF run each carry turns into zeros."""

    def __init__(self):
        super().__init__()
        self.carried = []

    def _shift_low(self):
        if self.low > 0xFFFFFFFF:
            self.carried.append(self.cache_size - 1)
        super()._shift_low()


def coder_ops(rng, n, straddle=0):
    """(ops, ref): n seeded coder operations, coded by a carry-counting reference.

    An operation is ("sym", lo, hi), a symbol's interval of the 2^16 total, or
    ("raw", value, bits). With straddle > 0, once the interval reaches
    across 2^32, straddle symbols in a row keep it there, each adding 0xFF
    bytes to the pending run, and the next one, at the top of the interval,
    carries into the run.
    """
    ref = CarryCountingEncoder()
    ops, held = [], 0
    while len(ops) < n:
        r = ref.range // TOTAL
        cross = (2**32 - ref.low) // r if ref.low < 2**32 < ref.low + ref.range else TOTAL
        if straddle and cross < TOTAL:
            op = ("sym", cross, cross + 1) if held < straddle else ("sym", TOTAL - 1, TOTAL)
            held = (held + 1) % (straddle + 1)
        elif rng.random() < 0.05:
            bits = int(rng.integers(1, 33))
            op = ("raw", int(rng.integers(0, 1 << bits)), bits)
        else:
            cum_lo = int(rng.integers(0, TOTAL))
            top = TOTAL - cum_lo if rng.random() < 0.5 else min(TOTAL - cum_lo, 4)
            op = ("sym", cum_lo, cum_lo + int(rng.integers(1, top + 1)))
        encode_ops(ref, [op])
        ops.append(op)
    return ops, ref


def encode_ops(enc, ops):
    for kind, a, b in ops:
        if kind == "sym":
            enc.encode(a, b)
        else:
            enc.encode_raw(a, b)


def decode_ops(dec, ops):
    """What dec reads for ops: each symbol's decode_freq value, each raw field."""
    got = []
    for kind, a, b in ops:
        if kind == "sym":
            got.append(dec.decode_freq())
            dec.decode_update(a, b)
        else:
            got.append(dec.decode_raw(b))
    return got


class TestReferenceCoder:
    """RangeEncoder and RangeDecoder code as the reference classes do."""

    STRADDLES = (0, 0, 3, 40, 300)

    def streams(self):
        rng = np.random.default_rng(17)
        for case in range(30):
            ops, ref = coder_ops(rng, int(rng.integers(1, 700)), self.STRADDLES[case % 5])
            yield ops, ref

    def test_seeded_streams_give_equal_payloads_and_values(self):
        longest = 0
        for ops, ref in self.streams():
            enc = RangeEncoder()
            encode_ops(enc, ops)
            payload = enc.finish()
            assert payload == ref.finish()
            longest = max(longest, *ref.carried, 0)
            got = decode_ops(RangeDecoder(payload), ops)
            assert got == decode_ops(ReferenceDecoder(payload), ops)
            for (kind, a, b), value in zip(ops, got):
                assert a <= value < b if kind == "sym" else value == a
        assert longest >= 300  # carries rippled through long 0xFF runs

    def test_truncated_payloads_decode_alike(self):
        # Past the end of the data both read zero bytes.
        for ops, ref in self.streams():
            payload = ref.finish()
            for cut in sorted({0, 1, 3, 5, len(payload) // 2, len(payload) - 1}):
                got = decode_ops(RangeDecoder(payload[:cut]), ops)
                assert got == decode_ops(ReferenceDecoder(payload[:cut]), ops)

    def test_corrupt_payloads_decode_alike(self):
        # Random bytes push the code word past the interval, where the
        # decoded value is clamped to the table's last entry.
        rng = np.random.default_rng(18)
        clamped = 0
        for _ in range(30):
            payload = rng.integers(0, 256, size=int(rng.integers(0, 300)), dtype=np.uint8)
            freqs = rng.integers(1, 400, size=int(rng.integers(2, 60)))
            freqs[-1] += TOTAL - freqs.sum()
            cum = np.concatenate(([0], np.cumsum(freqs))).tolist()
            dec, ref = RangeDecoder(payload.tobytes()), ReferenceDecoder(payload.tobytes())
            for _ in range(400):
                clamped += ref.code // (ref.range // TOTAL) >= TOTAL
                v = dec.decode_freq()
                assert v == ref.decode_freq()
                s = bisect.bisect_right(cum, v) - 1
                dec.decode_update(cum[s], cum[s + 1])
                ref.decode_update(cum[s], cum[s + 1])
                assert (dec.code, dec.range) == (ref.code, ref.range)
        assert clamped > 100

    def test_tofc_payloads_equal_the_reference_loop(self):
        # Escapes from x400 rows; symbols bytes-equal both ways.
        rng = np.random.default_rng(19)
        for case in range(6):
            fs = make_blob_features(96, 8, 4, Rng(case))
            feats = fs.features.copy()
            feats[rng.random(96) < 0.1] *= 400.0
            fs = FeatureSet(features=feats)
            models = fit_laplacian_models(fs, 1 + case % 3)
            bs, _ = tofc_pipeline(fs, TofcConfig(48, 4, models))
            symbols = decode(bs, models)
            routing = list(bs.model_ids)
            assert bs.payload == oracle_encode(symbols, models, routing, ReferenceEncoder)
            back = oracle_decode(bs.payload, models, routing, 8, ReferenceDecoder)
            assert back.tobytes() == symbols.tobytes()


def np_sum_rows(feats):
    """Each row's squared distances to all rows, as np.sum adds them."""
    return np.array([np.sum((feats - row) ** 2, axis=1) for row in feats])


class TestExactRefine:
    def assert_equal_to_np_sum_rows(self, feats):
        n = feats.shape[0]
        want = np_sum_rows(feats)
        dist = _Distances(feats)
        # Every pair once, in a shuffled order, with either row first.
        i, j = np.divmod(np.random.default_rng(n).permutation(n * n), n)
        assert dist.exact(i, j).tobytes() == want[i, j].tobytes()
        assert dist.exact(j, i).tobytes() == want[i, j].tobytes()

    @pytest.mark.parametrize("n", [2, 5, 63, 64, 65, 128, 130, 200])
    def test_distances_equal_the_np_sum_rows(self, n):
        rng = Rng(7000 + n)
        feats = rng.normal_matrix(n, 7) * 3.0
        feats[n // 2] = feats[0]
        feats[n - 1] = feats[1]
        feats[3::41] *= 400.0
        self.assert_equal_to_np_sum_rows(feats)

    # Widths on each side of np.sum's 8-way unroll (8) and pairwise split
    # (128), and widths that split more than once.
    @pytest.mark.parametrize(
        "d", [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 127, 128, 129, 136, 200, 257, 513]
    )
    def test_every_width_adds_in_np_sum_order(self, d):
        for n in (_ROW_BLOCK - 1, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3):
            feats = Rng(7100 + d).normal_matrix(n, d) * 3.0
            feats[n // 2] = feats[0]
            feats[5] = 0.0
            feats[3::41] *= 400.0
            self.assert_equal_to_np_sum_rows(feats)

    @pytest.mark.parametrize("d", [1, 8, 64, 200, 513])
    def test_peak_memory_is_a_few_tiles(self, d):
        # Beyond its output a call holds, one step at a time, the two
        # gathered sides of at most _TILE // d pairs, subtracted and squared
        # in place; the 4,096 pairs gathered at once would be 2*4096*d*8 bytes.
        n = 512
        dist = _Distances(Rng(5).normal_matrix(n, d))
        everyone = np.arange(n)
        i, j = everyone.repeat(8), np.tile(everyone, 8)
        tracemalloc.start()
        try:
            pairs = dist.exact(i, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - pairs.nbytes < 2 * 8 * _TILE + 2**14

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_approximations_stay_within_their_bound(self, case):
        # The bound dpc_knn_cluster prunes with, checked on every pair.
        feats = adversarial_features(case)
        dist = _Distances(feats)
        approx = dist.left @ dist.right
        with np.errstate(under="ignore"):
            exact = np.ldexp(np_sum_rows(feats), 2 * dist.scale)
        assert (approx - dist.slack[:, None] <= exact).all()
        assert (exact <= approx + dist.slack[:, None] + dist.spread).all()

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL) + ["overflow_1e200"])
    def test_bounding_box_bounds_every_pair(self, case):
        # The farthest-pair search stops at a pair whose value equals this
        # box's; no pair may exceed it, at any scale, overflow included.
        if case == "overflow_1e200":
            feats = Rng(3).normal_matrix(20, 3)
            feats[3], feats[7] = 1e200, -1e200
        else:
            feats = adversarial_features(case)
        with np.errstate(over="ignore"):
            box = np.sum((feats.max(axis=0) - feats.min(axis=0)) ** 2)
            farthest = np_sum_rows(feats).max()
        assert box >= farthest
        assert np.isinf(farthest) == (case == "overflow_1e200")


class TestPmf:
    def model(self, mu=0.0, b=1.0, q_range=255):
        return LaplacianModel(
            mu=np.array([float(mu)]), b=np.array([float(b)]), id=0, q_range=q_range
        )

    def test_unit_bin_at_center(self):
        got = bin_mass(self.model(), 0, 0)
        assert got == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)

    def test_symmetry(self):
        m = self.model()
        assert bin_mass(m, 0, 1) == pytest.approx(bin_mass(m, 0, -1), abs=1e-15)

    def test_normalization_with_escape(self):
        for mu, b, q_range in [(0.0, 1.0, 255), (3.7, 0.4, 16), (-2.0, B_MIN, 8)]:
            m = self.model(mu, b, q_range)
            lo = int(np.rint(mu)) - q_range
            hi = int(np.rint(mu)) + q_range
            total = sum(bin_mass(m, 0, q) for q in range(lo, hi + 1))
            total += bin_mass(m, 0, hi + 1)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_shares_escape_mass(self):
        m = self.model(0.0, 2.0, 32)
        assert bin_mass(m, 0, 33) == bin_mass(m, 0, 500) == bin_mass(m, 0, -40)


class TestEstimateRate:
    def test_empty_is_zero(self):
        model = LaplacianModel(mu=np.zeros(2), b=np.ones(2), id=0)
        assert estimate_rate(np.zeros((0, 2), dtype=np.int64), model) == 0.0

    def test_half_probability_costs_one_bit(self):
        b = 1.0 / (2.0 * math.log(2.0))
        model = LaplacianModel(mu=np.array([0.0]), b=np.array([b]), id=0)
        assert bin_mass(model, 0, 0) == pytest.approx(0.5, abs=1e-15)
        bits = estimate_rate(np.array([[0]]), model)
        assert bits == pytest.approx(1.0, abs=1e-9)

    def test_hundred_zeros(self):
        model = LaplacianModel(mu=np.array([0.0]), b=np.array([1.0]), id=0)
        bits = estimate_rate(np.zeros(100, dtype=np.int64), model)
        expected = -100.0 * math.log2(1.0 - math.exp(-0.5))
        assert bits == pytest.approx(expected, rel=1e-12)
        assert 134.0 < bits < 136.0

    def test_escape_adds_raw_bits(self):
        model = LaplacianModel(mu=np.array([0.0]), b=np.array([1.0]), id=0, q_range=8)
        esc = bin_mass(model, 0, 9)
        bits = estimate_rate(np.array([[50]]), model)
        assert bits == pytest.approx(-math.log2(esc) + 32.0, rel=1e-12)

    def test_row_is_its_symbol_costs_summed_in_dimension_order(self):
        rng = Rng(41)
        for q_range in (1, 4, 255):
            mu = np.array([6.0 * rng.normal() for _ in range(5)])
            b = np.array([0.5 + 3.5 * rng.uniform() for _ in range(5)])
            model = LaplacianModel(mu=mu, b=b, id=0, q_range=q_range)
            for k in range(20):
                row = np.rint(mu + 3.0 * b * rng.normal_matrix(1, 5)[0]).astype(np.int64)
                row[k % 5] += 3 * q_range  # most likely an escape
                expected = 0.0
                for j, q in enumerate(row.tolist()):
                    escaped = abs(q - int(np.rint(mu[j]))) > q_range
                    expected += -np.log2(bin_mass(model, j, q)) + (32.0 if escaped else 0.0)
                assert estimate_rate(row, model) == expected

    def test_wrong_shape_rejected(self):
        model = LaplacianModel(mu=np.zeros(3), b=np.ones(3), id=0)
        with pytest.raises(InvalidInputError):
            estimate_rate(np.zeros(4, dtype=np.int64), model)
        with pytest.raises(InvalidInputError):
            estimate_rate(np.zeros((2, 3)), model)  # floats


class TestRangeCoder:
    def test_roundtrip_random_tables(self):
        rng = Rng(314)
        for _ in range(50):
            size = 2 + int(rng.uniform() * 200)
            raw = np.array([1 + int(rng.uniform() * 50) for _ in range(size)], dtype=np.int64)
            freqs = raw * ((1 << 16) // raw.sum())
            freqs[0] += (1 << 16) - freqs.sum()
            assert freqs.min() >= 1 and freqs.sum() == (1 << 16)
            cum = np.concatenate(([0], np.cumsum(freqs)))
            n = 1 + int(rng.uniform() * 400)
            symbols = [int(rng.uniform() * size) for _ in range(n)]
            enc = RangeEncoder()
            for s in symbols:
                enc.encode(int(cum[s]), int(cum[s + 1]))
            payload = enc.finish()
            dec = RangeDecoder(payload)
            out = []
            for _ in range(n):
                v = dec.decode_freq()
                s = int(np.searchsorted(cum, v, side="right")) - 1
                dec.decode_update(int(cum[s]), int(cum[s + 1]))
                out.append(s)
            assert out == symbols

    def test_coin_flips_cost_one_bit_each(self):
        enc = RangeEncoder()
        rng = Rng(5)
        bits = [int(rng.uniform() * 2) for _ in range(800)]
        for b in bits:
            enc.encode(b * (1 << 15), (b + 1) * (1 << 15))
        payload = enc.finish()
        assert len(payload) <= 800 // 8 + 6
        dec = RangeDecoder(payload)
        got = []
        for _ in range(800):
            v = dec.decode_freq()
            b = 1 if v >= (1 << 15) else 0
            dec.decode_update(b * (1 << 15), (b + 1) * (1 << 15))
            got.append(b)
        assert got == bits

    def test_raw_bits_roundtrip(self):
        enc = RangeEncoder()
        values = [0, 1, 0xFFFFFFFF, 0x12345678]
        for v in values:
            enc.encode_raw(v, 32)
        dec = RangeDecoder(enc.finish())
        assert [dec.decode_raw(32) for _ in values] == values

    def test_encoder_validation(self):
        enc = RangeEncoder()
        for lo, hi in [(60000, 70000), (0, 0), (5, 4), (-1, 3), (0, TOTAL + 1)]:
            with pytest.raises(InvalidInputError, match="^invalid frequency interval$"):
                enc.encode(lo, hi)
        enc.encode(0, 1 << 15)
        enc.finish()
        with pytest.raises(InvalidInputError):
            enc.encode(0, 1 << 15)

    def test_every_interval_is_of_one_fixed_total(self):
        assert TOTAL == 1 << 16
        params = {method: list(inspect.signature(method).parameters)
                  for method in (RangeEncoder.encode, RangeDecoder.decode_freq,
                                 RangeDecoder.decode_update)}
        assert list(params.values()) == [["self", "lo", "hi"], ["self"], ["self", "lo", "hi"]]

    # Each of these has looped forever: a total above the range made the
    # encoder's step zero, and an empty interval leaves the decoder a range
    # that renormalizing never lifts. They run in a killable interpreter.
    @pytest.mark.parametrize("call", [
        "RangeEncoder().encode(0, 2**33)",
        "RangeEncoder().encode(2**32, 2**33 + 1)",
        "d = RangeDecoder(bytes(8)); d.decode_freq(); d.decode_update(0, 0)",
        "d = RangeDecoder(bytes(range(1, 9))); d.decode_freq(); d.decode_update(900, 899)",
    ])
    def test_bad_interval_raises_at_once(self, call):
        done = run_snippet(
            "from aiflow.errors import InvalidInputError\n"
            "from aiflow.rangecoder import RangeDecoder, RangeEncoder\n"
            "try:\n"
            f"    {call}\n"
            "except InvalidInputError as exc:\n"
            "    print(exc)\n"
        )
        assert (done.returncode, done.stdout) == (0, "invalid frequency interval\n"), done.stderr


def two_models(d):
    low = LaplacianModel(mu=np.zeros(d), b=np.full(d, 1.5), id=0)
    high = LaplacianModel(mu=np.full(d, 12.0), b=np.full(d, 1.5), id=1)
    return [low, high]


class TestCodec:
    @pytest.mark.parametrize("entry", [1, None, "model", {"mu": [0.0], "b": [1.0], "id": 1}])
    def test_models_must_be_laplacian_models(self, entry):
        models = [*two_models(2)[:1], entry]
        message = f"^{re.escape(f'models[1] must be a LaplacianModel, got {entry!r}')}$"
        symbols = np.array([[0, 1]], dtype=np.int64)
        with pytest.raises(InvalidInputError, match=message):
            TofcConfig(2, 1, models)
        with pytest.raises(InvalidInputError, match=message):
            encode(symbols, models, [0])
        bs = encode(symbols, two_models(2), [0])
        with pytest.raises(InvalidInputError, match=message):
            decode(bs, models)

    @pytest.mark.parametrize("models", [5, None, "ab", np.array([1])])
    def test_models_must_be_a_list_or_tuple(self, models):
        message = "^models must be a list or tuple of LaplacianModels, got "
        symbols = np.array([[0, 1]], dtype=np.int64)
        with pytest.raises(InvalidInputError, match=message):
            TofcConfig(2, 1, models)
        with pytest.raises(InvalidInputError, match=message):
            encode(symbols, models, [0])
        with pytest.raises(InvalidInputError, match=message):
            decode(encode(symbols, two_models(2), [0]), models)

    def test_a_bare_model_is_not_a_model_list(self):
        model = two_models(2)[0]
        message = "^models must be a list or tuple of LaplacianModels, got LaplacianModel$"
        with pytest.raises(InvalidInputError, match=message):
            TofcConfig(2, 1, model)
        with pytest.raises(InvalidInputError, match=message):
            encode(np.array([[0, 1]], dtype=np.int64), model, [0])

    @pytest.mark.parametrize("routing", [5, None, np.int64(0), np.array(0), np.zeros((1, 1), int)])
    def test_routing_must_be_a_list_tuple_or_vector(self, routing):
        symbols = np.array([[0, 1]], dtype=np.int64)
        message = "^routing must be a list, tuple or 1-D array of model ids, got "
        with pytest.raises(InvalidInputError, match=message):
            encode(symbols, two_models(2), routing)

    def test_config_rejects_a_non_model_first_entry(self):
        with pytest.raises(InvalidInputError, match="^models\\[0\\] must be a LaplacianModel"):
            TofcConfig(2, 1, [1, 2])

    def test_roundtrip_fuzz(self):
        rng = Rng(2718)
        models = two_models(3)
        for _ in range(1000):
            m = 1 + int(rng.uniform() * 6)
            symbols = np.array(
                [[int(rng.uniform() * 601) - 300 for _ in range(3)] for _ in range(m)],
                dtype=np.int64,
            )
            routing = [int(rng.uniform() * 2) for _ in range(m)]
            bs = encode(symbols, models, routing)
            assert np.array_equal(decode(bs, models), symbols)

    def test_container_roundtrip_bytes(self):
        models = two_models(2)
        symbols = np.array([[0, 1], [11, 13]], dtype=np.int64)
        bs = encode(symbols, models, [0, 1])
        again = Bitstream.from_bytes(bs.to_bytes())
        assert again == bs
        assert np.array_equal(decode(again, models), symbols)

    def test_all_zero_payload_close_to_estimate(self):
        model = LaplacianModel(mu=np.zeros(5), b=np.ones(5), id=0)
        symbols = np.zeros((20, 5), dtype=np.int64)
        bs = encode(symbols, [model], [0] * 20)
        est = estimate_rate(symbols, model)
        bits = 8 * len(bs.payload)
        assert est <= bits <= est + 64.0

    def test_rate_bound_thousand_symbols(self):
        rng = Rng(60601)
        d = 8
        calib = np.array(
            [[laplace_sample(0.0, 1.2, rng) for _ in range(d)] for _ in range(400)]
        )
        model = fit_laplacian(calib, 0)
        data = np.array(
            [[laplace_sample(0.0, 1.2, rng) for _ in range(d)] for _ in range(150)]
        )
        symbols = quantize(data)
        bs = encode(symbols, [model], [0] * 150)
        est = estimate_rate(symbols, model)
        bits = 8 * len(bs.payload)
        assert est <= bits <= est + 64.0

    def test_escape_symbols_roundtrip(self):
        model = LaplacianModel(mu=np.zeros(2), b=np.ones(2), id=0, q_range=4)
        symbols = np.array([[0, 999], [-1234567, 3]], dtype=np.int64)
        bs = encode(symbols, [model], [0, 0])
        assert np.array_equal(decode(bs, [model]), symbols)

    @pytest.mark.parametrize("q_range, b", [(1596, None), (1000, 20.0)])
    def test_q_range_too_wide_for_the_frequency_total(self, q_range, b):
        # Every symbol needs a frequency >= 1 out of 2^16, so a wide alphabet
        # under a wide scale cannot be coded: a bad input, not a defect.
        if b is None:
            model = fit_laplacian(make_blob_features(40, 3, 2, Rng(1)).features, 0, q_range)
        else:
            model = LaplacianModel(mu=np.zeros(2), b=np.array([1.0, b]), id=0, q_range=q_range)
        symbols = np.zeros((2, model.dim), dtype=np.int64)
        assert estimate_rate(symbols, model) > 0.0
        message = (f"model 0 dimension 1: q_range {q_range} leaves too little of the "
                   "2^16 frequency total to give every symbol a frequency >= 1")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            encode(symbols, [model], [0, 0])
        narrow = replace(model, q_range=255)
        bs = encode(symbols, [narrow], [0, 0])
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            decode(bs, [model])
        # A listed model no row routes to is checked all the same.
        with pytest.raises(InvalidInputError, match="^model 1 dimension 1: "):
            encode(symbols, [narrow, replace(model, id=1)], [0, 0])

    def test_symbols_outside_int32_rejected(self):
        model = LaplacianModel(mu=np.zeros(1), b=np.ones(1), id=0, q_range=4)
        for q in ((1 << 31) + 5, 1 << 31, -(1 << 31) - 1, 1 << 40):
            with pytest.raises(InvalidInputError):
                encode(np.array([[q]], dtype=np.int64), [model], [0])
        edges = np.array([[-(1 << 31)], [(1 << 31) - 1]], dtype=np.int64)
        assert np.array_equal(decode(encode(edges, [model], [0, 0]), [model]), edges)

    def test_quantize_rejects_values_beyond_int64(self):
        for value in (1e30, -1e30, 2.0**63):
            with pytest.raises(InvalidInputError):
                quantize(np.array([0.0, value]))
        assert quantize(np.array([-(2.0**63), 2.5, -0.5])).tolist() == [-(1 << 63), 2, 0]

    def test_flipped_payload_byte_fails_checksum(self):
        models = two_models(2)
        symbols = np.array([[1, 2], [3, 4]], dtype=np.int64)
        blob = bytearray(encode(symbols, models, [0, 1]).to_bytes())
        blob[-1] ^= 0x40
        with pytest.raises(MalformedBitstreamError):
            Bitstream.from_bytes(bytes(blob))

    def test_bad_magic_and_truncation(self):
        models = two_models(2)
        blob = bytearray(
            encode(np.array([[0, 0]], dtype=np.int64), models, [0]).to_bytes()
        )
        wrong = bytes(b"X") + bytes(blob[1:])
        with pytest.raises(MalformedBitstreamError):
            Bitstream.from_bytes(wrong)
        with pytest.raises(MalformedBitstreamError):
            Bitstream.from_bytes(bytes(blob[:6]))

    def test_routing_and_model_validation(self):
        models = two_models(2)
        symbols = np.array([[0, 0]], dtype=np.int64)
        with pytest.raises(InvalidInputError):
            encode(symbols, models, [2])
        with pytest.raises(InvalidInputError):
            encode(symbols, models, [0, 0])
        bs = encode(symbols, models, [1])
        with pytest.raises(InvalidInputError):
            decode(bs, models[:1])
        shuffled = [
            LaplacianModel(mu=models[1].mu, b=models[1].b, id=1),
            LaplacianModel(mu=models[0].mu, b=models[0].b, id=0),
        ]
        with pytest.raises(InvalidInputError):
            encode(symbols, shuffled, [0])

    @pytest.mark.parametrize("bad", [0.7, 1.0, "1", True, False, np.True_, np.float64(1.0),
                                     None, 2, -1, np.int64(2)])
    def test_routing_ids_must_be_int_model_ids(self, bad):
        models = two_models(2)
        symbols = np.array([[0, 0], [1, 1]], dtype=np.int64)
        message = f"routing[1] must be an int model id in 0..1, got {bad!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            encode(symbols, models, [0, bad])

    @pytest.mark.parametrize("routing", [[np.int64(1), np.uint8(0)],
                                         np.array([1, 0], dtype=np.intp)])
    def test_routing_accepts_numpy_integers(self, routing):
        models = two_models(2)
        symbols = np.array([[0, 0], [1, 1]], dtype=np.int64)
        bs = encode(symbols, models, routing)
        assert bs.model_ids == (1, 0) and all(type(e) is int for e in bs.model_ids)
        assert bs.to_bytes() == encode(symbols, models, [1, 0]).to_bytes()


class TestRouting:
    def test_single_model(self):
        model = LaplacianModel(mu=np.zeros(2), b=np.ones(2), id=0)
        ids, bits = route(np.array([[40, -3]]), [model])
        assert ids.tolist() == [0]
        assert bits.tolist() == [estimate_rate(np.array([40, -3]), model)]

    def test_row_near_a_mean_routes_there(self):
        models = two_models(4)
        ids, _ = route(quantize(np.array([np.full(4, 0.2), np.full(4, 11.8)])), models)
        assert ids.tolist() == [0, 1]

    def test_identical_models_tie_to_low_id(self):
        m0 = LaplacianModel(mu=np.zeros(2), b=np.ones(2), id=0)
        m1 = LaplacianModel(mu=np.zeros(2), b=np.ones(2), id=1)
        m2 = LaplacianModel(mu=np.zeros(2), b=np.ones(2), id=2)
        ids, _ = route(np.array([[1, 2], [0, 0], [-300, 7]]), [m0, m1, m2])
        assert ids.tolist() == [0, 0, 0]

    def test_routed_model_is_rate_optimal(self):
        rng = Rng(77)
        models = [
            LaplacianModel(mu=np.full(3, c), b=np.full(3, s), id=i)
            for i, (c, s) in enumerate([(0.0, 1.0), (5.0, 2.0), (-4.0, 0.7)])
        ]
        rows = quantize([[6.0 * (rng.uniform() - 0.5) for _ in range(3)] for _ in range(20)])
        ids, _ = route(rows, models)
        for row, chosen in zip(rows, ids):
            rates = [estimate_rate(row, m) for m in models]
            assert rates[chosen] == min(rates)

    def test_bits_equal_estimate_rate_of_the_routed_model(self):
        # q_range 3 puts the x400 rows' symbols in the escape bin.
        rng = Rng(5)
        feats = np.array([[6.0 * (rng.uniform() - 0.5) for _ in range(4)] for _ in range(30)])
        feats[::7] *= 400.0
        models = [fit_laplacian(feats[e::3], e, q_range=3) for e in range(3)]
        symbols = quantize(feats)
        ids, bits = route(symbols, models)
        assert len(set(ids.tolist())) > 1
        assert bits.tolist() == [
            estimate_rate(row, models[e]) for row, e in zip(symbols, ids.tolist())
        ]

    def test_no_rows(self):
        ids, bits = route(np.zeros((0, 2), dtype=np.int64), two_models(2))
        assert ids.shape == bits.shape == (0,)

    def test_peak_memory_is_the_gathered_rows_not_the_table(self):
        # A cost table over every bin would be 32 x 65,536 floats, 16 MiB;
        # routing prices only the M x d masses its rows gather.
        model = LaplacianModel(mu=np.zeros(32), b=np.ones(32), id=0, q_range=Q_RANGE_MAX)
        symbols = quantize(np.random.default_rng(16).normal(size=(512, 32)) * 40.0)
        route(symbols, [model])  # builds the model's tables, which it keeps
        tracemalloc.start()
        try:
            route(symbols, [model])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("symbols, models, message", [
        (np.zeros((2, 2), dtype=np.int64), two_models(2)[0],
         "models must be a list or tuple of LaplacianModels, got LaplacianModel"),
        (np.zeros(2, dtype=np.int64), two_models(2), "symbols must be a 2-D integer array"),
        (np.zeros((2, 2)), two_models(2), "symbols must be a 2-D integer array"),
        (np.zeros((2, 3), dtype=np.int64), two_models(2), "model 0 has dim 2, symbols have dim 3"),
    ], ids=["bare-model", "1-d", "float", "width-mismatch"])
    def test_rejects_bad_arguments(self, symbols, models, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            route(symbols, models)


class TestBalanceMetric:
    def test_uniform_is_zero(self):
        assert balance_metric([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-15)

    def test_all_on_one_of_two(self):
        assert balance_metric([10, 0]) == pytest.approx(0.5)

    def test_single_model_is_zero(self):
        assert balance_metric([7]) == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(InvalidInputError):
            balance_metric([0, 0])


class TestPipeline:
    def setup_method(self):
        self.fs = make_blob_features(32, 4, 4, Rng(11))
        self.models = (
            fit_laplacian(self.fs.features, 0),
            fit_laplacian(self.fs.features * 0.25, 1),
        )

    def test_end_to_end_stats_and_roundtrip(self):
        cfg = TofcConfig(num_centers=8, k_neighbors=3, models=self.models)
        bs, stats = tofc_pipeline(self.fs, cfg)
        assert stats["M"] == 8
        assert stats["bytes"] == len(bs.payload)
        assert stats["est_bits"] > 0.0
        assert 0.0 <= stats["balance"] <= 1.0
        clusters = dpc_knn_cluster(self.fs, 3, 8)
        assert np.array_equal(decode(bs, list(self.models)), quantize(clusters.merged))

    def test_deterministic_bytes(self):
        cfg = TofcConfig(num_centers=6, k_neighbors=3, models=self.models)
        a, _ = tofc_pipeline(self.fs, cfg)
        b, _ = tofc_pipeline(self.fs, cfg)
        assert a.to_bytes() == b.to_bytes()

    def test_payload_monotone_in_clusters(self):
        big = TofcConfig(num_centers=32, k_neighbors=3, models=self.models)
        small = TofcConfig(num_centers=8, k_neighbors=3, models=self.models)
        _, stats_big = tofc_pipeline(self.fs, big)
        _, stats_small = tofc_pipeline(self.fs, small)
        assert stats_small["bytes"] <= stats_big["bytes"]

    def test_routing_and_est_bits_match_route_and_estimate_rate(self):
        rng = Rng(23)
        for n, d, e, q_range in [(32, 4, 2, 255), (40, 5, 3, 3), (24, 7, 4, 1), (30, 1, 1, 40)]:
            fs = make_blob_features(n, d, 3, rng)
            scale = np.where(np.arange(n) % 5 == 2, 300.0, 1.0)
            fs = FeatureSet(features=fs.features * scale[:, None])
            models = tuple(
                fit_laplacian(fs.features[i::e], i, q_range=q_range) for i in range(e)
            )
            for m in (1, n // 3, n):
                bs, stats = tofc_pipeline(fs, TofcConfig(m, 3, models))
                merged = dpc_knn_cluster(fs, 3, m).merged
                symbols = quantize(merged)
                routing = [min((estimate_rate(row, model), e) for e, model in enumerate(models))[1]
                           for row in symbols]
                assert list(bs.model_ids) == routing
                expected = sum(
                    estimate_rate(symbols[r], models[routing[r]]) for r in range(m)
                )
                assert stats["est_bits"] == expected

    def test_invalid_config(self):
        with pytest.raises(InvalidInputError):
            TofcConfig(num_centers=0, k_neighbors=3, models=self.models)
        with pytest.raises(InvalidInputError):
            TofcConfig(num_centers=4, k_neighbors=3, models=())
        wrong_dim = (fit_laplacian(np.zeros((4, 3)) + np.arange(3), 0),)
        cfg = TofcConfig(num_centers=4, k_neighbors=3, models=wrong_dim)
        with pytest.raises(InvalidInputError):
            tofc_pipeline(self.fs, cfg)

    @pytest.mark.parametrize("kwargs, message", [
        ({"num_centers": 2.5}, "num_centers must be an int >= 1, got 2.5"),
        ({"num_centers": True}, "num_centers must be an int >= 1, got True"),
        ({"k_neighbors": 2.5}, "k_neighbors must be an int >= 1, got 2.5"),
    ])
    def test_config_counts_must_be_ints(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            TofcConfig(**{"num_centers": 4, "k_neighbors": 3, "models": self.models, **kwargs})


class TestFeatureIO:
    def test_binary_roundtrip(self, tmp_path):
        fs = make_blob_features(10, 3, 2, Rng(4))
        path = tmp_path / "feats.bin"
        save_features(path, fs)
        loaded = load_features(path)
        assert np.array_equal(loaded.features, fs.features.astype("<f4").astype(np.float64))

    def test_float32_range_is_the_limit(self, tmp_path):
        path = tmp_path / "feats.bin"
        with pytest.raises(InvalidInputError, match="outside the float32 range"):
            save_features(path, FeatureSet(features=[[0.0, 1e200]]))
        assert not path.exists()
        extremes = FeatureSet(features=[[3.4e38, -3.4e38]])
        save_features(path, extremes)
        assert np.array_equal(load_features(path).features,
                              extremes.features.astype("<f4").astype(np.float64))

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "feats.bin"
        path.write_bytes(b"NOPE" + bytes(9))
        with pytest.raises(InvalidInputError):
            load_features(path)
        path.write_bytes(b"FE")
        with pytest.raises(InvalidInputError):
            load_features(path)

    def test_zero_dim_header_rejected(self, tmp_path):
        path = tmp_path / "feats.bin"
        path.write_bytes(struct.pack("<4sBII", b"FEAT", 1, 3, 0))
        with pytest.raises(InvalidInputError, match="at least one row and one column"):
            load_features(path)

    def test_body_length_mismatch(self, tmp_path):
        fs = FeatureSet(features=np.ones((2, 2)))
        path = tmp_path / "feats.bin"
        save_features(path, fs)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(InvalidInputError):
            load_features(path)

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("1.5,2.0\n-3.0,0.25\n")
        fs = load_features_csv(path)
        assert np.array_equal(fs.features, np.array([[1.5, 2.0], [-3.0, 0.25]]))

    def test_feature_set_stores_float64_matrix(self):
        from_list = FeatureSet(features=[[1.0, 2.0], [3.0, 4.0]])
        assert (from_list.count, from_list.dim) == (2, 2)
        assert from_list.features.dtype == np.float64
        from_ints = FeatureSet(features=np.array([[1, 2], [3, 4]], dtype=np.int64))
        assert from_ints.features.dtype == np.float64
        assert np.array_equal(from_ints.features, from_list.features)

    def test_blob_determinism(self):
        a = make_blob_features(12, 3, 3, Rng(21))
        b = make_blob_features(12, 3, 3, Rng(21))
        assert np.array_equal(a.features, b.features)


def _symbols(m, d):
    return np.zeros((m, d), dtype=np.int64)


# Documented input errors that no other test reaches, each with its exact message.
@pytest.mark.parametrize("call, message", [
    (lambda: quantize(np.array([1.0, np.nan])), "values must be finite"),
    (lambda: quantize(np.array([np.inf])), "values must be finite"),
    (lambda: balance_metric([]), "selection_counts must be non-negative, one per model"),
    (lambda: balance_metric([[1, 2]]), "selection_counts must be non-negative, one per model"),
    (lambda: balance_metric([3, -1]), "selection_counts must be non-negative, one per model"),
    (lambda: encode(_symbols(1, 1), [None] * 256, [0]), "at most 255 models fit the container"),
    (lambda: encode(np.zeros(3, dtype=np.int64), [None], [0]),
     "symbols must be a 2-D integer array"),
    (lambda: encode(np.zeros((1, 1)), [None], [0]), "symbols must be a 2-D integer array"),
    (lambda: encode(_symbols(1, 0), [None], [0]),
     "symbol matrix does not fit the container limits"),
    (lambda: encode(_symbols(65_536, 1), [None], [0]),
     "symbol matrix does not fit the container limits"),
])
def test_documented_input_errors(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("lo, hi", [(7, 7), (8, 7)])
def test_decoder_rejects_an_empty_interval(lo, hi):
    decoder = RangeDecoder(bytes(range(1, 9)))
    decoder.decode_freq()
    with pytest.raises(InvalidInputError, match="^invalid frequency interval$"):
        decoder.decode_update(lo, hi)


@pytest.mark.parametrize("text, error", [(None, IoError), ("1,2\n3,x\n", InvalidInputError)])
def test_feature_csv_errors(tmp_path, text, error):
    # An unreadable path is an I/O error, a malformed file an input error; each
    # carries numpy's own reason.
    path = tmp_path / "feats.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises((OSError, ValueError)) as cause:
        np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    prefix = "cannot read features" if error is IoError else "malformed feature csv"
    with pytest.raises(error, match=f"^{re.escape(f'{prefix}: {cause.value}')}$") as raised:
        load_features_csv(path)
    assert type(raised.value) is error
