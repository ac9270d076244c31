"""Tests for the toy language model, exits, branches, and sampling."""

import itertools
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from aiflow import toylm
from aiflow.errors import InvalidInputError, InvalidTokenError
from aiflow.familial import whiten
from aiflow.numerics import Rng
from aiflow.toylm import (
    ExitActivation,
    LmDecoder,
    TokenDistribution,
    ToyLm,
    ToyLmConfig,
    attach_branch,
    build,
    calibration_activations,
    forward_exit,
    forward_full,
    load_model,
    resume_from,
    save_model,
)


@pytest.fixture(scope="module")
def lm():
    return build(ToyLmConfig(seed=2024))


# --- construction -------------------------------------------------------------

def test_build_is_deterministic():
    a = build(ToyLmConfig(seed=5))
    b = build(ToyLmConfig(seed=5))
    assert np.array_equal(a.embedding, b.embedding)
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))
    assert np.array_equal(a.lm_head, b.lm_head)


def test_build_different_seeds_differ():
    a = build(ToyLmConfig(seed=5))
    b = build(ToyLmConfig(seed=6))
    assert not np.array_equal(a.embedding, b.embedding)


def test_build_rejects_invalid_config():
    with pytest.raises(InvalidInputError):
        ToyLmConfig(vocab_size=1)
    with pytest.raises(InvalidInputError):
        ToyLmConfig(num_layers=0)
    with pytest.raises(InvalidInputError):
        ToyLmConfig(context_window=0)


@pytest.mark.parametrize("field, value, minimum", [
    ("context_window", 2.5, 1), ("vocab_size", 2.5, 2), ("embed_dim", True, 1),
    ("num_layers", "3", 1), ("seed", 1.5, 0),
])
def test_config_sizes_must_be_ints(field, value, minimum):
    message = re.escape(f"{field} must be an int >= {minimum}, got {value!r}")
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        ToyLmConfig(**{field: value})


# --- forward passes -------------------------------------------------------------

def test_model_coerces_list_weights(lm):
    listed = ToyLm(config=lm.config, embedding=lm.embedding.tolist(),
                   blocks=[w.tolist() for w in lm.blocks], lm_head=lm.lm_head.tolist())
    assert isinstance(listed.blocks, tuple)
    assert all(w.dtype == np.float64 for w in (listed.embedding, *listed.blocks, listed.lm_head))
    assert forward_full(listed, [1, 2]).probs.tobytes() == forward_full(lm, [1, 2]).probs.tobytes()


def test_model_keeps_float64_weights_without_copying(lm):
    again = replace(lm, branches={})
    assert again.embedding is lm.embedding and again.lm_head is lm.lm_head
    assert all(a is b for a, b in zip(again.blocks, lm.blocks))


@pytest.mark.parametrize("change, message", [
    ({"embedding": np.zeros((31, 16))}, "embedding must have shape (32, 16), got (31, 16)"),
    ({"lm_head": np.zeros(16)}, "lm_head must be 2-D, got shape (16,)"),
    ({"lm_head": np.full((32, 16), np.nan)}, "lm_head contains NaN or Inf"),
    ({"blocks": (np.zeros((16, 16)),) * 7}, "blocks must be a list or tuple of 8 matrices"),
    ({"blocks": np.zeros((8, 16, 16))}, "blocks must be a list or tuple of 8 matrices"),
    ({"blocks": (np.zeros((16, 16)),) * 7 + (np.zeros((16, 15)),)},
     "blocks[7] must have shape (16, 16), got (16, 15)"),
    ({"blocks": (np.zeros((16, 16)),) * 2 + ([[np.inf]],) + (np.zeros((16, 16)),) * 5},
     "blocks[2] contains NaN or Inf"),
    ({"config": "tiny"}, "config must be a ToyLmConfig, got 'tiny'"),
    ({"branches": [1]}, "branches must be a dict, got list"),
    ({"branches": {8: None}},
     "branches[8] must be a DecomposedLayer of a 16 x 16 block at an exit in 1..7"),
])
def test_model_checks_its_weights_against_config(lm, change, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        replace(lm, **change)


def test_empty_context_gives_uniform_distribution(lm):
    # The zero start vector normalizes to zero, so all logits are equal and
    # the softmax is exactly uniform.
    dist = forward_full(lm, [])
    assert np.allclose(dist.probs, 1.0 / lm.config.vocab_size, atol=1e-15)


def test_distributions_are_normalized_and_positive(lm):
    rng = np.random.default_rng(8)
    for _ in range(25):
        length = int(rng.integers(0, 9))
        context = rng.integers(0, lm.config.vocab_size, size=length).tolist()
        dist = forward_full(lm, context)
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12
        assert np.all(dist.probs > 0.0)


def test_only_window_tokens_matter(lm):
    context = [3, 9, 1, 4, 1, 5]
    permuted = [9, 3, 1, 4, 1, 5]  # differs only beyond the last 4 tokens
    a = forward_full(lm, context)
    b = forward_full(lm, permuted)
    assert np.array_equal(a.probs, b.probs)


def test_out_of_range_token_rejected(lm):
    with pytest.raises(InvalidTokenError):
        forward_full(lm, [lm.config.vocab_size])
    with pytest.raises(InvalidTokenError):
        forward_full(lm, [-1])


BAD_CONTEXTS = [
    ([-1] + [0] * 4999, "token -1 outside vocabulary of 32"),
    ([0] * 4999 + [32], "token 32 outside vocabulary of 32"),
    ([1, True, 2], "token True is not an integer"),
    ([1, 2.0], "token 2.0 is not an integer"),
    ([3, "a"], "token 'a' is not an integer"),
    ([np.int64(3), np.int64(40)], "token 40 outside vocabulary of 32"),
]


@pytest.mark.parametrize("context, message", BAD_CONTEXTS)
def test_bad_token_named_anywhere_in_context(lm, context, message):
    with pytest.raises(InvalidTokenError, match=f"^{re.escape(message)}$"):
        forward_full(lm, context)
    with pytest.raises(InvalidTokenError, match=f"^{re.escape(message)}$"):
        forward_exit(lm, context, 2)


def test_numpy_integer_tokens_accepted(lm):
    plain = [3, 1, 4, 1, 5, 9]
    want = forward_full(lm, plain).probs
    assert np.array_equal(forward_full(lm, [np.int64(t) for t in plain]).probs, want)
    assert np.array_equal(forward_full(lm, np.array(plain, dtype=np.int32)).probs, want)
    assert np.array_equal(forward_exit(lm, np.array(plain), 3)[0].probs,
                          forward_exit(lm, plain, 3)[0].probs)


def test_exit_at_top_equals_full(lm):
    context = [1, 2, 3]
    dist, act = forward_exit(lm, context, lm.config.num_layers)
    full = forward_full(lm, context)
    assert np.array_equal(dist.probs, full.probs)
    assert act.exit_index == lm.config.num_layers


def test_exit_index_validation(lm):
    with pytest.raises(InvalidInputError):
        forward_exit(lm, [1], 0)
    with pytest.raises(InvalidInputError):
        forward_exit(lm, [1], lm.config.num_layers + 1)


@pytest.mark.parametrize("exit_index", [True, False, 2.0, np.int64(2), "2", 0, 9])
def test_exit_index_must_be_an_int_in_range(lm, exit_index):
    message = re.escape(f"exit index must be in 1..8, got {exit_index}")
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        forward_exit(lm, [1], exit_index)
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        LmDecoder(lm, exit_index)
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        calibration_activations(lm, exit_index, num_contexts=4)


def test_decoder_checks_its_exit_index_once(lm, monkeypatch):
    calls = [0]
    check_exit = toylm._check_exit

    def counting(model, exit_index):
        calls[0] += 1
        check_exit(model, exit_index)

    monkeypatch.setattr(toylm, "_check_exit", counting)
    decoder = LmDecoder(lm, 2)
    for length in range(6):
        decoder.next_dist(list(range(length)))
    assert calls[0] == 1
    forward_exit(lm, [1], 2)
    assert calls[0] == 2


@pytest.mark.parametrize("exit_index", [True, 2.0, np.int64(2), "2", None])
def test_exit_activation_rejects_a_non_int_exit(lm, exit_index):
    with pytest.raises(InvalidInputError, match="^exit index must be an int, got "):
        ExitActivation(exit_index=exit_index, state=np.zeros(lm.config.embed_dim))


# --- resume alignment -------------------------------------------------------------

def test_resume_reproduces_full_pass_everywhere(lm):
    rng = np.random.default_rng(9)
    for _ in range(20):
        length = int(rng.integers(0, 7))
        context = rng.integers(0, lm.config.vocab_size, size=length).tolist()
        full = forward_full(lm, context)
        for exit_index in range(1, lm.config.num_layers + 1):
            _, act = forward_exit(lm, context, exit_index)
            resumed = resume_from(lm, act)
            assert np.allclose(resumed.probs, full.probs, atol=1e-12, rtol=0)


def test_resume_validation(lm):
    with pytest.raises(InvalidInputError):
        resume_from(lm, ExitActivation(exit_index=0, state=np.zeros(lm.config.embed_dim)))
    with pytest.raises(InvalidInputError):
        ExitActivation(exit_index=1, state=np.array([np.nan] * lm.config.embed_dim))
    with pytest.raises(InvalidInputError):
        resume_from(lm, ExitActivation(exit_index=1, state=np.zeros(3)))


# --- branches ---------------------------------------------------------------------

def _branch_context(lm, exit_index):
    feats = calibration_activations(lm, exit_index, num_contexts=64, seed=11)
    return whiten(feats)


def test_attach_branch_parameter_accounting(lm):
    assert lm.config.embed_dim == 16
    ctx = _branch_context(lm, 2)
    with_branch = attach_branch(lm, 2, 0.75, ctx)
    branch = with_branch.branches[2]
    h = branch.hidden_dim
    m, n = branch.source_dims
    assert h == 6 and (m, n) == (16, 16)
    assert h * (m + n) == 2 * 16 * 6 == 192
    # One dense block holds d*d = 256 parameters; 192 is 0.75 of that.
    assert h * (m + n) == pytest.approx(0.75 * 256)

    parity = attach_branch(lm, 2, 1.0, ctx).branches[2]
    assert parity.hidden_dim * sum(parity.source_dims) == 16 * 16


def test_attach_branch_changes_exit_distribution(lm):
    ctx = _branch_context(lm, 2)
    with_branch = attach_branch(lm, 2, 0.75, ctx)
    context = [4, 7, 7, 1]
    plain, _ = forward_exit(lm, context, 2)
    branched, act = forward_exit(with_branch, context, 2)
    assert not np.array_equal(plain.probs, branched.probs)
    # The captured activation stays pre-branch: resuming still matches the trunk.
    assert np.allclose(
        resume_from(with_branch, act).probs, forward_full(lm, context).probs, atol=1e-12
    )


def test_attach_branch_leaves_original_untouched(lm):
    ctx = _branch_context(lm, 3)
    newer = attach_branch(lm, 3, 0.5, ctx)
    assert 3 in newer.branches
    assert 3 not in lm.branches


def test_attach_branch_validation(lm):
    ctx = _branch_context(lm, 2)
    with pytest.raises(InvalidInputError):
        attach_branch(lm, lm.config.num_layers, 0.75, ctx)
    with pytest.raises(InvalidInputError):
        attach_branch(lm, 2, 0.0, ctx)
    with pytest.raises(InvalidInputError):
        attach_branch(lm, 2, 1.5, ctx)


@pytest.mark.parametrize("ratio", ["0.5", True, None, [0.5]])
def test_attach_branch_ratio_must_be_a_real(lm, ratio):
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"compression_ratio must be a real in (0, 1], got {ratio!r}")):
        attach_branch(lm, 1, ratio, _branch_context(lm, 1))


def test_attach_branch_accepts_a_numpy_ratio(lm):
    ctx = _branch_context(lm, 2)
    branch = attach_branch(lm, 2, np.float64(0.75), ctx).branches[2]
    assert branch.hidden_dim == 6
    assert np.array_equal(branch.product(), attach_branch(lm, 2, 0.75, ctx).branches[2].product())


@pytest.mark.parametrize("exit_index", [True, 2.0])
def test_attach_branch_exit_must_be_an_int(lm, exit_index):
    with pytest.raises(InvalidInputError, match="^exit index must leave at least one"):
        attach_branch(lm, exit_index, 0.75, _branch_context(lm, 2))


# --- sampling ---------------------------------------------------------------------
# Drafting samples a token as inverse_cdf(probs, u) from one uniform() draw.

def test_sample_one_hot_is_certain():
    probs = np.zeros(6)
    probs[3] = 1.0
    rng = Rng(1)
    assert all(toylm.inverse_cdf(probs, rng.uniform()) == 3 for _ in range(100))


def test_sample_uniform_frequencies():
    probs = np.full(4, 0.25)
    rng = Rng(99)
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        counts[toylm.inverse_cdf(probs, rng.uniform())] += 1
    assert np.all(np.abs(counts / n - 0.25) < 0.01)


def test_sample_reproducible(lm):
    probs = forward_full(lm, [1, 2]).probs
    a = [toylm.inverse_cdf(probs, Rng(7).uniform()) for _ in range(1)]
    b = [toylm.inverse_cdf(probs, Rng(7).uniform()) for _ in range(1)]
    assert a == b
    seq_a, seq_b = Rng(13), Rng(13)
    assert [toylm.inverse_cdf(probs, seq_a.uniform()) for _ in range(50)] == [
        toylm.inverse_cdf(probs, seq_b.uniform()) for _ in range(50)
    ]


def test_token_distribution_validation():
    with pytest.raises(InvalidInputError):
        TokenDistribution(probs=np.array([0.5, 0.6]))
    with pytest.raises(InvalidInputError):
        TokenDistribution(probs=np.array([-0.1, 1.1]))


@pytest.mark.parametrize("probs, message", [
    (np.array([np.nan, 1.0]), "probs contains NaN or Inf"),
    (np.array([np.inf, 0.0]), "probs contains NaN or Inf"),
    (np.array([-np.inf, 1.0]), "probs contains NaN or Inf"),
    (np.array([-0.25, 1.25]), "probabilities must be non-negative"),
    (np.array([]), "probabilities must sum to 1"),
    (np.array([[0.5, 0.5]]), "probs must be 1-D, got shape (1, 2)"),
    (np.array([0.5, 0.5 + 2e-12]), "probabilities must sum to 1"),
    (np.array([0.5, 0.6], dtype=np.float32), "probabilities must sum to 1"),
])
def test_token_distribution_rejects_with_named_reason(probs, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        TokenDistribution(probs=probs)


def test_token_distribution_stores_float64_vector():
    probs = np.array([0.25, 0.75])
    assert TokenDistribution(probs=probs).probs is probs
    for given in ([0.25, 0.75], np.array([0.25, 0.75], dtype=np.float32)):
        stored = TokenDistribution(probs=given).probs
        assert stored.dtype == np.float64 and stored.tolist() == [0.25, 0.75]


def test_inverse_cdf_matches_searchsorted():
    def reference(probs, u):
        cum = np.cumsum(probs)
        return min(int(np.searchsorted(cum, u, side="right")), probs.size - 1)

    rng = Rng(2718)
    for trial in range(1000):
        size = 1 + int(rng.uniform() * 40)
        probs = np.array([rng.uniform() for _ in range(size)])
        probs[probs < 0.2] = 0.0  # zero-mass tokens leave repeated cumsum values
        if not probs.any():
            probs[-1] = 1.0
        probs /= probs.sum()
        cum = np.cumsum(probs).tolist()
        # u on every cumsum value exactly, past the last one, and drawn.
        for u in [*cum, float(np.nextafter(cum[-1], 2.0)), 1.0, rng.uniform(), 0.0]:
            assert toylm.inverse_cdf(probs, u) == reference(probs, u), (trial, u)


# --- decoder adapter ----------------------------------------------------------------

def test_lm_decoder_matches_the_forwards_on_a_long_context(lm):
    decoder = LmDecoder(lm)
    assert decoder.vocab_size == lm.config.vocab_size
    long = [int(t) for t in np.arange(3000) % lm.config.vocab_size]
    assert np.array_equal(decoder.next_dist(long).probs, forward_full(lm, long).probs)
    assert np.array_equal(LmDecoder(lm, exit_index=2).next_dist(long).probs,
                          forward_exit(lm, long, 2)[0].probs)


def test_lm_decoder_full_and_exit(lm):
    context = [2, 5]
    assert np.array_equal(LmDecoder(lm).next_dist(context).probs, forward_full(lm, context).probs)
    assert np.array_equal(
        LmDecoder(lm, exit_index=2).next_dist(context).probs,
        forward_exit(lm, context, 2)[0].probs,
    )


def test_lm_decoder_exit_builds_no_activation(lm, monkeypatch):
    model = attach_branch(lm, 2, 0.75, _branch_context(lm, 2))
    decoder = LmDecoder(model, exit_index=2)
    context = [4, 7, 7, 1]
    want = forward_exit(model, context, 2)[0].probs

    def no_activation(*args, **kwargs):
        raise AssertionError("next_dist built an ExitActivation")

    monkeypatch.setattr(toylm, "ExitActivation", no_activation)
    assert decoder.next_dist(context).probs.tobytes() == want.tobytes()


# --- stacked forwards ---------------------------------------------------------------

def test_stacked_products_equal_per_row_products():
    # Stacked calibration rests on these identities: w @ over a stack of
    # column vectors runs, per row, the matrix-vector product w @ x runs,
    # and a window sum over a stack adds in the same order as over one
    # window. A numpy or BLAS build that breaks either would change sampled
    # tokens, so it fails here first.
    rng = np.random.default_rng(2024)
    for _ in range(300):
        rows, cols, count = (int(n) for n in rng.integers((1, 1, 1), (97, 65, 9)))
        w = rng.standard_normal((rows, cols))
        xs = rng.standard_normal((count, cols))
        stacked = (w @ xs[:, :, None])[:, :, 0]
        windows = rng.integers(0, rows, size=(count, int(rng.integers(1, 17))))
        sums = w[windows].sum(axis=1)
        for i in range(count):
            assert stacked[i].tobytes() == (w @ xs[i]).tobytes()
            assert sums[i].tobytes() == w[windows[i]].sum(axis=0).tobytes()


def _branched(d, window, seed):
    lm = build(ToyLmConfig(vocab_size=40, embed_dim=d, num_layers=4, context_window=window,
                           seed=seed))
    return attach_branch(lm, 2, 0.5, whiten(calibration_activations(lm, 2, 64, seed)))


def test_initial_state_gather_equals_fancy_indexing():
    rng = np.random.default_rng(31)
    for _ in range(600):
        vocab, d, window = (int(n) for n in rng.integers((2, 4, 1), (65, 49, 13)))
        model = ToyLm(config=ToyLmConfig(vocab_size=vocab, embed_dim=d, num_layers=1,
                                         context_window=window),
                      embedding=rng.standard_normal((vocab, d)), blocks=(np.zeros((d, d)),),
                      lm_head=rng.standard_normal((vocab, d)))
        tokens = rng.integers(0, vocab, size=int(rng.integers(1, 2 * window + 1))).tolist()
        tail = tokens[-window:]
        want = model.embedding[tail].sum(axis=0) / len(tail)
        assert toylm._initial_state(model, tokens).tobytes() == want.tobytes()
        empty = toylm._initial_state(model, [])
        assert empty.shape == (d,) and not empty.any()


# --- one block kernel -------------------------------------------------------------

@pytest.fixture
def block_calls(monkeypatch):
    """A one-item list counting toylm._apply_block calls, on one state or a stack."""
    calls = [0]
    apply_block = toylm._apply_block

    def counting(w, x):
        calls[0] += 1
        return apply_block(w, x)

    monkeypatch.setattr(toylm, "_apply_block", counting)
    return calls


@pytest.mark.parametrize("num_contexts", [1, 64])
@pytest.mark.parametrize("exit_index", [1, 3, 8])
def test_calibration_applies_each_block_once_to_the_stack(lm, block_calls, exit_index,
                                                          num_contexts):
    calibration_activations(lm, exit_index, num_contexts)
    assert block_calls == [exit_index]


# --- familial chains ----------------------------------------------------------------

def _with_branches(layers, seed):
    """A ToyLm with a branch at every odd exit that leaves a later block."""
    model = build(ToyLmConfig(vocab_size=24, embed_dim=8, num_layers=layers,
                              context_window=4, seed=seed))
    for exit_index in range(1, layers, 2):
        ctx = whiten(calibration_activations(model, exit_index, 32, seed))
        model = attach_branch(model, exit_index, 0.5, ctx)
    return model


def _contexts(seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 24, size=n).tolist() for n in (0, 1, 3, 4, 5, 11)]


def _check_chain(chain, contexts, next_dist_calls, own_calls):
    """chain_scorer(chain) byte-equals each tier's next_dist, with own_calls next_dist calls."""
    want = [tuple(d.next_dist(c).probs.tobytes() for d in chain) for c in contexts]
    calls = next_dist_calls[0]
    score = toylm.chain_scorer(chain)
    for context, expected in zip(contexts, want):
        before = list(context)
        assert tuple(p.probs.tobytes() for p in score(context)) == expected, \
            ([getattr(d, "exit_index", d) for d in chain], len(context))
        assert context == before
    assert next_dist_calls[0] - calls == own_calls * len(contexts)


@pytest.mark.parametrize("branches", [False, True], ids=["plain", "branches"])
@pytest.mark.parametrize("layers", range(1, 7))
def test_chain_scorer_equals_the_next_dist_calls(layers, branches, next_dist_calls):
    model = (_with_branches(layers, seed=layers) if branches else
             build(ToyLmConfig(vocab_size=24, embed_dim=8, num_layers=layers,
                               context_window=4, seed=layers)))
    exits = [*range(1, layers + 1), None]
    contexts = _contexts(layers)
    # Every non-decreasing exit tuple of 2 and 3 tiers shares its trunk: no
    # next_dist call is needed.
    for size in (2, 3):
        for picked in itertools.combinations_with_replacement(exits, size):
            _check_chain([LmDecoder(model, e) for e in picked], contexts, next_dist_calls, 0)


def test_chain_scorer_calls_next_dist_for_each_unshared_tier(next_dist_calls):
    lm = _with_branches(6, seed=6)
    twin = replace(lm)  # equal weights, another model object

    class Wrapped:
        def __init__(self, decoder):
            self.decoder = decoder

        def next_dist(self, context):
            return self.decoder.next_dist(context)

    class Subclass(LmDecoder):
        def next_dist(self, context):
            return super().next_dist(context)

    device, edge, cloud = LmDecoder(lm, 1), LmDecoder(lm, 3), LmDecoder(lm)
    chains = [
        ((LmDecoder(lm, 3), LmDecoder(lm, 2)), 2),  # shallower verifier
        ((device, LmDecoder(twin)), 2),  # another model
        ((cloud, LmDecoder(lm, 6)), 2),  # None comes after every exit
        ((Wrapped(device), cloud), 2),  # a wrapped or derived decoder is not familial
        ((device, Subclass(lm)), 2),
        ((device, edge, LmDecoder(twin)), 1),  # a familial pair, then another cloud
        ((LmDecoder(twin, 2), edge, cloud), 1),  # another device, then a familial pair
        ((device, LmDecoder(twin, 2), cloud), 3),  # a familial run must be consecutive
        ((device, LmDecoder(lm, 4), edge), 1),  # the run ends where exits decrease
    ]
    contexts = _contexts(6)
    for chain, own_calls in chains:
        _check_chain(chain, contexts, next_dist_calls, own_calls)


def test_trunk_dists_checks_the_window_once(lm, monkeypatch):
    checked = []
    check_tokens = toylm.check_tokens

    def counting(context, vocab_size):
        checked.append(len(context))
        return check_tokens(context, vocab_size)

    monkeypatch.setattr(toylm, "check_tokens", counting)
    window = lm.config.context_window
    stale = [99] + [1] * window  # only the window is read, as by next_dist
    p_d, p_e, p_t = toylm.chain_scorer([LmDecoder(lm, 2), LmDecoder(lm, 5), LmDecoder(lm)])(stale)
    assert checked == [window]
    assert p_t.probs.tobytes() == forward_full(lm, stale[1:]).probs.tobytes()
    with pytest.raises(InvalidTokenError, match="^token 32 outside vocabulary of 32$"):
        toylm.trunk_dists(lm, (2, None), [0, 32])


# --- persistence ------------------------------------------------------------------

def test_model_container_roundtrip(tmp_path, lm):
    ctx = _branch_context(lm, 2)
    model = attach_branch(lm, 2, 0.75, ctx)
    path = tmp_path / "model.toyl"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert np.array_equal(loaded.embedding, model.embedding)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.blocks, model.blocks))
    assert np.array_equal(loaded.lm_head, model.lm_head)
    assert set(loaded.branches) == {2}
    assert np.array_equal(loaded.branches[2].w_u, model.branches[2].w_u)
    assert np.array_equal(loaded.branches[2].w_v, model.branches[2].w_v)
    context = [3, 1, 0, 2]
    assert np.array_equal(
        forward_exit(loaded, context, 2)[0].probs, forward_exit(model, context, 2)[0].probs
    )


@pytest.mark.parametrize("first_exit, second_exit, rank, message", [
    (0, 5, None, "exits must ascend within 1..7"),
    (8, 5, None, "exits must ascend within 1..7"),
    (2, 2, None, "exits must ascend within 1..7"),
    (5, 2, None, "exits must ascend within 1..7"),
    (2, 5, 0, "hidden_dim must be in 1..min"),
])
def test_model_container_rejects_bad_branch_records(
    tmp_path, lm, first_exit, second_exit, rank, message
):
    model = attach_branch(attach_branch(lm, 2, 0.75, _branch_context(lm, 2)),
                          5, 0.75, _branch_context(lm, 5))
    path = tmp_path / "model.toyl"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    cfg, h = model.config, model.branches[2].hidden_dim
    first = 29 + 8 * (2 * cfg.vocab_size + cfg.num_layers * cfg.embed_dim) * cfg.embed_dim + 4
    second = first + 8 + 8 * 2 * cfg.embed_dim * h
    struct.pack_into("<I", blob, first, first_exit)
    struct.pack_into("<I", blob, second, second_exit)
    if rank is not None:
        struct.pack_into("<I", blob, second + 4, rank)
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        load_model(path)


@pytest.mark.parametrize("tensor, value", [
    ("embedding", np.nan), ("blocks[1]", np.inf), ("lm_head", -np.inf),
    ("branches[2].w_u", np.nan), ("branches[2].w_v", np.inf),
])
def test_model_container_rejects_non_finite_weights(tmp_path, lm, tensor, value):
    model = attach_branch(lm, 2, 0.75, _branch_context(lm, 2))
    branch = model.branches[2]
    weights = {
        "embedding": model.embedding, "lm_head": model.lm_head,
        "branches[2].w_u": branch.w_u, "branches[2].w_v": branch.w_v,
        **{f"blocks[{i}]": b for i, b in enumerate(model.blocks)},
    }
    path = tmp_path / "bad.toyl"
    save_model(model, path)
    # Write the bad weight into the saved file: a DecomposedLayer rejects one in memory.
    blob, weight = path.read_bytes(), struct.pack("<d", weights[tensor][0, -1])
    assert blob.count(weight) == 1
    path.write_bytes(blob.replace(weight, struct.pack("<d", value)))
    with pytest.raises(InvalidInputError, match=f"^{re.escape(tensor)} contains NaN or Inf$"):
        load_model(path)


def test_model_container_rejects_corruption(tmp_path, lm):
    path = tmp_path / "model.toyl"
    save_model(lm, path)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("Z")
    bad = tmp_path / "bad.toyl"
    bad.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError):
        load_model(bad)
    short = tmp_path / "short.toyl"
    short.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(InvalidInputError):
        load_model(short)


# --- calibration corpus --------------------------------------------------------------

def test_calibration_activations_deterministic(lm):
    a = calibration_activations(lm, 2, num_contexts=32, seed=3)
    b = calibration_activations(lm, 2, num_contexts=32, seed=3)
    c = calibration_activations(lm, 2, num_contexts=32, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (lm.config.embed_dim, 32)


@pytest.mark.parametrize("num_contexts", [0, 2.5, True])
def test_calibration_activations_rejects_bad_context_count(lm, num_contexts):
    with pytest.raises(InvalidInputError, match="num_contexts must be an int >= 1"):
        calibration_activations(lm, 2, num_contexts=num_contexts)


def test_calibration_activations_are_exit_states_without_the_head(lm, monkeypatch):
    model = attach_branch(lm, 2, 0.75, _branch_context(lm, 2))
    vocab, window = model.config.vocab_size, model.config.context_window
    rng = Rng(5)
    contexts = [[min(int(rng.uniform() * vocab), vocab - 1) for _ in range(window)]
                for _ in range(40)]
    want = np.stack([forward_exit(model, c, 2)[1].state for c in contexts], axis=1)

    def no_head(*args):
        raise AssertionError("calibration_activations ran the head")

    monkeypatch.setattr(toylm, "_head", no_head)
    got = calibration_activations(model, 2, num_contexts=40, seed=5)
    assert got.tobytes() == want.tobytes()
    with pytest.raises(InvalidInputError, match=re.escape("exit index must be in 1..8, got 9")):
        calibration_activations(model, 9)


@pytest.mark.parametrize("d, window, exit_index", [(8, 4, 1), (16, 8, 2), (32, 9, 3), (64, 5, 4)])
def test_calibration_activations_are_per_column_exit_states(d, window, exit_index):
    model = _branched(d, window, seed=d + window)
    vocab = model.config.vocab_size
    rng = Rng(13)
    contexts = [[min(int(rng.uniform() * vocab), vocab - 1) for _ in range(window)]
                for _ in range(50)]
    want = np.stack([forward_exit(model, c, exit_index)[1].state for c in contexts], axis=1)
    got = calibration_activations(model, exit_index, num_contexts=50, seed=13)
    assert got.shape == (d, 50) and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_build_and_calibration_make_no_scalar_draws(monkeypatch):
    # Reference from the scalar generator first: one normal() per weight in
    # the documented order, one uniform() per calibration token.
    cfg = ToyLmConfig(vocab_size=64, embed_dim=32, num_layers=6, context_window=8, seed=41)
    vocab, d, window = cfg.vocab_size, cfg.embed_dim, cfg.context_window
    scalar = Rng(cfg.seed)
    weights = np.array([scalar.normal() for _ in range((2 * vocab + 6 * d) * d)])
    weights = weights.reshape(-1, d) * (1.0 / np.sqrt(d))
    lm = build(cfg)
    scalar = Rng(7_117)
    contexts = [[min(int(scalar.uniform() * vocab), vocab - 1) for _ in range(window)]
                for _ in range(256)]
    want = np.stack([forward_exit(lm, c, 2)[1].state for c in contexts], axis=1)

    calls = {"uniform": 0, "normal": 0}
    for name in calls:
        def counted(self, _draw=getattr(Rng, name), _name=name):
            calls[_name] += 1
            return _draw(self)
        monkeypatch.setattr(Rng, name, counted)
    built = build(cfg)
    got = calibration_activations(built, 2, num_contexts=256)
    assert calls == {"uniform": 0, "normal": 0}
    assert built.embedding.tobytes() == weights[:vocab].tobytes()
    assert b"".join(w.tobytes() for w in built.blocks) == weights[vocab:-vocab].tobytes()
    assert built.lm_head.tobytes() == weights[-vocab:].tobytes()
    assert got.tobytes() == want.tobytes()


# Documented input errors that no other test reaches, each with its exact message.
@pytest.mark.parametrize("make, message", [
    (lambda lm: ToyLmConfig(seed=1 << 64), "seed must fit in 64 bits"),
    # round(0.05 * 16 / 2) is rank 0.
    (lambda lm: attach_branch(lm, 2, 0.05, _branch_context(lm, 2)),
     "ratio 0.05 gives rank 0 at width 16"),
])
def test_documented_input_errors(lm, make, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        make(lm)
