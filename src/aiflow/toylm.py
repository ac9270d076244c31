"""A seeded toy language model with per-layer exit points and a shared head.

The model is deliberately small and attention-free: token embeddings are
averaged over a fixed context window, each block applies the residual update
x <- x + tanh(W_l x), and a shared head computes softmax(lm_head @ normalize(x))
where normalize subtracts the mean and divides by the RMS (with a 1e-12 floor
inside the square root so the empty-context zero vector stays well defined).

Exit points sit after every block. An activation captured at exit l can be
resumed through blocks l+1..L to reproduce the full forward pass exactly.
Decoding relies on that alignment: trunk_dists scores an exit-l drafter and
a deeper verifier on one model with one trunk pass, the verifier resuming
the drafter's pre-branch state, and both distributions are byte-identical
to separate forwards. A branch attached at exit l is a whitened low-rank
stand-in for block l+1, applied in the same residual form
(x <- x + tanh(w_u @ (w_v @ x))) before the head, and only affects the
early-exit prediction, never the resumed trunk.

Every forward walks the trunk through one walker, _walk, which applies
blocks with the one block kernel, _apply_block, and the branch rule is
written once, in _branch. Both take one state of shape (d,) or a stack of
states as columns, shape (n, d, 1): a verifier scoring a drafted batch, or
calibration. @ is np.matmul, so on a stack each product is a stack of
matrix-vector products, each the BLAS gemv that w @ x runs on one state,
where the matrix-matrix product w @ X.T would round differently. So every
stacked row has the bytes of its own vector forward. Window sums reduce
over a non-contiguous axis in window order, as the vector sum does, and the
head's reductions run along each row exactly as over one vector.

Everything is deterministic: weights come from one seeded Rng in a documented
order (embedding rows, then each block, then the head, all row-major, every
entry scaled by 1/sqrt(d)).
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import InvalidInputError, InvalidTokenError, IoError
from .familial import DecomposedLayer, WhiteningContext, decompose_layer
from .numerics import Rng, require_int, require_matrix, require_vector

_TOYL_MAGIC = b"TOYL"
_TOYL_VERSION = 1
_RMS_FLOOR = 1e-12


@dataclass(frozen=True)
class ToyLmConfig:
    vocab_size: int = 32
    embed_dim: int = 16
    num_layers: int = 8
    context_window: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("vocab_size", 2), ("embed_dim", 1), ("num_layers", 1),
                              ("context_window", 1), ("seed", 0)):
            require_int(name, getattr(self, name), minimum)
        if self.seed >= 1 << 64:
            raise InvalidInputError("seed must fit in 64 bits")


@dataclass(frozen=True)
class TokenDistribution:
    """Probability vector over the vocabulary."""

    probs: np.ndarray

    def __post_init__(self):
        p = self.probs
        # Two C-level reductions accept a 1-D float64 array: min >= 0 is
        # false for NaN and -inf, |sum - 1| <= 1e-12 is false for +inf, so
        # together they imply finite, non-negative and normalised. Anything
        # else takes the checks below, which name what is wrong.
        if (type(p) is np.ndarray and p.dtype == np.float64 and p.ndim == 1 and p.size
                and p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-12):
            return
        vec = require_vector(p, "probs")
        if np.any(vec < 0.0):
            raise InvalidInputError("probabilities must be non-negative")
        if abs(float(vec.sum()) - 1.0) > 1e-12:
            raise InvalidInputError("probabilities must sum to 1")
        object.__setattr__(self, "probs", vec)


@dataclass(frozen=True)
class ExitActivation:
    """Hidden state captured at an exit point, before any branch."""

    exit_index: int
    state: np.ndarray

    def __post_init__(self):
        if not _is_int(self.exit_index):
            raise InvalidInputError(f"exit index must be an int, got {self.exit_index!r}")
        object.__setattr__(self, "state", require_vector(self.state, "state"))


@dataclass(frozen=True)
class ToyLm:
    config: ToyLmConfig
    embedding: np.ndarray
    blocks: tuple[np.ndarray, ...]
    lm_head: np.ndarray
    branches: dict[int, DecomposedLayer] = field(default_factory=dict)


def build(config: ToyLmConfig) -> ToyLm:
    """Materialize the model weights for a config.

    Draw order (one seeded generator, row-major within each matrix):
    embedding (vocab x d), blocks 0..L-1 (each d x d), lm_head (vocab x d).
    Every entry is a standard normal scaled by 1/sqrt(d). The matrices are
    consecutive row blocks of one normal_matrix draw, d columns wide.
    """
    d, vocab, layers = config.embed_dim, config.vocab_size, config.num_layers
    weights = Rng(config.seed).normal_matrix(2 * vocab + layers * d, d) * (1.0 / math.sqrt(d))
    blocks = tuple(weights[vocab + i * d : vocab + (i + 1) * d] for i in range(layers))
    return ToyLm(
        config=config, embedding=weights[:vocab], blocks=blocks, lm_head=weights[-vocab:]
    )


def check_tokens(context, vocab_size: int) -> list[int]:
    """context as a new list of plain ints in [0, vocab_size).

    A bad token raises InvalidTokenError naming it: the first non-integer
    (or bool) token if there is one, else the first one outside the vocabulary.
    """
    tokens = list(context)
    # C-level passes only: exact ints (no bool) inside the vocabulary. Any
    # other context takes the loops, which name the first bad token.
    if set(map(type, tokens)) == {int} and 0 <= min(tokens) and max(tokens) < vocab_size:
        return tokens
    for t in tokens:
        if not isinstance(t, (int, np.integer)) or isinstance(t, bool):
            raise InvalidTokenError(f"token {t!r} is not an integer")
    tokens = [int(t) for t in tokens]
    for t in tokens:
        if not 0 <= t < vocab_size:
            raise InvalidTokenError(f"token {t} outside vocabulary of {vocab_size}")
    return tokens


def _check_context(lm: ToyLm, context) -> list[int]:
    return check_tokens(context, lm.config.vocab_size)


def _initial_state(lm: ToyLm, tokens: list[int]) -> np.ndarray:
    window = tokens[-lm.config.context_window :]
    if not window:
        return np.zeros(lm.config.embed_dim)
    # take gathers the rows fancy indexing would, with less overhead per
    # call; sum / count is the arithmetic of ndarray.mean, without its wrappers.
    return lm.embedding.take(window, axis=0).sum(axis=0) / len(window)


def _window_states(lm: ToyLm, tokens: list[int], count: int) -> np.ndarray:
    """count x d initial states: row i for tokens[: len(tokens) - count + 1 + i].

    When every one of those windows is full, one gather sums them all.
    """
    window = lm.config.context_window
    first = len(tokens) - count + 1
    if first < window:
        return np.stack([_initial_state(lm, tokens[: first + i]) for i in range(count)])
    tail = np.array(tokens[first - window :])
    return _gather_states(lm, tail[np.arange(count)[:, None] + np.arange(window)])


def _gather_states(lm: ToyLm, windows: np.ndarray) -> np.ndarray:
    """Initial states of full windows, one per row of a count x window token matrix."""
    return lm.embedding[windows].sum(axis=1) / windows.shape[1]


def _normalize(x: np.ndarray) -> np.ndarray:
    centered = x - x.sum() / x.size
    rms = math.sqrt(float((centered * centered).sum()) / x.size + _RMS_FLOOR)
    return centered / rms


def _head(lm: ToyLm, x: np.ndarray) -> TokenDistribution:
    logits = lm.lm_head @ _normalize(x)
    logits = logits - logits.max()
    expd = np.exp(logits)
    return TokenDistribution(probs=expd / expd.sum())


def _heads(lm: ToyLm, xs: np.ndarray) -> list[TokenDistribution]:
    """_head of each row of xs, with _normalize and the softmax done per row."""
    size = xs.shape[1]
    centered = xs - (xs.sum(axis=1) / size)[:, None]
    rms = np.sqrt((centered * centered).sum(axis=1) / size + _RMS_FLOOR)
    logits = np.matmul(lm.lm_head, (centered / rms[:, None])[:, :, None])[:, :, 0]
    logits = logits - logits.max(axis=1)[:, None]
    expd = np.exp(logits)
    probs = expd / expd.sum(axis=1)[:, None]
    return [TokenDistribution(probs=p) for p in probs]


def _apply_block(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x + np.tanh(w @ x)


def _walk(lm: ToyLm, x: np.ndarray, start: int | None, stop: int | None) -> np.ndarray:
    """x, one state (d,) or a stack of columns (n, d, 1), through blocks[start:stop]."""
    for w in lm.blocks[start:stop]:
        x = _apply_block(w, x)
    return x


def _branch(lm: ToyLm, x: np.ndarray, exit_index: int | None) -> np.ndarray:
    """The pre-branch x at exit_index through its branch, or x itself if none is attached.

    x is one state or a stack of columns, as _walk takes it. exit_index None
    (after the last block) has no branch.
    """
    branch = lm.branches.get(exit_index)
    if branch is None:
        return x
    return x + np.tanh(branch.apply(x))


def forward_full(lm: ToyLm, context) -> TokenDistribution:
    """Distribution over the next token after running every block."""
    return _exit_forward(lm, context, None)[1]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_exit(lm: ToyLm, exit_index) -> None:
    if not _is_int(exit_index) or not 1 <= exit_index <= lm.config.num_layers:
        raise InvalidInputError(
            f"exit index must be in 1..{lm.config.num_layers}, got {exit_index}"
        )


def _exit_forward(lm: ToyLm, context, exit_index) -> tuple[np.ndarray, TokenDistribution]:
    """(pre-branch state, early prediction) at a checked exit_index; checks the context.

    exit_index None runs every block and takes the plain head.
    """
    x = _walk(lm, _initial_state(lm, _check_context(lm, context)), 0, exit_index)
    return x, _head(lm, _branch(lm, x, exit_index))


def forward_exit(lm: ToyLm, context, exit_index: int) -> tuple[TokenDistribution, ExitActivation]:
    """Early prediction at exit_index plus the resumable pre-branch activation."""
    _check_exit(lm, exit_index)
    x, dist = _exit_forward(lm, context, exit_index)
    return dist, ExitActivation(exit_index=exit_index, state=x.copy())


def resume_from(lm: ToyLm, act: ExitActivation) -> TokenDistribution:
    """Continue a captured activation through the remaining blocks and the head."""
    _check_exit(lm, act.exit_index)
    state = require_vector(act.state, "activation state")
    if state.size != lm.config.embed_dim:
        raise InvalidInputError(
            f"activation has dim {state.size}, model expects {lm.config.embed_dim}"
        )
    return _head(lm, _walk(lm, state, act.exit_index, None))


def calibration_activations(
    lm: ToyLm, exit_index: int, num_contexts: int = 256, seed: int = 7_117
) -> np.ndarray:
    """Pre-branch activations at an exit over a seeded corpus of random contexts.

    Each context is context_window tokens drawn uniformly from the
    vocabulary. Returns a C-contiguous d x num_contexts matrix (one
    activation per column), ready for whitening: column i equals
    forward_exit(lm, context_i, exit_index)[1].state, computed without the
    branch or the head, in one stacked forward.
    """
    require_int("num_contexts", num_contexts, 1)
    _check_exit(lm, exit_index)
    vocab, window = lm.config.vocab_size, lm.config.context_window
    # Equal to min(int(u * vocab), vocab - 1) per uniform() draw, in draw order.
    draws = Rng(seed).uniforms(num_contexts * window) * vocab
    tokens = np.minimum(draws.astype(np.int64), vocab - 1).reshape(num_contexts, window)
    cols = _walk(lm, _gather_states(lm, tokens)[:, :, None], 0, exit_index)
    return np.ascontiguousarray(cols[:, :, 0].T)


def attach_branch(
    lm: ToyLm, exit_index: int, compression_ratio: float, ctx: WhiteningContext
) -> ToyLm:
    """New model with a decomposed stand-in for the next block at an exit.

    The branch factors W_{exit_index+1} at rank h = round(ratio * d / 2)
    (half-up), so its 2*d*h parameters come to ~ratio times one block.
    """
    if not _is_int(exit_index) or not 1 <= exit_index < lm.config.num_layers:
        raise InvalidInputError(
            "exit index must leave at least one later block to decompose"
        )
    if not 0.0 < compression_ratio <= 1.0:
        raise InvalidInputError("compression_ratio must be in (0, 1]")
    d = lm.config.embed_dim
    h = int(math.floor(compression_ratio * d / 2.0 + 0.5))
    if h < 1:
        raise InvalidInputError(f"ratio {compression_ratio} gives rank 0 at width {d}")
    branch = decompose_layer(lm.blocks[exit_index], ctx, h)
    branches = dict(lm.branches)
    branches[exit_index] = branch
    return replace(lm, branches=branches)


def inverse_cdf(probs: np.ndarray, u: float) -> int:
    """Index of the first cumulative probability above u, clamped to the last index.

    np.cumsum adds left to right, so bisect_right over its floats picks the
    index np.searchsorted(np.cumsum(probs), u, side="right") would.
    """
    return min(bisect_right(np.cumsum(probs).tolist(), u), probs.size - 1)


@dataclass(frozen=True)
class LmDecoder:
    """Adapter giving a ToyLm the decoder interface protocols use.

    exit_index None means the full model; an integer exits early there
    (using whatever branch is attached). It must be an int in
    1..num_layers; anything else raises InvalidInputError here.
    """

    lm: ToyLm
    exit_index: int | None = None

    def __post_init__(self):
        if self.exit_index is not None:
            _check_exit(self.lm, self.exit_index)

    @property
    def vocab_size(self) -> int:
        return self.lm.config.vocab_size

    def next_dist(self, context) -> TokenDistribution:
        """Next-token distribution; the forward reads only the context window.

        Tokens before the window cannot change the result, so they are
        neither copied nor checked here: a decoding run checks its prompt
        once, against this decoder's vocab_size.
        """
        return _exit_forward(self.lm, context[-self.lm.config.context_window :], self.exit_index)[1]

    def next_dists(self, context, tokens) -> list[TokenDistribution]:
        """next_dist(context + tokens[:i]) for each i, from one stacked forward.

        Each distribution is byte-identical to the next_dist call it stands
        for. Only the context window's tail of context is read and checked,
        together with tokens.
        """
        lm, count = self.lm, len(tokens)
        if not count:
            return []
        seq = _check_context(lm, [*context[-lm.config.context_window :], *tokens])
        cols = _walk(lm, _window_states(lm, seq[:-1], count)[:, :, None], 0, self.exit_index)
        return _heads(lm, _branch(lm, cols, self.exit_index)[:, :, 0])


def pair_scorer(drafter, verifier):
    """The function context -> (drafter.next_dist(context), verifier.next_dist(context)).

    Chosen once per pair. A familial pair is two LmDecoders on the same
    ToyLm whose verifier exits at or after the drafter (None: after the last
    block); it is scored by trunk_dists, one trunk pass per context. Any
    other pair, a wrapped decoder included, gets the two next_dist calls.
    """
    if type(drafter) is LmDecoder and type(verifier) is LmDecoder and drafter.lm is verifier.lm:
        first, last = drafter.exit_index, verifier.exit_index
        if last is None or (first is not None and first <= last):
            return partial(trunk_dists, drafter.lm, first, last)
    return lambda context: (drafter.next_dist(context), verifier.next_dist(context))


def trunk_dists(lm: ToyLm, first, last, context) -> tuple[TokenDistribution, TokenDistribution]:
    """LmDecoder(lm, first) and LmDecoder(lm, last)'s next_dist(context), from one trunk pass.

    first and last are exits as LmDecoder takes them, last None or at or
    after first; pair_scorer checks that once per pair. The window is
    checked, the initial state built and blocks[:first] applied once. The
    first distribution is the head of that state, through first's branch if
    one is attached. The second continues the same pre-branch state through
    the blocks between the exits, as resume_from does, then takes last's
    branch and the head. Both are byte-identical to the next_dist calls;
    equal exits share one distribution.
    """
    x, p_d = _exit_forward(lm, context[-lm.config.context_window :], first)
    if last == first:
        return p_d, p_d
    return p_d, _head(lm, _branch(lm, _walk(lm, x, first, last), last))


def save_model(lm: ToyLm, path) -> None:
    """Write the model as a binary container.

    Layout: magic "TOYL", version byte; vocab_size, embed_dim, num_layers,
    context_window as unsigned 32-bit little-endian; seed as unsigned 64-bit
    little-endian; weights as row-major 64-bit little-endian floats in build
    order (embedding, blocks, lm_head); then a branch count (u32) followed by
    per-branch records (exit u32, h u32, w_u floats, w_v floats) in ascending
    exit order.
    """
    cfg = lm.config
    try:
        with open(path, "wb") as fh:
            fh.write(
                struct.pack(
                    "<4sBIIIIQ",
                    _TOYL_MAGIC,
                    _TOYL_VERSION,
                    cfg.vocab_size,
                    cfg.embed_dim,
                    cfg.num_layers,
                    cfg.context_window,
                    cfg.seed,
                )
            )
            fh.write(np.ascontiguousarray(lm.embedding, dtype="<f8").tobytes())
            for block in lm.blocks:
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(lm.lm_head, dtype="<f8").tobytes())
            fh.write(struct.pack("<I", len(lm.branches)))
            for exit_index in sorted(lm.branches):
                branch = lm.branches[exit_index]
                fh.write(struct.pack("<II", exit_index, branch.hidden_dim))
                fh.write(np.ascontiguousarray(branch.w_u, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(branch.w_v, dtype="<f8").tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_model(path) -> ToyLm:
    """Read a model written by save_model.

    A NaN or infinite weight raises InvalidInputError naming its tensor
    (embedding, blocks[i], lm_head, branches[exit].w_u or .w_v).
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    head_fmt = "<4sBIIIIQ"
    head_size = struct.calcsize(head_fmt)
    if len(blob) < head_size:
        raise InvalidInputError("container too short for header")
    magic, version, vocab, d, layers, window, seed = struct.unpack_from(head_fmt, blob)
    if magic != _TOYL_MAGIC:
        raise InvalidInputError(f"bad magic {magic!r}")
    if version != _TOYL_VERSION:
        raise InvalidInputError(f"unsupported container version {version}")
    config = ToyLmConfig(
        vocab_size=vocab, embed_dim=d, num_layers=layers, context_window=window, seed=seed
    )
    offset = head_size

    def take(rows, cols, name):
        nonlocal offset
        need = rows * cols
        if offset + 8 * need > len(blob):
            raise InvalidInputError("container truncated in weight data")
        arr = np.frombuffer(blob, dtype="<f8", count=need, offset=offset)
        offset += 8 * need
        return require_matrix(arr.reshape(rows, cols).astype(np.float64), name)

    embedding = take(vocab, d, "embedding")
    blocks = tuple(take(d, d, f"blocks[{i}]") for i in range(layers))
    lm_head = take(vocab, d, "lm_head")
    if offset + 4 > len(blob):
        raise InvalidInputError("container truncated before branch count")
    (branch_count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    branches: dict[int, DecomposedLayer] = {}
    for _ in range(branch_count):
        if offset + 8 > len(blob):
            raise InvalidInputError("container truncated in branch header")
        exit_index, h = struct.unpack_from("<II", blob, offset)
        offset += 8
        if not max(branches, default=0) < exit_index < layers:
            raise InvalidInputError(
                f"branch exit {exit_index}: exits must ascend within 1..{layers - 1}"
            )
        w_u = take(d, h, f"branches[{exit_index}].w_u")
        w_v = take(h, d, f"branches[{exit_index}].w_v")
        branches[int(exit_index)] = DecomposedLayer(
            w_u=w_u, w_v=w_v, hidden_dim=int(h), source_dims=(d, d)
        )
    if offset != len(blob):
        raise InvalidInputError("trailing bytes after model data")
    return ToyLm(
        config=config,
        embedding=embedding,
        blocks=blocks,
        lm_head=lm_head,
        branches=branches,
    )
