"""A seeded toy language model with per-layer exit points and a shared head.

The model is deliberately small and attention-free: token embeddings are
averaged over a fixed context window, each block applies the residual update
x <- x + tanh(W_l x), and a shared head computes softmax(lm_head @ normalize(x))
where normalize subtracts the mean and divides by the RMS (with a 1e-12 floor
inside the square root so the empty-context zero vector stays well defined).

Exit points sit after every block. An activation captured at exit l can be
resumed through blocks l+1..L to reproduce the full forward pass exactly.
Decoding relies on that alignment: trunk_dists scores a familial chain (a
device exit, a deeper edge exit, the full cloud, all on one model) with one
trunk pass, each deeper tier resuming the pre-branch state of the tier
before it, and every distribution is byte-identical to a separate forward.
A branch attached at exit l is a whitened low-rank stand-in for block l+1,
applied in the same residual form (x <- x + tanh(w_u @ (w_v @ x))) before
the head, and only affects the early-exit prediction, never the resumed
trunk.

Every forward walks the trunk through one walker, _walk, which applies
blocks with the one block kernel, _apply_block, and the branch rule is
written once, in _branch. _walk takes one state of shape (d,) or, for
calibration, a stack of states as columns, shape (n, d, 1). @ is np.matmul,
so on a stack each product is a stack of matrix-vector products, each the
BLAS gemv that w @ x runs on one state, where the matrix-matrix product
w @ X.T would round differently. So every stacked column has the bytes of
its own vector forward. Window sums reduce over a non-contiguous axis in
window order, as the vector sum does.

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

from .container import Reader, header, read_file, write_file
from .errors import InvalidInputError, InvalidTokenError
from .familial import DecomposedLayer, WhiteningContext, decompose_layer
from .numerics import Rng, is_real, require_int, require_matrix, require_vector

_TOYL_MAGIC = b"TOYL"
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
    """Weights, coerced to float64 and checked against config once, at construction."""

    config: ToyLmConfig
    embedding: np.ndarray
    blocks: tuple[np.ndarray, ...]
    lm_head: np.ndarray
    branches: dict[int, DecomposedLayer] = field(default_factory=dict)

    def __post_init__(self):
        cfg = self.config
        if not isinstance(cfg, ToyLmConfig):
            raise InvalidInputError(f"config must be a ToyLmConfig, got {cfg!r}")
        vocab, d, layers = cfg.vocab_size, cfg.embed_dim, cfg.num_layers
        if not isinstance(self.blocks, (list, tuple)) or len(self.blocks) != layers:
            raise InvalidInputError(f"blocks must be a list or tuple of {layers} matrices")
        object.__setattr__(self, "embedding", _weight(self.embedding, "embedding", (vocab, d)))
        object.__setattr__(self, "blocks", tuple(
            _weight(w, f"blocks[{i}]", (d, d)) for i, w in enumerate(self.blocks)
        ))
        object.__setattr__(self, "lm_head", _weight(self.lm_head, "lm_head", (vocab, d)))
        if not isinstance(self.branches, dict):
            raise InvalidInputError(f"branches must be a dict, got {type(self.branches).__name__}")
        for exit_index, branch in self.branches.items():
            if not (_is_int(exit_index) and 1 <= exit_index < layers
                    and isinstance(branch, DecomposedLayer) and branch.source_dims == (d, d)):
                raise InvalidInputError(
                    f"branches[{exit_index!r}] must be a DecomposedLayer of a {d} x {d} block "
                    f"at an exit in 1..{layers - 1}"
                )


def _weight(w, name: str, shape: tuple[int, int]) -> np.ndarray:
    arr = require_matrix(w, name)
    if arr.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


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


def _apply_block(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x + np.tanh(w @ x)


def _walk(lm: ToyLm, x: np.ndarray, start: int | None, stop: int | None) -> np.ndarray:
    """x, one state (d,) or a stack of columns (n, d, 1), through blocks[start:stop]."""
    for w in lm.blocks[start:stop]:
        x = _apply_block(w, x)
    return x


def _branch(lm: ToyLm, x: np.ndarray, exit_index: int | None) -> np.ndarray:
    """The pre-branch state x at exit_index through its branch, or x itself if none is attached.

    exit_index None (after the last block) has no branch.
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
    if not (is_real(compression_ratio) and 0.0 < compression_ratio <= 1.0):
        raise InvalidInputError(
            f"compression_ratio must be a real in (0, 1], got {compression_ratio!r}"
        )
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


def chain_scorer(decoders):
    """The function context -> tuple of each decoder's next_dist(context), in tier order.

    Chosen once per chain. Consecutive LmDecoders on one ToyLm whose exits
    do not decrease (None: after the last block) are scored by trunk_dists,
    one trunk pass per context. Every other tier, a wrapped decoder
    included, gets its own next_dist call.
    """
    runs: list[list] = []
    for decoder in decoders:
        last = runs[-1][-1] if runs else None
        if (type(decoder) is LmDecoder and type(last) is LmDecoder and decoder.lm is last.lm
                and _exit_order(decoder) >= _exit_order(last)):
            runs[-1].append(decoder)
        else:
            runs.append([decoder])
    scorers = [partial(trunk_dists, run[0].lm, tuple(d.exit_index for d in run))
               if len(run) > 1 else partial(_one_dist, run[0]) for run in runs]
    if len(scorers) == 1:
        return scorers[0]
    return lambda context: tuple(p for score in scorers for p in score(context))


def _exit_order(decoder: LmDecoder) -> float:
    """The decoder's exit as a sort key: None, after the last block, comes last."""
    return math.inf if decoder.exit_index is None else decoder.exit_index


def _one_dist(decoder, context) -> tuple[TokenDistribution]:
    return (decoder.next_dist(context),)


def trunk_dists(lm: ToyLm, exits: tuple, context) -> tuple[TokenDistribution, ...]:
    """Each LmDecoder(lm, exit).next_dist(context), in exits order, from one trunk pass.

    exits are exits as LmDecoder takes them, none before the one ahead of it
    (None, after the last block, comes last); chain_scorer checks that once
    per chain. The window is checked, the initial state built and
    blocks[:exits[0]] applied once. Each distribution is the head of the
    pre-branch state at its exit, through that exit's branch if one is
    attached; the next exit continues the same pre-branch state through the
    blocks between them, as resume_from does. All are byte-identical to the
    next_dist calls; equal exits share one distribution.
    """
    x, dist = _exit_forward(lm, context[-lm.config.context_window :], exits[0])
    dists = [dist]
    for prev, exit_index in zip(exits, exits[1:]):
        if exit_index != prev:
            x = _walk(lm, x, prev, exit_index)
            dist = _head(lm, _branch(lm, x, exit_index))
        dists.append(dist)
    return tuple(dists)


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
    fields = (cfg.vocab_size, cfg.embed_dim, cfg.num_layers, cfg.context_window, cfg.seed)
    parts = [header(_TOYL_MAGIC, "IIIIQ", *fields)]
    for weight in (lm.embedding, *lm.blocks, lm.lm_head):
        parts.append(np.ascontiguousarray(weight, dtype="<f8").tobytes())
    parts.append(struct.pack("<I", len(lm.branches)))
    for exit_index in sorted(lm.branches):
        branch = lm.branches[exit_index]
        parts.append(struct.pack("<II", exit_index, branch.hidden_dim))
        parts.append(np.ascontiguousarray(branch.w_u, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(branch.w_v, dtype="<f8").tobytes())
    write_file(path, *parts)


def load_model(path) -> ToyLm:
    """Read a model written by save_model.

    A NaN or infinite weight raises InvalidInputError naming its tensor
    (embedding, blocks[i], lm_head, branches[exit].w_u or .w_v).
    """
    reader = Reader(read_file(path), _TOYL_MAGIC, "IIIIQ")
    vocab, d, layers, window, seed = reader.fields
    config = ToyLmConfig(
        vocab_size=vocab, embed_dim=d, num_layers=layers, context_window=window, seed=seed
    )
    embedding = reader.matrix(vocab, d, "embedding")
    blocks = tuple(reader.matrix(d, d, f"blocks[{i}]") for i in range(layers))
    lm_head = reader.matrix(vocab, d, "lm_head")
    (branch_count,) = reader.unpack("I", "branch count")
    branches: dict[int, DecomposedLayer] = {}
    for _ in range(branch_count):
        exit_index, h = reader.unpack("II", "branch record")
        if not max(branches, default=0) < exit_index < layers:
            raise InvalidInputError(
                f"branch exit {exit_index}: exits must ascend within 1..{layers - 1}"
            )
        w_u = reader.matrix(d, h, f"branches[{exit_index}].w_u")
        w_v = reader.matrix(h, d, f"branches[{exit_index}].w_v")
        branches[int(exit_index)] = DecomposedLayer(w_u=w_u, w_v=w_v)
    reader.end()
    return ToyLm(
        config=config,
        embedding=embedding,
        blocks=blocks,
        lm_head=lm_head,
        branches=branches,
    )
