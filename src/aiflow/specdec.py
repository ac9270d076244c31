"""Draft-and-verify decoding across two or three model tiers.

A drafter samples gamma tokens autoregressively; a verifier walks those
positions in order, accepting token x at position i when u <= min(1,
p_t(x)/p_d(x)) with u ~ U[0,1), and on the first rejection resamples a
correction from the normalized positive residual max(0, p_t - p_d), which is
exactly what makes the emitted marginal equal the verifier's distribution.
Three tiers chain the rule: the edge-verified stream (each token paired with
the edge's full distribution at that position) is the draft stream the cloud
verifies, so the final output law is the cloud's.

Decoder contract: a tier model has an int `vocab_size` and two methods
over that vocabulary. `next_dist(context) -> TokenDistribution` gives the
distribution of the token after context; the drafter calls it once per
drafted token. `next_dists(context, tokens) -> list[TokenDistribution]`
gives, for each i in range(len(tokens)), the distribution after
context + tokens[:i], equal to what next_dist would return there; each
verifier calls it once per round, on the whole batch it scores. All tiers
of a run share one vocab_size. A run checks its prompt once, against that
vocabulary, before any draw; drafted and corrected tokens lie inside it by
construction. The run then keeps one append-only token list: drafting
appends to it and truncates it back, and each round extends it with the
emitted tokens. Both methods receive that list itself, and next_dists a
batch's token list too, so they must neither keep nor mutate them; they may
read only the tail of the context they need, which keeps the work per
emitted token independent of the context length.

RNG discipline: callers hand one generator to a run; it is split into one
child stream per tier (spawn key = tier index, in tier order) before any
draw. The drafter burns one uniform per drafted token, reserving a batch's
gamma uniforms before it drafts the batch; a verifier burns one uniform per
scanned position plus one per resample. Because the streams are per-role,
sequential and pipelined execution consume them in the same per-role order,
which is what makes the two modes emit identical tokens when nothing is ever
rejected.

One loop runs both modes: a pipelined run is a sequential run in which the
drafter reserves the next batch's draws before each verification. The
lookahead batch is drafted from those draws only once it will be verified:
after a full acceptance that leaves tokens to emit. A correction, or the end
of the run, drops the reserved draws without a forward. The mode is the
entry point's: run_sequential stays sequential even given a pipelined
config.

The protocol decides which draws happen and in what order, never when:
neither run mode keeps time. A transcript records every verification
outcome, and the network simulator (aiflow.netsim) lays its rounds out on
the simulated clock, where the device drafts each lookahead speculatively.
A lookahead aborted by a correction still consumed its full gamma draws, so
draw counts never depend on timing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, InvariantViolationError, ProtocolViolationError
from .numerics import Rng, require_int
from .toylm import TokenDistribution, check_tokens, inverse_cdf


@dataclass(frozen=True)
class DraftBatch:
    """Tokens drafted from a base context, with the drafter's distribution each.

    base_context is the checked context a direct draft call started from.
    Batches drafted inside a run leave it None: their base is the run's one
    token list, which they do not copy.
    """

    tokens: list[int]
    draft_dists: list[TokenDistribution]
    base_context: list[int] | None = None

    def __post_init__(self):
        if not self.tokens or len(self.tokens) != len(self.draft_dists):
            raise InvalidInputError("tokens and draft_dists must be equal-length, non-empty")


@dataclass(frozen=True)
class VerifyResult:
    accepted_count: int
    correction_token: int | None
    rng_draws_used: int


@dataclass(frozen=True)
class ProtocolConfig:
    """Decoding protocol parameters.

    tiers names the chain from drafter to final verifier (2 or 3 roles);
    per_token_compute_cost prices one decoded token at the drafter and one
    verification forward at each verifier, in simulated seconds.
    """

    draft_len: int
    tiers: tuple[str, ...]
    per_token_compute_cost: dict[str, float]
    mode: str = "sequential"

    def __post_init__(self):
        require_int("draft_len", self.draft_len, 1)
        if not 2 <= len(self.tiers) <= 3:
            raise InvalidInputError("tiers must list 2 or 3 roles")
        if len(set(self.tiers)) != len(self.tiers):
            raise InvalidInputError("tier roles must be distinct")
        for role in self.tiers:
            cost = self.per_token_compute_cost.get(role)
            if cost is None or not cost > 0.0:
                raise InvalidInputError(f"per_token_compute_cost[{role!r}] must be > 0")
        if self.mode not in ("sequential", "pipelined"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class RoundRecord:
    """One verification outcome at one tier boundary."""

    stage: str
    drafted: int
    accepted: int


@dataclass(frozen=True)
class TranscriptTotals:
    accepted: int
    corrections: int
    rejected: int
    rounds: int


@dataclass(frozen=True)
class DecodeTranscript:
    emitted_tokens: list[int]
    per_round: list[RoundRecord]
    totals: TranscriptTotals

    def __post_init__(self):
        if self.totals.accepted + self.totals.corrections != len(self.emitted_tokens):
            raise InvariantViolationError(
                "transcript totals do not account for the emitted tokens"
            )


@dataclass(frozen=True)
class PipelineStats:
    """What a pipelined run did beyond its transcript.

    discarded_batches counts lookahead batches reserved but never drafted:
    one per correction, plus the batch reserved past the end of the run.
    """

    discarded_batches: int


def draft(device_model, context, gamma: int, rng: Rng) -> DraftBatch:
    """Autoregressively sample gamma tokens from the drafting model.

    The context is checked against the model's vocab_size first; the batch
    keeps the checked copy as its base_context.
    """
    require_int("gamma", gamma, 1)
    base = check_tokens(context, device_model.vocab_size)
    draws = [rng.uniform() for _ in range(gamma)]
    return replace(_draft(device_model, base, draws), base_context=base)


def _draft(device_model, context: list[int], draws: list[float]) -> DraftBatch:
    """One token per reserved uniform, from a checked context restored on return.

    Each token is the inverse-CDF draw of its uniform under the drafter's
    distribution, and is appended to context for the next one.
    """
    base = len(context)
    tokens: list[int] = []
    dists: list[TokenDistribution] = []
    try:
        for u in draws:
            dist = device_model.next_dist(context)
            token = inverse_cdf(dist.probs, u)
            tokens.append(token)
            dists.append(dist)
            context.append(token)
    finally:
        del context[base:]
    return DraftBatch(tokens=tokens, draft_dists=dists)


def verify(target_dists, batch: DraftBatch, rng: Rng) -> VerifyResult:
    """Accept a prefix of the batch under the target model, correcting the rest.

    Walks positions in order. At position i, the drafted token x is accepted
    when u <= min(1, p_t(x)/p_d(x)); the first rejection draws the correction
    from the normalized residual max(0, p_t - p_d) and stops the scan.
    """
    if len(target_dists) != len(batch.tokens):
        raise InvalidInputError(
            f"got {len(target_dists)} target distributions for {len(batch.tokens)} tokens"
        )
    draws = 0
    for i, (token, p_d) in enumerate(zip(batch.tokens, batch.draft_dists)):
        p_t = target_dists[i]
        if p_t.probs.size != p_d.probs.size:
            raise InvalidInputError(
                f"target and draft distributions at position {i} do not share a vocabulary "
                f"({p_t.probs.size} vs {p_d.probs.size} tokens)"
            )
        pd = float(p_d.probs[token])
        if pd == 0.0:
            raise ProtocolViolationError(
                f"drafted token {token} at position {i} has zero draft probability"
            )
        pt = float(p_t.probs[token])
        u = rng.uniform()
        draws += 1
        if u <= min(1.0, pt / pd):
            continue
        residual = np.maximum(p_t.probs - p_d.probs, 0.0)
        mass = float(residual.sum())
        if mass <= 0.0:
            raise InvariantViolationError(
                "rejection occurred but the residual distribution is empty"
            )
        correction = inverse_cdf(residual / mass, rng.uniform())
        draws += 1
        return VerifyResult(accepted_count=i, correction_token=correction, rng_draws_used=draws)
    return VerifyResult(
        accepted_count=len(batch.tokens), correction_token=None, rng_draws_used=draws
    )


@dataclass
class _RoundOutcome:
    emitted: list[int]
    records: list[RoundRecord]


def _verify_chain(
    cfg: ProtocolConfig, models: dict, context: list[int], batch: DraftBatch, rngs: dict
) -> _RoundOutcome:
    """Verify a batch drafted from context at every tier boundary, bottom up.

    Each verifier emits its accepted prefix plus any correction. For three
    tiers the middle verifier's emitted stream, paired with its own
    per-position distributions, becomes the draft batch the last tier
    verifies. Each verifier scores its whole batch in one next_dists call.
    """
    records: list[RoundRecord] = []
    current = batch
    for lower, upper in zip(cfg.tiers, cfg.tiers[1:]):
        target_dists = models[upper].next_dists(context, current.tokens)
        result = verify(target_dists, current, rngs[upper])
        records.append(RoundRecord(f"{lower}->{upper}", len(current.tokens), result.accepted_count))
        stream = current.tokens[: result.accepted_count]
        if result.correction_token is not None:
            stream.append(result.correction_token)
        # The emitted stream's law at each position is the verifier's own
        # distribution there, so those distributions are the claimed draft
        # law for the next tier up.
        current = DraftBatch(tokens=stream, draft_dists=target_dists[: len(stream)])
    return _RoundOutcome(emitted=current.tokens, records=records)


def run_round(cfg: ProtocolConfig, models: dict, context: list[int], rngs: dict) -> _RoundOutcome:
    """One draft-verify round; rngs maps each tier role to its stream.

    context is a list of checked tokens that the round extends and truncates
    back, so it holds the same tokens on return.
    """
    drafter = cfg.tiers[0]
    draws = [rngs[drafter].uniform() for _ in range(cfg.draft_len)]
    batch = _draft(models[drafter], context, draws)
    return _verify_chain(cfg, models, context, batch, rngs)


def _decode(
    cfg: ProtocolConfig, models: dict, prompt, num_tokens: int, rng: Rng, lookahead: bool
) -> tuple[DecodeTranscript, PipelineStats]:
    """The run loop: draft-verify rounds until num_tokens are emitted.

    context is the run's one token list: the checked prompt followed by the
    tokens emitted so far. With lookahead, each round reserves the next
    batch's draws before verifying, and drafts that batch from them only
    after a full acceptance that leaves tokens to emit. per_round
    keeps outcomes exactly as they happened; totals account for the emitted
    stream after truncation to num_tokens.
    """
    require_int("num_tokens", num_tokens, 0)
    missing = [role for role in cfg.tiers if role not in models]
    if missing:
        raise InvalidInputError(f"models missing for tiers {missing}")
    vocabs = {role: models[role].vocab_size for role in cfg.tiers}
    if len(set(vocabs.values())) != 1:
        raise InvalidInputError(f"tiers must share one vocab_size, got {vocabs}")
    context = check_tokens(prompt, vocabs[cfg.tiers[0]])
    streams = {role: rng.spawn(idx) for idx, role in enumerate(cfg.tiers)}
    drafter, draft_rng = models[cfg.tiers[0]], streams[cfg.tiers[0]]
    gamma = cfg.draft_len
    start, end = len(context), len(context) + num_tokens
    records: list[RoundRecord] = []
    rounds = rejected = accepted = corrections = 0
    batch = ahead = None
    while len(context) < end:
        if batch is None:
            batch = _draft(drafter, context, [draft_rng.uniform() for _ in range(gamma)])
        if lookahead:
            ahead = [draft_rng.uniform() for _ in range(gamma)]
        outcome = _verify_chain(cfg, models, context, batch, streams)
        rounds += 1
        records.extend(outcome.records)
        final = outcome.records[-1]
        used = outcome.emitted[: end - len(context)]
        accepted += min(len(used), final.accepted)
        corrections += max(0, len(used) - final.accepted)
        context.extend(used)
        batch = None
        if final.accepted < final.drafted:
            rejected += 1
            ahead = None
        elif ahead is not None and len(context) < end:
            # Fully accepted: context is now the prefix the lookahead assumed.
            batch, ahead = _draft(drafter, context, ahead), None
    # Each correction drops a lookahead, as does a run that ends with one reserved.
    discarded = rejected + (ahead is not None) if lookahead else 0
    transcript = DecodeTranscript(
        emitted_tokens=context[start:],
        per_round=records,
        totals=TranscriptTotals(
            accepted=accepted, corrections=corrections, rejected=rejected, rounds=rounds
        ),
    )
    return transcript, PipelineStats(discarded_batches=discarded)


def run_sequential(
    cfg: ProtocolConfig, models: dict, prompt, num_tokens: int, rng: Rng
) -> DecodeTranscript:
    """Strictly alternating draft and verify rounds, whatever cfg.mode says."""
    return _decode(cfg, models, prompt, num_tokens, rng, lookahead=False)[0]


def run_pipelined(
    cfg: ProtocolConfig, models: dict, prompt, num_tokens: int, rng: Rng
) -> tuple[DecodeTranscript, PipelineStats]:
    """Two-tier decoding with the device drafting one batch ahead.

    While the verifier works on batch i, the device drafts batch i+1 from the
    optimistic prefix (batch i fully accepted). Here its gamma draws are
    reserved at that point and its forwards run only once it will be
    verified. A correction discards that lookahead batch, its draws
    included, and the next round drafts afresh from the corrected prefix.
    """
    if cfg.mode != "pipelined":
        raise InvalidInputError("run_pipelined requires cfg.mode == 'pipelined'")
    if len(cfg.tiers) != 2:
        raise InvalidInputError("pipelined mode supports exactly two tiers")
    return _decode(cfg, models, prompt, num_tokens, rng, lookahead=True)


def run_protocol(
    cfg: ProtocolConfig, models: dict, prompt, num_tokens: int, rng: Rng
) -> DecodeTranscript:
    """Decode in cfg.mode; both modes yield the same transcript shape."""
    if cfg.mode == "pipelined":
        return run_pipelined(cfg, models, prompt, num_tokens, rng)[0]
    return run_sequential(cfg, models, prompt, num_tokens, rng)


def transcript_to_json(transcript: DecodeTranscript) -> dict:
    """JSON-ready dict: {tokens, rounds, totals}."""
    return {
        "tokens": list(transcript.emitted_tokens),
        "rounds": [
            {"stage": r.stage, "drafted": r.drafted, "accepted": r.accepted}
            for r in transcript.per_round
        ],
        "totals": {
            "accepted": transcript.totals.accepted,
            "corrections": transcript.totals.corrections,
            "rejected": transcript.totals.rejected,
            "rounds": transcript.totals.rounds,
            "emitted": len(transcript.emitted_tokens),
        },
    }
