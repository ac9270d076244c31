"""Draft-and-verify decoding across two or three model tiers.

A drafter samples gamma tokens autoregressively; a verifier walks those
positions in order, accepting token x at position i when u <= min(1,
p_t(x)/p_d(x)) with u ~ U[0,1), and on the first rejection resamples a
correction from the normalized positive residual max(0, p_t - p_d), which is
exactly what makes the emitted marginal equal the verifier's distribution.
Three tiers chain the rule: the edge-verified stream (each token paired with
the edge's full distribution at that position) is the draft stream the cloud
verifies, so the final output law is the cloud's.

Decoder contract: a tier model has an int `vocab_size` and two methods over
that vocabulary. `next_dist(context) -> TokenDistribution` gives the
distribution of the token after context. `next_dists(context, tokens) ->
list[TokenDistribution]` gives, for each i in range(len(tokens)), the
distribution after context + tokens[:i], equal to what next_dist would
return there. The first boundary is scanned position by position: at each
scanned position the pair's scorer (toylm.pair_scorer, chosen once per run)
gives the drafter's distribution, from which the token is drafted, and the
first verifier's on the same context, which scores it; the scan stops at the
first rejection, so no position past it is drafted or scored. A familial
pair (two LmDecoders on one ToyLm, the verifier exiting at or after the
drafter) is scored by one shared-trunk forward; any other pair by one
next_dist call per tier. A third tier calls next_dists once per round, on
the middle tier's whole emitted stream. All tiers of a run share one
vocab_size. A run checks its prompt once, against that vocabulary, before
any draw; drafted and corrected tokens lie inside it by construction. The
run then keeps one append-only token list: the scan appends to it and
truncates it back, and each round extends it with the emitted tokens. Both
methods receive that list itself, and next_dists a stream's token list too,
so they must neither keep nor mutate them; they may read only the tail of
the context they need, which keeps the work per emitted token independent of
the context length.

RNG discipline: callers hand one generator to a run; it is split into one
child stream per tier (spawn key = tier index, in tier order) before any
draw. A round reserves all gamma drafter uniforms before its first forward,
scanned or not; a verifier burns one uniform per scanned position plus one
per resample. Because the streams are per-role, sequential and pipelined
execution consume them in the same per-role order, which is what makes the
two modes emit identical tokens when nothing is ever rejected.

One loop runs both modes: a pipelined run is a sequential run in which the
drafter reserves the next round's draws before each verification. After a
full acceptance that leaves tokens to emit, those reserved draws are the
next round's draws. A correction, or the end of the run, drops them without
a forward. The mode is the entry point's: run_sequential stays sequential
even given a pipelined config.

The protocol decides which draws happen and in what order, never when:
neither run mode keeps time. A transcript records every verification
outcome, and the network simulator (aiflow.netsim) lays its rounds out on
the simulated clock, where the device drafts each lookahead speculatively.
A lookahead aborted by a correction still consumed its full gamma draws, so
draw counts never depend on timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantViolationError, ProtocolViolationError
from .numerics import Rng, require_int
from .toylm import TokenDistribution, check_tokens, inverse_cdf, pair_scorer


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
            if cost is None or not (math.isfinite(cost) and cost > 0.0):
                raise InvalidInputError(
                    f"per_token_compute_cost[{role!r}] must be finite and > 0"
                )
        if self.mode not in ("sequential", "pipelined"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class RoundRecord:
    """One verification outcome at one tier boundary.

    drafted is the batch the lower tier is charged for. At the first
    boundary that is gamma: the device drafts every position, since it
    cannot know where the verifier rejects, even though the run itself
    drafts only the positions it scans. At a later boundary it is the length
    of the lower tier's emitted stream.
    """

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
    keeps the checked copy as its base_context. Each token is the
    inverse-CDF draw of one uniform under the drafter's distribution.
    """
    require_int("gamma", gamma, 1)
    base = check_tokens(context, device_model.vocab_size)
    running, tokens, dists = list(base), [], []
    for _ in range(gamma):
        dists.append(device_model.next_dist(running))
        tokens.append(inverse_cdf(dists[-1].probs, rng.uniform()))
        running.append(tokens[-1])
    return DraftBatch(tokens=tokens, draft_dists=dists, base_context=base)


def _judge(i: int, token: int, p_d: TokenDistribution, p_t: TokenDistribution,
           rng: Rng) -> int | None:
    """The accept/resample rule at position i: None accepts token, else the correction.

    token is accepted when u <= min(1, p_t(x)/p_d(x)); a rejection draws the
    correction from the normalized residual max(0, p_t - p_d).
    """
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
    if rng.uniform() <= min(1.0, float(p_t.probs[token]) / pd):
        return None
    residual = np.maximum(p_t.probs - p_d.probs, 0.0)
    mass = float(residual.sum())
    if mass <= 0.0:
        raise InvariantViolationError("rejection occurred but the residual distribution is empty")
    return inverse_cdf(residual / mass, rng.uniform())


def verify(target_dists, batch: DraftBatch, rng: Rng) -> VerifyResult:
    """Accept a prefix of the batch under the target model, correcting the rest.

    Walks positions in order under the accept/resample rule; the first
    rejection draws the correction and stops the scan.
    """
    if len(target_dists) != len(batch.tokens):
        raise InvalidInputError(
            f"got {len(target_dists)} target distributions for {len(batch.tokens)} tokens"
        )
    for i, (token, p_d, p_t) in enumerate(zip(batch.tokens, batch.draft_dists, target_dists)):
        correction = _judge(i, token, p_d, p_t, rng)
        if correction is not None:
            return VerifyResult(accepted_count=i, correction_token=correction, rng_draws_used=i + 2)
    count = len(batch.tokens)
    return VerifyResult(accepted_count=count, correction_token=None, rng_draws_used=count)


@dataclass
class _RoundOutcome:
    emitted: list[int]
    records: list[RoundRecord]


def _round(
    cfg: ProtocolConfig, models: dict, score, context: list[int], draws: list[float], rngs: dict
) -> _RoundOutcome:
    """One draft-verify round from the drafter's reserved draws.

    The drafter and the first verifier walk the batch's positions together,
    score being their pair_scorer: at position i the drafter samples token i
    from draws[i], the verifier scores the same context, and the scan stops at
    the first rejection, so no position past it is drafted or scored. Each
    higher tier then verifies the emitted stream below it, paired with that
    tier's per-position distributions (the stream's law there), in one
    next_dists call. context is extended during the scan and holds the same
    tokens on return.
    """
    lower, upper = cfg.tiers[:2]
    rng = rngs[upper]
    base = len(context)
    target_dists: list[TokenDistribution] = []
    correction = None
    try:
        for i, u in enumerate(draws):
            p_d, p_t = score(context)
            token = inverse_cdf(p_d.probs, u)
            target_dists.append(p_t)
            correction = _judge(i, token, p_d, p_t, rng)
            if correction is not None:
                break
            context.append(token)
        stream = context[base:]
    finally:
        del context[base:]
    records = [RoundRecord(f"{lower}->{upper}", len(draws), len(stream))]
    if correction is not None:
        stream.append(correction)
    if len(cfg.tiers) == 3:
        top = cfg.tiers[2]
        batch = DraftBatch(tokens=stream, draft_dists=target_dists)
        result = verify(models[top].next_dists(context, stream), batch, rngs[top])
        records.append(RoundRecord(f"{upper}->{top}", len(stream), result.accepted_count))
        stream = stream[: result.accepted_count]
        if result.correction_token is not None:
            stream.append(result.correction_token)
    return _RoundOutcome(emitted=stream, records=records)


def run_round(cfg: ProtocolConfig, models: dict, context: list[int], rngs: dict) -> _RoundOutcome:
    """One draft-verify round; rngs maps each tier role to its stream.

    The round reserves the drafter's draft_len uniforms before its first
    forward. context is a list of checked tokens that the round extends and
    truncates back, so it holds the same tokens on return.
    """
    drafter, verifier = cfg.tiers[:2]
    draws = [rngs[drafter].uniform() for _ in range(cfg.draft_len)]
    score = pair_scorer(models[drafter], models[verifier])
    return _round(cfg, models, score, context, draws, rngs)


def _decode(
    cfg: ProtocolConfig, models: dict, prompt, num_tokens: int, rng: Rng, lookahead: bool
) -> tuple[DecodeTranscript, PipelineStats]:
    """The run loop: draft-verify rounds until num_tokens are emitted.

    context is the run's one token list: the checked prompt followed by the
    tokens emitted so far. With lookahead, each round reserves the next
    batch's draws before verifying; they become the next round's draws only
    after a full acceptance that leaves tokens to emit. per_round keeps
    outcomes exactly as they happened; totals account for the emitted
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
    draft_rng, gamma = streams[cfg.tiers[0]], cfg.draft_len
    score = pair_scorer(models[cfg.tiers[0]], models[cfg.tiers[1]])
    start, end = len(context), len(context) + num_tokens
    records: list[RoundRecord] = []
    rounds = rejected = accepted = corrections = 0
    draws = ahead = None
    while len(context) < end:
        if draws is None:
            draws = [draft_rng.uniform() for _ in range(gamma)]
        if lookahead:
            ahead = [draft_rng.uniform() for _ in range(gamma)]
        outcome = _round(cfg, models, score, context, draws, streams)
        rounds += 1
        records.extend(outcome.records)
        final = outcome.records[-1]
        used = outcome.emitted[: end - len(context)]
        accepted += min(len(used), final.accepted)
        corrections += max(0, len(used) - final.accepted)
        context.extend(used)
        draws = None
        if final.accepted < final.drafted:
            rejected += 1
            ahead = None
        elif len(context) < end:
            # Fully accepted: context is now the prefix the lookahead assumed.
            draws, ahead = ahead, None
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
    reserved at that point and become the next round's draws, scanned
    position by position like any round's. A correction discards that
    lookahead batch, its draws included, and the next round drafts afresh
    from the corrected prefix.
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

