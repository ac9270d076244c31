"""Draft-and-verify decoding across two or three model tiers.

A drafter samples gamma tokens autoregressively; a verifier walks those
positions in order, accepting token x at position i when u <= min(1,
p_t(x)/p_d(x)) with u ~ U[0,1), and on the first rejection resamples a
correction from the normalized positive residual max(0, p_t - p_d), which is
exactly what makes the emitted marginal equal the verifier's distribution.
Three tiers chain the rule: the edge-verified stream (each token paired with
the edge's full distribution at that position) is the draft stream the cloud
verifies, so the final output law is the cloud's.

Decoder contract: a tier model has an int `vocab_size` and one method over
that vocabulary, `next_dist(context) -> TokenDistribution`, the
distribution of the token after context. The first boundary is scanned
position by position: at each scanned position the chain's scorer
(toylm.chain_scorer, chosen once per run) gives every tier's distribution
on the same context. The drafter's is the one its token is drafted from;
the first verifier's scores that token; the scan stops at the first
rejection, so no position past it is drafted or scored. A third tier
verifies the middle tier's emitted stream from the distributions the scan
collected: the stream has one token per scanned position, each drafted or
corrected at that position's context, so no tier runs a forward after the
scan. Consecutive familial tiers (LmDecoders on one ToyLm, each exiting at
or after the one before) are scored by one shared-trunk forward; every
other tier by its own next_dist call. All tiers of a run share one
vocab_size. A run checks its prompt once, against that vocabulary, before
any draw; drafted and corrected tokens lie inside it by construction. The
run then keeps one append-only token list: the scan appends to it and
truncates it back, and each round extends it with the emitted tokens.
next_dist receives that list itself, so it must neither keep nor mutate it;
it may read only the tail of the context it needs, which keeps the work per
emitted token independent of the context length.

RNG discipline: callers hand one generator to a run; it is split into one
child stream per tier (spawn key = tier index, in tier order) before any
draw. The run loop picks the chain's scorer once per run and reserves each
round's gamma drafter uniforms before the round's first forward, scanned or
not; run_round then draws only from the verifiers' streams, one uniform per
scanned position plus one per resample. Because the streams are per-role,
sequential and pipelined execution consume them in the same per-role order,
which is what makes the two modes emit identical tokens when nothing is
ever rejected.

One loop runs both modes: a pipelined run is a sequential run in which the
drafter reserves the next round's draws before each verification. After a
full acceptance that leaves tokens to emit, those reserved draws are the
next round's draws. A correction, or the end of the run, drops them without
a forward. A pipelined config has exactly two tiers: ProtocolConfig rejects
any other when it is built. The mode is the entry point's: run_sequential
stays sequential even given a pipelined config.

The protocol decides which draws happen and in what order, never when:
neither run mode keeps time. A transcript is the emitted tokens and what each
tier boundary scanned and accepted, round by round; its totals are derived
from those records, never kept beside them. The network simulator
(aiflow.netsim) alone prices the rounds and lays them out on the simulated
clock, where the device drafts each lookahead speculatively.
A lookahead aborted by a correction still consumed its full gamma draws, so
draw counts never depend on timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantViolationError, ProtocolViolationError
from .numerics import Rng, is_real, require_int
from .toylm import TokenDistribution, chain_scorer, check_tokens, inverse_cdf


@dataclass(frozen=True)
class DraftBatch:
    """Drafted tokens, with the drafter's distribution at each position."""

    tokens: list[int]
    draft_dists: list[TokenDistribution]

    def __post_init__(self):
        if not self.tokens or len(self.tokens) != len(self.draft_dists):
            raise InvalidInputError("tokens and draft_dists must be equal-length, non-empty")


@dataclass(frozen=True)
class VerifyResult:
    accepted_count: int
    correction_token: int | None


@dataclass(frozen=True)
class ProtocolConfig:
    """Decoding protocol parameters.

    tiers names the chain from drafter to final verifier (2 or 3 roles; a
    pipelined run has exactly 2); per_token_compute_cost prices one decoded
    token at the drafter and one verification forward at each verifier, in
    simulated seconds.
    """

    draft_len: int
    tiers: tuple[str, ...]
    per_token_compute_cost: dict[str, float]
    mode: str = "sequential"

    def __post_init__(self):
        require_int("draft_len", self.draft_len, 1)
        roles = self.tiers
        if not (isinstance(roles, tuple) and all(isinstance(r, str) for r in roles)
                and 2 <= len(set(roles)) == len(roles) <= 3):
            raise InvalidInputError(
                f"tiers must be a tuple of 2 or 3 distinct str roles, got {roles!r}"
            )
        if not isinstance(self.per_token_compute_cost, dict):
            raise InvalidInputError("per_token_compute_cost must be a dict")
        for role in self.tiers:
            cost = self.per_token_compute_cost.get(role)
            if not (is_real(cost) and math.isfinite(cost) and cost > 0.0):
                raise InvalidInputError(
                    f"per_token_compute_cost[{role!r}] must be finite and > 0"
                )
        if self.mode not in ("sequential", "pipelined"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.mode == "pipelined" and len(roles) != 2:
            raise InvalidInputError("pipelined mode supports exactly two tiers")


@dataclass(frozen=True)
class RoundRecord:
    """One verification outcome at one tier boundary.

    scanned is the number of positions the boundary's verifier judged: the
    accepted ones plus the correction, if it drew one. So the boundary drew
    a correction exactly when accepted < scanned, and scanned is also the
    length of the stream the boundary emitted.
    """

    scanned: int
    accepted: int


@dataclass(frozen=True)
class TranscriptTotals:
    accepted: int
    corrections: int
    rejected: int
    rounds: int


@dataclass(frozen=True)
class DecodeTranscript:
    """per_round holds one tuple of boundary records per round, drafter's first."""

    emitted_tokens: list[int]
    per_round: list[tuple[RoundRecord, ...]]

    @property
    def totals(self) -> TranscriptTotals:
        """Counts over the emitted stream, from each round's final boundary.

        The last round may be cut short at num_tokens: only the emitted part
        of its stream counts towards accepted and corrections, while
        rejected counts every round whose final boundary drew a correction.
        """
        left = emitted = len(self.emitted_tokens)
        accepted = rejected = 0
        for *_, final in self.per_round:
            accepted += min(left, final.accepted)
            left -= min(left, final.scanned)
            rejected += final.accepted < final.scanned
        return TranscriptTotals(accepted=accepted, corrections=emitted - accepted,
                                rejected=rejected, rounds=len(self.per_round))


@dataclass(frozen=True)
class PipelineStats:
    """What a pipelined run did beyond its transcript.

    discarded_batches counts lookahead batches reserved but never drafted:
    one per correction, plus the batch reserved past the end of the run.
    """

    discarded_batches: int


def draft(device_model, context, gamma: int, rng: Rng) -> DraftBatch:
    """Autoregressively sample gamma tokens from the drafting model.

    The context is checked against the model's vocab_size first, and the
    caller's list is never extended. Each token is the inverse-CDF draw of
    one uniform under the drafter's distribution.
    """
    require_int("gamma", gamma, 1)
    running, tokens, dists = check_tokens(context, device_model.vocab_size), [], []
    for _ in range(gamma):
        dists.append(device_model.next_dist(running))
        tokens.append(inverse_cdf(dists[-1].probs, rng.uniform()))
        running.append(tokens[-1])
    return DraftBatch(tokens=tokens, draft_dists=dists)


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
            return VerifyResult(accepted_count=i, correction_token=correction)
    return VerifyResult(accepted_count=len(batch.tokens), correction_token=None)


def run_round(cfg: ProtocolConfig, score, context: list[int], draws: list[float],
              rngs: dict) -> tuple[list[int], tuple[RoundRecord, ...]]:
    """One draft-verify round; returns (emitted, records).

    emitted is the token stream the round emits; records holds one
    RoundRecord per tier boundary, drafter's first. draws are the drafter's
    draft_len uniforms, reserved by the caller before the round's first
    forward; rngs maps each verifier role to its stream.

    score is the chain's chain_scorer. At scanned position i it gives every
    tier's distribution on one context: the drafter samples token i from
    draws[i], the first verifier judges it, and the scan stops at the first
    rejection, so no position past it is drafted or scored. The emitted
    stream then has one token per scanned position, so a third tier verifies
    it from the distributions the scan collected, paired with the middle
    tier's (the stream's law there). context is extended during the scan and
    holds the same tokens on return.
    """
    rng = rngs[cfg.tiers[1]]
    base = len(context)
    target_dists: list[TokenDistribution] = []
    top_dists: list[TokenDistribution] = []
    correction = None
    try:
        for i, u in enumerate(draws):
            p_d, p_t, *p_top = score(context)
            token = inverse_cdf(p_d.probs, u)
            target_dists.append(p_t)
            top_dists += p_top
            correction = _judge(i, token, p_d, p_t, rng)
            if correction is not None:
                break
            context.append(token)
        stream = context[base:]
    finally:
        del context[base:]
    records = (RoundRecord(len(target_dists), len(stream)),)
    if correction is not None:
        stream.append(correction)
    if len(cfg.tiers) == 3:
        batch = DraftBatch(tokens=stream, draft_dists=target_dists)
        result = verify(top_dists, batch, rngs[cfg.tiers[2]])
        stream = stream[: result.accepted_count]
        if result.correction_token is not None:
            stream.append(result.correction_token)
        records += (RoundRecord(len(stream), result.accepted_count),)
    return stream, records


def _decode(
    cfg: ProtocolConfig, models: dict, prompt, num_tokens: int, rng: Rng, lookahead: bool
) -> tuple[DecodeTranscript, PipelineStats]:
    """The run loop: draft-verify rounds until num_tokens are emitted.

    context is the run's one token list: the checked prompt followed by the
    tokens emitted so far. With lookahead, each round reserves the next
    batch's draws before verifying; they become the next round's draws only
    after a full acceptance that leaves tokens to emit. per_round keeps
    outcomes exactly as they happened, the last round's beyond num_tokens
    included; the transcript's totals count only what was emitted.
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
    score = chain_scorer([models[role] for role in cfg.tiers])
    start, end = len(context), len(context) + num_tokens
    records: list[tuple[RoundRecord, ...]] = []
    draws = ahead = None
    while len(context) < end:
        if draws is None:
            draws = [draft_rng.uniform() for _ in range(gamma)]
        if lookahead:
            ahead = [draft_rng.uniform() for _ in range(gamma)]
        emitted, round_records = run_round(cfg, score, context, draws, streams)
        records.append(round_records)
        final = round_records[-1]
        context.extend(emitted[: end - len(context)])
        draws = None
        if final.accepted < final.scanned:
            ahead = None
        elif len(context) < end:
            # Fully accepted: context is now the prefix the lookahead assumed.
            draws, ahead = ahead, None
    transcript = DecodeTranscript(emitted_tokens=context[start:], per_round=records)
    # Each correction drops a lookahead, as does a run that ends with one reserved.
    discarded = transcript.totals.rejected + (ahead is not None) if lookahead else 0
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
    return _decode(cfg, models, prompt, num_tokens, rng, lookahead=True)


def run_protocol(
    cfg: ProtocolConfig, models: dict, prompt, num_tokens: int, rng: Rng
) -> DecodeTranscript:
    """Decode in cfg.mode; both modes yield the same transcript shape."""
    if cfg.mode == "pipelined":
        return run_pipelined(cfg, models, prompt, num_tokens, rng)[0]
    return run_sequential(cfg, models, prompt, num_tokens, rng)

