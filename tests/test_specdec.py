"""Draft-verify protocol tests: forced paths, exact marginals, run modes."""

import math
import re

import numpy as np
import pytest

from conftest import (
    FixedModel,
    ListRng,
    TableModel,
    conditional_marginals,
    enumerate_round,
)
from aiflow.errors import (
    InvalidInputError,
    InvalidTokenError,
    ProtocolViolationError,
)
from aiflow.familial import whiten
from aiflow.numerics import Rng
from aiflow.specdec import (
    DraftBatch,
    ProtocolConfig,
    RoundRecord,
    TranscriptTotals,
    draft,
    run_pipelined,
    run_protocol,
    run_sequential,
    verify,
)
from aiflow import toylm
from aiflow.toylm import (
    LmDecoder,
    TokenDistribution,
    ToyLmConfig,
    attach_branch,
    build,
    calibration_activations,
)


def sample(dist, rng):
    """Reference sampler for the oracles: an inverse-CDF draw from one uniform."""
    return toylm.inverse_cdf(dist.probs, rng.uniform())


def two_tier(gamma=2, mode="sequential"):
    return ProtocolConfig(
        draft_len=gamma,
        tiers=("device", "edge"),
        per_token_compute_cost={"device": 0.01, "edge": 0.03},
        mode=mode,
    )


def three_tier(gamma=2):
    return ProtocolConfig(
        draft_len=gamma,
        tiers=("device", "edge", "cloud"),
        per_token_compute_cost={"device": 0.01, "edge": 0.03, "cloud": 0.05},
    )


def dist(*probs):
    return TokenDistribution(probs=np.asarray(probs, dtype=np.float64))


def lm_decoder(layers, seed, vocab_size=32):
    return LmDecoder(build(ToyLmConfig(vocab_size=vocab_size, embed_dim=8,
                                       num_layers=layers, context_window=4, seed=seed)))


class TestDraft:
    def test_batch_validation(self):
        with pytest.raises(InvalidInputError):
            DraftBatch(tokens=[1, 2], draft_dists=[dist(1.0)])
        with pytest.raises(InvalidInputError):
            DraftBatch(tokens=[], draft_dists=[])

    def test_tokens_follow_inverse_cdf(self):
        # Zero-probability tokens widen the vocabulary to cover the context.
        model = FixedModel([0.2, 0.3, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        rng = ListRng([0.1, 0.25, 0.95])
        context = [7]
        batch = draft(model, context, 3, rng)
        assert batch.tokens == [0, 1, 2]
        assert all(d is model.dist for d in batch.draft_dists)
        assert rng.exhausted()
        assert context == [7]  # the caller's context is read, never extended

    def test_gamma_validation(self):
        with pytest.raises(InvalidInputError):
            draft(FixedModel([1.0]), [], 0, Rng(1))

    @pytest.mark.parametrize("token", [2.7, 2.0, True, "2", None])
    def test_non_integer_token_rejected_not_truncated(self, token):
        message = f"token {token!r} is not an integer"
        model = FixedModel([0.5, 0.5])
        with pytest.raises(InvalidTokenError, match=f"^{re.escape(message)}$"):
            draft(model, [1, token], 2, Rng(0))
        with pytest.raises(InvalidTokenError, match=f"^{re.escape(message)}$"):
            run_sequential(two_tier(), {"device": model, "edge": model}, [token], 4, Rng(0))
        with pytest.raises(InvalidTokenError, match=f"^{re.escape(message)}$"):
            run_pipelined(two_tier(mode="pipelined"), {"device": model, "edge": model},
                          [token], 4, Rng(0))

    def test_numpy_integer_tokens_become_ints(self):
        class Recording(TableModel):
            def next_dist(self, context):
                seen.append(list(context))
                return super().next_dist(context)

        seen = []
        model = Recording(5, 17)
        context = [np.int64(3), np.int32(1), 4]
        batch = draft(model, context, 4, Rng(0))
        from_numpy = seen[:]
        seen.clear()
        assert batch == draft(model, [3, 1, 4], 4, Rng(0))
        # The model saw plain ints: the same contexts as from the int list.
        assert from_numpy == seen and len(seen) == 4
        assert all(type(t) is int for ctx in from_numpy for t in ctx)
        assert all(type(t) is int for t in batch.tokens)
        assert context == [3, 1, 4] and type(context[0]) is np.int64


class TestPromptCheckedOnce:
    BAD_PROMPTS = [
        ([-1] + [0] * 4999, "token -1 outside vocabulary of 32"),
        ([32] + [0] * 4999, "token 32 outside vocabulary of 32"),
        ([True] + [0] * 4999, "token True is not an integer"),
        # A non-integer token anywhere is named before an out-of-range one.
        ([40] + [0] * 4998 + [2.0], "token 2.0 is not an integer"),
    ]

    @pytest.mark.parametrize("prompt, message", BAD_PROMPTS)
    def test_bad_token_anywhere_in_long_prompt(self, prompt, message):
        device, edge = lm_decoder(1, 1), lm_decoder(2, 2)
        models = {"device": device, "edge": edge}
        match = f"^{re.escape(message)}$"
        with pytest.raises(InvalidTokenError, match=match):
            draft(device, prompt, 2, Rng(0))
        with pytest.raises(InvalidTokenError, match=match):
            run_sequential(two_tier(), models, prompt, 4, Rng(0))
        with pytest.raises(InvalidTokenError, match=match):
            run_pipelined(two_tier(mode="pipelined"), models, prompt, 4, Rng(0))

    def test_every_entry_point_names_the_non_integer_token_first(self):
        decoder = lm_decoder(3, 1)
        match = f"^{re.escape('token 2.5 is not an integer')}$"
        with pytest.raises(InvalidTokenError, match=match):
            toylm.forward_full(decoder.lm, [99, 2.5])
        with pytest.raises(InvalidTokenError, match=match):
            decoder.next_dist([99, 2.5])
        with pytest.raises(InvalidTokenError, match=match):
            draft(decoder, [99, 2.5], 2, Rng(0))

    def test_tiers_with_different_vocabularies_rejected(self):
        models = {"device": lm_decoder(1, 1, vocab_size=32),
                  "edge": lm_decoder(2, 2, vocab_size=24)}
        message = "tiers must share one vocab_size, got {'device': 32, 'edge': 24}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            run_sequential(two_tier(), models, [1, 2], 8, Rng(0))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            run_pipelined(two_tier(mode="pipelined"), models, [1, 2], 8, Rng(0))

    def test_work_per_token_does_not_grow_with_context(self, monkeypatch):
        checked = [0]
        check_tokens = toylm.check_tokens

        def counting(context, vocab_size):
            checked[0] += len(context)
            return check_tokens(context, vocab_size)

        monkeypatch.setattr(toylm, "check_tokens", counting)

        class SameList:
            """A decoder that records whether every call sees one list object."""

            def __init__(self, decoder):
                self.decoder = decoder
                self.vocab_size = decoder.vocab_size
                self.first = None
                self.same = True

            def seen(self, context):
                if self.first is None:
                    self.first = context
                self.same = self.same and context is self.first

            def next_dist(self, context):
                self.seen(context)
                return self.decoder.next_dist(context)

        def per_token(cfg, num_tokens):
            models = {role: SameList(lm_decoder(2 * i + 1, i)) for i, role in enumerate(cfg.tiers)}
            checked[0] = 0
            run_protocol(cfg, models, [0], num_tokens, Rng(3))
            assert all(m.same and m.first is models["device"].first for m in models.values())
            return checked[0] / num_tokens

        for cfg in (two_tier(gamma=4), two_tier(gamma=3, mode="pipelined"), three_tier(gamma=4)):
            small, large = per_token(cfg, 150), per_token(cfg, 600)
            assert large <= 1.5 * small, (cfg.tiers, cfg.mode, small, large)


class TestVerify:
    def test_identical_models_accept_everything(self):
        d = dist(0.25, 0.25, 0.5)
        batch = DraftBatch(tokens=[2, 0, 1], draft_dists=[d, d, d])
        # One uniform per accepted position and no resample.
        rng = ListRng([0.999, 0.5, 0.0])
        res = verify([d, d, d], batch, rng)
        assert res.accepted_count == 3
        assert res.correction_token is None
        assert rng.exhausted()

    def test_forced_rejection_resamples_from_residual(self):
        # Draft law (0.5, 0.5), target law (1, 0). A drafted 1 must be
        # rejected and the correction drawn from the normalized positive
        # residual, which is all mass on token 0.
        p_d = dist(0.5, 0.5)
        p_t = dist(1.0, 0.0)
        batch = DraftBatch(tokens=[1], draft_dists=[p_d])
        rng = ListRng([0.5, 0.99])  # the rejecting uniform, then the resample
        res = verify([p_t], batch, rng)
        assert res.accepted_count == 0
        assert res.correction_token == 0
        assert rng.exhausted()

    def test_accept_then_reject_draw_accounting(self):
        p_d = dist(0.5, 0.5)
        p_t = dist(0.75, 0.25)
        batch = DraftBatch(tokens=[0, 0, 1], draft_dists=[p_d, p_d, p_d])
        # Token 0 accepts when u <= 1; token 1 has ratio 0.5 so u = 0.9
        # rejects it; the resample then lands in the positive residual,
        # which only token 0 carries. Two accepts, the rejection, the resample.
        rng = ListRng([0.3, 0.3, 0.9, 0.1])
        res = verify([p_t, p_t, p_t], batch, rng)
        assert res.accepted_count == 2
        assert res.correction_token == 0
        assert rng.exhausted()

    def test_zero_draft_probability_raises(self):
        p_d = dist(1.0, 0.0)
        batch = DraftBatch(tokens=[1], draft_dists=[p_d])
        with pytest.raises(ProtocolViolationError):
            verify([dist(0.5, 0.5)], batch, Rng(1))

    def test_vocabulary_mismatch_raises(self):
        batch = DraftBatch(tokens=[0], draft_dists=[dist(0.5, 0.5)])
        message = ("target and draft distributions at position 0 do not share a "
                   "vocabulary (3 vs 2 tokens)")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            verify([dist(0.25, 0.25, 0.5)], batch, Rng(1))

    def test_length_mismatch_raises(self):
        p = dist(0.5, 0.5)
        batch = DraftBatch(tokens=[0, 1], draft_dists=[p, p])
        with pytest.raises(InvalidInputError):
            verify([p], batch, Rng(1))

    def test_draw_count_relationship_random(self):
        rng = Rng(2024)
        p_d = FixedModel([0.4, 0.3, 0.2, 0.1])
        p_t = FixedModel([0.1, 0.2, 0.3, 0.4])
        for _ in range(200):
            batch = draft(p_d, [], 5, rng)
            values = [rng.uniform() for _ in range(6)]
            res = verify([p_t.dist] * 5, batch, ListRng(values))
            if res.correction_token is None:
                assert res.accepted_count == 5
                used = 5
            else:
                # The accepted positions and the rejecting one, then the resample.
                used = res.accepted_count + 1 + 1
            exact = ListRng(values[:used])
            assert verify([p_t.dist] * 5, batch, exact) == res
            assert exact.exhausted()


class TestMarginalEnumeration:
    def test_two_tier_output_law_is_the_verifier(self):
        cfg = two_tier(gamma=2)
        models = {"device": TableModel(3, 11), "edge": TableModel(3, 22)}
        paths = enumerate_round(cfg, models, [2])
        total = sum(w for _, w in paths)
        assert total == pytest.approx(1.0, abs=1e-12)
        cond, denom = conditional_marginals(paths)
        for prefix in denom:
            target = models["edge"].next_dist([2] + list(prefix))
            for x in range(3):
                got = cond.get((prefix, x), 0.0)
                assert got == pytest.approx(float(target.probs[x]), abs=1e-11)

    def test_three_tier_output_law_is_the_top_verifier(self):
        cfg = three_tier(gamma=2)
        models = {
            "device": TableModel(3, 31),
            "edge": TableModel(3, 32),
            "cloud": TableModel(3, 33),
        }
        paths = enumerate_round(cfg, models, [])
        total = sum(w for _, w in paths)
        assert total == pytest.approx(1.0, abs=1e-12)
        cond, denom = conditional_marginals(paths)
        for prefix in denom:
            target = models["cloud"].next_dist(list(prefix))
            for x in range(3):
                got = cond.get((prefix, x), 0.0)
                assert got == pytest.approx(float(target.probs[x]), abs=1e-11)

    def test_expected_emitted_matches_closed_form(self):
        # With context-free laws every scanned position accepts with the
        # same probability alpha, so one round emits (1 - alpha^g)/(1 - alpha)
        # tokens in expectation, corrections included.
        gamma = 3
        cfg = two_tier(gamma=gamma)
        models = {
            "device": FixedModel([0.5, 0.5]),
            "edge": FixedModel([0.8, 0.2]),
        }
        alpha = float(np.minimum(models["device"].dist.probs, models["edge"].dist.probs).sum())
        assert alpha == pytest.approx(0.7, abs=1e-15)
        paths = enumerate_round(cfg, models, [])
        mean_emitted = sum(len(tokens) * w for tokens, w in paths)
        closed = (1.0 - alpha**gamma) / (1.0 - alpha)
        assert mean_emitted == pytest.approx(closed, abs=1e-12)

    def test_monte_carlo_acceptance_rate(self):
        cfg = two_tier(gamma=4)
        models = {
            "device": FixedModel([0.5, 0.5]),
            "edge": FixedModel([0.8, 0.2]),
        }
        transcript = run_sequential(cfg, models, [], 4000, Rng(99))
        scanned = sum(rec.scanned for (rec,) in transcript.per_round)
        rate = sum(rec.accepted for (rec,) in transcript.per_round) / scanned
        sigma = (0.7 * 0.3 / scanned) ** 0.5
        assert abs(rate - 0.7) < 4 * sigma


class TestRunSequential:
    def test_emits_exactly_num_tokens(self):
        cfg = two_tier(gamma=3)
        models = {"device": TableModel(5, 1), "edge": TableModel(5, 2)}
        t = run_sequential(cfg, models, [0, 1], 17, Rng(7))
        assert len(t.emitted_tokens) == 17
        assert t.totals.accepted + t.totals.corrections == 17
        assert t.totals.rounds == len(t.per_round)
        # A round scans up to its first rejection: all three positions when
        # it accepts them all, else the accepted ones and the correction.
        assert all(0 <= r.accepted <= 3 and r.scanned - r.accepted == (r.accepted < 3)
                   for (r,) in t.per_round)

    def test_zero_tokens(self):
        cfg = two_tier()
        models = {"device": TableModel(3, 1), "edge": TableModel(3, 2)}
        t = run_sequential(cfg, models, [], 0, Rng(1))
        assert t.emitted_tokens == []
        assert t.totals.rounds == 0

    def test_missing_model_raises(self):
        cfg = two_tier()
        with pytest.raises(InvalidInputError):
            run_sequential(cfg, {"device": TableModel(3, 1)}, [], 4, Rng(1))

    def test_identical_tiers_match_drafter_only_decoding(self):
        model = TableModel(6, 77)
        cfg = two_tier(gamma=3)
        t = run_sequential(cfg, {"device": model, "edge": model}, [2], 12, Rng(123))
        assert t.totals.corrections == 0
        assert all((r.scanned, r.accepted) == (3, 3) for (r,) in t.per_round)
        # Drafter-only reference: sample autoregressively from the same
        # model using the drafter's child stream.
        ref_rng = Rng(123).spawn(0)
        ctx = [2]
        reference = []
        for _ in range(12):
            tok = sample(model.next_dist(ctx), ref_rng)
            reference.append(tok)
            ctx.append(tok)
        assert t.emitted_tokens == reference

    def test_three_tier_records_chain(self):
        cfg = three_tier(gamma=3)
        models = {
            "device": TableModel(4, 5),
            "edge": TableModel(4, 6),
            "cloud": TableModel(4, 7),
        }
        t = run_sequential(cfg, models, [1], 20, Rng(31))
        assert len(t.emitted_tokens) == 20
        assert len(t.per_round) == t.totals.rounds
        # Each round's records run drafter's boundary first: the stream the
        # run emits is the last record's.
        assert all(len(records) == 2 for records in t.per_round)
        emitted = [upper.scanned for _, upper in t.per_round]
        assert sum(emitted[:-1]) < 20 <= sum(emitted)
        # Device and edge agree, the cloud rejects every token they emit:
        # device->edge accepts all three, edge->cloud rejects the first.
        agree, refuse = FixedModel([1.0, 0.0]), FixedModel([0.0, 1.0])
        chain = run_sequential(cfg, {"device": agree, "edge": agree, "cloud": refuse},
                               [], 4, Rng(31))
        assert chain.per_round == [(RoundRecord(3, 3), RoundRecord(1, 0))] * 4
        for lower, upper in t.per_round:
            assert 0 <= lower.accepted <= 3
            assert lower.scanned - lower.accepted == (lower.accepted < 3)
            # The chained batch is the lower tier's emitted stream, one token
            # per position it scanned; the upper tier scans it up to its
            # first rejection.
            assert 0 <= upper.accepted <= lower.scanned
            assert upper.scanned - upper.accepted == (upper.accepted < lower.scanned)

    def test_truncation_totals_account_for_cut_round(self):
        cfg = two_tier(gamma=5)
        model = TableModel(3, 9)
        t = run_sequential(cfg, {"device": model, "edge": model}, [], 7, Rng(4))
        assert len(t.emitted_tokens) == 7
        assert t.totals.accepted + t.totals.corrections == 7
        # All-accept rounds of five tokens overshoot seven; the spill is
        # not counted in totals.
        assert t.totals.accepted == 7
        assert [r.scanned for (r,) in t.per_round] == [5, 5]


def scanned_positions(transcript):
    """Positions the first boundary drafts and scores: up to its first rejection."""
    return sum(first.scanned for first, *_ in transcript.per_round)


class TestForwardCalls:
    class Counting:
        """Counts next_dist calls."""

        def __init__(self, decoder):
            self.decoder = decoder
            self.vocab_size = decoder.vocab_size
            self.single = 0

        def next_dist(self, context):
            self.single += 1
            return self.decoder.next_dist(context)

    @pytest.mark.parametrize("cfg", [two_tier(gamma=4), two_tier(gamma=3, mode="pipelined"),
                                     three_tier(gamma=4)], ids=["2-tier", "pipelined", "3-tier"])
    def test_every_tier_scores_each_scanned_position_once(self, cfg):
        models = {role: self.Counting(lm_decoder(2 * i + 1, i))
                  for i, role in enumerate(cfg.tiers)}
        if cfg.mode == "pipelined":
            transcript, stats = run_pipelined(cfg, models, [5, 1, 7], 60, Rng(8))
            assert stats.discarded_batches > 1  # lookaheads dropped by corrections too
        else:
            transcript = run_sequential(cfg, models, [5, 1, 7], 60, Rng(8))
        # The first boundary drafts and scores position by position up to the
        # first rejection, and every tier scores each scanned position with one
        # next_dist call. A discarded lookahead costs draws but no forward.
        scanned = scanned_positions(transcript)
        assert [m.single for m in models.values()] == [scanned] * len(cfg.tiers)
        # A third tier verifies the middle tier's emitted stream, one token
        # per scanned position, from those distributions, up to its first
        # rejection: it scans the whole stream when it accepts it all.
        if len(cfg.tiers) == 3:
            assert all(top.scanned <= first.scanned
                       and (top.accepted < top.scanned or top.scanned == first.scanned)
                       for first, top in transcript.per_round)

    @pytest.mark.parametrize("mode", ["sequential", "pipelined"])
    @pytest.mark.parametrize("first", [1, 3, 5, None])
    def test_familial_pair_runs_one_trunk_per_position(self, first, mode, monkeypatch):
        lm = build(ToyLmConfig(vocab_size=32, embed_dim=8, num_layers=5, context_window=4,
                               seed=13))
        drafter = LmDecoder(lm, first)
        models = {"device": drafter, "edge": drafter if first is None else LmDecoder(lm)}
        counts = {"blocks": 0, "states": 0}
        apply_block, initial_state = toylm._apply_block, toylm._initial_state

        def counting_block(w, x):
            counts["blocks"] += 1
            return apply_block(w, x)

        def counting_state(lm, tokens):
            counts["states"] += 1
            return initial_state(lm, tokens)

        monkeypatch.setattr(toylm, "_apply_block", counting_block)
        monkeypatch.setattr(toylm, "_initial_state", counting_state)
        cfg = two_tier(gamma=4, mode=mode)
        transcript = run_protocol(cfg, models, [5, 1, 7], 40, Rng(4))
        # The pair shares its trunk: L blocks and one initial state per
        # scanned position, not l + L blocks and two states (identical
        # tiers: L, not 2L).
        scanned = scanned_positions(transcript)
        assert counts == {"blocks": 5 * scanned, "states": scanned}

    def test_familial_chain_blocks_per_position_and_round(self, monkeypatch):
        lm = build(ToyLmConfig(vocab_size=32, embed_dim=8, num_layers=6, context_window=4,
                               seed=13))
        cfg = three_tier(gamma=4)
        models = dict(zip(cfg.tiers, (LmDecoder(lm, 2), LmDecoder(lm, 4), LmDecoder(lm))))
        counts = {"blocks": 0, "states": 0}
        apply_block, initial_state = toylm._apply_block, toylm._initial_state

        def counting_block(w, x):
            counts["blocks"] += 1
            return apply_block(w, x)

        def counting_state(lm, tokens):
            counts["states"] += 1
            return initial_state(lm, tokens)

        monkeypatch.setattr(toylm, "_apply_block", counting_block)
        monkeypatch.setattr(toylm, "_initial_state", counting_state)
        transcript = run_protocol(cfg, models, [5, 1, 7], 40, Rng(4))
        # All three tiers share one trunk: the cloud's 6 blocks and one
        # initial state per scanned position, with no forward after the scan.
        scanned = scanned_positions(transcript)
        assert counts == {"blocks": 6 * scanned, "states": scanned}
        assert counts["blocks"] == 354


class TestRunPipelined:
    def test_mode_and_tier_validation(self):
        with pytest.raises(InvalidInputError):
            run_pipelined(two_tier(), {}, [], 4, Rng(1))
        # A pipelined three-tier config is refused when built, at every entry point.
        with pytest.raises(InvalidInputError, match="^pipelined mode supports exactly two tiers$"):
            ProtocolConfig(
                draft_len=2,
                tiers=("device", "edge", "cloud"),
                per_token_compute_cost={"device": 0.01, "edge": 0.03, "cloud": 0.05},
                mode="pipelined",
            )

    def test_identical_tiers_match_sequential_tokens(self):
        model = TableModel(5, 404)
        seq_cfg = two_tier(gamma=3)
        pipe_cfg = two_tier(gamma=3, mode="pipelined")
        models = {"device": model, "edge": model}
        t_seq = run_sequential(seq_cfg, models, [1, 2], 15, Rng(55))
        t_pipe, stats = run_pipelined(pipe_cfg, models, [1, 2], 15, Rng(55))
        assert t_pipe.emitted_tokens == t_seq.emitted_tokens
        assert t_pipe.per_round == t_seq.per_round
        assert stats.discarded_batches == 1  # trailing lookahead only

    def test_zero_acceptance_discards_every_lookahead(self):
        models = {"device": FixedModel([1.0, 0.0]), "edge": FixedModel([0.0, 1.0])}
        t_seq = run_sequential(two_tier(gamma=2), models, [], 6, Rng(5))
        t_pipe, stats = run_pipelined(two_tier(gamma=2, mode="pipelined"), models, [], 6, Rng(5))
        assert t_pipe.emitted_tokens == t_seq.emitted_tokens == [1] * 6
        # Every round rejects at the first position, so every lookahead
        # batch is drafted from a wrong prefix and dropped.
        assert stats.discarded_batches == t_pipe.totals.rounds == 6

    def test_rejected_counts_rounds_not_discarded_tokens(self):
        # Every round rejects its first position, so it scans one position and
        # accepts none; the device is still charged its two-token batch each
        # round (netsim's priced bytes). rejected counts the rounds.
        models = {"device": FixedModel([1.0, 0.0]), "edge": FixedModel([0.0, 1.0])}
        t_seq = run_sequential(two_tier(gamma=2), models, [], 6, Rng(5))
        t_pipe, _ = run_pipelined(two_tier(gamma=2, mode="pipelined"), models, [], 6, Rng(5))
        for t in (t_seq, t_pipe):
            assert t.totals.rejected == t.totals.rounds == 6
            assert [(r.scanned, r.accepted) for (r,) in t.per_round] == [(1, 0)] * 6

    def test_sequential_entry_ignores_pipelined_mode(self):
        models = {"device": TableModel(4, 1), "edge": TableModel(4, 2)}
        pipe = two_tier(gamma=3, mode="pipelined")
        assert run_sequential(pipe, models, [3], 20, Rng(6)) == run_sequential(
            two_tier(gamma=3), models, [3], 20, Rng(6)
        )

    def test_run_protocol_dispatches_on_mode(self):
        models = {"device": TableModel(4, 1), "edge": TableModel(4, 2)}
        seq = two_tier(gamma=3)
        pipe = two_tier(gamma=3, mode="pipelined")
        assert run_protocol(seq, models, [3], 20, Rng(6)) == run_sequential(
            seq, models, [3], 20, Rng(6)
        )
        assert run_protocol(pipe, models, [3], 20, Rng(6)) == run_pipelined(
            pipe, models, [3], 20, Rng(6)
        )[0]


def dists_along(model, context, tokens):
    """model.next_dist(context + tokens[:i]) for each i in range(len(tokens))."""
    return [model.next_dist([*context, *tokens[:i]]) for i in range(len(tokens))]


def eager_pipelined(cfg, models, prompt, num_tokens, rng):
    """Reference pipelined run that drafts every lookahead before its verdict.

    Returns (emitted_tokens, per_round, totals, discarded_batches).
    """
    lower, upper = cfg.tiers
    drafter, verifier = models[lower], models[upper]
    draft_rng, verify_rng = rng.spawn(0), rng.spawn(1)

    def eager_draft(context):
        context, tokens, dists = list(context), [], []
        for _ in range(cfg.draft_len):
            dist = drafter.next_dist(context)
            tokens.append(sample(dist, draft_rng))
            dists.append(dist)
            context.append(tokens[-1])
        return DraftBatch(tokens=tokens, draft_dists=dists)

    context = list(prompt)
    start, end = len(context), len(context) + num_tokens
    per_round = []
    rounds = rejected = accepted = corrections = 0
    batch = ahead = None
    while len(context) < end:
        if batch is None:
            batch = eager_draft(context)
        ahead = eager_draft(context + batch.tokens)
        result = verify(dists_along(verifier, context, batch.tokens), batch, verify_rng)
        rounds += 1
        emitted = batch.tokens[: result.accepted_count]
        if result.correction_token is not None:
            emitted.append(result.correction_token)
        per_round.append((RoundRecord(len(emitted), result.accepted_count),))
        used = emitted[: end - len(context)]
        accepted += min(len(used), result.accepted_count)
        corrections += max(0, len(used) - result.accepted_count)
        context.extend(used)
        if result.correction_token is not None:
            rejected += 1
            ahead = None
        batch = ahead
    totals = TranscriptTotals(accepted=accepted, corrections=corrections,
                              rejected=rejected, rounds=rounds)
    return context[start:], per_round, totals, rejected + (batch is not None)


def family_pair(branch):
    """Exit-2 drafter and full verifier on one 4-layer ToyLm."""
    lm = build(ToyLmConfig(vocab_size=32, embed_dim=8, num_layers=4, context_window=4, seed=21))
    if branch:
        lm = attach_branch(lm, 2, 0.75, whiten(calibration_activations(lm, 2, 64, seed=5)))
    return LmDecoder(lm, 2), LmDecoder(lm)


ORACLE_PAIRS = {
    "independent": lambda: (lm_decoder(1, 3), lm_decoder(3, 4)),
    "family-plain": lambda: family_pair(branch=False),
    "family-branch": lambda: family_pair(branch=True),
    "all-accept": lambda: (lm_decoder(2, 6),) * 2,
    "all-reject": lambda: (FixedModel([1.0, 0.0]), FixedModel([0.0, 1.0])),
}


FAMILIAL_PAIRS = {
    "family-plain": lambda: family_pair(branch=False),
    "family-branch": lambda: family_pair(branch=True),
    "equal-exits": lambda: (LmDecoder(family_pair(branch=True)[0].lm, 2),) * 2,
    "identical": lambda: (lm_decoder(2, 6),) * 2,
}


class TestLookaheadOracle:
    """run_pipelined drafts a lookahead only once it will be verified.

    It must emit what the eager reference emits. Later tokens depend on the
    position of the drafter's stream, so equal tokens over long runs also
    show that every discarded lookahead still consumed its gamma draws.
    """

    @pytest.mark.parametrize("num_tokens", [48, 37])
    @pytest.mark.parametrize("pair", ORACLE_PAIRS)
    @pytest.mark.parametrize("gamma", range(1, 7))
    def test_matches_eager_lookahead(self, gamma, pair, num_tokens):
        device, edge = ORACLE_PAIRS[pair]()
        cfg = two_tier(gamma=gamma, mode="pipelined")
        seed = 100 * gamma + num_tokens
        tokens, per_round, totals, discarded = eager_pipelined(
            cfg, {"device": device, "edge": edge}, [1, 0], num_tokens, Rng(seed))
        counting = TestForwardCalls.Counting(device)
        transcript, stats = run_pipelined(
            cfg, {"device": counting, "edge": edge}, [1, 0], num_tokens, Rng(seed))
        assert transcript.emitted_tokens == tokens
        assert transcript.per_round == per_round
        assert transcript.totals == totals
        assert stats.discarded_batches == discarded
        assert counting.single == scanned_positions(transcript)
        if pair == "all-accept":
            assert totals.rejected == 0 and discarded == 1
        if pair == "all-reject":
            assert discarded == totals.rounds == num_tokens

    @pytest.mark.parametrize("num_tokens", [48, 37])
    @pytest.mark.parametrize("pair", FAMILIAL_PAIRS)
    @pytest.mark.parametrize("gamma", range(1, 7))
    def test_unwrapped_familial_pair_matches_eager_lookahead(self, gamma, pair, num_tokens,
                                                             next_dist_calls):
        models = dict(zip(("device", "edge"), FAMILIAL_PAIRS[pair]()))
        cfg = two_tier(gamma=gamma, mode="pipelined")
        seed = 100 * gamma + num_tokens
        tokens, per_round, totals, discarded = eager_pipelined(cfg, models, [1, 0], num_tokens,
                                                               Rng(seed))
        calls = next_dist_calls[0]  # the reference's own forwards
        transcript, stats = run_pipelined(cfg, models, [1, 0], num_tokens, Rng(seed))
        assert transcript.emitted_tokens == tokens
        assert transcript.per_round == per_round
        assert transcript.totals == totals
        assert stats.discarded_batches == discarded
        assert next_dist_calls[0] == calls  # every position took the shared trunk


def batch_sequential(cfg, models, prompt, num_tokens, rng):
    """Reference sequential run that drafts each whole batch before verifying it.

    Every boundary scores its whole batch, one next_dist call per position,
    and verifies it.
    Returns (emitted_tokens, per_round, totals).
    """
    streams = [rng.spawn(i) for i in range(len(cfg.tiers))]
    drafter = models[cfg.tiers[0]]
    context = list(prompt)
    start, end = len(context), len(context) + num_tokens
    per_round = []
    rounds = rejected = accepted = corrections = 0
    while len(context) < end:
        running, tokens, dists = list(context), [], []
        for _ in range(cfg.draft_len):
            dists.append(drafter.next_dist(running))
            tokens.append(sample(dists[-1], streams[0]))
            running.append(tokens[-1])
        batch = DraftBatch(tokens=tokens, draft_dists=dists)
        records = []
        for i, upper in enumerate(cfg.tiers[1:]):
            target = dists_along(models[upper], context, batch.tokens)
            result = verify(target, batch, streams[i + 1])
            emitted = batch.tokens[: result.accepted_count]
            if result.correction_token is not None:
                emitted.append(result.correction_token)
            records.append(RoundRecord(len(emitted), result.accepted_count))
            batch = DraftBatch(tokens=emitted, draft_dists=target[: len(emitted)])
        per_round.append(tuple(records))
        rounds += 1
        used = batch.tokens[: end - len(context)]
        accepted += min(len(used), result.accepted_count)
        corrections += max(0, len(used) - result.accepted_count)
        rejected += result.correction_token is not None
        context.extend(used)
    totals = TranscriptTotals(accepted=accepted, corrections=corrections,
                              rejected=rejected, rounds=rounds)
    return context[start:], per_round, totals


def family_chain():
    """Exit-1 and exit-2 drafters under the full model, on one 4-layer ToyLm."""
    lm = family_pair(branch=False)[1].lm
    return LmDecoder(lm, 1), LmDecoder(lm, 2), LmDecoder(lm)


ORACLE_CHAINS = {
    "independent": lambda: (lm_decoder(1, 3), lm_decoder(3, 4)),
    "family-branch": lambda: family_pair(branch=True),
    "all-accept": lambda: (lm_decoder(2, 6),) * 2,
    "all-reject": lambda: (FixedModel([1.0, 0.0]), FixedModel([0.0, 1.0])),
    "3-independent": lambda: (lm_decoder(1, 3), lm_decoder(2, 5), lm_decoder(3, 4)),
    "3-family": family_chain,
    "3-all-accept": lambda: (lm_decoder(2, 6),) * 3,
    "3-all-reject": lambda: (FixedModel([1.0, 0.0]), FixedModel([0.0, 1.0]),
                             FixedModel([1.0, 0.0])),
}


FAMILIAL_CHAINS = {
    **FAMILIAL_PAIRS,
    "3-family": family_chain,
    "3-family-branch": lambda: (*family_pair(branch=True), lm_decoder(3, 4)),
    "3-device-family": lambda: (lm_decoder(1, 3), *family_pair(branch=True)),
    "3-identical": lambda: (lm_decoder(2, 6),) * 3,
}


# Tiers of a familial chain on a model of their own: each takes one
# next_dist call per scanned position.
UNSHARED_TIERS = {"3-family-branch": 1, "3-device-family": 1}


class TestScanOracle:
    """run_sequential scans the first boundary position by position.

    It must emit what drafting and scoring each whole batch emits: the
    tokens after the first rejection are never read, and every stream still
    advances by the same draws, which long runs would expose.
    """

    @pytest.mark.parametrize("num_tokens", [48, 37])
    @pytest.mark.parametrize("chain", ORACLE_CHAINS)
    @pytest.mark.parametrize("gamma", range(1, 7))
    def test_matches_whole_batch_decoding(self, gamma, chain, num_tokens):
        decoders = ORACLE_CHAINS[chain]()
        cfg = two_tier(gamma) if len(decoders) == 2 else three_tier(gamma)
        seed = 100 * gamma + num_tokens
        tokens, per_round, totals = batch_sequential(
            cfg, dict(zip(cfg.tiers, decoders)), [1, 0], num_tokens, Rng(seed))
        counting = [TestForwardCalls.Counting(d) for d in decoders]
        transcript = run_sequential(cfg, dict(zip(cfg.tiers, counting)), [1, 0], num_tokens,
                                    Rng(seed))
        assert transcript.emitted_tokens == tokens
        assert transcript.per_round == per_round
        assert transcript.totals == totals
        scanned = scanned_positions(transcript)
        assert counting[0].single == counting[1].single == scanned
        if chain.endswith("all-accept"):
            assert totals.rejected == 0 and scanned == gamma * totals.rounds
        if chain.endswith("all-reject"):
            assert totals.rounds == num_tokens and scanned == totals.rounds

    @pytest.mark.parametrize("num_tokens", [48, 37])
    @pytest.mark.parametrize("chain", FAMILIAL_CHAINS)
    @pytest.mark.parametrize("gamma", range(1, 7))
    def test_unwrapped_familial_chain_matches_whole_batch_decoding(self, gamma, chain,
                                                                   num_tokens, next_dist_calls):
        decoders = FAMILIAL_CHAINS[chain]()
        cfg = two_tier(gamma) if len(decoders) == 2 else three_tier(gamma)
        models = dict(zip(cfg.tiers, decoders))
        seed = 100 * gamma + num_tokens
        tokens, per_round, totals = batch_sequential(cfg, models, [1, 0], num_tokens, Rng(seed))
        calls = next_dist_calls[0]  # the reference's own forwards
        transcript = run_sequential(cfg, models, [1, 0], num_tokens, Rng(seed))
        assert transcript.emitted_tokens == tokens
        assert transcript.per_round == per_round
        assert transcript.totals == totals
        # Every familial tier took the shared trunk at every scanned position.
        own = UNSHARED_TIERS.get(chain, 0) * scanned_positions(transcript)
        assert next_dist_calls[0] - calls == own


DRAW_RUNS = {
    "sequential-separate": ("sequential", lambda: (lm_decoder(1, 3), lm_decoder(3, 4))),
    "sequential-familial": ("sequential", lambda: family_pair(branch=True)),
    "pipelined-separate": ("pipelined", lambda: (lm_decoder(1, 3), lm_decoder(3, 4))),
    "pipelined-familial": ("pipelined", lambda: family_pair(branch=True)),
    "three-tier-separate": ("sequential",
                            lambda: (lm_decoder(1, 3), lm_decoder(2, 5), lm_decoder(3, 4))),
    "three-tier-familial": ("sequential", family_chain),
}


class TestDrawCounts:
    """How many uniforms each tier's stream spends, read off the transcript.

    The drafter spends draft_len per round plus draft_len per dropped
    lookahead; the verifier at each boundary one per judged position plus
    one per correction. The token oracles cannot see draws that no token
    reads, such as a dropped lookahead's at the end of a run.
    """

    @pytest.mark.parametrize("num_tokens", [0, 1, 5, 13, 40])
    @pytest.mark.parametrize("run", DRAW_RUNS)
    @pytest.mark.parametrize("gamma", range(1, 7))
    def test_each_stream_spends_its_rule(self, gamma, run, num_tokens, monkeypatch):
        mode, decoders = DRAW_RUNS[run]
        decoders = decoders()
        cfg = two_tier(gamma, mode) if len(decoders) == 2 else three_tier(gamma)
        root = Rng(1000 * gamma + num_tokens)
        tier_of, drawn = {}, [0] * len(cfg.tiers)
        spawn, uniform = Rng.spawn, Rng.uniform

        def counting_spawn(self, key):
            child = spawn(self, key)
            if self is root:
                tier_of[id(child)] = (key, child)  # child kept alive: its id stays its own
            return child

        def counting_uniform(self):
            if id(self) in tier_of:
                drawn[tier_of[id(self)][0]] += 1
            return uniform(self)

        monkeypatch.setattr(Rng, "spawn", counting_spawn)
        monkeypatch.setattr(Rng, "uniform", counting_uniform)
        models = dict(zip(cfg.tiers, decoders))
        if mode == "pipelined":
            transcript, stats = run_pipelined(cfg, models, [1, 0], num_tokens, root)
            discarded = stats.discarded_batches
        else:
            transcript, discarded = run_sequential(cfg, models, [1, 0], num_tokens, root), 0
        rounds = transcript.per_round
        assert len(tier_of) == len(cfg.tiers)
        assert drawn[0] == gamma * (len(rounds) + discarded)
        for b in range(len(cfg.tiers) - 1):
            assert drawn[b + 1] == sum(r[b].scanned + (r[b].accepted < r[b].scanned)
                                       for r in rounds)
        if mode == "pipelined":  # a dropped lookahead after each correction and the last round
            assert discarded == sum(r[-1].accepted < r[-1].scanned or i == len(rounds) - 1
                                    for i, r in enumerate(rounds))


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ProtocolConfig(draft_len=0, tiers=("a", "b"), per_token_compute_cost={"a": 1, "b": 1})
        with pytest.raises(InvalidInputError):
            ProtocolConfig(draft_len=1, tiers=("a",), per_token_compute_cost={"a": 1})
        with pytest.raises(InvalidInputError):
            ProtocolConfig(draft_len=1, tiers=("a", "a"), per_token_compute_cost={"a": 1})
        with pytest.raises(InvalidInputError):
            ProtocolConfig(draft_len=1, tiers=("a", "b"), per_token_compute_cost={"a": 1})
        with pytest.raises(InvalidInputError):
            ProtocolConfig(
                draft_len=1, tiers=("a", "b"),
                per_token_compute_cost={"a": 1, "b": 1}, mode="warp",
            )

    @pytest.mark.parametrize("cost", [math.inf, math.nan, -math.inf,
                                      True, False, "0.1", None, [0.1]])
    def test_cost_must_be_finite(self, cost):
        message = "per_token_compute_cost['b'] must be finite and > 0"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            ProtocolConfig(draft_len=1, tiers=("a", "b"),
                           per_token_compute_cost={"a": 1, "b": cost})

    @pytest.mark.parametrize("tiers", ["ab", (1, 2), ["a", "b"], ("a", 2), ("a",),
                                       ("a", "a"), ("a", "b", "c", "d"), None])
    def test_tiers_must_be_a_tuple_of_distinct_str_roles(self, tiers):
        message = f"tiers must be a tuple of 2 or 3 distinct str roles, got {tiers!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            ProtocolConfig(draft_len=1, tiers=tiers,
                           per_token_compute_cost={"a": 1, "b": 1, 1: 1, 2: 1})

    @pytest.mark.parametrize("costs", [None, [1, 1], (("a", 1), ("b", 1)), 1.0])
    def test_cost_map_must_be_a_dict(self, costs):
        with pytest.raises(InvalidInputError, match="^per_token_compute_cost must be a dict$"):
            ProtocolConfig(draft_len=1, tiers=("a", "b"), per_token_compute_cost=costs)

    @pytest.mark.parametrize("draft_len", [2.5, 2.0, True, "2", None])
    def test_draft_len_must_be_an_int(self, draft_len):
        message = f"draft_len must be an int >= 1, got {draft_len!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            ProtocolConfig(draft_len=draft_len, tiers=("a", "b"),
                           per_token_compute_cost={"a": 1, "b": 1})


@pytest.mark.parametrize("num_tokens", [2.5, 2.0, True, "4", None, -1])
def test_run_num_tokens_must_be_an_int(num_tokens):
    models = {"device": TableModel(4, 1), "edge": TableModel(4, 2)}
    message = f"num_tokens must be an int >= 0, got {num_tokens!r}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        run_sequential(two_tier(), models, [0], num_tokens, Rng(0))
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        run_pipelined(two_tier(mode="pipelined"), models, [0], num_tokens, Rng(0))
