"""Shared test helpers: a time-bounded subprocess runner, crafted-rng driving
and exact path enumeration.

The enumeration harness walks every probability-positive path of a
draft-verify round (draft token choices, accept/reject at each scanned
position, correction resample), forces the real round code down that exact
path with a ListRng of hand-picked uniforms, and weights the path
analytically. Summing weights over paths gives exact output marginals to
compare against the top verifier's distributions.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aiflow
from aiflow.specdec import run_round
from aiflow.toylm import LmDecoder, TokenDistribution, chain_scorer


def run_snippet(code: str, timeout: float = 15.0) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's aiflow.

    Meant for calls that once looped forever: a snippet still running after
    timeout seconds is killed and fails the calling test instead of
    stalling the suite.
    """
    src = str(Path(aiflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"snippet still running after {timeout} s:\n{code}")


class ListRng:
    """Feeds a fixed list of uniforms; fails loudly when over-consumed."""

    def __init__(self, values):
        self.values = [float(v) for v in values]
        self.index = 0

    def uniform(self):
        if self.index >= len(self.values):
            raise AssertionError("crafted rng ran out of values")
        v = self.values[self.index]
        self.index += 1
        return v

    def exhausted(self):
        return self.index == len(self.values)


@pytest.fixture
def next_dist_calls(monkeypatch):
    """A one-item list counting the LmDecoder.next_dist calls made during the test."""
    calls = [0]
    next_dist = LmDecoder.next_dist

    def counting(self, context):
        calls[0] += 1
        return next_dist(self, context)

    monkeypatch.setattr(LmDecoder, "next_dist", counting)
    return calls


class TableModel:
    """Deterministic context-dependent distribution via chained rng spawns."""

    def __init__(self, vocab_size, salt):
        self.vocab_size = vocab_size
        self.salt = salt
        self._cache = {}

    def next_dist(self, context):
        from aiflow.numerics import Rng

        key = tuple(int(t) for t in context)
        if key not in self._cache:
            if not all(0 <= t < self.vocab_size for t in key):
                raise AssertionError(f"context {list(key)} leaves vocabulary {self.vocab_size}")
            rng = Rng(self.salt)
            for t in key:
                rng = rng.spawn(t + 1)
            probs = np.array([rng.uniform() + 0.05 for _ in range(self.vocab_size)])
            probs /= probs.sum()
            self._cache[key] = TokenDistribution(probs=probs)
        return self._cache[key]


class FixedModel:
    """Same distribution at every context."""

    def __init__(self, probs):
        self.dist = TokenDistribution(probs=np.asarray(probs, dtype=np.float64))
        self.vocab_size = self.dist.probs.size

    def next_dist(self, context):
        return self.dist


def draft_paths(model, prefix, gamma):
    """All (tokens, u_values, weight) draft paths of length gamma."""
    paths = [([], [], 1.0)]
    for _ in range(gamma):
        new = []
        for tokens, us, w in paths:
            dist = model.next_dist(list(prefix) + tokens)
            cum = np.cumsum(dist.probs)
            for t in range(dist.probs.size):
                p = float(dist.probs[t])
                if p <= 0.0:
                    continue
                lo = float(cum[t - 1]) if t > 0 else 0.0
                u = (lo + float(cum[t])) / 2.0
                new.append((tokens + [t], us + [u], w * p))
        paths = new
    return paths


def verify_paths(draft_dists, target_dists, tokens):
    """All (accepted_count, correction, u_values, prob) verification outcomes."""
    outcomes = []
    accept_us = []
    prefix_prob = 1.0
    n = len(tokens)
    for j in range(n):
        pd = float(draft_dists[j].probs[tokens[j]])
        pt = float(target_dists[j].probs[tokens[j]])
        a = min(1.0, pt / pd)
        if a < 1.0:
            residual = np.maximum(target_dists[j].probs - draft_dists[j].probs, 0.0)
            mass = float(residual.sum())
            norm = residual / mass
            cum = np.cumsum(norm)
            u_reject = (a + 1.0) / 2.0
            for c in range(norm.size):
                if norm[c] <= 0.0:
                    continue
                lo = float(cum[c - 1]) if c > 0 else 0.0
                u2 = (lo + float(cum[c])) / 2.0
                outcomes.append(
                    (j, c, accept_us + [u_reject, u2], prefix_prob * (1.0 - a) * float(norm[c]))
                )
        if a <= 0.0:
            return outcomes
        accept_us = accept_us + [a / 2.0 if a < 1.0 else 0.5]
        prefix_prob *= a
    outcomes.append((n, None, accept_us, prefix_prob))
    return outcomes


def replay_round(cfg, models, prefix, rngs):
    """run_round's emitted tokens, its drafter draws reserved as the run loop does."""
    draws = [rngs[cfg.tiers[0]].uniform() for _ in range(cfg.draft_len)]
    score = chain_scorer([models[role] for role in cfg.tiers])
    return run_round(cfg, score, list(prefix), draws, rngs)[0]


def enumerate_round(cfg, models, prefix):
    """Every (emitted_tokens, weight) of one round, each path replayed for real.

    Supports two and three tiers. Asserts the round code reproduces each
    crafted path exactly and consumes exactly the supplied uniforms.
    """
    tiers = cfg.tiers
    results = []
    for tokens, dev_us, w_d in draft_paths(models[tiers[0]], prefix, cfg.draft_len):
        dev_dists = []
        running = list(prefix)
        for t in tokens:
            dev_dists.append(models[tiers[0]].next_dist(running))
            running.append(t)
        edge_dists = []
        running = list(prefix)
        for t in tokens:
            edge_dists.append(models[tiers[1]].next_dist(running))
            running.append(t)
        for acc_e, corr_e, edge_us, w_e in verify_paths(dev_dists, edge_dists, tokens):
            stream = tokens[:acc_e] + ([corr_e] if corr_e is not None else [])
            if len(tiers) == 2:
                rngs = {tiers[0]: ListRng(dev_us), tiers[1]: ListRng(edge_us)}
                assert replay_round(cfg, models, prefix, rngs) == stream
                assert all(rngs[r].exhausted() for r in tiers)
                results.append((tuple(stream), w_d * w_e))
                continue
            if not stream:
                raise AssertionError("verified stream cannot be empty")
            claimed = edge_dists[: len(stream)]
            cloud_dists = []
            running = list(prefix)
            for t in stream:
                cloud_dists.append(models[tiers[2]].next_dist(running))
                running.append(t)
            for acc_c, corr_c, cloud_us, w_c in verify_paths(claimed, cloud_dists, stream):
                final = stream[:acc_c] + ([corr_c] if corr_c is not None else [])
                rngs = {
                    tiers[0]: ListRng(dev_us),
                    tiers[1]: ListRng(edge_us),
                    tiers[2]: ListRng(cloud_us),
                }
                assert replay_round(cfg, models, prefix, rngs) == final
                assert all(rngs[r].exhausted() for r in tiers)
                results.append((tuple(final), w_d * w_e * w_c))
    return results


def conditional_marginals(paths):
    """Per-position conditional output laws from enumerated (tokens, weight)."""
    joint = {}
    for tokens, w in paths:
        joint[tokens] = joint.get(tokens, 0.0) + w
    events = {}
    denom = {}
    for tokens, w in joint.items():
        for k in range(len(tokens)):
            prefix = tokens[:k]
            events[(prefix, tokens[k])] = events.get((prefix, tokens[k]), 0.0) + w
            denom[prefix] = denom.get(prefix, 0.0) + w
    cond = {}
    for (prefix, x), w in events.items():
        cond[(prefix, x)] = w / denom[prefix]
    return cond, denom


def pytest_terminal_summary(terminalreporter):
    """Echo acceptance verdict lines after the run, past output capture."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for line in verdicts:
        terminalreporter.line(line)
