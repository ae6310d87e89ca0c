"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else; a small float-epsilon
guard (1e-9) accompanies tolerances that sit exactly on a representable
boundary.
"""

import json
import time

import numpy as np
import pytest

import filtergen as fg
from filtergen import DiscConfig, FilteredGenerator, FilterParams, SamplerConfig, TextCNN
from filtergen.cli import run_pipeline, validate_config
from filtergen.data import synth_markov
from filtergen.metrics import bleu, fed, self_bleu, BleuConfig
from filtergen.oracle import (empirical_distribution, exact_acceptance,
                              exact_boundary, exact_filtered_distribution,
                              enumerate_distribution, tv_distance)
from filtergen.seeding import derive_seed

EPS = 1e-9  # guard for tolerances sitting exactly on a float boundary

ESTIMATE_GRID = (0.2, 0.5, 0.8)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} - {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def estimates(s1, s2, s3):
    """Algorithm-style boundary estimates shared by criteria 2 and 3."""
    out = {}
    for s in (s1, s2, s3):
        sampler = SamplerConfig(max_len=s.length, seed=5)
        for ratio in ESTIMATE_GRID:
            t0 = time.perf_counter()
            boundary, _ = fg.estimate_boundary(
                s.generator, s.exact_disc, ratio, sampler=sampler,
                rng=np.random.default_rng(derive_seed(5, s.name, ratio)))
            out[(s.name, ratio)] = (boundary, time.perf_counter() - t0)
    return out


def test_criterion_1_exact_correction(s1):
    t0 = time.perf_counter()
    sol = exact_boundary(s1.p_model, s1.ideal_scores, 0.4)
    filtered, c_exact = exact_filtered_distribution(s1.p_model, s1.ideal_scores, 0.4,
                                                    sol.boundary)
    err = float(np.abs(filtered.probs - s1.p_real.probs).max())
    elapsed = time.perf_counter() - t0
    _report(1, "exact correction on s1 (c=0.4, ideal scores)",
            err <= 1e-9 and abs(c_exact - 0.4) <= 1e-12 and elapsed < 1.0,
            f"max |p_new - p_real| = {err:.2e}, c_exact = {c_exact:.6f}, "
            f"{elapsed:.3f}s")


def test_criterion_2_boundary_estimation_fidelity(s1, s2, s3, estimates):
    scenarios = {"s1": s1, "s2": s2, "s3": s3}
    results, ok = [], True
    worst_time = 0.0
    for name, s in scenarios.items():
        scenario_time = 0.0
        for ratio in ESTIMATE_GRID:
            boundary, elapsed = estimates[(name, ratio)]
            scenario_time += elapsed
            acc = exact_acceptance(s.p_model, s.ideal_scores, ratio, boundary)
            err = abs(acc - ratio)
            best = abs(exact_boundary(s.p_model, s.ideal_scores, ratio).acceptance - ratio)
            if best <= 0.05 + EPS:
                results.append(f"{name}/c={ratio}: err={err:.4f}")
                ok = ok and err <= 0.05 + EPS
            else:
                # target provably unattainable on this domain: the acceptance
                # is piecewise constant and no plateau comes within tolerance
                # (on s1 at c=0.8 it jumps 1.0 -> 0.6); the estimator must
                # still land on the closest achievable plateau
                results.append(f"{name}/c={ratio}: UNATTAINABLE "
                               f"(best possible err={best:.2f}, got {err:.4f})")
                ok = ok and err <= best + 0.05 + EPS
        worst_time = max(worst_time, scenario_time)
    ok = ok and worst_time < 60.0
    _report(2, "boundary estimator fidelity on s1-s3",
            ok, "; ".join(results) + f"; max scenario time {worst_time:.1f}s")


@pytest.mark.xfail(strict=True, reason=(
    "literal tolerance is unattainable for s1 at c=0.8: with ideal scores the "
    "exact acceptance takes only the values 1.0 (boundary <= 5/13) and 0.6 "
    "(boundary > 5/13), so no boundary yields |c_exact - 0.8| <= 0.05"))
def test_criterion_2_literal_statement_for_s1_high_ratio(s1, estimates):
    boundary, _ = estimates[("s1", 0.8)]
    acc = exact_acceptance(s1.p_model, s1.ideal_scores, 0.8, boundary)
    assert abs(acc - 0.8) <= 0.05 + EPS


def test_criterion_3_boundary_monotone_in_ratio(s1, s2, s3, estimates):
    step = 0.01
    details, ok = [], True
    scenarios = {"s1": s1, "s2": s2, "s3": s3}
    for name in scenarios:
        bounds = [estimates[(name, ratio)][0] for ratio in ESTIMATE_GRID]
        details.append(f"{name}: " + " >= ".join(f"{b:.3f}" for b in bounds))
        ok = ok and all(a >= b - step - EPS for a, b in zip(bounds, bounds[1:]))
    s4 = fg.build_scenario("s4")
    sampler = SamplerConfig(max_len=s4.length, seed=5)
    bounds = []
    for ratio in ESTIMATE_GRID:
        b, _ = fg.estimate_boundary(s4.generator, s4.exact_disc, ratio,
                                    sampler=sampler,
                                    rng=np.random.default_rng(derive_seed(5, "s4", ratio)))
        bounds.append(b)
    details.append("s4: " + " >= ".join(f"{b:.3f}" for b in bounds))
    ok = ok and all(a >= b - step - EPS for a, b in zip(bounds, bounds[1:]))
    _report(3, "estimated boundary non-increasing in the acceptance ratio",
            ok, "; ".join(details))


def test_criterion_4_distribution_correction_with_trained_disc(
        s2, s3, s2_disc, s3_disc):
    t0 = time.perf_counter()
    details, ok = [], True
    for s, (disc, _) in ((s2, s2_disc), (s3, s3_disc)):
        scores = disc.predict_corpus(s.p_real.domain)
        sol = exact_boundary(s.p_model, scores, 0.5)
        fgen = FilteredGenerator(s.generator, disc, FilterParams(0.5, sol.boundary))
        sampler = SamplerConfig(max_len=s.length, seed=77)
        base = s.generator.sample_corpus(200_000, sampler, np.random.default_rng(101))
        accepted, stats = fg.sample_filtered(fgen, 200_000, sampler,
                                             np.random.default_rng(202))
        rejected = stats.rejected_sequences
        tv_base = tv_distance(empirical_distribution(base, s.p_real), s.p_real)
        tv_acc = tv_distance(empirical_distribution(accepted, s.p_real), s.p_real)
        tv_rej = tv_distance(empirical_distribution(rejected, s.p_real), s.p_real)
        gain, harm = tv_base - tv_acc, tv_rej - tv_base
        details.append(f"{s.name}: TV {tv_base:.4f} -> accepted {tv_acc:.4f}, "
                       f"rejected {tv_rej:.4f}")
        ok = ok and gain >= 0.005 and harm >= 0.005
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(4, "accepted stream closer to real, rejected further (200k, c=0.5)",
            ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_5_classification_difficulty_vs_ratio(s3, s3_disc):
    disc0, _ = s3_disc
    scores = disc0.predict_corpus(s3.p_real.domain)
    sampler = SamplerConfig(max_len=s3.length, seed=7)
    real_eval = synth_markov(s3.source, 30_000, np.random.default_rng(909), "eval")
    cfg = DiscConfig(lr=0.05, batch_size=256, max_epochs=200, patience=20)

    def fresh_error(stream_gen, seed):
        fresh_cfg = DiscConfig(**{**cfg.__dict__, "seed": seed})
        d, _ = fg.train_discriminator(s3.train, stream_gen, fresh_cfg,
                                      np.random.default_rng(seed))
        fake_eval = stream_gen.sample_corpus(30_000, sampler,
                                             np.random.default_rng(seed + 1))
        return fg.error_rate(d, real_eval, fake_eval)

    e_base = fresh_error(s3.generator, 1000)
    errs = {}
    for ratio in (0.8, 0.5, 0.2):
        sol = exact_boundary(s3.p_model, scores, ratio)
        fgen = FilteredGenerator(s3.generator, disc0, FilterParams(ratio, sol.boundary))
        errs[ratio] = fresh_error(fgen, int(ratio * 10_000))
    ok = (all(errs[r] > e_base for r in errs)
          and errs[0.8] <= errs[0.5] <= errs[0.2])
    _report(5, "filtering raises classification error, more so for smaller ratios",
            ok, f"baseline {e_base:.4f}; " +
            ", ".join(f"c={r}: {errs[r]:.4f}" for r in (0.8, 0.5, 0.2)))


def test_criterion_6_length_trend():
    errs = []
    for length in fg.bucket_lengths("s4"):
        s = fg.build_scenario("s4", length=length)
        cfg = DiscConfig(lr=0.05, batch_size=256, max_epochs=200, patience=20, seed=41)
        disc, _ = fg.train_discriminator(s.train, s.generator, cfg,
                                         np.random.default_rng(41))
        sampler = SamplerConfig(max_len=length, seed=11)
        real_eval = synth_markov(s.source, 20_000, np.random.default_rng(505), "eval")
        fake_eval = s.generator.sample_corpus(20_000, sampler,
                                              np.random.default_rng(606))
        errs.append(fg.error_rate(disc, real_eval, fake_eval))
    ok = all(a >= b for a, b in zip(errs, errs[1:]))
    _report(6, "classification error non-increasing in sequence length",
            ok, ", ".join(f"L={l}: {e:.4f}"
                          for l, e in zip(fg.bucket_lengths("s4"), errs)))


def test_criterion_7_metric_correctness():
    vocab = fg.build_vocab(["a b c d e f g h"], max_size=20)
    checks = {}
    hyp = fg.encode_corpus(["a b c d"], vocab)
    ref = fg.encode_corpus(["a b c e"], vocab)
    got = bleu(hyp, ref, BleuConfig(max_order=2))
    checks["bleu 0.7071"] = abs(got - 0.70710678) <= 1e-4
    a = np.array([[-np.sqrt(0.5)], [np.sqrt(0.5)]])
    b = a + 3.0
    checks["fed 1-D = 9"] = abs(fed(a, b) - 9.0) <= 1e-6
    base = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]) * np.sqrt(1.5)
    checks["fed commuting = 2"] = abs(fed(base, 2 * base) - 2.0) <= 1e-6
    checks["fed identity = 0"] = abs(fed(base, base)) <= 1e-6
    same = fg.encode_corpus(["a b c"] * 4, vocab)
    checks["self-bleu identical = 1"] = abs(self_bleu(same) - 1.0) <= 1e-12
    disjoint = fg.encode_corpus(["a b", "c d", "e f", "g h"], vocab)
    checks["self-bleu disjoint <= 1e-6"] = self_bleu(disjoint) <= 1e-6
    _report(7, "metric closed-form values",
            all(checks.values()),
            ", ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_8_numerical_suites(s2):
    checks = {}
    # gradients of a tiny classifier vs central finite differences
    vocab = fg.build_vocab(["a b c"], max_size=10)
    disc = TextCNN(vocab, DiscConfig(embed_dim=3, kernels2=2, kernels3=2, seed=8),
                   np.random.default_rng(8))
    batch = fg.Corpus(vocab, [(4, 5, 6, 4), (5, 6), (6, 4, 5)])
    labels = np.array([1.0, 0.0, 1.0])
    _, grads = disc.loss_and_grads(batch, labels)
    worst = 0.0
    for name in disc.trainable():
        param = disc.params[name]
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + 1e-5
            up, _ = disc.loss_and_grads(batch, labels)
            param[idx] = orig - 1e-5
            down, _ = disc.loss_and_grads(batch, labels)
            param[idx] = orig
            numeric = (up - down) / 2e-5
            denom = max(abs(numeric), abs(grads[name][idx]), 1e-8)
            worst = max(worst, abs(numeric - grads[name][idx]) / denom)
    checks[f"classifier gradcheck (worst rel err {worst:.1e})"] = worst <= 1e-3

    # recurrent LM gradients on a 3-token toy batch
    lm = fg.NeuralLM(vocab, fg.NeuralConfig(embed_dim=4, hidden_dim=5, seed=0))
    toy = fg.Corpus(vocab, [(4, 5, 6)])
    _, lg = lm.nll_and_grads(toy)
    worst_lm = 0.0
    for name, param in lm.params.items():
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + 1e-4
            up, _ = lm.nll_and_grads(toy)
            param[idx] = orig - 1e-4
            down, _ = lm.nll_and_grads(toy)
            param[idx] = orig
            numeric = (up - down) / 2e-4
            denom = max(abs(numeric), abs(lg[name][idx]), 1e-8)
            worst_lm = max(worst_lm, abs(numeric - lg[name][idx]) / denom)
    checks[f"lm gradcheck (worst rel err {worst_lm:.1e})"] = worst_lm <= 1e-3

    total = float(enumerate_distribution(s2.generator, s2.vocab, s2.length).probs.sum())
    checks[f"n-gram normalization (sum {total:.8f})"] = abs(total - 1.0) <= 1e-6

    rng = np.random.default_rng(42)
    mc_ok = True
    for score, ratio, boundary in ((0.2, 0.5, 0.6), (0.45, 0.9, 0.5), (0.7, 0.5, 0.6)):
        z = rng.random(100_000)
        s_val = fg.acceptance_probability(score, ratio, boundary)
        freq = float(((score >= boundary) | (z <= s_val)).mean())
        mc_ok = mc_ok and abs(freq - s_val) <= 0.01
    checks["Monte Carlo acceptance within 0.01 of closed form"] = mc_ok

    _report(8, "numerical suites",
            all(checks.values()),
            "; ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_9_reproducibility(tmp_path):
    config_doc = {
        "seed": 5,
        "scenario": "s1",
        "discriminator": {"lr": 0.05, "batch_size": 256, "max_epochs": 15,
                          "patience": 3},
        "filter": {"c": [1.0, 0.4]},
        "temperatures": [1.0, 1.1],
        "metrics": ["bleu", "selfbleu", "lm", "fed"],
        "eval": {"n_samples": 1200},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_doc))
    config = validate_config(path)
    run_pipeline(config, tmp_path / "run_a")
    run_pipeline(config, tmp_path / "run_b")
    a = (tmp_path / "run_a" / "sweep.csv").read_bytes()
    b = (tmp_path / "run_b" / "sweep.csv").read_bytes()
    _report(9, "two identical pipeline runs produce byte-identical sweep.csv",
            a == b, f"{len(a)} bytes each")
