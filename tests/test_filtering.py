import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filtergen as fg
from filtergen import (BudgetError, FilteredGenerator, FilterParams,
                       InputError, SamplerConfig, acceptance_probability,
                       estimate_boundary, sample_filtered)
from filtergen.filtering import _BLOCK_ROWS, _accept_mask, raw_acceptance_probability
from filtergen.oracle import empirical_distribution, exact_acceptance, exact_boundary


class ConstantDisc:
    def __init__(self, score):
        self.score = score

    def predict_corpus(self, corpus):
        return np.full(len(corpus), self.score)


def test_acceptance_probability_hand_values():
    assert acceptance_probability(0.2, 0.5, 0.6) == pytest.approx(0.125)
    assert acceptance_probability(0.7, 0.5, 0.6) == 1.0
    assert acceptance_probability(0.9, 0.8, 0.95) == 1.0  # 7.2 clamped


def test_acceptance_probability_validation():
    for bad in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(InputError):
            acceptance_probability(bad, 0.5, 0.5)
    with pytest.raises(InputError):
        acceptance_probability(0.5, 0.0, 0.5)
    with pytest.raises(InputError):
        acceptance_probability(0.5, 0.5, 1.5)


VALID_EDGES = {"rounds": 1, "tail": 1, "init": 0, "lr": 0.0, "momentum": 0.0,
               "order": np.int64(1), "fixed_length": None, "seed": 0,
               "hidden_dim": np.int32(2)}


@pytest.mark.parametrize("cls,kwargs,problem", [
    (fg.BoundaryEstimateConfig, {"rounds": 2.5}, "rounds must be an integer >= 1, got 2.5"),
    (fg.BoundaryEstimateConfig, {"tail": 0}, "tail must be an integer >= 1, got 0"),
    (fg.BoundaryEstimateConfig, {"step": 1.0}, "step must be a number in (0, 1), got 1.0"),
    (fg.BoundaryEstimateConfig, {"init": "0.5"}, "init must be a number in [0, 1], got '0.5'"),
    (fg.DiscConfig, {"lr": "fast"}, "lr must be a number in [0, inf), got 'fast'"),
    (fg.DiscConfig, {"batch_size": 0}, "batch_size must be an integer >= 1, got 0"),
    (fg.DiscConfig, {"momentum": 1.0}, "momentum must be a number in [0, 1), got 1.0"),
    (fg.DiscConfig, {"patience": True}, "patience must be an integer >= 1, got True"),
    (fg.NGramConfig, {"order": "2"}, "order must be an integer >= 1, got '2'"),
    (fg.NGramConfig, {"delta": 0.0}, "delta must be a number in (0, inf), got 0.0"),
    (fg.NGramConfig, {"fixed_length": 0},
     "fixed_length must be null or an integer >= 1, got 0"),
    (fg.NeuralConfig, {"hidden_dim": 6.0}, "hidden_dim must be an integer >= 1, got 6.0"),
    (fg.NeuralConfig, {"lr": float("nan")}, "lr must be a number in [0, inf), got nan"),
    (fg.NeuralConfig, {"seed": "1"}, "seed must be an integer >= 0, got '1'"),
])
def test_config_dataclasses_check_their_values(cls, kwargs, problem):
    with pytest.raises(InputError) as err:
        cls(**kwargs)
    assert str(err.value) == problem
    # the edges that stay valid, numpy integers included
    edges = {f.name: VALID_EDGES[f.name] for f in dataclasses.fields(cls)
             if f.name in VALID_EDGES}
    cls(**edges)


@pytest.mark.parametrize("cls", [fg.DiscConfig, fg.NeuralConfig, fg.SamplerConfig])
def test_config_dataclasses_reject_seeds_numpy_cannot_take(cls):
    # numpy's generators take integers >= 0 only
    for seed in (-1, True):
        with pytest.raises(InputError, match=f"seed must be an integer >= 0, got {seed}"):
            cls(seed=seed)
    cls(seed=np.int64(0))


@settings(max_examples=200)
@given(st.floats(1e-9, 1 - 1e-9), st.floats(1e-9, 1.0), st.floats(0.0, 1.0))
def test_acceptance_probability_range_property(score, ratio, boundary):
    s = acceptance_probability(score, ratio, boundary)
    assert 0.0 <= s <= 1.0


@settings(max_examples=100)
@given(st.floats(1e-6, 1.0), st.floats(0.0, 1.0))
def test_acceptance_probability_monotone_in_score(ratio, boundary):
    grid = np.linspace(1e-6, 1 - 1e-6, 64)
    vals = acceptance_probability(grid, ratio, boundary)
    assert (np.diff(vals) >= -1e-15).all()


def test_filter_params_validation():
    FilterParams(1.0, 0.0)
    FilterParams(0.3, 0.9)
    with pytest.raises(InputError):
        FilterParams(1.0, 0.2)  # identity filter must keep boundary at 0
    with pytest.raises(InputError):
        FilterParams(0.0, 0.5)
    with pytest.raises(InputError):
        FilterParams(0.5, -0.1)


def test_accept_zero_boundary_always_accepts():
    rng = np.random.default_rng(0)
    assert _accept_mask(np.full(100, 0.3), 0.4, 0.0, rng).all()


def test_accept_never_when_probability_vanishes():
    # score ~ 0 below the boundary: acceptance probability ~ 1e-13
    rng = np.random.default_rng(1)
    assert not _accept_mask(np.full(1000, 1e-13), 0.5, 0.9, rng).any()


@pytest.mark.parametrize("score,ratio,boundary", [
    (0.2, 0.5, 0.6), (0.35, 0.3, 0.9), (0.7, 0.5, 0.6), (0.45, 0.9, 0.5),
])
def test_acceptance_frequency_matches_closed_form(score, ratio, boundary):
    rng = np.random.default_rng(42)
    hits = int(_accept_mask(np.full(100_000, score), ratio, boundary, rng).sum())
    expected = acceptance_probability(score, ratio, boundary)
    assert hits / 100_000 == pytest.approx(expected, abs=0.01)


def test_estimate_boundary_identity_target(s1):
    boundary, trace = estimate_boundary(
        s1.generator, s1.exact_disc, 1.0,
        sampler=SamplerConfig(max_len=1, seed=3), rng=np.random.default_rng(3))
    assert boundary == 0.0
    assert trace[-1]["acceptance"] == 1.0
    assert len(trace) == 100


def test_estimate_boundary_two_sequence_fixed_point(s1):
    boundary, _ = estimate_boundary(
        s1.generator, s1.exact_disc, 0.4,
        sampler=SamplerConfig(max_len=1, seed=5), rng=np.random.default_rng(5))
    acc = exact_acceptance(s1.p_model, s1.ideal_scores, 0.4, boundary)
    assert abs(acc - 0.4) <= 0.05


def test_estimate_boundary_monotone_over_targets(s2):
    sampler = SamplerConfig(max_len=s2.length, seed=6)
    low, _ = estimate_boundary(s2.generator, s2.exact_disc, 0.8,
                               sampler=sampler, rng=np.random.default_rng(6))
    high, _ = estimate_boundary(s2.generator, s2.exact_disc, 0.2,
                                sampler=sampler, rng=np.random.default_rng(7))
    assert high >= low


def _per_round_estimate_boundary(gen, disc, ratio, cfg, sampler, rng):
    """The boundary search as one sample, score and decision per round."""
    boundary, trace, history = cfg.init, [], []
    for round_idx in range(cfg.rounds):
        batch = gen.sample_corpus(cfg.samples_per_round, sampler, rng)
        scores = np.asarray(disc.predict_corpus(batch), dtype=np.float64)
        z = rng.random(len(scores))
        accepted = (scores >= boundary) | (z <= raw_acceptance_probability(
            scores, ratio, boundary))
        acc = float(accepted.mean())
        trace.append({"round": round_idx, "u_c": boundary, "acceptance": acc})
        history.append(boundary)
        boundary = boundary - cfg.step if acc <= ratio else boundary + cfg.step
        boundary = min(max(boundary, 0.0), 1.0)
    return float(np.mean(history[-cfg.tail:])), trace


@pytest.fixture(scope="module")
def search_cases(s2):
    """(generator, scorer, max_len) triples over s2's vocabulary, one of each
    generator kind; the trigram's contexts are looked up by their prefixes."""
    fixed = s2.generator  # a fixed-length bigram
    eos = fg.train_mle(s2.train, None, fg.NGramConfig(order=2, delta=0.5))
    cnn = fg.TextCNN(s2.vocab, fg.DiscConfig(seed=3))

    def neural(fixed_length):
        return fg.NeuralLM(s2.vocab, fg.NeuralConfig(embed_dim=4, hidden_dim=5,
                                                     fixed_length=fixed_length, seed=2))
    return {"fixed-textcnn": (fixed, cnn, s2.length), "eos-textcnn": (eos, cnn, 8),
            "fixed-exact": (fixed, s2.exact_disc, s2.length),
            "markov-textcnn": (fg.MarkovModel(s2.source), cnn, s2.length),
            "neural-fixed-textcnn": (neural(s2.length), cnn, s2.length),
            "neural-eos-textcnn": (neural(None), cnn, 8),
            "trigram-eos-textcnn": (
                fg.train_mle(s2.train, None, fg.NGramConfig(order=3, delta=0.5)), cnn, 8)}


# more rows per round than one scoring block holds
_OVER_BUDGET = _BLOCK_ROWS + 1


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["fixed-textcnn", "eos-textcnn", "fixed-exact", "markov-textcnn",
                             "neural-fixed-textcnn", "neural-eos-textcnn",
                             "trigram-eos-textcnn"]),
       per_round=st.sampled_from([1, 7, 1000, _OVER_BUDGET]) | st.integers(1, 60),
       rounds=st.integers(1, 40), ratio=st.just(1.0) | st.floats(0.01, 1.0),
       init=st.floats(0.0, 1.0), step=st.floats(0.001, 0.3), tail=st.integers(1, 12),
       temperature=st.just(1.0) | st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
@example(case="fixed-textcnn", per_round=1000, rounds=37, ratio=0.5, init=0.5,
         step=0.01, tail=10, temperature=1.0, seed=1)
@example(case="eos-textcnn", per_round=7, rounds=40, ratio=1.0, init=0.5, step=0.01,
         tail=10, temperature=1.0, seed=2)
@example(case="fixed-exact", per_round=_OVER_BUDGET, rounds=2, ratio=0.3, init=0.9,
         step=0.05, tail=3, temperature=1.0, seed=3)
@example(case="fixed-exact", per_round=1, rounds=33, ratio=0.2, init=0.1, step=0.02,
         tail=5, temperature=1.0, seed=4)
@example(case="markov-textcnn", per_round=600, rounds=40, ratio=0.4, init=0.5, step=0.01,
         tail=10, temperature=0.7, seed=5)
@example(case="neural-fixed-textcnn", per_round=300, rounds=40, ratio=0.5, init=0.5,
         step=0.01, tail=10, temperature=1.0, seed=6)
@example(case="neural-eos-textcnn", per_round=300, rounds=40, ratio=0.5, init=0.5,
         step=0.01, tail=10, temperature=1.3, seed=7)
@example(case="trigram-eos-textcnn", per_round=1000, rounds=40, ratio=0.5, init=0.5,
         step=0.01, tail=10, temperature=1.0, seed=8)
def test_estimate_boundary_equals_the_per_round_search(
        search_cases, case, per_round, rounds, ratio, init, step, tail, temperature, seed):
    # sampling and scoring each block at once gives the per-round search's
    # boundary, trace and rng state, whatever the generator kind
    gen, disc, max_len = search_cases[case]
    if per_round > _BLOCK_ROWS:
        rounds = rounds % 3 + 1  # a few blocks of one round each
    cfg = fg.BoundaryEstimateConfig(samples_per_round=per_round, rounds=rounds,
                                    step=step, init=init, tail=tail)
    sampler = SamplerConfig(temperature=temperature, max_len=max_len, seed=seed)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = estimate_boundary(gen, disc, ratio, cfg, sampler, rng)
    want = _per_round_estimate_boundary(gen, disc, ratio, cfg, sampler, ref_rng)
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert all(type(row["acceptance"]) is float for row in got[1])


def test_estimate_boundary_rejects_bad_ratio(s1):
    with pytest.raises(InputError):
        estimate_boundary(s1.generator, s1.exact_disc, 0.0)


def test_identity_filter_reproduces_base_stream(s2):
    fgen = FilteredGenerator(s2.generator, s2.exact_disc, FilterParams(1.0, 0.0))
    cfg = SamplerConfig(max_len=s2.length, seed=11)
    accepted, stats = sample_filtered(fgen, 500, cfg, np.random.default_rng(11))
    base = s2.generator.sample_corpus(500, cfg, np.random.default_rng(11))
    assert accepted.sequences == base.sequences
    assert stats.attempts == stats.acceptances == 500


def test_filtered_sampling_matches_exact_distribution(s1):
    sol = exact_boundary(s1.p_model, s1.ideal_scores, 0.4)
    exact_dist, _ = fg.exact_filtered_distribution(s1.p_model, s1.ideal_scores, 0.4,
                                                   sol.boundary)
    fgen = FilteredGenerator(s1.generator, s1.exact_disc,
                             FilterParams(0.4, sol.boundary))
    cfg = SamplerConfig(max_len=1, seed=13)
    accepted, stats = sample_filtered(fgen, 200_000, cfg, np.random.default_rng(13))
    emp = empirical_distribution(accepted, s1.p_real)
    assert fg.tv_distance(emp, exact_dist) <= 0.01
    assert stats.acceptance_rate == pytest.approx(0.4, abs=0.01)


def test_keep_limit_keeps_the_first_rejected_rows(s2):
    # at ratio 0.05 about 19 rows are rejected per row accepted
    fgen = FilteredGenerator(s2.generator, s2.exact_disc, FilterParams(0.05, 1.0))
    cfg = SamplerConfig(max_len=s2.length, seed=23)
    runs = {keep: sample_filtered(fgen, 300, cfg, np.random.default_rng(23),
                                  keep_rejected=keep) for keep in (None, 300, 0)}
    full, capped, none = (runs[k][1] for k in (None, 300, 0))
    assert len(full.rejected_sequences) > 10 * 300
    assert len(capped.rejected_sequences) == 300
    assert capped.rejected_sequences == full.rejected_sequences[:300]
    assert none.rejected_sequences == ()
    for accepted, stats in runs.values():
        assert accepted == runs[None][0]
        assert stats.to_dict() == full.to_dict()


def test_mean_scores_and_stats(s2, s2_disc):
    disc, _ = s2_disc
    sol = exact_boundary(s2.p_model, disc.predict_corpus(s2.p_real.domain), 0.5)
    fgen = FilteredGenerator(s2.generator, disc, FilterParams(0.5, sol.boundary))
    cfg = SamplerConfig(max_len=s2.length, seed=17)
    accepted, stats = sample_filtered(fgen, 5000, cfg, np.random.default_rng(17))
    assert len(accepted) == 5000
    assert stats.mean_score_accepted > stats.mean_score_rejected
    assert 0.0 < stats.acceptance_rate <= 1.0


def test_stats_json_writes_null_for_an_undefined_mean():
    # nothing rejected, as at ratio 1: strict JSON has no NaN for the mean
    stats = fg.FilterStats(attempts=4, acceptances=4, sum_score_accepted=2.0)
    assert np.isnan(stats.mean_score_rejected)

    def no_constant(name):
        raise AssertionError(f"{name} is not valid JSON")

    doc = json.loads(json.dumps(stats.to_dict()), parse_constant=no_constant)
    assert doc["mean_score_accepted"] == 0.5 and doc["mean_score_rejected"] is None


def test_budget_error_carries_partial_results(s1):
    # acceptance probability ~ 1e-13 with the boundary out of reach
    fgen = FilteredGenerator(s1.generator, ConstantDisc(1e-13),
                             FilterParams(0.5, 0.9), max_attempts_per_sample=3)
    cfg = SamplerConfig(max_len=1, seed=19)
    with pytest.raises(BudgetError) as err:
        sample_filtered(fgen, 50, cfg, np.random.default_rng(19))
    assert err.value.stats.attempts == 150
    assert err.value.partial is None or len(err.value.partial) < 50
