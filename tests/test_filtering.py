import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtergen as fg
from filtergen import (BudgetError, FilteredGenerator, FilterParams, FilterStats,
                       InputError, SamplerConfig, accept, acceptance_probability,
                       estimate_boundary, sample_filtered)
from filtergen.oracle import empirical_distribution, exact_acceptance, exact_boundary


class ConstantDisc:
    def __init__(self, score):
        self.score = score

    def predict(self, seq):
        return self.score

    def predict_corpus(self, corpus):
        return np.full(len(list(corpus)), self.score)


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
               "order": np.int64(1), "fixed_length": None, "seed": -3,
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
    (fg.NeuralConfig, {"seed": "1"}, "seed must be an integer, got '1'"),
])
def test_config_dataclasses_check_their_values(cls, kwargs, problem):
    with pytest.raises(InputError) as err:
        cls(**kwargs)
    assert str(err.value) == problem
    # the edges that stay valid, numpy integers included
    edges = {f.name: VALID_EDGES[f.name] for f in dataclasses.fields(cls)
             if f.name in VALID_EDGES}
    cls(**edges)


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


def test_accept_zero_boundary_always_accepts(s1):
    params = FilterParams(0.4, 0.0)
    rng = np.random.default_rng(0)
    seq = s1.p_real.domain[0]
    assert all(accept(seq, ConstantDisc(0.3), params, rng) for _ in range(100))


def test_accept_never_when_probability_vanishes():
    # score ~ 0 below the boundary: acceptance probability ~ 1e-13
    params = FilterParams(0.5, 0.9)
    rng = np.random.default_rng(1)
    disc = ConstantDisc(1e-13)
    assert not any(accept(None, disc, params, rng) for _ in range(1000))


@pytest.mark.parametrize("score,ratio,boundary", [
    (0.2, 0.5, 0.6), (0.35, 0.3, 0.9), (0.7, 0.5, 0.6), (0.45, 0.9, 0.5),
])
def test_acceptance_frequency_matches_closed_form(score, ratio, boundary):
    params = FilterParams(ratio, boundary)
    rng = np.random.default_rng(42)
    disc = ConstantDisc(score)
    hits = sum(accept(None, disc, params, rng) for _ in range(100_000))
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


def test_estimate_boundary_rejects_bad_ratio(s1):
    with pytest.raises(InputError):
        estimate_boundary(s1.generator, s1.exact_disc, 0.0)


def test_identity_filter_reproduces_base_stream(s2):
    fgen = FilteredGenerator(s2.generator, s2.exact_disc, FilterParams(1.0, 0.0))
    cfg = SamplerConfig(max_len=s2.length, seed=11)
    accepted, stats = sample_filtered(fgen, 500, cfg, np.random.default_rng(11))
    base = s2.generator.sample_corpus(500, cfg, np.random.default_rng(11))
    assert [s.ids for s in accepted] == [s.ids for s in base]
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


def test_mean_scores_and_stats(s2, s2_disc):
    disc, _ = s2_disc
    sol = exact_boundary(s2.p_model, disc.predict_corpus(s2.p_real.domain), 0.5)
    fgen = FilteredGenerator(s2.generator, disc, FilterParams(0.5, sol.boundary))
    cfg = SamplerConfig(max_len=s2.length, seed=17)
    accepted, stats = sample_filtered(fgen, 5000, cfg, np.random.default_rng(17))
    assert len(accepted) == 5000
    assert stats.mean_score_accepted > stats.mean_score_rejected
    assert 0.0 < stats.acceptance_rate <= 1.0


def test_budget_error_carries_partial_results(s1):
    # acceptance probability ~ 1e-13 with the boundary out of reach
    fgen = FilteredGenerator(s1.generator, ConstantDisc(1e-13),
                             FilterParams(0.5, 0.9), max_attempts_per_sample=3)
    cfg = SamplerConfig(max_len=1, seed=19)
    with pytest.raises(BudgetError) as err:
        sample_filtered(fgen, 50, cfg, np.random.default_rng(19))
    assert err.value.stats.attempts == 150
    assert err.value.partial is None or len(err.value.partial) < 50


def test_stats_merge_is_associative():
    a = FilterStats(10, 4, 2.0, 1.0, [])
    b = FilterStats(20, 10, 6.0, 2.5, [])
    c = FilterStats(5, 5, 3.0, 0.0, [])
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.attempts == right.attempts == 35
    assert left.acceptances == right.acceptances == 19
    assert left.acceptance_rate == pytest.approx(right.acceptance_rate)
    assert left.mean_score_accepted == pytest.approx(right.mean_score_accepted)
