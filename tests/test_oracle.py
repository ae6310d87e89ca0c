import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtergen as fg
from filtergen import (DegenerateError, InputError, MarkovSource, enumerate_distribution, exact_boundary,
                       exact_filtered_distribution, js_divergence,
                       optimal_discriminator, tv_distance)
from filtergen.oracle import enumerate_domain, exact_acceptance, sequence_indices


def _uniform_source(k=3, length=2):
    tokens = tuple("abcdef"[:k])
    return MarkovSource(tokens, np.full(k, 1 / k), np.full((k, k), 1 / k), length)


def test_enumerate_uniform():
    source = _uniform_source(3, 2)
    dist = enumerate_distribution(source, source.vocab, 2)
    assert len(dist) == 9
    assert np.allclose(dist.probs, 1 / 9)


def test_enumeration_order_is_lexicographic():
    source = _uniform_source(3, 2)
    dist = enumerate_distribution(source, source.vocab, 2)
    assert isinstance(dist.domain, fg.Corpus)
    assert dist.domain.sequences == tuple(itertools.product((4, 5, 6), repeat=2))
    assert sequence_indices(dist.domain, 3, 2).tolist() == list(range(9))
    matrix = fg.Corpus(source.vocab, dist.domain.sequences[::-1])
    assert sequence_indices(matrix, 3, 2).tolist() == list(range(8, -1, -1))
    with pytest.raises(InputError):
        sequence_indices(fg.Corpus(source.vocab, [(4,), (4, 5)]), 3, 2)


def test_enumerate_rejects_oversized_domain():
    source = _uniform_source(5, 2)
    with pytest.raises(InputError):
        enumerate_distribution(source, source.vocab, 12)  # 5^12 > 1e6


def test_enumerate_domain_rejects_an_empty_domain():
    source = _uniform_source(3, 2)
    with pytest.raises(InputError, match="length must be >= 1"):
        enumerate_domain(source.vocab, 0)
    with pytest.raises(InputError, match="no content tokens"):
        enumerate_domain(fg.Vocab([]), 2)


def test_model_enumeration_normalizes(s2):
    assert s2.p_model.probs.sum() == pytest.approx(1.0, abs=1e-6)
    assert s2.p_real.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_optimal_discriminator_pointwise():
    source = _uniform_source(2, 1)
    domain = enumerate_distribution(source, source.vocab, 1)
    p_r = domain.renormalized(np.array([0.3, 0.7]))
    p_m = domain.renormalized(np.array([0.1, 0.9]))
    scores = optimal_discriminator(p_r, p_m)
    assert scores[0] == pytest.approx(0.3 / 0.4)
    # equal positive mass -> 0.5
    eq = optimal_discriminator(p_r, p_r)
    assert np.allclose(eq, 0.5)
    # zero real mass -> 0
    zero = optimal_discriminator(domain.renormalized(np.array([0.0, 1.0])), p_m)
    assert zero[0] == 0.0


def test_optimal_discriminator_zero_convention():
    source = _uniform_source(2, 1)
    base = enumerate_distribution(source, source.vocab, 1)
    p_r = base.renormalized(np.array([1.0, 0.0]))
    p_m = base.renormalized(np.array([1.0, 0.0]))
    assert optimal_discriminator(p_r, p_m)[1] == 0.5


def test_exact_filtered_identity(s1):
    dist, c_exact = exact_filtered_distribution(s1.p_model, s1.ideal_scores, 1.0, 0.0)
    assert np.allclose(dist.probs, s1.p_model.probs)
    assert c_exact == pytest.approx(1.0, abs=1e-12)


def test_exact_filtered_two_sequence_case(s1):
    # brute-force check: S(a) = 0.4 * (5/13)/(8/13) = 0.25, S(b) = 1
    dist, c_exact = exact_filtered_distribution(s1.p_model, s1.ideal_scores, 0.4, 0.5)
    assert c_exact == pytest.approx(0.4, abs=1e-12)
    assert np.allclose(dist.probs, [0.5, 0.5], atol=1e-12)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_filtered_degenerate():
    source = _uniform_source(2, 1)
    base = enumerate_distribution(source, source.vocab, 1)
    with pytest.raises(DegenerateError):
        # zero scores below the boundary leave no acceptance mass at all
        exact_filtered_distribution(base, np.array([0.0, 0.0]), 0.5, 1.0)


def test_exact_boundary_identity_limit(s1):
    assert exact_boundary(s1.p_model, s1.ideal_scores, 1.0).boundary == 0.0


def test_exact_boundary_two_sequence_case(s1):
    sol = exact_boundary(s1.p_model, s1.ideal_scores, 0.4)
    assert sol.achievable
    assert sol.acceptance == pytest.approx(0.4, abs=1e-12)
    # smallest boundary attaining 0.4 sits just above D*(a) = 5/13
    assert sol.boundary == pytest.approx(5 / 13, abs=1e-4)
    assert sol.boundary > 5 / 13


def test_exact_boundary_monotone_in_target(s1, s2, s3):
    scenarios = (s1, s2, s3, fg.build_scenario("s4"))
    for s in scenarios:
        bounds = [exact_boundary(s.p_model, s.ideal_scores, c).boundary
                  for c in (0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b - 1e-9 for a, b in zip(bounds, bounds[1:]))


def test_exact_boundary_reports_unachievable_floor():
    source = _uniform_source(2, 1)
    base = enumerate_distribution(source, source.vocab, 1)
    # both scores high: even at boundary 1.0 everything passes the ratio term
    sol = exact_boundary(base, np.array([0.95, 0.99]), 0.1)
    assert not sol.achievable
    assert sol.boundary == 1.0
    assert sol.floor_acceptance > 0.1


def _reference_boundary(p_model, scores, ratio):
    """(plateau, boundary) of the first plateau whose direct acceptance is
    within ratio + 1e-12, probing 0 and the next float above each distinct
    score; a plateau is numbered by how many distinct scores lie below it."""
    values = np.unique(scores)
    probes = [0.0] + [np.nextafter(u, 2.0) for u in values if u < 1.0]
    for probe in probes:
        if exact_acceptance(p_model, scores, ratio, probe) <= ratio + 1e-12:
            return int(np.searchsorted(values, probe)), probe
    return None, None


@st.composite
def _boundary_case(draw):
    k, length = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transition = rng.dirichlet(np.full(k, 0.5), size=k)
    if draw(st.booleans()):  # sequences of zero model probability
        transition[:, 0] = 0.0
        transition /= transition.sum(axis=1, keepdims=True)
    source = MarkovSource(tuple("abc"[:k]), rng.dirichlet(np.ones(k)), transition, length)
    p_model = enumerate_distribution(source, source.vocab, length)
    # ties, both endpoints, and gaps narrower than the old 1e-4 grid, down to one ulp
    base = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    pool = sorted({0.0, 1.0, *base, *(np.nextafter(b, 2.0) for b in base if b < 1.0),
                   *(min(b + gap, 1.0) for b in base for gap in (1e-13, 3e-5))})
    scores = np.array(draw(st.lists(st.sampled_from(pool), min_size=len(p_model),
                                    max_size=len(p_model))))
    return p_model, scores, draw(st.floats(1e-4, 1.0))


@settings(max_examples=300, deadline=None)
@given(_boundary_case())
def test_exact_boundary_matches_brute_force_plateau(case):
    p_model, scores, ratio = case
    sol = exact_boundary(p_model, scores, ratio)
    floor = exact_acceptance(p_model, scores, ratio, 1.0)
    assert sol.floor_acceptance == floor
    plateau, probe = _reference_boundary(p_model, scores, ratio)
    if plateau is None:
        assert not sol.achievable
        assert (sol.boundary, sol.acceptance) == (1.0, floor)
        return
    values = np.unique(scores)
    assert sol.achievable
    assert int(np.searchsorted(values, sol.boundary)) == plateau
    assert sol.acceptance == exact_acceptance(p_model, scores, ratio, probe)
    assert sol.acceptance == exact_acceptance(p_model, scores, ratio, sol.boundary)
    if plateau == 0:
        assert sol.boundary == 0.0
    else:
        upper = values[plateau] if plateau < len(values) else 1.0
        assert values[plateau - 1] < sol.boundary <= upper


def test_exact_boundary_finds_plateau_narrower_than_old_grid():
    source = _uniform_source(2, 1)
    base = enumerate_distribution(source, source.vocab, 1)
    lo, hi = 0.20002, 0.20008
    odds = np.array([lo, hi]) / (1 - np.array([lo, hi]))
    # no multiple of 1e-4 lies in (lo, hi], so a 1e-4 grid scan went from
    # acceptance 1.0 at 0.2 straight to the (hi, 1] plateau at 0.2001
    assert math.floor(hi * 1e4) == math.floor(lo * 1e4)
    sol = exact_boundary(base, np.array([lo, hi]), 0.8)
    assert sol.achievable
    assert lo < sol.boundary <= hi
    assert sol.acceptance == pytest.approx(0.5 + 0.4 * odds[0], abs=1e-15)
    above_hi = exact_acceptance(base, np.array([lo, hi]), 0.8, 0.2001)
    assert above_hi == pytest.approx(0.4 * odds.sum(), abs=1e-15)
    assert abs(sol.acceptance - 0.8) < abs(above_hi - 0.8)


def test_exact_boundary_reports_only_directly_feasible_acceptance():
    # at ratio ~1 every score here passes with probability 1, so each plateau
    # accepts the whole mass: 1 - 2**-53 when summed in score order, 1.0 as
    # exact_acceptance sums it, with ratio + 1e-12 in between
    source = _uniform_source(3, 2)
    base = enumerate_distribution(source, source.vocab, 2)
    p_model = base.renormalized(np.array([float.fromhex(h) for h in (
        "0x1.aeb720eb3ee13p-12", "0x1.8ff33f6764519p-2", "0x1.feb002c6d8b94p-13",
        "0x1.033df954006b1p-4", "0x1.fdf86f4aeff4fp-5", "0x1.bd8be35a8af8ep-2",
        "0x1.523249259196fp-5", "0x1.1e5ba229d02b3p-8", "0x1.438ac4e2bed9fp-9")]))
    scores = np.array([float.fromhex(h) for h in (
        "0x1.94362bb597043p-1", "0x1.e4d01c3b002cap-1", "0x1.edb5b60f607c6p-1",
        "0x1.7aa500e4a789ep-1", "0x1.a552b525e79cdp-1", "0x1.73788b97a37acp-1",
        "0x1.a9dead2e4d1cap-1", "0x1.76ac92b3f4151p-1", "0x1.816602eb03689p-1")])
    ratio = float.fromhex("0x1.fffffffffdcd0p-1")
    assert np.sum(p_model.probs[np.argsort(scores)]) <= ratio + 1e-12
    assert exact_acceptance(p_model, scores, ratio, 0.0) == 1.0 > ratio + 1e-12
    sol = exact_boundary(p_model, scores, ratio)
    assert (sol.boundary, sol.acceptance, sol.achievable) == (1.0, 1.0, False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1, "all-nan"])
def test_scores_must_be_finite_and_in_unit_interval(s1, bad):
    scores = np.full(2, np.nan) if bad == "all-nan" else np.array([0.3, bad])
    with pytest.raises(InputError):
        exact_boundary(s1.p_model, scores, 0.5)
    with pytest.raises(InputError):
        exact_acceptance(s1.p_model, scores, 0.5, 0.5)
    with pytest.raises(InputError):
        exact_filtered_distribution(s1.p_model, scores, 0.5, 0.5)
    # the same vectors as probabilities: only 1.1 is a valid (unnormalized) weight
    if bad != 1.1:
        with pytest.raises(InputError):
            s1.p_model.renormalized(scores)


def test_distribution_does_not_freeze_callers_array(s1):
    probs = np.array([0.25, 0.75])
    dist = s1.p_model.renormalized(probs)
    assert probs.flags.writeable
    assert not dist.probs.flags.writeable
    probs[0] = 0.5
    assert dist.probs.tolist() == [0.25, 0.75]


def test_acceptance_non_increasing_in_boundary(s2):
    grid = np.linspace(0.0, 1.0, 101)
    acc = [exact_acceptance(s2.p_model, s2.ideal_scores, 0.5, u) for u in grid]
    assert all(a >= b - 1e-12 for a, b in zip(acc, acc[1:]))


def test_exact_correction_on_filtered_region(s1, s2, s3):
    # with ideal scores, the filtered law is proportional to the real law on
    # the unclamped filtered region, and equal to it when the boundary
    # attains the target ratio exactly (then c_exact == ratio)
    checked_exact = 0
    for s in (s1, s2, s3):
        for ratio in (0.2, 0.4, 0.5, 0.8):
            sol = exact_boundary(s.p_model, s.ideal_scores, ratio)
            dist, c_exact = exact_filtered_distribution(s.p_model, s.ideal_scores, ratio,
                                                        sol.boundary)
            region = s.ideal_scores < min(sol.boundary, 1.0 / (1.0 + ratio))
            if not region.any():
                continue
            scaled = (ratio / c_exact) * s.p_real.probs[region]
            assert np.abs(dist.probs[region] - scaled).max() <= 1e-9
            if abs(c_exact - ratio) <= 1e-12:
                err = np.abs(dist.probs[region] - s.p_real.probs[region]).max()
                assert err <= 1e-9
                checked_exact += 1
    # exact attainment needs an acceptance plateau equal to the ratio, which
    # only s1's designed values provide; the equality branch must still run
    assert checked_exact == 2


def test_tv_and_js_basics(s1):
    assert tv_distance(s1.p_real, s1.p_real) == 0.0
    assert tv_distance(s1.p_model, s1.p_real) == pytest.approx(0.3)
    assert js_divergence(s1.p_real, s1.p_real) == pytest.approx(0.0, abs=1e-15)
    assert js_divergence(s1.p_model, s1.p_real) == pytest.approx(
        js_divergence(s1.p_real, s1.p_model), abs=1e-12)
    # both KL terms are nonnegative, and positive for different laws
    assert 0.0 < js_divergence(s1.p_model, s1.p_real) <= math.log(2)


def test_domain_mismatch_rejected(s1, s2):
    with pytest.raises(InputError):
        tv_distance(s1.p_real, s2.p_real)
    with pytest.raises(InputError):
        optimal_discriminator(s1.p_real, s2.p_model)


def test_filtered_tv_never_worse_with_ideal_scores(s1, s2, s3):
    for s in (s1, s2, s3):
        base_tv = tv_distance(s.p_model, s.p_real)
        for ratio in (0.2, 0.5, 0.8):
            sol = exact_boundary(s.p_model, s.ideal_scores, ratio)
            dist, _ = exact_filtered_distribution(s.p_model, s.ideal_scores, ratio,
                                                  sol.boundary)
            assert tv_distance(dist, s.p_real) <= base_tv + 1e-12
