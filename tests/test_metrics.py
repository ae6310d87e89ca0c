import math
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtergen as fg
from filtergen import (BleuConfig, Corpus, InputError, MarkovModel, NGramConfig,
                       SamplerConfig, bleu, build_vocab, embed,
                       encode_corpus, fed, fit_ppmi_svd, lm_score, perplexity,
                       reverse_lm_score, self_bleu, synth_markov)
from filtergen.metrics import (_EPSILON, SWEEP_COLUMNS, MetricScorer, _cooccurrences,
                               temperature_sweep)


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(["a b c d e f g h"], max_size=20)


def _corpus(vocab, lines, split="x"):
    return encode_corpus(lines, vocab, split)


# ---------------------------------------------------------------------------
# BLEU / self-BLEU
# ---------------------------------------------------------------------------


def test_bleu_identity(vocab):
    hyps = _corpus(vocab, ["a b c", "d e f g", "a a b"])
    assert bleu(hyps, hyps) == pytest.approx(1.0)


def test_bleu_zero_overlap(vocab):
    hyps = _corpus(vocab, ["a b"])
    refs = _corpus(vocab, ["c d e", "f g"])
    assert bleu(hyps, refs) <= 1e-6


def test_bleu_hand_computed_bigram_case(vocab):
    # p1 = 3/4, p2 = 2/3, equal lengths so BP = 1: sqrt(1/2)
    hyps = _corpus(vocab, ["a b c d"])
    refs = _corpus(vocab, ["a b c e"])
    got = bleu(hyps, refs, BleuConfig(max_order=2))
    assert got == pytest.approx(math.sqrt(0.75 * (2.0 / 3.0)), abs=1e-4)
    assert got == pytest.approx(0.7071, abs=1e-4)


def test_bleu_duplicate_reference_never_decreases(vocab):
    hyps = _corpus(vocab, ["a b c", "c d a", "e f"])
    refs = ["a b d", "c d e f", "a c"]
    base = bleu(hyps, _corpus(vocab, refs))
    for dup in refs:
        again = bleu(hyps, _corpus(vocab, refs + [dup]))
        assert again >= base - 1e-12


def test_bleu_brevity_penalty():
    vocab = build_vocab(["a b c d e"], max_size=10)
    short = _corpus(vocab, ["a b"])
    refs = _corpus(vocab, ["a b c d"])
    got = bleu(short, refs, BleuConfig(max_order=1))
    assert got == pytest.approx(math.exp(1 - 4 / 2) * 1.0, abs=1e-9)


def test_bleu_range_and_validation(vocab):
    hyps = _corpus(vocab, ["a b c"])
    refs = _corpus(vocab, ["a c b"])
    assert 0.0 <= bleu(hyps, refs) <= 1.0
    with pytest.raises(InputError):
        BleuConfig(max_order=0)
    other = build_vocab(["a b c x"], max_size=10)
    with pytest.raises(InputError, match="different vocabularies"):
        bleu(hyps, _corpus(other, ["a c b"]))


def test_self_bleu_degenerate_cases(vocab):
    same = _corpus(vocab, ["a b c"] * 5)
    assert self_bleu(same) == pytest.approx(1.0)
    disjoint = _corpus(vocab, ["a b", "c d", "e f", "g h"])
    assert self_bleu(disjoint) <= 1e-6
    with pytest.raises(InputError):
        self_bleu(_corpus(vocab, ["a b"]))


def test_self_bleu_permutation_invariant(vocab):
    lines = ["a b c", "b c d", "a c", "d e f a", "b b"]
    forward = self_bleu(_corpus(vocab, lines))
    backward = self_bleu(_corpus(vocab, lines[::-1]))
    assert forward == pytest.approx(backward, abs=1e-12)


def test_self_bleu_matches_naive_leave_one_out(vocab):
    # independent oracle: score each sample against the others via plain bleu
    lines = ["a b c", "b c d", "a c b", "d e f a", "b b c"]
    samples = _corpus(vocab, lines)
    cfg = BleuConfig(max_order=3)
    naive = []
    for i in range(len(lines)):
        hyp = _corpus(vocab, [lines[i]])
        others = _corpus(vocab, lines[:i] + lines[i + 1:])
        naive.append(bleu(hyp, others, cfg))
    assert self_bleu(samples, cfg) == pytest.approx(float(np.mean(naive)), abs=1e-12)


def test_self_bleu_sampling_stability():
    source = fg.MarkovSource(("a", "b", "c"), np.full(3, 1 / 3),
                             np.full((3, 3), 1 / 3), 6)
    a = synth_markov(source, 1000, np.random.default_rng(1))
    b = synth_markov(source, 1000, np.random.default_rng(2))
    assert self_bleu(a) == pytest.approx(self_bleu(b), abs=0.02)


# Reference BLEU / self-BLEU: the per-sequence dict/Counter implementation
# that the matrix code replaced, kept as the reference it must reproduce.


def _ref_ngram_counts(ids: tuple, order: int) -> Counter:
    return Counter(ids[i: i + order] for i in range(len(ids) - order + 1))


def _ref_closest_length(sorted_lengths: list, target: int) -> int:
    # nearest reference length; ties favor the shorter one
    pos = bisect_left(sorted_lengths, target)
    best = None
    for cand in (sorted_lengths[pos - 1] if pos else None,
                 sorted_lengths[pos] if pos < len(sorted_lengths) else None):
        if cand is None:
            continue
        if best is None or abs(cand - target) < abs(best - target) or (
                abs(cand - target) == abs(best - target) and cand < best):
            best = cand
    return best


def _ref_brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def _ref_sentence_bleu(ids, max_counts_per_order, ref_len, cfg: BleuConfig) -> float:
    log_sum, orders = 0.0, 0
    for k in range(1, cfg.max_order + 1):
        possible = len(ids) - k + 1
        if possible < 1:
            continue
        counts = _ref_ngram_counts(ids, k)
        matches = sum(min(c, max_counts_per_order[k](g)) for g, c in counts.items())
        numerator = matches if matches > 0 else _EPSILON
        log_sum += math.log(numerator / possible)
        orders += 1
    score = math.exp(log_sum / orders)
    return _ref_brevity_penalty(len(ids), ref_len) * score


def _ref_bleu(hypotheses, references, cfg: BleuConfig) -> float:
    max_counts = {}
    for k in range(1, cfg.max_order + 1):
        table: dict = {}
        for ref in references.sequences:
            for g, c in _ref_ngram_counts(ref, k).items():
                if c > table.get(g, 0):
                    table[g] = c
        max_counts[k] = lambda g, t=table: t.get(g, 0)
    ref_lengths = sorted(len(r) for r in references.sequences)
    scores = [
        _ref_sentence_bleu(h, max_counts, _ref_closest_length(ref_lengths, len(h)), cfg)
        for h in hypotheses.sequences
    ]
    return float(np.mean(scores))


def _ref_self_bleu(samples, cfg: BleuConfig) -> float:
    seqs = samples.sequences
    # per order: gram -> (best count, owner, runner-up count), so the
    # leave-one-out maximum is an O(1) lookup
    tables = {}
    for k in range(1, cfg.max_order + 1):
        table: dict = {}
        for i, seq in enumerate(seqs):
            for g, c in _ref_ngram_counts(seq, k).items():
                best, owner, second = table.get(g, (0, -1, 0))
                if c > best:
                    best, owner, second = c, i, best
                elif c > second:
                    second = c
                table[g] = (best, owner, second)
        tables[k] = table
    lengths = sorted(len(s) for s in seqs)
    length_count = Counter(len(s) for s in seqs)
    scores = []
    for i, seq in enumerate(seqs):
        max_counts = {}
        for k in range(1, cfg.max_order + 1):
            table = tables[k]

            def loo(g, t=table, me=i):
                best, owner, second = t.get(g, (0, -1, 0))
                return best if owner != me else second

            max_counts[k] = loo
        own = len(seq)
        if length_count[own] > 1:
            ref_len = own
        else:
            remaining = [n for n in lengths if n != own]
            ref_len = _ref_closest_length(remaining, own)
        scores.append(_ref_sentence_bleu(seq, max_counts, ref_len, cfg))
    return float(np.mean(scores))


@st.composite
def _random_corpus(draw, min_rows=1, n_tokens=None):
    """Rows of 1-9 tokens over 1-6 content tokens, some repeated verbatim."""
    if n_tokens is None:
        n_tokens = draw(st.integers(1, 6))
    vocab = fg.Vocab(tuple("abcdef"[:n_tokens]))
    row = st.lists(st.integers(4, 3 + n_tokens), min_size=1, max_size=9)
    rows = draw(st.lists(row, min_size=min_rows, max_size=14))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    rows += [rows[i] for i in repeats]
    return Corpus(vocab, rows, "x")


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 5))
def test_bleu_matches_per_sequence_reference(data, max_order):
    n_tokens = data.draw(st.integers(1, 6))
    hyps = data.draw(_random_corpus(n_tokens=n_tokens))
    refs = hyps
    if data.draw(st.booleans()):
        refs = data.draw(_random_corpus(n_tokens=n_tokens))
    cfg = BleuConfig(max_order=max_order)
    assert bleu(hyps, refs, cfg) == pytest.approx(_ref_bleu(hyps, refs, cfg),
                                                  rel=1e-12, abs=0)


@settings(max_examples=300, deadline=None)
@given(_random_corpus(min_rows=2), st.integers(1, 5))
def test_self_bleu_matches_per_sequence_reference(samples, max_order):
    cfg = BleuConfig(max_order=max_order)
    assert self_bleu(samples, cfg) == pytest.approx(_ref_self_bleu(samples, cfg),
                                                    rel=1e-12, abs=0)


def test_bleu_reference_equivalence_edge_cases(vocab):
    # two rows, rows shorter than the order, duplicates, and a hypothesis
    # length equidistant from two reference lengths (tie to the shorter)
    cases = [
        (["a b"], ["a b c", "a"]),
        (["a b c"], ["a", "a b c d e"]),
        (["a", "b"], ["a b c d e"]),
        (["a b a b", "a b a b"], ["a b", "a b a b a b"]),
    ]
    for hyp_lines, ref_lines in cases:
        hyps, refs = _corpus(vocab, hyp_lines), _corpus(vocab, ref_lines)
        for order in (1, 3, 5):
            cfg = BleuConfig(max_order=order)
            assert bleu(hyps, refs, cfg) == pytest.approx(
                _ref_bleu(hyps, refs, cfg), rel=1e-12, abs=0)
            for samples in (hyps, refs, _corpus(vocab, hyp_lines + ref_lines)):
                if len(samples) > 1:
                    assert self_bleu(samples, cfg) == pytest.approx(
                        _ref_self_bleu(samples, cfg), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# LM scores
# ---------------------------------------------------------------------------


def test_lm_score_is_log_perplexity(s2):
    oracle = fg.train_mle(s2.train, None,
                          NGramConfig(order=2, delta=0.01, fixed_length=s2.length))
    assert lm_score(oracle, s2.test) == pytest.approx(
        math.log(perplexity(oracle, s2.test)), abs=1e-12)


def test_lm_score_flags_random_tokens(s2):
    oracle = fg.train_mle(s2.train, None,
                          NGramConfig(order=2, delta=0.01, fixed_length=s2.length))
    rng = np.random.default_rng(5)
    noise = Corpus(s2.vocab, [rng.integers(4, 4 + s2.vocab.content_size, s2.length)
                              for _ in range(500)], "noise")
    assert lm_score(oracle, noise) > lm_score(oracle, s2.test)


def test_lm_score_deterministic_chain():
    source = fg.MarkovSource(("a", "b"), np.array([1.0, 0.0]),
                             np.array([[0.0, 1.0], [1.0, 0.0]]), 4)
    model = MarkovModel(source)
    sample = model.sample_corpus(1, SamplerConfig(seed=0))
    assert lm_score(model, sample) == pytest.approx(0.0, abs=1e-12)


def test_lm_score_rejects_tokens_outside_the_support(vocab):
    fixed = fg.train_mle(_corpus(vocab, ["a b c"] * 20), None,
                         NGramConfig(order=2, fixed_length=3))
    with pytest.raises(InputError):
        lm_score(fixed, _corpus(vocab, ["a b c", "a zz c"]))  # UNK, not content
    variable = fg.train_mle(_corpus(vocab, ["a b c"] * 20), None, NGramConfig(order=3))
    with_pad = Corpus(vocab, [(4, 5), (4, fg.PAD)], "x")
    with pytest.raises(InputError):
        lm_score(variable, with_pad)


def test_reverse_lm_identity_with_training_data(s2):
    cfg = NGramConfig(order=2, delta=0.01, fixed_length=s2.length)
    forward = lm_score(fg.train_mle(s2.train, None, cfg), s2.test)
    reverse = reverse_lm_score(s2.train, s2.test, cfg)
    assert reverse == pytest.approx(forward, abs=1e-12)


def test_reverse_lm_detects_mode_collapse(s2):
    cfg = NGramConfig(order=2, delta=0.01, fixed_length=s2.length)
    baseline = reverse_lm_score(s2.train, s2.test, cfg)
    collapsed = Corpus(s2.vocab, (s2.train.sequences[0],) * 1000, "collapsed")
    assert reverse_lm_score(collapsed, s2.test, cfg) > 2.0 * baseline


def test_reverse_lm_symmetric_scenario(s2):
    cfg = NGramConfig(order=2, delta=0.01, fixed_length=s2.length)
    forward = lm_score(fg.train_mle(s2.train, None, cfg), s2.test)
    fresh = synth_markov(s2.source, len(s2.train), np.random.default_rng(17), "gen")
    reverse = reverse_lm_score(fresh, s2.test, cfg)
    assert reverse == pytest.approx(forward, rel=0.10)


def test_reverse_lm_minimum_sample_count(s2):
    small = Corpus(s2.vocab, s2.train.sequences[:10], "small")
    with pytest.raises(InputError):
        reverse_lm_score(small, s2.test, NGramConfig(fixed_length=s2.length))


def test_lm_scores_invariant_under_shuffling(s2):
    cfg = NGramConfig(order=2, delta=0.01, fixed_length=s2.length)
    oracle = fg.train_mle(s2.train, None, cfg)
    rng = np.random.default_rng(3)
    test_rows, train_rows = s2.test.sequences, s2.train.sequences
    shuffled = Corpus(s2.vocab, tuple(
        test_rows[i] for i in rng.permutation(len(test_rows))), "test")
    assert lm_score(oracle, shuffled) == pytest.approx(lm_score(oracle, s2.test), abs=1e-12)
    shuffled_train = Corpus(s2.vocab, tuple(
        train_rows[i] for i in rng.permutation(len(train_rows))), "train")
    assert reverse_lm_score(shuffled_train, s2.test, cfg) == pytest.approx(
        reverse_lm_score(s2.train, s2.test, cfg), abs=1e-12)


# ---------------------------------------------------------------------------
# Embeddings and Frechet distance
# ---------------------------------------------------------------------------


def test_embedding_shape_and_determinism(s2):
    em = fit_ppmi_svd(s2.train, dim=16)
    again = fit_ppmi_svd(s2.train, dim=16)
    assert np.array_equal(em.vectors, again.vectors)
    mat = embed(s2.test, em)
    assert mat.shape == (len(s2.test), em.dim)
    same = embed(Corpus(s2.vocab, (s2.test.sequences[0],) * 3, "x"), em)
    assert np.allclose(same[0], same[1]) and np.allclose(same[1], same[2])


def test_embedding_singleton_mean_is_token_row(s2):
    em = fit_ppmi_svd(s2.train, dim=8)
    tok = next(iter(s2.vocab.content_ids))
    single = embed(Corpus(s2.vocab, [(tok,)], "x"), em)
    assert np.allclose(single[0], em.vectors[tok])


def _ref_embed(samples, em):
    out = np.empty((len(samples), em.dim))
    for i, seq in enumerate(samples.sequences):
        out[i] = em.vectors[list(seq)].mean(axis=0)
    return out


def _ref_cooccurrences(corpus, window):
    seen = sorted({i for seq in corpus.sequences for i in seq} | {fg.BOS, fg.EOS})
    index = {tok: j for j, tok in enumerate(seen)}
    cooc = np.zeros((len(seen), len(seen)))
    for seq in corpus.sequences:
        ids = (fg.BOS,) + seq + (fg.EOS,)
        for a, tok in enumerate(ids):
            for b in range(max(0, a - window), min(len(ids), a + window + 1)):
                if b != a:
                    cooc[index[tok], index[ids[b]]] += 1.0
    return np.array(seen), cooc


@settings(max_examples=100, deadline=None)
@given(_random_corpus(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_embed_and_cooccurrences_match_per_sequence_loops(corpus, window, seed):
    seen, cooc = _cooccurrences(corpus, window)
    ref_seen, ref_cooc = _ref_cooccurrences(corpus, window)
    assert np.array_equal(seen, ref_seen)
    assert np.array_equal(cooc, ref_cooc)
    em = fg.EmbeddingModel(np.random.default_rng(seed).standard_normal(
        (len(corpus.vocab), 5)))
    got, ref = embed(corpus, em), _ref_embed(corpus, em)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def _exact_gaussian_rows(mean, var):
    # two rows with exact sample mean and variance (ddof=1)
    return np.array([[mean - math.sqrt(var / 2)], [mean + math.sqrt(var / 2)]])


def test_fed_identity_and_nonnegativity(s2):
    em = fit_ppmi_svd(s2.train, dim=3)
    mat = embed(s2.test, em)
    d = fed(mat, mat)
    assert abs(d) <= 1e-6
    assert d >= -1e-8


def test_fed_one_dimensional_closed_form():
    a = _exact_gaussian_rows(0.0, 1.0)
    b = _exact_gaussian_rows(3.0, 1.0)
    assert np.var(a, ddof=1) == pytest.approx(1.0)
    assert fed(a, b) == pytest.approx(9.0, abs=1e-6)


def test_fed_commuting_covariances():
    base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    a = base * math.sqrt(3.0 / 2.0)      # sample covariance I
    b = base * math.sqrt(3.0 / 2.0) * 2  # sample covariance 4I
    assert np.allclose(np.cov(a, rowvar=False), np.eye(2))
    assert fed(a, b) == pytest.approx(2.0, abs=1e-6)


def test_fed_symmetry(s2):
    em = fit_ppmi_svd(s2.train, dim=3)
    a = embed(s2.test, em)
    b = embed(s2.train, em)[: len(a)]
    assert fed(a, b) == pytest.approx(fed(b, a), abs=1e-8)


def test_fed_requires_enough_rows():
    with pytest.raises(InputError):
        fed(np.zeros((3, 3)), np.zeros((5, 3)))


@settings(max_examples=40)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=12),
       st.lists(st.floats(-5, 5), min_size=3, max_size=12))
def test_fed_matches_scalar_closed_form(xs, ys):
    a = np.array(xs)[:, None]
    b = np.array(ys)[:, None]
    mu_a, mu_b = a.mean(), b.mean()
    # regularized standard deviations, matching the covariance treatment
    sd_a = math.sqrt(np.var(a, ddof=1) + 1e-6)
    sd_b = math.sqrt(np.var(b, ddof=1) + 1e-6)
    expected = (mu_a - mu_b) ** 2 + (sd_a - sd_b) ** 2
    assert fed(a, b) == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# Temperature sweep
# ---------------------------------------------------------------------------


def _scorer(s2, metric_names, seed):
    return MetricScorer(metric_names, real_train=s2.train, real_test=s2.test,
                        fixed_length=s2.length, seed=seed)


def test_scorer_groups_each_corpus_once(s2, monkeypatch):
    # the held-out reference is grouped once for every row it is scored
    # against, and each sample corpus once for all of its metrics
    calls = []
    real_distinct_rows = fg.data._distinct_rows

    def counting(ids, lengths):
        calls.append(len(lengths))
        return real_distinct_rows(ids, lengths)

    monkeypatch.setattr(fg.data, "_distinct_rows", counting)
    train, test = s2.train[:], s2.test[:]  # new corpora, grouped by no other test
    scorer = MetricScorer(("bleu", "selfbleu", "lm", "fed"), real_train=train,
                          real_test=test, fixed_length=s2.length, seed=3)
    assert calls == [len(test)]  # embedded for FED
    for n in (300, 400):
        samples = s2.generator.sample_corpus(n, SamplerConfig(max_len=s2.length),
                                             np.random.default_rng(n))
        scorer.cells(samples, seed=n)
    assert calls == [len(test), 300, 400]


def test_sweep_degenerate_single_point_matches_direct_calls(s2):
    report = temperature_sweep(
        s2.generator, _scorer(s2, ("bleu", "selfbleu", "lm", "rlm"), 99), [1.0],
        n_per_point=1000)
    assert len(report.rows) == 1
    row = report.rows[0]
    sampler = SamplerConfig(temperature=1.0, max_len=s2.length,
                            seed=fg.seeding.derive_seed(99, "sample", 1.0))
    samples = s2.generator.sample_corpus(1000, sampler,
                                         np.random.default_rng(sampler.seed))
    assert row["bleu5"] == pytest.approx(bleu(samples, s2.test))
    assert row["self_bleu5"] == pytest.approx(self_bleu(samples))
    # the scores are under the delta 0.01 bigram of the real train split,
    # not under the generator
    oracle_cfg = NGramConfig(order=2, delta=0.01, fixed_length=s2.length)
    assert row["lm_score"] == lm_score(fg.train_mle(s2.train, None, oracle_cfg), samples)
    assert row["rev_lm_score"] == reverse_lm_score(samples, s2.test, oracle_cfg)
    assert row["lm_score"] != pytest.approx(lm_score(s2.generator, samples))


def test_sweep_grid_rows_and_streams(s2, s2_disc):
    disc, _ = s2_disc
    report = temperature_sweep(
        s2.generator, _scorer(s2, ("bleu", "selfbleu"), 7), [0.9, 1.0, 1.1, 1.2],
        n_per_point=400, disc=disc, c_values=(0.5,))
    assert len(report.rows) == 4 * 3  # baseline, accepted, rejected per temperature
    streams = {(r["temperature"], r["stream"]) for r in report.rows}
    for t in (0.9, 1.0, 1.1, 1.2):
        assert (t, "baseline") in streams
        assert (t, "accepted") in streams
        assert (t, "rejected") in streams
    text = report.csv_text()
    assert text.splitlines()[0] == ",".join(SWEEP_COLUMNS)


def test_sweep_accepted_not_dominated_by_baseline(s2, s2_disc):
    # quality/diversity: the filtered stream must not lose on both axes, and
    # on this scenario it should actually improve the quality axis
    disc, _ = s2_disc
    report = temperature_sweep(
        s2.generator, _scorer(s2, ("bleu", "selfbleu"), 11), [1.0],
        n_per_point=2000, disc=disc, c_values=(0.5,))
    rows = {r["stream"]: r for r in report.rows}
    base, acc = rows["baseline"], rows["accepted"]
    assert not (base["bleu5"] > acc["bleu5"] and base["self_bleu5"] < acc["self_bleu5"])
    assert acc["bleu5"] >= base["bleu5"]


def test_scorer_fits_the_oracle_lm_only_for_lm(s2, monkeypatch):
    # a scorer without "lm" fits no oracle LM, and its cells are the ones a
    # scorer of every metric gives, less lm_score; asking it for lm fails
    samples = s2.generator.sample_corpus(1000, SamplerConfig(max_len=s2.length),
                                         np.random.default_rng(4))
    everything = _scorer(s2, ("bleu", "selfbleu", "lm", "rlm", "fed"), 5)
    want = everything.cells(samples, 3)
    assert want.pop("lm_score") == lm_score(everything.oracle_lm, samples)
    fits = []
    monkeypatch.setattr(fg.metrics, "train_mle",
                        lambda *a: fits.append(a) or fg.train_mle(*a))
    without = _scorer(s2, ("bleu", "selfbleu", "rlm", "fed"), 5)
    assert without.oracle_lm is None and not fits
    assert without.cells(samples, 3) == want
    assert len(fits) == 1  # the reverse LM's, with the oracle LM's config
    assert fits[0][2] == everything.lm_config == without.lm_config
    with pytest.raises(InputError, match="not requested"):
        without.cells(samples, 3, ("lm",))
