"""The metrics and the n-gram LM do each row's work once per distinct row.

Each test compares the deduplicated code with per-row references, copies of
the code that worked on every row, bit for bit, on small corpora whose rows
repeat.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtergen as fg
from filtergen import BleuConfig, Corpus, NGramLM, bleu, embed, self_bleu
from filtergen.data import _gram_ranks
from filtergen.genmodel import libm_map
from filtergen.metrics import _EPSILON, _closest_length, _row_gram_counts

# ---------------------------------------------------------------------------
# Per-row references
# ---------------------------------------------------------------------------


def _ref_mean_bleu(matches, lengths, ref_lengths):
    log_sum = np.zeros(len(lengths))
    orders = np.zeros(len(lengths), dtype=np.int64)
    for k, matched in enumerate(matches, start=1):
        possible = lengths - k + 1
        fits = possible >= 1
        numerator = np.where(matched > 0, matched, _EPSILON)
        log_sum[fits] += libm_map(math.log, numerator[fits] / possible[fits])
        orders += fits
    penalty = np.ones(len(lengths))
    short = lengths < ref_lengths
    penalty[short] = libm_map(math.exp, 1.0 - ref_lengths[short] / lengths[short])
    return float(np.mean(penalty * libm_map(math.exp, log_sum / orders)))


def _ref_bleu(hypotheses, references, cfg):
    both = Corpus.concat([hypotheses, references])
    n_hyp = len(hypotheses)
    matches = []
    for ranks, count in _gram_ranks(both.ids, both.lengths, cfg.max_order):
        row, gram, counts = _row_gram_counts(ranks, count)
        ref = row >= n_hyp
        ref_max = np.zeros(count, dtype=np.int64)
        np.maximum.at(ref_max, gram[ref], counts[ref])
        hyp = ~ref
        clipped = np.minimum(counts[hyp], ref_max[gram[hyp]])
        matches.append(np.bincount(row[hyp], weights=clipped, minlength=n_hyp))
    distinct = np.unique(references.lengths)
    pos = np.searchsorted(distinct, hypotheses.lengths)
    ref_len = _closest_length(distinct, pos - 1, pos, hypotheses.lengths)
    return _ref_mean_bleu(matches, hypotheses.lengths, ref_len)


def _ref_self_bleu(samples, cfg):
    n = len(samples)
    matches = []
    for ranks, count in _gram_ranks(samples.ids, samples.lengths, cfg.max_order):
        row, gram, counts = _row_gram_counts(ranks, count)
        order = np.lexsort((-counts, gram))
        g, c, r = gram[order], counts[order], row[order]
        head = np.flatnonzero(np.diff(g, prepend=-1))
        best = np.zeros(count, dtype=np.int64)
        owner = np.full(count, -1, dtype=np.int64)
        second = np.zeros(count, dtype=np.int64)
        best[g[head]], owner[g[head]] = c[head], r[head]
        runner = head[np.append(g[1:] == g[:-1], False)[head]]
        second[g[runner]] = c[runner + 1]
        loo = np.where(owner[gram] != row, best[gram], second[gram])
        matches.append(np.bincount(row, weights=np.minimum(counts, loo), minlength=n))
    lengths = samples.lengths
    distinct, inverse, per_length = np.unique(lengths, return_inverse=True,
                                              return_counts=True)
    nearest = _closest_length(distinct, inverse - 1, inverse + 1, lengths)
    ref_len = np.where(per_length[inverse] > 1, lengths, nearest)
    return _ref_mean_bleu(matches, lengths, ref_len)


def _ref_embed(samples, em):
    lengths = samples.lengths
    total = np.zeros((len(samples), em.dim))
    for t, column in enumerate(samples.ids.T):
        total += np.where((lengths > t)[:, None], em.vectors[column], 0.0)
    return total / lengths[:, None]


def _ref_fit_counts(model, corpus):
    """The (context, counts row) pairs one ``fit`` adds, in insertion order."""
    contexts, ctx, sup, _ = model._events(corpus)
    s = len(model.support)
    counts = np.bincount(ctx * s + sup, minlength=len(contexts) * s)
    return list(zip(contexts, counts.reshape(-1, s).astype(np.float64)))


def _ref_seq_logprobs(model, corpus):
    contexts, ctx, sup, mask = model._events(corpus)
    by_ctx = np.argsort(ctx, kind="stable")
    bounds = np.searchsorted(ctx[by_ctx], np.arange(len(contexts) + 1))
    probs = np.empty(len(ctx))
    for u, context in enumerate(contexts):
        events = by_ctx[bounds[u]: bounds[u + 1]]
        probs[events] = model.cond_probs(context, sup[events])
    terms = np.zeros(mask.shape)
    terms[mask] = libm_map(math.log, probs)
    total = np.zeros(len(terms))
    for column in terms.T:
        total += column
    return total


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _check_metrics(hyps, refs, max_order, seed=0):
    cfg = BleuConfig(max_order=max_order)
    assert bleu(hyps, refs, cfg) == _ref_bleu(hyps, refs, cfg)
    if len(hyps) >= 2:
        assert self_bleu(hyps, cfg) == _ref_self_bleu(hyps, cfg)
    em = fg.EmbeddingModel(np.random.default_rng(seed).standard_normal(
        (len(hyps.vocab), 3)))
    assert np.array_equal(embed(hyps, em), _ref_embed(hyps, em))


def _check_ngram(order, fixed, train, test):
    model = NGramLM(train.vocab, order, 0.05, fixed).fit(train)
    want = _ref_fit_counts(model, train)
    assert list(model._row_of.items()) == [(ctx, r) for r, (ctx, _) in enumerate(want)]
    assert len(model._counts) == len(model._totals) == len(want)
    for r, (_, row) in enumerate(want):
        assert np.array_equal(model._counts[r], row)
        assert model._totals[r] == float(row.sum())
    for corpus in (train, test):
        assert np.array_equal(model.seq_logprobs(corpus), _ref_seq_logprobs(model, corpus))


@st.composite
def _repeating_corpus(draw, vocab, fixed=None, unk=False):
    """1-40 rows drawn from a pool of 1-6 rows, so most rows repeat; rows
    have ``fixed`` tokens, or 1-5."""
    token = st.integers(4, len(vocab) - 1)
    if unk:
        token = st.one_of(token, st.just(fg.UNK))
    size = {"min_size": fixed or 1, "max_size": fixed or 5}
    pool = draw(st.lists(st.lists(token, **size), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return Corpus(vocab, [pool[i] for i in picks], "x")


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from([None, 1, 2, 3]),
       st.integers(1, 7))
def test_metrics_equal_their_per_row_references(data, k, fixed, max_order):
    # orders up to 7 run past every row (at most 5 tokens); a fixed length
    # gives every row one length
    vocab = fg.Vocab(tuple("abcd"[:k]))
    hyps = data.draw(_repeating_corpus(vocab, fixed))
    refs = hyps if data.draw(st.booleans()) else data.draw(_repeating_corpus(vocab))
    _check_metrics(hyps, refs, max_order, data.draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from([None, 1, 2, 3]),
       st.integers(1, 3))
def test_ngram_fit_and_scores_equal_their_per_row_references(data, k, fixed, order):
    # EOS corpora (fixed None) hold UNK too, which their support includes
    vocab = fg.Vocab(tuple("abcd"[:k]))
    train, test = (data.draw(_repeating_corpus(vocab, fixed, unk=fixed is None))
                   for _ in range(2))
    _check_ngram(order, fixed, train, test)


@pytest.mark.parametrize("lines", [
    # "a a a" alone holds unigram a's best count, 3; its cap is 2
    ["a a a", "a a", "b", "a b"],
    # two copies of "a a" hold a's best count; neither's cap drops
    ["a a", "a a", "a", "b a"],
    # one distinct length
    ["a b", "b a", "a b", "b b"],
    # lengths 3 and 2 held by one row each
    ["a b c", "a", "a", "b", "c a"],
    # length-1 rows only, repeated
    ["a", "a", "b", "a"],
])
@pytest.mark.parametrize("max_order", [1, 2, 5])
def test_dedup_edge_cases(lines, max_order):
    vocab = fg.Vocab(("a", "b", "c"))
    corpus = fg.encode_corpus(lines, vocab, "x")
    refs = fg.encode_corpus(["c a b", "a"], vocab, "x")
    _check_metrics(corpus, corpus, max_order)
    _check_metrics(corpus, refs, max_order)
    _check_ngram(2, None, corpus, refs)
    for order in (1, 3):
        _check_ngram(order, None, corpus, corpus)
