import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtergen as fg
from filtergen import (Corpus, DiscConfig, InputError, MarkovModel, MarkovSource,
                       SamplerConfig, TextCNN, error_rate,
                       train_discriminator, train_discriminator_corpora)
from filtergen.data import _distinct_rows

FAST = DiscConfig(embed_dim=8, kernels2=8, kernels3=8, lr=0.1, batch_size=128,
                  max_epochs=60, patience=5, seed=0)


def _rows(disc, ids, lengths):
    # the forward's input: the rows remapped as predict_corpus's chunks are
    return fg.disc._remap(np.asarray(ids), np.asarray(lengths), len(disc.vocab))


def _unplanned(disc, ids, lengths):
    # one training batch of the rows as given, none grouped, with the
    # backward's index bases at the rows' own width
    rows = _rows(disc, ids, lengths)
    d, width = rows.local.shape
    return fg.disc._Batch(rows, np.arange(d), np.arange(0, d * width, width)[:, None],
                          tuple(rows.local.ravel() * k for _, k in disc.banks))


def _start_token_sources(length=4):
    # real sequences start with "a", generated ones with "b"; neither start
    # token ever recurs, so the distinguishing windows are unambiguous for a
    # max-pooled window classifier
    trans = np.array([
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.4, 0.6],
        [0.0, 0.0, 0.6, 0.4],
    ])
    real = MarkovSource(("a", "b", "c", "d"), np.array([1.0, 0.0, 0.0, 0.0]),
                        trans, length)
    fake = MarkovSource(("a", "b", "c", "d"), np.array([0.0, 1.0, 0.0, 0.0]),
                        trans, length)
    return real, fake


def test_separable_classes_reach_high_accuracy():
    real_src, fake_src = _start_token_sources()
    real = fg.synth_markov(real_src, 1500, np.random.default_rng(1), "train")
    disc, report = train_discriminator(real, MarkovModel(fake_src), FAST,
                                       np.random.default_rng(1))
    assert report.final_valid_accuracy >= 0.99
    fake_samples = MarkovModel(fake_src).sample_corpus(
        200, SamplerConfig(max_len=4, seed=2), np.random.default_rng(2))
    p_real = disc.predict_corpus(real[:200])
    p_fake = disc.predict_corpus(fake_samples)
    assert p_real.min() > 0.9
    assert p_fake.max() < 0.1


def test_indistinguishable_classes_stay_near_chance():
    uniform = MarkovSource(("a", "b", "c"), np.array([0.4, 0.3, 0.3]),
                           np.array([[0.4, 0.3, 0.3],
                                     [0.3, 0.4, 0.3],
                                     [0.3, 0.3, 0.4]]), 4)
    real = fg.synth_markov(uniform, 4000, np.random.default_rng(3), "train")
    disc, report = train_discriminator(real, MarkovModel(uniform), FAST,
                                       np.random.default_rng(3))
    assert 0.45 <= report.final_valid_accuracy <= 0.55


class CountingGenerator:
    """Wraps a generator and records every sample_corpus request size."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.fixed_length = inner.fixed_length
        self.requests = []

    def sample_corpus(self, n, cfg, rng=None, split=""):
        self.requests.append(n)
        return self.inner.sample_corpus(n, cfg, rng, split)


def test_training_classes_stay_balanced():
    real_src, fake_src = _start_token_sources()
    real = fg.synth_markov(real_src, 500, np.random.default_rng(4), "train")
    counter = CountingGenerator(MarkovModel(fake_src))
    cfg = DiscConfig(embed_dim=8, kernels2=4, kernels3=4, lr=0.1, batch_size=128,
                     max_epochs=8, patience=2, seed=4)
    train_discriminator(real, counter, cfg, np.random.default_rng(4))
    n_val = len(real) // 10
    n_train = len(real) - n_val
    assert counter.requests[0] == n_val  # fixed validation negatives
    assert all(n == n_train for n in counter.requests[1:])  # fresh, balanced epochs


def test_vocab_mismatch_rejected():
    real_src, fake_src = _start_token_sources()
    other = MarkovSource(("x", "y"), np.array([0.5, 0.5]),
                         np.array([[0.5, 0.5], [0.5, 0.5]]), 4)
    real = fg.synth_markov(real_src, 100, np.random.default_rng(5), "train")
    with pytest.raises(InputError):
        train_discriminator(real, MarkovModel(other), FAST)


def test_embeddings_copied_from_neural_generator_and_frozen():
    vocab = fg.build_vocab(["a b c"], max_size=10)
    gen = fg.NeuralLM(vocab, fg.NeuralConfig(embed_dim=6, hidden_dim=4, seed=0))
    real = Corpus(vocab, [(4, 5, 6)] * 40, "train")
    cfg = DiscConfig(max_epochs=2, patience=1, lr=0.1, batch_size=16, seed=0)
    disc, _ = train_discriminator(real, gen, cfg, np.random.default_rng(0))
    assert disc.embed_frozen
    assert np.array_equal(disc.params["embed"], gen.params["embed"])
    assert "embed" not in disc.trainable()


def test_padding_never_changes_predictions():
    vocab = fg.build_vocab(["a b c d e"], max_size=10)
    rng = np.random.default_rng(6)
    disc = TextCNN(vocab, DiscConfig(embed_dim=8, seed=6), rng)
    seqs = Corpus(vocab, [(4, 5, 6), (5,), (6, 7, 8, 4, 5)])
    singly = np.array([disc.predict_corpus(seqs[i:i + 1])[0] for i in range(3)])
    batched = disc.predict_corpus(seqs)  # pads to the longest in the batch
    assert np.abs(singly - batched).max() <= 1e-6
    # explicit extra padding columns
    from filtergen.data import PAD, corpus_to_arrays
    ids, lengths = corpus_to_arrays(seqs)
    padded = np.concatenate([ids, np.full((3, 4), PAD)], axis=1)
    logits_a, _ = disc._forward(_rows(disc, ids, lengths), {})
    logits_b, _ = disc._forward(_rows(disc, padded, lengths), {})
    assert np.abs(logits_a - logits_b).max() <= 1e-9


def test_prediction_strictly_inside_unit_interval():
    vocab = fg.build_vocab(["a"], max_size=4)
    disc = TextCNN(vocab, DiscConfig(embed_dim=4, seed=7), np.random.default_rng(7))
    p = disc.predict_corpus(Corpus(vocab, [(4, 4)]))[0]
    assert 0.0 < p < 1.0


def test_gradients_match_finite_differences():
    vocab = fg.build_vocab(["a b c"], max_size=10)
    rng = np.random.default_rng(8)
    disc = TextCNN(vocab, DiscConfig(embed_dim=4, kernels2=3, kernels3=2, seed=8), rng)
    batch = Corpus(vocab, [(4, 5, 6, 4), (5, 6), (6, 4, 5)])
    labels = np.array([1.0, 0.0, 1.0])
    _, grads = disc.loss_and_grads(batch, labels)
    eps = 1e-5
    worst = 0.0
    for name in disc.trainable():
        param = disc.params[name]
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + eps
            up, _ = disc.loss_and_grads(batch, labels)
            param[idx] = orig - eps
            down, _ = disc.loss_and_grads(batch, labels)
            param[idx] = orig
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(grads[name][idx]), 1e-8)
            worst = max(worst, abs(numeric - grads[name][idx]) / denom)
    assert worst <= 1e-3
    # a sampled conv weight agrees to the tighter tolerance as well
    param = disc.params["conv2_w"]
    idx = (1, 1)
    orig = param[idx]
    param[idx] = orig + 1e-4
    up, _ = disc.loss_and_grads(batch, labels)
    param[idx] = orig - 1e-4
    down, _ = disc.loss_and_grads(batch, labels)
    param[idx] = orig
    numeric = (up - down) / 2e-4
    assert abs(numeric - grads["conv2_w"][idx]) / max(abs(numeric), 1e-8) <= 1e-4


class FixedDisc:
    def __init__(self, fn):
        self.fn = fn

    def predict_corpus(self, corpus):
        return np.array([self.fn(row) for row in corpus.sequences])


def test_error_rate_perfect_and_constant():
    real_src, fake_src = _start_token_sources()
    real = fg.synth_markov(real_src, 300, np.random.default_rng(9), "test")
    fake = fg.synth_markov(fake_src, 300, np.random.default_rng(10), "gen")
    a_id = real_src.vocab.id_of("a")
    perfect = FixedDisc(lambda row: 0.99 if row[0] == a_id else 0.01)
    assert error_rate(perfect, real, fake) == 0.0
    for const in (0.2, 0.5, 0.9):
        assert error_rate(FixedDisc(lambda s: const), real, fake) == 0.5


def test_report_running_best_non_decreasing(s2_disc):
    _, report = s2_disc
    best = np.maximum.accumulate(report.valid_accuracy)
    assert all(a <= b for a, b in zip(best, best[1:]))
    assert report.final_valid_accuracy == best[-1]
    assert report.converged
    assert 0.0 <= min(report.valid_accuracy) <= max(report.valid_accuracy) <= 1.0


def test_train_discriminator_corpora_balances_by_subsampling():
    real_src, fake_src = _start_token_sources()
    real = fg.synth_markov(real_src, 400, np.random.default_rng(11), "train")
    fake = fg.synth_markov(fake_src, 1000, np.random.default_rng(12), "gen")
    cfg = DiscConfig(embed_dim=8, kernels2=4, kernels3=4, lr=0.1, batch_size=64,
                     max_epochs=20, patience=3, seed=13)
    disc, report = train_discriminator_corpora(real, fake, cfg,
                                               np.random.default_rng(13))
    assert report.final_valid_accuracy >= 0.95  # separable by first token


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(4, 8), min_size=1, max_size=9),
                min_size=1, max_size=40))
def test_predict_corpus_matrix_matches_sequence_list(rows):
    vocab = fg.build_vocab(["a b c d e"], max_size=10)
    disc = TextCNN(vocab, DiscConfig(embed_dim=4, kernels2=3, kernels3=2, seed=9),
                   np.random.default_rng(9))
    corpus = Corpus(vocab, rows)
    # a wider matrix whose entries past each row's end are arbitrary ids
    junk = np.random.default_rng(len(rows)).integers(0, len(vocab), (len(rows), 12))
    for i, row in enumerate(rows):
        junk[i, : len(row)] = row
    from_matrix = disc.predict_corpus(Corpus.from_arrays(vocab, junk, corpus.lengths))
    assert np.array_equal(from_matrix, disc.predict_corpus(corpus))


def _bias_disc(seed=15):
    # the default widths, where a matrix product's rows round differently
    # with the number of rows; nonzero biases, so pooled values come from a
    # mix of windows; negative logits of a few units, where the sigmoid
    # passes an ulp of the logit on to the score instead of rounding it away
    vocab = fg.build_vocab(["a b c d e f g h i"], max_size=14)
    disc = TextCNN(vocab, DiscConfig(seed=seed), np.random.default_rng(seed))
    bias_rng = np.random.default_rng(seed + 1)
    for w, k in disc.banks:
        disc.params[f"conv{w}_b"] = bias_rng.standard_normal(k) * 0.1
    disc.params["out_w"] = -30.0 * np.abs(disc.params["out_w"])
    return disc


_DISC = _bias_disc()
_ALONE: dict = {}


def _scored_alone(row: tuple) -> float:
    # the reference: the row as a corpus of its own (memoized; the
    # classifier never changes)
    if row not in _ALONE:
        _ALONE[row] = _DISC.predict_corpus(Corpus(_DISC.vocab, [row]))[0]
    return _ALONE[row]


def _random_distinct_rows(n, seed=16):
    # n distinct rows of lengths 1-6 over five tokens
    rng = np.random.default_rng(seed)
    rows = {}
    while len(rows) < n:
        rows.setdefault(tuple(int(t) for t in rng.integers(4, 9, size=rng.integers(1, 7))))
    return list(rows)


_MANY = _random_distinct_rows(1100)  # more distinct rows than one 1,024-row chunk


@settings(max_examples=40, deadline=None)
@given(pool=st.lists(st.lists(st.integers(4, 12), min_size=1, max_size=9).map(tuple),
                     min_size=1, max_size=12),
       picks=st.lists(st.integers(0, 11), max_size=60),
       many=st.integers(0, 3),
       chunk=st.sampled_from([1, 3, 1024]),
       order=st.randoms(use_true_random=False))
def test_predict_corpus_scores_every_row_as_if_alone(pool, picks, many, chunk, order):
    # duplicates (picks repeat pool rows), mixed lengths, rows shorter than
    # either window (length 1) or than the window-3 bank (length 2), and,
    # one draw in four, 1,100 more distinct rows across the chunk boundary
    rows = [pool[i % len(pool)] for i in picks]
    if many == 0:
        rows += _MANY + rows
        order.shuffle(rows)
    if not rows:
        with pytest.raises(InputError):
            _DISC.predict_corpus(Corpus(_DISC.vocab, rows))
        return
    expected = np.array([_scored_alone(r) for r in rows])
    corpus = Corpus(_DISC.vocab, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fg.disc, "_SCORE_CHUNK", chunk)
        assert np.array_equal(_DISC.predict_corpus(corpus), expected)
    assert np.array_equal(_DISC.predict_corpus(corpus), expected)
    assert np.array_equal(_DISC.predict_corpus(corpus[len(rows) // 2:]),
                          expected[len(rows) // 2:])


@settings(max_examples=30, deadline=None)
@given(pool=st.lists(st.lists(st.integers(4, 12), min_size=1, max_size=9).map(tuple),
                     min_size=1, max_size=20),
       extra_pad=st.integers(0, 4))
def test_logits_do_not_depend_on_the_batch_or_on_padding(pool, extra_pad):
    # the property the deduplication rests on, at the forward pass: a row's
    # logit is bit-identical whatever rows and PAD columns surround it
    ids, lengths = fg.data.corpus_to_arrays(Corpus(_DISC.vocab, pool))
    padded = np.concatenate([ids, np.full((len(pool), extra_pad), fg.data.PAD)], axis=1)
    batch, _ = _DISC._forward(_rows(_DISC, padded, lengths), {})
    for i, row in enumerate(pool):
        alone, _ = _DISC._forward(_rows(_DISC, [row], [len(row)]), {})
        assert batch[i] == alone[0]



def _lexsort_distinct_rows(ids, lengths):
    # the reference: one lexsort over the id columns and the lengths, then a
    # comparison of neighbouring rows
    n = len(lengths)
    order = np.lexsort(np.vstack([ids.T, lengths[None, :]]))
    sorted_ids, sorted_len = ids[order], lengths[order]
    first = np.ones(n, dtype=bool)
    first[1:] = ((sorted_ids[1:] != sorted_ids[:-1]).any(axis=1)
                 | (sorted_len[1:] != sorted_len[:-1]))
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def _check_distinct_rows(ids, lengths):
    distinct, inverse = _distinct_rows(ids, lengths)
    ref_distinct, ref_inverse = _lexsort_distinct_rows(ids, lengths)
    assert np.array_equal(ids[distinct], ids[ref_distinct])
    assert np.array_equal(lengths[distinct], lengths[ref_distinct])
    assert np.array_equal(inverse, ref_inverse)
    assert (np.diff(lengths[distinct]) >= 0).all()  # length first, for the chunks
    assert np.array_equal(ids[distinct][inverse], ids)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(0, 6), vocab=st.sampled_from([1, 3, 5, 10_004]), data=st.data())
def test_distinct_rows_equal_the_lexsort_reference(width, vocab, data):
    # rows drawn from a small pool, so they repeat; PAD and any other id may
    # sit anywhere, and lengths are free in [0, width]; at V = 10,004 and
    # width 5 or 6 the packed key is re-ranked on the way
    row = st.tuples(st.lists(st.integers(0, vocab - 1), min_size=width, max_size=width),
                    st.integers(0, width))
    pool = data.draw(st.lists(row, min_size=1, max_size=8))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    ids = np.array([pool[i][0] for i in picks], dtype=np.int64).reshape(len(picks), width)
    lengths = np.array([pool[i][1] for i in picks], dtype=np.int64)
    _check_distinct_rows(ids, lengths)


@pytest.mark.parametrize("ids,lengths", [
    (np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64)),  # n = 0
    (np.array([[4, 5, 2]]), np.array([2])),  # n = 1
    (np.full((7, 3), 5), np.full(7, 3)),  # all rows equal
    (np.array([[4, 5, 6], [4, 2, 2], [4, 5, 2], [4, 2, 2], [6, 5, 6]]),
     np.array([3, 1, 2, 1, 3])),  # ragged
    # the same id-matrix row with the PAD id inside it: only the length
    # separates the two groups
    (np.array([[4, 2], [4, 2], [4, 2]]), np.array([2, 1, 2])),
])
def test_distinct_rows_edge_cases(ids, lengths):
    _check_distinct_rows(ids, lengths)


def test_distinct_rows_re_rank_a_key_before_it_overflows(monkeypatch):
    # V = 10,004 at width 64: 64 id digits in base 10,004 need about 850 bits,
    # so the key is re-ranked many times; rows share long stretches of PAD
    # and repeat, so the groups are neither all equal nor all distinct
    rng = np.random.default_rng(21)
    width, vocab = 64, 10_004
    lengths = rng.integers(1, width + 1, size=300)
    pool = np.where(np.arange(width) < lengths[:, None],
                    rng.integers(4, vocab, size=(300, width)), fg.data.PAD)
    picks = rng.integers(0, 300, size=5000)
    ids, lengths = pool[picks], lengths[picks]
    ids[0, 0] = vocab - 1  # the largest id occurs, so the base is 10,004
    _check_distinct_rows(ids, lengths)
    # every key handed to np.argsort: the re-ranks, then the final sort
    seen = []
    real_unique, real_argsort = np.unique, np.argsort

    def argsort(a, **kw):
        seen.append(np.array(a))
        return real_argsort(a, **kw)

    monkeypatch.setattr(np, "argsort", argsort)
    _distinct_rows(ids, lengths)
    monkeypatch.undo()
    # replay the packing in exact integers: each key equals its exact value,
    # which stays below 2**63 (a key past it would wrap and break the order)
    *reranked, final = seen
    exact = lengths.astype(object)
    for j in range(width - 1, -1, -1):
        if reranked and (exact == reranked[0]).all():
            exact = real_unique(reranked.pop(0), return_inverse=True)[1].astype(object)
        exact = exact * vocab + ids[:, j].astype(object)
        assert max(exact) < 2**63
    assert not reranked  # every re-rank was matched, in order
    assert (exact == final).all()
    assert len(seen) > 2  # at least one re-rank besides the final sort

def _pooled_rows(vocab, width, seed=22):
    # 3,000 rows drawn from a pool of 400 PAD-padded rows of lengths 1..width,
    # with ids below vocab, the largest of them present
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, width + 1, size=400)
    pool = np.where(np.arange(width) < lengths[:, None],
                    rng.integers(4, vocab, size=(400, width)), fg.data.PAD)
    picks = rng.integers(0, 400, size=3000)
    ids, lengths = pool[picks], lengths[picks]
    ids[0, :] = vocab - 1
    lengths[0] = width
    return ids, lengths


def _sorts(monkeypatch, ids, lengths) -> bool:
    # whether _distinct_rows hands any key to np.argsort
    calls = []
    real_argsort = np.argsort

    def argsort(a, **kw):
        calls.append(len(a))
        return real_argsort(a, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(np, "argsort", argsort)
        _distinct_rows(ids, lengths)
    return bool(calls)


@pytest.mark.parametrize("vocab,width,sorts", [
    (9, 3, False),  # keys below 4 * 9**3
    (50, 2, False),  # below 3 * 50**2
    (10_004, 3, True),  # up to 4 * 10,004**3
    (6, 8, True),  # up to 9 * 6**8
])
def test_distinct_rows_mark_small_keys_and_sort_large_ones(monkeypatch, vocab, width, sorts):
    ids, lengths = _pooled_rows(vocab, width)
    assert _sorts(monkeypatch, ids, lengths) == sorts
    _check_distinct_rows(ids, lengths)


def test_distinct_rows_switch_paths_at_the_key_bound(monkeypatch):
    # at V = 9 and width 3 the largest key is 3 * 9**3 + 728 = 2,915: a bound
    # above it marks, a bound at it sorts, and both equal the reference
    ids, lengths = _pooled_rows(9, 3)
    for bound, sorts in ((2916, False), (2915, True)):
        monkeypatch.setattr(fg.data, "_MARK_KEYS_BELOW", bound)
        assert _sorts(monkeypatch, ids, lengths) == sorts
        _check_distinct_rows(ids, lengths)


def _check_plan(corpus, batch_size):
    # every planned batch against row_groups and _remap on the batch's own
    # corpus[batch]: its distinct rows at its width, inverse, token remap
    # and ragged flag, and index bases that hold local * k of its rows
    disc = TextCNN(corpus.vocab, DiscConfig(embed_dim=2, kernels2=3, kernels3=5),
                   np.random.default_rng(0))
    batches = list(disc._plan(corpus, np.zeros(len(corpus)), batch_size))
    starts = range(0, len(corpus), batch_size)
    assert len(batches) == len(starts)
    for start, batch in zip(starts, batches):
        part = corpus[start:start + batch_size]
        distinct, inverse = fg.data.row_groups(part)
        ids, lengths = part.ids[distinct], part.lengths[distinct]
        rows, ref = batch.rows, fg.disc._remap(ids, lengths, len(corpus.vocab))
        assert np.array_equal(batch.inverse, inverse)
        assert rows.local.shape == ids.shape  # the batch's width
        assert np.array_equal(rows.tokens[rows.local], ids)  # its distinct rows
        for name in ("lengths", "tokens", "local", "by_position"):
            assert np.array_equal(getattr(rows, name), getattr(ref, name)), name
        assert rows.by_position.flags.c_contiguous
        assert rows.ragged == ref.ragged
        at = batch.starts + np.arange(ids.shape[1])
        for (_, k), base in zip(disc.banks, batch.slots):
            assert np.array_equal(base[at], rows.local * k)


_WIDE_VOCAB = fg.data.Vocab(f"w{i}" for i in range(10_000))  # 10,004 ids


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 6), vocab=st.sampled_from([5, 9, 10_004]),
       bound=st.sampled_from([0, 3, 2**15]), cells=st.sampled_from([1, 20, 2**16]),
       data=st.data())
def test_a_plan_s_batches_equal_the_groups_and_remap_of_their_own_arrays(width, vocab,
                                                                         bound, cells, data):
    # ragged rows from a small pool, any id among them, shuffled, cut into
    # batches of any size; a bound of 0 sorts every key, 3 marks only when
    # few (batch, group) keys occur, and 2**15 marks; the plan makes one
    # batch at a time at 1 cell, a few at 20 and, at V = 5 and 9, all of
    # them at 2**16 (at V = 10,004 one at a time, for the flags); at
    # V = 10,004 and width 5 or 6 the whole corpus's key is re-ranked on
    # the way
    row = st.lists(st.integers(0, vocab - 1), min_size=1, max_size=width)
    pool = data.draw(st.lists(row, min_size=1, max_size=8))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    words = _WIDE_VOCAB if vocab == 10_004 else fg.build_vocab(["a b c d e"], max_size=vocab - 4)
    corpus = Corpus(words, [pool[i] for i in picks])
    order = np.array(data.draw(st.permutations(range(len(picks)))), dtype=np.intp)
    batch_size = data.draw(st.integers(1, len(picks) + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fg.data, "_MARK_KEYS_BELOW", bound)
        mp.setattr(fg.disc, "_PLAN_CELLS", cells)
        _check_plan(corpus[order], batch_size)


@pytest.mark.parametrize("batch_size", [1, 2, 3])
def test_a_plan_s_narrower_batches_leave_out_the_padding_past_their_width(batch_size):
    # batches of 3-token rows planned in one go with wider ones: past their
    # width the gathered rows hold PAD, none of their tokens
    vocab = fg.build_vocab(["a b c d e"], max_size=5)
    _check_plan(Corpus(vocab, [(4, 5, 6), (4, 5, 6, 7, 8), (6, 6, 6), (5, 7, 4), (5,)]),
                batch_size)


def test_a_plan_s_batches_equal_their_own_groups_after_re_ranks():
    # test_distinct_rows_re_rank_a_key_before_it_overflows's rows: V = 10,004
    # at width 64, the key re-ranked many times; shuffled, in batches of 256
    rng = np.random.default_rng(21)
    width, vocab = 64, 10_004
    lengths = rng.integers(1, width + 1, size=300)
    pool = np.where(np.arange(width) < lengths[:, None],
                    rng.integers(4, vocab, size=(300, width)), fg.data.PAD)
    picks = rng.integers(0, 300, size=5000)
    corpus = Corpus.from_arrays(_WIDE_VOCAB, pool[picks], lengths[picks])
    _check_plan(corpus[rng.permutation(len(corpus))], 256)


def test_row_groups_are_found_once_per_corpus(monkeypatch):
    calls = []
    real_distinct_rows = fg.data._distinct_rows

    def counting(ids, lengths):
        calls.append(len(lengths))
        return real_distinct_rows(ids, lengths)

    monkeypatch.setattr(fg.data, "_distinct_rows", counting)
    vocab = fg.build_vocab(["a b c"], max_size=5)
    corpus = Corpus(vocab, [(4, 5), (6,), (4, 5), (5, 5, 6)])
    first = fg.data.row_groups(corpus)
    assert fg.data.row_groups(corpus) is first
    assert calls == [4]
    assert not any(a.flags.writeable for a in first)
    fg.data.row_groups(corpus[1:])  # a slice is a new corpus with groups of its own
    assert calls == [4, 3]


@pytest.mark.parametrize("frozen", [False, True])
def test_loss_and_grads_fill_out_with_the_bytes_of_a_fresh_call(s3, frozen):
    batch = _step_batches(s3)["s3"]
    disc = _step_disc(batch.vocab, frozen, 40)
    labels = (np.random.default_rng(40).random(len(batch)) < 0.5).astype(np.float64)
    loss, grads = disc.loss_and_grads(batch, labels)
    trainable = disc.trainable()
    work = {}
    for step in range(2):  # a second call into the same work overwrites it alike
        out_loss, views = disc.loss_and_grads(batch, labels, work)
        if step == 0:
            buf, embed = work["grad"], views["embed"]
        assert work["grad"] is buf
        assert views["embed"] is embed
        # a frozen embedding's gradient is one read-only zero array
        assert views["embed"].flags.writeable != frozen
        assert out_loss == loss
        assert views.keys() == grads.keys()
        at = 0
        for k in trainable:  # one after another in trainable() order
            size = disc.params[k].size
            assert np.shares_memory(views[k], buf)
            assert views[k].shape == grads[k].shape
            assert views[k].tobytes() == grads[k].tobytes() == buf[at:at + size].tobytes(), k
            at += size
        assert at == len(buf)
        assert views["embed"].tobytes() == grads["embed"].tobytes()
        buf[...] = np.nan
    # the model keeps only its parameters, none of a step's buffers
    assert vars(disc).keys() == {"vocab", "cfg", "banks", "embed_frozen", "params"}


@pytest.mark.parametrize("frozen", [False, True])
def test_loss_and_grads_without_work_never_overwrite_earlier_gradients(s3, frozen):
    batches = _step_batches(s3)
    disc = _step_disc(batches["s3"].vocab, frozen, 41)
    ones = np.ones(len(batches["s3"]))
    _, first = disc.loss_and_grads(batches["s3"], ones)
    kept = {k: v.copy() for k, v in first.items()}
    _, second = disc.loss_and_grads(batches["s3"], np.zeros(len(batches["s3"])))
    disc.loss_and_grads(batches["s3"], ones, {})
    for k in kept:
        assert first[k].tobytes() == kept[k].tobytes(), k
        assert not np.shares_memory(first[k], second[k]), k
    assert any(not np.array_equal(first[k], second[k]) for k in disc.trainable())


@pytest.mark.parametrize("fixed", [False, True])
def test_training_groups_each_epoch_once_and_each_validation_split_once(fixed,
                                                                        monkeypatch):
    # the rows of an epoch are grouped once and each batch derives its groups
    # from them; the validation splits are grouped at the first epoch only
    vocab = fg.build_vocab(["a b c d e"], max_size=10)
    real = _ragged_corpus(vocab, 600, 4, seed=30)
    fake = _ragged_corpus(vocab, 500, 5, seed=31)
    gen = fg.train_mle(fake, None, fg.NGramConfig())
    cfg = DiscConfig(embed_dim=6, kernels2=5, kernels3=7, lr=0.1, batch_size=64,
                     max_epochs=3, patience=5, seed=30)
    calls = []
    real_distinct_rows = fg.data._distinct_rows

    def counting(ids, lengths):
        calls.append(len(lengths))
        return real_distinct_rows(ids, lengths)

    monkeypatch.setattr(fg.data, "_distinct_rows", counting)
    if fixed:
        _, report = train_discriminator_corpora(real, fake, cfg, np.random.default_rng(30))
        epoch_rows, val_rows = 2 * (500 - 50), [60, 50]
    else:
        _, report = train_discriminator(real, gen, cfg, np.random.default_rng(30))
        epoch_rows, val_rows = 2 * (600 - 60), [60, 60]
    assert report.epochs == 3
    assert calls == [epoch_rows, *val_rows, epoch_rows, epoch_rows]


def test_domain_scores_equal_their_scores_inside_a_sampled_batch(s3, s3_disc):
    # exact_boundary scores the domain once; the filter scores sampled
    # batches. Equal bits make the boundary's plateau the filter's decisions.
    disc, _ = s3_disc
    domain = s3.p_model.domain
    by_domain = disc.predict_corpus(domain)
    assert np.array_equal(by_domain, [disc.predict_corpus(domain[i:i + 1])[0]
                                      for i in range(len(domain))])
    index = {row: i for i, row in enumerate(domain.sequences)}
    batch = s3.generator.sample_corpus(5000, SamplerConfig(max_len=s3.length, seed=17),
                                       np.random.default_rng(17))
    rows = batch.sequences
    assert len(set(rows)) > 1  # the batch repeats sequences and mixes them
    assert np.array_equal(disc.predict_corpus(batch), by_domain[[index[row] for row in rows]])


def test_stop_reason_records_patience_and_max_epochs():
    real_src, fake_src = _start_token_sources()
    real = fg.synth_markov(real_src, 200, np.random.default_rng(18), "train")
    gen = MarkovModel(fake_src)
    # lr 0 never moves the parameters, so validation accuracy only ties
    # and patience ends training after 1 + patience epochs
    still = DiscConfig(embed_dim=4, kernels2=2, kernels3=2, lr=0.0, batch_size=64,
                       max_epochs=50, patience=2, seed=18)
    _, report = train_discriminator(real, gen, still, np.random.default_rng(18))
    assert (report.stop_reason, report.converged, report.epochs) == ("patience", True, 3)
    # patience longer than the epoch budget: the budget ends training
    short = DiscConfig(embed_dim=4, kernels2=2, kernels3=2, lr=0.1, batch_size=64,
                       max_epochs=2, patience=10, seed=18)
    _, report = train_discriminator(real, gen, short, np.random.default_rng(18))
    assert (report.stop_reason, report.converged, report.epochs) == ("max_epochs", False, 2)


# The window-matrix kernels the projected-table kernels replaced, kept as the
# reference they must agree with.
def _reference_forward(disc, ids, lengths):
    p = disc.params
    emb = p["embed"][ids]  # (B, L, de)
    b, l, de = emb.shape
    pooled, cache = [], {"ids": ids, "emb": emb, "banks": {}}
    for w, k in disc.banks:
        positions = l - w + 1
        if positions < 1:
            pooled.append(np.zeros((b, k)))
            cache["banks"][w] = None
            continue
        x = np.concatenate([emb[:, i: i + positions, :] for i in range(w)], axis=2)
        pre = x @ p[f"conv{w}_w"] + p[f"conv{w}_b"]
        act = np.maximum(pre, 0.0)
        valid = (np.arange(positions)[None, :] + w) <= lengths[:, None]
        masked = np.where(valid[:, :, None], act, -np.inf)
        pool = masked.max(axis=1)
        arg = masked.argmax(axis=1)
        any_valid = valid.any(axis=1)
        pool = np.where(any_valid[:, None], pool, 0.0)
        pooled.append(pool)
        cache["banks"][w] = (x, pre, arg, any_valid, positions)
    feats = np.concatenate(pooled, axis=1)
    logits = feats @ p["out_w"] + p["out_b"][0]
    cache["feats"] = feats
    return logits, cache


def _reference_backward(disc, cache, dlogits):
    p = disc.params
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    feats = cache["feats"]
    grads["out_w"] += feats.T @ dlogits
    grads["out_b"][0] += dlogits.sum()
    dfeats = dlogits[:, None] * p["out_w"][None, :]
    demb = np.zeros_like(cache["emb"])
    offset = 0
    for w, k in disc.banks:
        dpool = dfeats[:, offset: offset + k]
        offset += k
        bank = cache["banks"][w]
        if bank is None:
            continue
        x, pre, arg, any_valid, positions = bank
        b = pre.shape[0]
        dact = np.zeros_like(pre)
        rows = np.repeat(np.arange(b), k)
        cols = np.tile(np.arange(k), b)
        dval = (dpool * any_valid[:, None]).ravel()
        dact[rows, arg.ravel(), cols] = dval
        dpre = dact * (pre > 0.0)
        grads[f"conv{w}_w"] += np.einsum("bpi,bpk->ik", x, dpre)
        grads[f"conv{w}_b"] += dpre.sum(axis=(0, 1))
        dx = dpre @ p[f"conv{w}_w"].T
        de = demb.shape[2]
        for i in range(w):
            demb[:, i: i + positions, :] += dx[:, :, i * de: (i + 1) * de]
    if not disc.embed_frozen:
        np.add.at(grads["embed"], cache["ids"], demb)
    return grads


def _random_batch(rng, vocab_size, rows, max_len, extra_pad):
    lengths = rng.integers(1, max_len + 1, size=rows)
    lengths[0], lengths[-1] = 1, max_len
    # a few symbols only, so windows and tokens repeat within and across rows
    symbols = rng.choice(np.arange(4, vocab_size), size=min(3, vocab_size - 4),
                         replace=False)
    ids = np.full((rows, int(lengths.max()) + extra_pad), fg.data.PAD)
    for r, n in enumerate(lengths):
        ids[r, :n] = rng.choice(symbols, size=n)
    return ids, lengths


# The projected-table kernels on a batch-major (B, P, k) block, with the
# boolean-scatter argmax and the two-branch sigmoid, as they were before the
# position-major layout, and with the kernels' fixed-order token sum. On the
# same rows the current kernels must agree with them exactly.
def _batch_major_forward(disc, ids, lengths, work=None):
    # work, the buffer dict of TextCNN._forward, goes unused
    p = disc.params
    b, l = ids.shape
    tokens, local = np.unique(ids, return_inverse=True)
    local = local.reshape(ids.shape)
    emb = p["embed"][tokens]  # (U, de)
    de = emb.shape[1]
    pooled, cache = [], {"tokens": tokens, "local": local, "emb": emb, "banks": {}}
    for w, k in disc.banks:
        positions = l - w + 1
        if positions < 1:
            pooled.append(np.zeros((b, k)))
            cache["banks"][w] = None
            continue
        weight = p[f"conv{w}_w"].reshape(w, de, k)
        tables = (emb[:, None, None, :] @ weight)[:, :, 0]  # (U, w, k)
        pre = p[f"conv{w}_b"] + np.take(tables[:, 0], local[:, :positions], axis=0)
        for i in range(1, w):
            pre += np.take(tables[:, i], local[:, i:i + positions], axis=0)
        valid = np.arange(positions) < (lengths - w + 1)[:, None]
        pre[~valid] = -np.inf
        top = pre.max(axis=1)
        pooled.append(np.maximum(top, 0.0))
        cache["banks"][w] = (pre, top)
    feats = np.concatenate(pooled, axis=1)
    logits = (feats[:, None, :] @ p["out_w"])[:, 0] + p["out_b"][0]
    cache["feats"] = feats
    return logits, cache


def _batch_major_backward(disc, cache, dlogits):
    p = disc.params
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    feats = cache["feats"]
    grads["out_w"] += feats.T @ dlogits
    grads["out_b"][0] += dlogits.sum()
    dfeats = dlogits[:, None] * p["out_w"][None, :]
    local, emb = cache["local"], cache["emb"]
    (b, l), (u, de) = local.shape, emb.shape
    demb = np.zeros_like(emb)
    offset = 0
    for w, k in disc.banks:
        dpool = dfeats[:, offset: offset + k]
        offset += k
        bank = cache["banks"][w]
        if bank is None:
            continue
        pre, top = bank
        dpre = np.where(top > 0.0, dpool, 0.0)
        grads[f"conv{w}_b"] += dpre.sum(axis=0)
        arg = np.zeros((b, k), dtype=np.intp)
        for q in range(pre.shape[1] - 1, 0, -1):
            arg[pre[:, q] == top] = q
        first = arg + np.arange(0, b * l, l)[:, None]
        local_k = local.ravel() * k
        weight = p[f"conv{w}_w"]
        for i in range(w):
            slot = np.take(local_k[i:], first) + np.arange(k)
            g = np.bincount(slot.ravel(), weights=dpre.ravel(),
                            minlength=u * k).reshape(u, k)
            rows = slice(i * de, (i + 1) * de)
            grads[f"conv{w}_w"][rows] = fg.disc._token_sum(emb, g)
            demb += g @ weight[rows].T
    if not disc.embed_frozen:
        grads["embed"][cache["tokens"]] = demb
    return grads


def _per_row_loss_and_grads(disc, ids, lengths, labels):
    # the training step on every row of the batch, none grouped, on the
    # batch-major kernels; also returns the forward's cache and dlogits
    logits, cache = _batch_major_forward(disc, ids, lengths)
    loss = float(np.mean(np.logaddexp(0.0, logits) - labels * logits))
    dlogits = (_two_branch_sigmoid(logits) - labels) / len(labels)
    return loss, _batch_major_backward(disc, cache, dlogits), cache, dlogits


def _grouped_loss_and_grads(disc, seqs, labels):
    # the training step on the batch-major kernels with the batch's rows
    # grouped by the lexsort reference: the loss over every row, and the
    # backward on one row per group, with the group's dlogits added up one
    # batch row after another
    ids, lengths = fg.data.corpus_to_arrays(seqs)
    labels = np.asarray(labels, dtype=np.float64)
    loss, _, _, dlogits = _per_row_loss_and_grads(disc, ids, lengths, labels)
    rows, groups = _lexsort_distinct_rows(ids, lengths)
    summed = np.zeros(len(rows))
    for row, group in enumerate(groups):
        summed[group] += dlogits[row]
    _, cache = _batch_major_forward(disc, ids[rows], lengths[rows])
    return loss, _batch_major_backward(disc, cache, summed)


def _two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _full_width_batch(rng, vocab_size, rows, width):
    # every row as long as the batch is wide: no PAD, so no window is masked
    symbols = rng.choice(np.arange(4, vocab_size), size=3, replace=False)
    return rng.choice(symbols, size=(rows, width)), np.full(rows, width)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_projected_table_kernels_match_window_matrix_reference(seed, frozen):
    rng = np.random.default_rng(100 + seed)
    vocab = fg.build_vocab(["a b c d e f g h"], max_size=14)
    cfg = DiscConfig(embed_dim=5, kernels2=4, kernels3=6, seed=seed)
    embeddings = rng.standard_normal((len(vocab), 5)) if frozen else None
    disc = TextCNN(vocab, cfg, np.random.default_rng(seed), embeddings=embeddings)
    # nonzero biases, so some kernels pool a positive value from a mix of windows
    for w, k in disc.banks:
        disc.params[f"conv{w}_b"] = rng.standard_normal(k) * 0.1
    batches = [
        # mixed lengths, two extra PAD columns, rows of length 1 and 2 (a
        # window-3 bank with no valid position in them)
        _random_batch(rng, len(vocab), rows=17, max_len=7, extra_pad=2),
        # every row shorter than 3: no valid window-3 position anywhere
        _random_batch(rng, len(vocab), rows=9, max_len=2, extra_pad=0),
        # one column: narrower than either window
        _random_batch(rng, len(vocab), rows=5, max_len=1, extra_pad=0),
        # one long row that repeats a single token
        (np.full((1, 6), 4 + seed % 4), np.array([6])),
    ]
    # every row as wide as the batch, no PAD: the forward masks nothing
    full_rng = np.random.default_rng(300 + seed)
    batches += [_full_width_batch(full_rng, len(vocab), rows=23, width=5),
                _full_width_batch(full_rng, len(vocab), rows=11, width=3)]
    for ids, lengths in batches:
        batch = _unplanned(disc, ids, lengths)
        logits, cache = disc._forward(batch.rows, {})
        ref_logits, ref_cache = _reference_forward(disc, ids, lengths)
        assert np.allclose(logits, ref_logits, rtol=0.0, atol=1e-12)
        exact_logits, exact_cache = _batch_major_forward(disc, ids, lengths)
        assert np.array_equal(logits, exact_logits)
        dlogits = rng.standard_normal(len(lengths))
        size = sum(disc.params[k].size for k in disc.trainable())
        grads = disc._backward(batch, cache, dlogits, disc._gradient_views(np.empty(size)))
        ref = _reference_backward(disc, ref_cache, dlogits)
        assert grads.keys() == ref.keys()
        for name in ref:
            scale = max(np.abs(ref[name]).max(), 1e-300)
            assert np.abs(grads[name] - ref[name]).max() <= 1e-10 * scale, name
        exact = _batch_major_backward(disc, exact_cache, dlogits)
        assert grads.keys() == exact.keys()
        for name in exact:
            assert np.array_equal(grads[name], exact[name]), name
        if frozen:
            assert not grads["embed"].any()
        # and through the public batch call
        labels = (rng.random(len(lengths)) < 0.5).astype(np.float64)
        seqs = Corpus.from_arrays(vocab, ids, lengths)
        loss, grads = disc.loss_and_grads(seqs, labels)
        ids2, lengths2 = fg.data.corpus_to_arrays(seqs)
        ref_logits, ref_cache = _reference_forward(disc, ids2, lengths2)
        ref_loss = float(np.mean(np.logaddexp(0.0, ref_logits) - labels * ref_logits))
        assert abs(loss - ref_loss) <= 1e-12
        dref = (fg.disc._sigmoid(ref_logits) - labels) / len(labels)
        ref = _reference_backward(disc, ref_cache, dref)
        for name in ref:
            scale = max(np.abs(ref[name]).max(), 1e-300)
            assert np.abs(grads[name] - ref[name]).max() <= 1e-10 * scale, name


def _step_disc(vocab, frozen, seed):
    # the default widths and nonzero biases, so pooled values mix windows
    rng = np.random.default_rng(seed)
    embeddings = rng.standard_normal((len(vocab), 32)) * 0.1 if frozen else None
    disc = TextCNN(vocab, DiscConfig(seed=seed), rng, embeddings=embeddings)
    for w, k in disc.banks:
        disc.params[f"conv{w}_b"] = rng.standard_normal(k) * 0.1
    return disc


def _step_batches(s3):
    vocab = fg.build_vocab(["a b c d e f g h"], max_size=14)
    rng = np.random.default_rng(24)
    sampled = s3.generator.sample_corpus(128, SamplerConfig(max_len=s3.length, seed=24), rng)
    wide = fg.build_vocab([" ".join(f"w{i}" for i in range(300))], max_size=300)
    wide_rows = [tuple(int(t) for t in rng.integers(4, len(wide), size=m))
                 for m in rng.integers(1, 9, size=90)]
    return {
        # a training batch of the s3 workload: real rows and samples, many repeated
        "s3": Corpus.concat([s3.train[:128], sampled]),
        "identical": Corpus(vocab, [(4, 5, 6, 5)] * 40),
        "distinct": Corpus(vocab, _random_distinct_rows(60, 25)),
        # one id-matrix row, [4, PAD, PAD], at lengths 3, 1 and 2
        "length-only": Corpus.from_arrays(vocab, [[4, 2, 2], [4, 2, 2], [5, 4, 6], [4, 2, 2],
                                                  [4, 2, 2], [5, 4, 6]], [3, 1, 3, 2, 1, 3]),
        # no row reaches the window-3 bank
        "short": Corpus(vocab, [(4,), (5, 6), (4,), (6, 6), (5, 6), (7, 4), (8,)]),
        # more distinct tokens than one block of the token sum, and some
        # rows twice
        "many-tokens": Corpus(wide, wide_rows + wide_rows[::3]),
    }


@pytest.mark.parametrize("frozen", [False, True])
def test_loss_and_grads_equal_the_full_batch_kernels_bit_for_bit(s3, frozen):
    batches = _step_batches(s3)
    ids, lengths = fg.data.corpus_to_arrays(batches["s3"])
    assert len(_distinct_rows(ids, lengths)[0]) <= len(lengths) // 3
    ids, lengths = fg.data.corpus_to_arrays(batches["length-only"])
    assert (ids == ids[0]).all(axis=1).sum() == 4 and len(set(lengths)) == 3
    ids, lengths = fg.data.corpus_to_arrays(batches["short"])
    disc = _step_disc(batches["short"].vocab, frozen, 0)
    _, cache = disc._forward(_rows(disc, ids, lengths), {})
    assert cache["banks"][3] is None
    ids, _ = fg.data.corpus_to_arrays(batches["many-tokens"])
    assert len(np.unique(ids)) > fg.disc._BLOCK_MULADDS // (32 * 16)  # a block at k = 16
    for n, (name, batch) in enumerate(batches.items()):
        disc = _step_disc(batch.vocab, frozen, 30 + n)
        labels = (np.random.default_rng(n).random(len(batch)) < 0.5).astype(np.float64)
        loss, grads = disc.loss_and_grads(batch, labels)
        ref_loss, ref = _grouped_loss_and_grads(disc, batch, labels)
        assert loss == ref_loss, name
        assert grads.keys() == ref.keys(), name
        for key in ref:  # bytes, so that even the sign of a zero must agree
            assert grads[key].tobytes() == ref[key].tobytes(), (name, key)
        assert grads["embed"].any() != frozen, name


def test_sigmoid_equals_the_two_branch_sigmoid_bit_for_bit():
    rng = np.random.default_rng(19)
    x = np.concatenate([rng.standard_normal(5000) * 8, rng.standard_normal(5000) * 1e-8,
                        [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 40.0, -40.0,
                         700.0, -700.0, 746.0, -746.0, np.inf, -np.inf]])
    assert np.array_equal(fg.disc._sigmoid(x), _two_branch_sigmoid(x))
    for n in range(1, 20):  # every length modulo the vector width
        assert np.array_equal(fg.disc._sigmoid(x[:n]), _two_branch_sigmoid(x[:n]))


def _ragged_corpus(vocab, n, low, seed):
    # rows of 1-8 tokens drawn from ids low..8
    rng = np.random.default_rng(seed)
    return Corpus(vocab, [rng.integers(low, 9, size=m) for m in rng.integers(1, 9, size=n)],
                  "train")


def _reference_fit(disc, pair_provider, real_val, fake_val, cfg, rng):
    # _fit as a plain loop: every batch a Corpus slice that loss_and_grads
    # groups and remaps on its own, and a momentum step per parameter with
    # the gradients it returns
    velocity = {k: np.zeros_like(disc.params[k]) for k in disc.trainable()}
    best_params = {k: v.copy() for k, v in disc.params.items()}
    best_acc, best_epoch, stale = -1.0, -1, 0
    losses, accs = [], []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        pos, neg = pair_provider(epoch)
        seqs = Corpus.concat([pos, neg])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        order = rng.permutation(len(seqs))
        seqs, labels = seqs[order], labels[order]
        total_loss = 0.0
        for start in range(0, len(seqs), cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            loss, grads = disc.loss_and_grads(seqs[batch], labels[batch])
            for k, v in velocity.items():
                v *= cfg.momentum
                v -= grads[k] * cfg.lr
                disc.params[k] += v
            total_loss += loss * len(labels[batch])
        losses.append(total_loss / len(seqs))
        accs.append(fg.disc._accuracy(disc, real_val, fake_val))
        if accs[-1] >= best_acc:
            stale = 0 if accs[-1] > best_acc + 1e-12 else stale + 1
            best_acc, best_epoch = accs[-1], epoch
            best_params = {k: v.copy() for k, v in disc.params.items()}
        else:
            stale += 1
        if stale >= cfg.patience:
            stop_reason = "patience"
            break
    disc.params = best_params
    return fg.disc.DiscTrainReport(losses, accs, best_epoch, best_acc, stop_reason)


def _assert_same_training(trained, reference):
    (disc, report), (ref_disc, ref_report) = trained, reference
    assert report.epochs >= 2
    assert report == ref_report  # every loss and accuracy, exactly
    assert disc.params.keys() == ref_disc.params.keys()
    for name in ref_disc.params:
        assert disc.params[name].tobytes() == ref_disc.params[name].tobytes(), name
    # training updates views of one flat buffer; none is left behind
    for a, b in itertools.combinations(disc.params.values(), 2):
        assert not np.shares_memory(a, b)


def _data_mode_corpus(vocab, n, seed):
    # encoded text: rows of 1-9 words, a few of them outside the vocabulary
    # (UNK), padded with PAD past their ends
    rng = np.random.default_rng(seed)
    words = np.array(vocab.tokens[fg.data.NUM_RESERVED:] + ("zz", "qq"))
    lines = [" ".join(rng.choice(words, size=m)) for m in rng.integers(1, 10, size=n)]
    return fg.encode_corpus(lines, vocab, "train")


@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize("case", ["s3", "data-mode", "neural"])
def test_fit_equals_the_reference_loop_bit_for_bit(s3, case, batch_size, monkeypatch):
    # the planned epochs against the reference loop's Corpus slices: every
    # loss, accuracy and trained parameter byte-equal. s3's rows are all
    # four tokens long; the data-mode corpus is ragged, with PAD and UNK;
    # the NeuralLM generator's embeddings are copied and frozen. 1 and 7
    # leave a short last batch, 256 one batch per epoch or a few.
    cfg = DiscConfig(embed_dim=6, kernels2=5, kernels3=7, lr=0.1, batch_size=batch_size,
                     max_epochs=2, patience=3, seed=batch_size)
    if case == "s3":
        def train():
            return train_discriminator(s3.train[:150], s3.generator, cfg,
                                       np.random.default_rng(1))
    elif case == "data-mode":
        vocab = fg.build_vocab(["a b c d e f g"], max_size=10)
        real, fake = _data_mode_corpus(vocab, 160, 2), _data_mode_corpus(vocab, 200, 3)
        assert (real.ids == fg.data.UNK).any() and (real.ids == fg.data.PAD).any()

        def train():
            return train_discriminator_corpora(real, fake, cfg, np.random.default_rng(2))
    else:
        vocab = fg.build_vocab(["a b c d"], max_size=10)
        gen = fg.NeuralLM(vocab, fg.NeuralConfig(embed_dim=6, hidden_dim=4, seed=3))
        real = _data_mode_corpus(vocab, 120, 4)

        def train():
            return train_discriminator(real, gen, cfg, np.random.default_rng(3))

    trained = train()
    assert trained[0].embed_frozen == (case == "neural")
    monkeypatch.setattr(fg.disc, "_fit", _reference_fit)
    _assert_same_training(trained, train())


@pytest.mark.parametrize("frozen", [False, True])
def test_training_equals_training_on_batch_major_kernels_bit_for_bit(frozen, monkeypatch):
    # two epochs of the real training loop, once as written and once as
    # the reference loop on the batch-major kernels: every loss and every
    # trained parameter agree. Real rows and the bigram generator's samples
    # have ragged lengths, so batches mix masked and unmasked rows.
    vocab = fg.build_vocab(["a b c d e"], max_size=10)
    real = _ragged_corpus(vocab, 600, 4, seed=20)
    gen = fg.train_mle(_ragged_corpus(vocab, 300, 5, seed=21), None, fg.NGramConfig())
    cfg = DiscConfig(embed_dim=6, kernels2=5, kernels3=7, lr=0.1, batch_size=64,
                     max_epochs=2, patience=3, seed=20)
    if frozen:
        gen_embed = np.random.default_rng(22).standard_normal((len(vocab), 6))
        monkeypatch.setattr(fg.disc, "_generator_embeddings", lambda _gen: gen_embed.copy())

    def train():
        return train_discriminator(real, gen, cfg, np.random.default_rng(20))

    trained = train()
    assert trained[0].embed_frozen == frozen
    # the reference scores on the batch-major forward, from the remapped
    # rows' ids, and trains on the grouped batch-major step
    monkeypatch.setattr(fg.disc, "_fit", _reference_fit)
    monkeypatch.setattr(TextCNN, "_forward", lambda disc, rows, work: _batch_major_forward(
        disc, rows.tokens[rows.local], rows.lengths))
    monkeypatch.setattr(TextCNN, "loss_and_grads", _grouped_loss_and_grads)
    monkeypatch.setattr(fg.disc, "_sigmoid", _two_branch_sigmoid)
    _assert_same_training(trained, train())


def _cancelling_labels(disc, row):
    # two labels for two copies of row whose dlogits add up to exactly 0:
    # with s its score, (s - 1) + (s - (2s - 1)) for s >= 1/2 and
    # (s - 0) + (s - 2s) below, each step exact by Sterbenz's lemma
    logit, _ = disc._forward(_rows(disc, [row], [len(row)]), {})
    s = float(fg.disc._sigmoid(logit)[0])
    return (1.0, 2.0 * s - 1.0) if s >= 0.5 else (0.0, 2.0 * s)


@pytest.mark.parametrize("frozen", [False, True])
@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["distinct", "repeated", "cancel", "short"]), data=st.data())
def test_grouped_step_equals_the_per_row_step(frozen, case, data):
    # the training step on the distinct rows against the backward on every
    # batch row, none grouped. Grouping only adds a row's terms in another
    # order, so each gradient agrees to 1e-12 of its largest entry with
    # every dlogit taken positive: that bounds the magnitude of every term,
    # where the plain largest entry of a sum that cancels (the output bias
    # of a balanced batch) does not. Rows are 1 to max_len tokens long, so
    # every case's batches are ragged.
    vocab = fg.build_vocab(["a b c d e f"], max_size=10)
    max_len = 2 if case == "short" else 6  # "short": no window-3 position anywhere
    row = st.lists(st.integers(4, len(vocab) - 1), min_size=1, max_size=max_len).map(tuple)
    if case == "distinct":
        rows = data.draw(st.lists(row, min_size=1, max_size=30, unique=True))
    else:
        pool = data.draw(st.lists(row, min_size=1, max_size=6))
        rows = [pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1),
                                                    min_size=1, max_size=40))]
    labels = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(rows),
                                max_size=len(rows)))
    disc = _step_disc(vocab, frozen, data.draw(st.integers(0, 2**16)))
    if case == "cancel":  # one row repeated whose summed dlogits are 0
        rows += [rows[0]] * 2
        labels += _cancelling_labels(disc, rows[0])
    batch = Corpus(vocab, rows)
    labels = np.array(labels)
    loss, grads = disc.loss_and_grads(batch, labels)
    ids, lengths = fg.data.corpus_to_arrays(batch)
    ref_loss, ref, cache, dlogits = _per_row_loss_and_grads(disc, ids, lengths, labels)
    magnitudes = _batch_major_backward(disc, cache, np.abs(dlogits))
    assert loss == ref_loss  # softplus per distinct row, gathered back
    assert grads.keys() == ref.keys()
    for key in ref:
        scale = max(np.abs(ref[key]).max(), np.abs(magnitudes[key]).max())
        assert np.abs(grads[key] - ref[key]).max() <= 1e-12 * scale, key
    if case == "short":
        assert not grads["conv3_w"].any() and not grads["conv3_b"].any()
    if frozen:
        assert not grads["embed"].any()


@pytest.mark.parametrize("de,k,tokens", [(5, 3, 1), (32, 16, 128), (32, 16, 300),
                                         (32, 32, 64), (32, 32, 65), (7, 11, 2000),
                                         (300, 300, 5)])  # the last: one-token blocks
def test_token_sum_adds_fixed_blocks_in_order(de, k, tokens):
    rng = np.random.default_rng(de + k + tokens)
    emb, g = rng.standard_normal((tokens, de)), rng.standard_normal((tokens, k))
    out = fg.disc._token_sum(emb, g)
    assert out.shape == (de, k)
    assert np.allclose(out, emb.T @ g, rtol=0.0, atol=1e-12 * np.abs(emb).sum(0).max()
                       * np.abs(g).max())
    block = max(1, fg.disc._BLOCK_MULADDS // (de * k))
    ref = emb[:block].T @ g[:block]
    for start in range(block, tokens, block):
        ref = ref + emb[start:start + block].T @ g[start:start + block]
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("labels", [
    np.ones(9),  # one short
    np.ones(11),  # one long
    np.ones((10, 1)),  # not one number per row
    np.full(10, 2.0),  # above 1
    np.full(10, -0.5),  # below 0
    np.r_[np.ones(9), np.nan],
    np.r_[np.zeros(9), np.inf],
])
def test_loss_and_grads_rejects_bad_labels(labels):
    vocab = fg.build_vocab(["a b c"], max_size=10)
    disc = TextCNN(vocab, FAST, np.random.default_rng(9))
    batch = Corpus(vocab, [(4 + i % 3, 5) for i in range(10)])
    with pytest.raises(InputError, match="labels"):
        disc.loss_and_grads(batch, labels)
    with pytest.raises(InputError, match="labels"):  # an epoch's plan, in batches of 3
        disc._plan(batch, np.asarray(labels, dtype=np.float64), 3)
    disc.loss_and_grads(batch, np.linspace(0.0, 1.0, 10))  # the bounds are allowed
