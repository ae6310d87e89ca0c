import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filtergen as fg
from filtergen import (EOS, Corpus, InputError, MarkovModel, NeuralConfig, NeuralLM,
                       NGramConfig, NGramLM, SamplerConfig,
                       build_vocab, encode_corpus, perplexity, synth_markov,
                       train_mle)
from filtergen.checkpoint import load_model, save_model
from filtergen.genmodel import _apply_temperature, _event_table, _tempered_softmax
from filtergen.oracle import enumerate_distribution, enumerate_domain


def _uniform_source(k=3, length=4, seed=0):
    tokens = tuple("abcdef"[:k])
    return fg.MarkovSource(tokens, np.full(k, 1 / k), np.full((k, k), 1 / k), length)


def test_ngram_smoothed_conditional_closed_form():
    vocab = build_vocab(["a b c"], max_size=10)
    train = encode_corpus(["a b c"] * 100, vocab, "train")
    model = train_mle(train, None, NGramConfig(order=2, delta=0.01))
    row = model.cond_probs((vocab.id_of("a"),))
    p_b = row[list(model.support).index(vocab.id_of("b"))]
    assert p_b >= 0.99
    # closed form over the variable-length support {EOS, UNK, a, b, c}
    assert p_b == pytest.approx((100 + 0.01) / (100 + 0.01 * 5), abs=1e-12)


def test_ngram_validation_perplexity_near_source_entropy():
    source = _uniform_source(3, 4)
    rng = np.random.default_rng(3)
    train = synth_markov(source, 5000, rng, "train")
    valid = synth_markov(source, 1000, rng, "valid")
    model = train_mle(train, valid, NGramConfig(order=2, delta=0.01, fixed_length=4))
    # uniform source: exp(entropy rate) == alphabet size
    assert perplexity(model, valid) == pytest.approx(3.0, rel=0.05)


def test_empty_corpus_rejected():
    with pytest.raises(InputError):
        train_mle(None, None, NGramConfig())


def test_seq_logprob_deterministic_chain():
    source = fg.MarkovSource(("a", "b"), np.array([1.0, 0.0]),
                             np.array([[0.0, 1.0], [1.0, 0.0]]), 3)
    model = MarkovModel(source)
    seq = model.sample_corpus(1, SamplerConfig(seed=0)).sequences[0]
    assert model.seq_logprob(seq) == pytest.approx(0.0, abs=1e-12)


def test_seq_logprob_uniform_fixed_length():
    vocab = build_vocab(["a b c"], max_size=10)
    model = NGramLM(vocab, order=2, delta=0.01, fixed_length=2)  # untrained: uniform
    seq = (vocab.id_of("a"), vocab.id_of("c"))
    assert model.seq_logprob(seq) == pytest.approx(math.log(1 / 9), abs=1e-12)


def test_seq_logprob_matches_enumeration():
    source = fg.MarkovSource(
        ("a", "b", "c"), np.array([0.5, 0.3, 0.2]),
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]), 3)
    model = MarkovModel(source)
    dist = enumerate_distribution(source, source.vocab, 3)
    for seq, p in zip(dist.domain.sequences, dist.probs):
        assert math.exp(model.seq_logprob(seq)) == pytest.approx(p, abs=1e-9)


def test_ngram_normalizes_over_enumerable_domain():
    source = _uniform_source(3, 3)
    train = synth_markov(source, 400, np.random.default_rng(5), "train")
    model = train_mle(train, None, NGramConfig(order=2, delta=0.01, fixed_length=3))
    dist = enumerate_distribution(model, source.vocab, 3)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_sampling_greedy_limit_and_determinism():
    source = fg.MarkovSource(
        ("a", "b"), np.array([0.7, 0.3]),
        np.array([[0.6, 0.4], [0.3, 0.7]]), 4)
    train = synth_markov(source, 2000, np.random.default_rng(8), "train")
    model = train_mle(train, None, NGramConfig(order=2, delta=0.01, fixed_length=4))
    greedy = SamplerConfig(temperature=1e-6, max_len=4, seed=1)
    out = {model.sample_corpus(1, greedy, np.random.default_rng(s)).sequences[0]
           for s in range(20)}
    assert len(out) == 1  # argmax decoding regardless of the stream
    # independent greedy decode: follow the per-step argmax by hand
    expected, ctx = [], (fg.BOS,)
    for _ in range(4):
        tok = int(model.support[np.argmax(model.cond_probs(ctx))])
        expected.append(tok)
        ctx = (tok,)
    assert next(iter(out)) == tuple(expected)
    cfg = SamplerConfig(seed=9)
    assert model.sample_corpus(1, cfg) == model.sample_corpus(1, cfg)


def test_temperature_preserves_argmax():
    probs = np.array([0.1, 0.6, 0.3])
    for t in (0.25, 0.5, 1.0, 2.0, 7.5):
        scaled = probs ** (1 / t)
        assert int(np.argmax(scaled)) == 1


def test_first_token_marginal_monte_carlo():
    source = fg.MarkovSource(
        ("a", "b", "c"), np.array([0.5, 0.3, 0.2]),
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]), 2)
    train = synth_markov(source, 20000, np.random.default_rng(11), "train")
    model = train_mle(train, None, NGramConfig(order=2, delta=0.01, fixed_length=2))
    first_row = model.cond_probs((fg.BOS,))
    samples = model.sample_corpus(100_000, SamplerConfig(seed=2),
                                  np.random.default_rng(2))
    firsts = samples.ids[:, 0]
    for idx, token in enumerate(model.support):
        freq = float((firsts == token).mean())
        assert freq == pytest.approx(first_row[idx], abs=0.01)


def test_perplexity_uniform_and_deterministic():
    vocab = build_vocab(["a b c"], max_size=10)
    uniform = NGramLM(vocab, order=1, delta=0.01, fixed_length=3)
    corpus = Corpus(vocab, [(4, 5, 6), (6, 6, 4)], "test")
    assert perplexity(uniform, corpus) == pytest.approx(3.0, abs=1e-6)
    chain = MarkovModel(fg.MarkovSource(("a", "b"), np.array([1.0, 0.0]),
                                        np.array([[0.0, 1.0], [1.0, 0.0]]), 3))
    sample = chain.sample_corpus(1, SamplerConfig(seed=0))
    assert perplexity(chain, sample) == pytest.approx(1.0, abs=1e-9)


def test_heldout_perplexity_at_least_training(s2):
    model = train_mle(s2.train, None,
                      NGramConfig(order=2, delta=0.01, fixed_length=s2.length))
    assert perplexity(model, s2.test) >= perplexity(model, s2.train)


def test_mle_consistency_with_matching_order():
    source = fg.MarkovSource(
        ("a", "b", "c"), np.array([0.5, 0.3, 0.2]),
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]), 4)
    train = synth_markov(source, 100_000, np.random.default_rng(13), "train")
    model = train_mle(train, None, NGramConfig(order=2, delta=0.01, fixed_length=4))
    for state, tok in enumerate(source.vocab.content_ids):
        learned = model.cond_probs((tok,))
        tv = 0.5 * np.abs(learned - source.transition[state]).sum()
        assert tv <= 0.02
    init = model.cond_probs((fg.BOS,))
    assert 0.5 * np.abs(init - source.initial).sum() <= 0.02


# ---------------------------------------------------------------------------
# Neural LM
# ---------------------------------------------------------------------------


def _toy_neural(fixed_length=None, seed=0):
    vocab = build_vocab(["a b c"], max_size=10)
    cfg = NeuralConfig(embed_dim=5, hidden_dim=7, fixed_length=fixed_length, seed=seed)
    return vocab, NeuralLM(vocab, cfg)


def test_neural_gradients_match_finite_differences():
    vocab, model = _toy_neural()
    batch = Corpus(vocab, [(4, 5, 6), (5, 5), (6,)])
    _, grads = model.nll_and_grads(batch)
    eps = 1e-4
    worst = 0.0
    for name, param in model.params.items():
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + eps
            up, _ = model.nll_and_grads(batch)
            param[idx] = orig - eps
            down, _ = model.nll_and_grads(batch)
            param[idx] = orig
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(grads[name][idx]), 1e-8)
            worst = max(worst, abs(numeric - grads[name][idx]) / denom)
    assert worst <= 1e-4


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from((4, 5, 6)), min_size=1, max_size=6),
                min_size=1, max_size=12))
def test_neural_targets_match_a_per_sequence_loop(rows):
    vocab, model = _toy_neural()
    targets, mask = _event_table(model, Corpus(vocab, rows))
    eos = model._sup_index[EOS]
    assert mask.sum(axis=1).tolist() == [len(r) + 1 for r in rows]
    for row, got, events in zip(rows, targets, mask):
        want = [model._sup_index[i] for i in row] + [eos]
        assert got.tolist() == want + [0] * (targets.shape[1] - len(want))
        assert events.tolist() == [True] * len(want) + [False] * (len(got) - len(want))


def test_neural_training_nll_decreases_monotonically():
    vocab = build_vocab(["a b c"], max_size=10)
    train = encode_corpus(["a b c"] * 100, vocab, "train")
    valid = encode_corpus(["a b c"] * 20, vocab, "valid")
    cfg = NeuralConfig(embed_dim=8, hidden_dim=12, lr=0.05, momentum=0.0,
                       batch_size=20, max_epochs=15, patience=3, seed=1)
    model = train_mle(train, valid, cfg)
    nll = model.train_report.valid_nll
    assert all(b <= a + 1e-9 for a, b in zip(nll, nll[1:]))
    assert perplexity(model, valid) < 2.0  # realizable target gets learned


def test_neural_stepwise_distributions_normalize():
    _, model = _toy_neural(fixed_length=3)
    probs = np.exp([model.seq_logprob(ids)
                    for ids in itertools.product((4, 5, 6), repeat=3)])
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_neural_sampling_deterministic_and_param_count():
    _, model = _toy_neural(fixed_length=2, seed=3)
    cfg = SamplerConfig(seed=5, max_len=2)
    assert model.sample_corpus(1, cfg) == model.sample_corpus(1, cfg)
    # embedding, input, recurrent, bias, output and output-bias weights
    v, s = len(model.vocab), len(model.support)
    de, dh = model.cfg.embed_dim, model.cfg.hidden_dim
    assert sum(p.size for p in model.params.values()) == (
        v * de + de * dh + dh * dh + dh + dh * s + s)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["ngram", "neural", "markov"])
def test_checkpoint_roundtrip(tmp_path, kind):
    source = _uniform_source(3, 3)
    train = synth_markov(source, 300, np.random.default_rng(17), "train")
    if kind == "ngram":
        model = train_mle(train, None, NGramConfig(order=2, delta=0.01, fixed_length=3))
    elif kind == "neural":
        cfg = NeuralConfig(embed_dim=4, hidden_dim=6, max_epochs=2, fixed_length=3, seed=0)
        model = train_mle(train, synth_markov(source, 50, np.random.default_rng(18)), cfg)
    else:
        model = MarkovModel(source)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    seq = train.sequences[0]
    assert again.seq_logprob(seq) == pytest.approx(model.seq_logprob(seq), abs=1e-12)
    cfg = SamplerConfig(seed=4)
    assert again.sample_corpus(1, cfg) == model.sample_corpus(1, cfg)
    if kind == "ngram":  # the stored totals are rebuilt from the counts read
        assert _count_rows(again) == _count_rows(model)
        assert np.array_equal(again.seq_logprobs(train), model.seq_logprobs(train))


@pytest.mark.parametrize("kind,name", [("ngram", "rows"), ("neural", "b_h")])
def test_checkpoint_with_a_misshapen_array_is_an_input_error(tmp_path, kind, name):
    source = _uniform_source(3, 3)
    train = synth_markov(source, 50, np.random.default_rng(17), "train")
    cfg = (NGramConfig(fixed_length=3) if kind == "ngram" else
           NeuralConfig(embed_dim=4, hidden_dim=6, max_epochs=1, fixed_length=3))
    path = tmp_path / "model.json"
    save_model(train_mle(train, train, cfg), path)
    doc = json.loads(path.read_text())
    array = doc["params"][name]
    (array[-1] if kind == "ngram" else array).pop()  # a count short, or a bias
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"model\.json: malformed checkpoint: .* has shape"):
        load_model(path)


def test_checkpoint_listing_a_context_twice_is_an_input_error(tmp_path):
    # save_model never writes a context twice; a reader that added the rows
    # would load counts no fit produced
    source = _uniform_source(3, 3)
    train = synth_markov(source, 50, np.random.default_rng(17), "train")
    path = tmp_path / "model.json"
    save_model(train_mle(train, None, NGramConfig(fixed_length=3)), path)
    doc = json.loads(path.read_text())
    params = doc["params"]
    params["contexts"].append(params["contexts"][0])
    params["rows"].append(params["rows"][0])
    path.write_text(json.dumps(doc))
    context = tuple(params["contexts"][0])
    with pytest.raises(InputError, match=re.escape(
            f"model.json: malformed checkpoint: context {context} is listed twice")):
        load_model(path)


@pytest.mark.parametrize("field,bad,problem", [
    ("rows", math.nan, "malformed checkpoint: counts must be finite and non-negative"),
    ("rows", -1.0, "malformed checkpoint: counts must be finite and non-negative"),
    ("rows", math.inf, "malformed checkpoint: counts must be finite and non-negative"),
    ("delta", math.inf, "smoothing delta must be finite and > 0")])
def test_ngram_checkpoint_with_a_bad_number_is_an_input_error(tmp_path, field, bad, problem):
    # JSON's NaN and Infinity load as floats, and such a model scores NaN
    vocab = build_vocab(["a b c"], max_size=10)
    path = tmp_path / "model.json"
    save_model(train_mle(encode_corpus(["a b c", "c b"], vocab), None, NGramConfig()), path)
    doc = json.loads(path.read_text())
    if field == "rows":
        doc["params"]["rows"][0][0] = bad
    else:
        doc["params"][field] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=re.escape(f"model.json: {problem}")):
        load_model(path)


def test_markov_checkpoint_with_nan_probabilities_is_an_input_error(tmp_path):
    path = tmp_path / "model.json"
    save_model(MarkovModel(_uniform_source(3, 3)), path)
    doc = json.loads(path.read_text())
    doc["params"]["transition"][1][2] = math.nan
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=re.escape(
            "model.json: malformed checkpoint: probabilities must be non-negative")):
        load_model(path)


# ---------------------------------------------------------------------------
# Corpus-wide fitting and scoring against per-event loops
# ---------------------------------------------------------------------------


def _ref_events(model, ids):
    """The (context, token) events of one sequence, one at a time."""
    ctx_len = model.order - 1
    padded = (fg.BOS,) * ctx_len + ids
    for t, tok in enumerate(ids):
        yield padded[t: t + ctx_len], tok
    if model.fixed_length is None:
        yield padded[len(ids): len(ids) + ctx_len], EOS


def _ref_counts(model, *corpora):
    counts = {}
    for corpus in corpora:
        for row in corpus.sequences:
            for ctx, tok in _ref_events(model, row):
                row = counts.setdefault(ctx, np.zeros(len(model.support)))
                row[model._sup_index[tok]] += 1.0
    return counts


def _count_rows(model):
    """Each context's counts row and total, as plain lists and floats."""
    return {ctx: (model._counts[r].tolist(), float(model._totals[r]))
            for ctx, r in model._row_of.items()}


@st.composite
def _ngram_case(draw):
    """Order 1-3, fixed or variable length, and two random corpora. No row
    is empty, so with variable length EOS never follows BOS above order 1."""
    k = draw(st.integers(1, 5))
    vocab = fg.Vocab(tuple("abcde"[:k]))
    fixed = draw(st.sampled_from([None, 1, 2, 4]))
    content = st.integers(4, 3 + k)
    if fixed is None:
        row = st.lists(st.one_of(content, st.just(fg.UNK)), min_size=1, max_size=7)
    else:
        row = st.lists(content, min_size=fixed, max_size=fixed)
    first, second = (Corpus(vocab, rows)
                     for rows in (draw(st.lists(row, min_size=1, max_size=12)),
                                  draw(st.lists(row, min_size=1, max_size=12))))
    return draw(st.integers(1, 3)), fixed, first, second


@settings(max_examples=200, deadline=None)
@given(_ngram_case())
def test_ngram_fit_and_seq_logprobs_match_per_event_loops(case):
    order, fixed, train, test = case
    model = NGramLM(train.vocab, order, 0.05, fixed).fit(train)
    twice = NGramLM(train.vocab, order, 0.05, fixed).fit(train).fit(test)
    for fitted, corpora in ((model, (train,)), (twice, (train, test))):
        want = _ref_counts(fitted, *corpora)
        assert fitted._row_of.keys() == want.keys()
        assert len(fitted._counts) == len(fitted._totals) == len(want)
        for ctx, row in want.items():
            assert np.array_equal(fitted._counts[fitted._row_of[ctx]], row)
            assert fitted._totals[fitted._row_of[ctx]] == row.sum()
    got = model.seq_logprobs(test)
    assert got.shape == (len(test),) and got.dtype == np.float64
    np.testing.assert_allclose(got, [model.seq_logprob(s) for s in test.sequences],
                               rtol=1e-12, atol=0)


def test_ngram_seq_logprobs_memory_scales_with_events_not_vocabulary():
    # 400 distinct contexts over a 6,000-word support: a stacked table of
    # their rows would be 19 MB, the events themselves a few kB
    import tracemalloc

    words = [f"w{i}" for i in range(6000)]
    vocab = fg.Vocab(tuple(words))
    rng = np.random.default_rng(23)
    lines = [" ".join(rng.choice(words, size=rng.integers(1, 6))) for _ in range(400)]
    corpus = encode_corpus(lines, vocab, "test")
    model = train_mle(corpus, None, NGramConfig(order=2))
    want = [model.seq_logprob(s) for s in corpus.sequences]  # one event at a time
    tracemalloc.start()
    try:
        got = model.seq_logprobs(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, want)
    assert peak < 2_000_000


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=6),
                min_size=1, max_size=10))
def test_markov_seq_logprobs_match_exact_prob(k, seed, rows):
    # entries below 0.15 are zeroed, so some sequences have probability 0
    rng = np.random.default_rng(seed)
    initial = rng.dirichlet(np.full(k, 0.5))
    transition = rng.dirichlet(np.full(k, 0.5), size=k)
    for table in (initial, transition):
        table[table < 0.15] = 0.0
    source = fg.MarkovSource(tuple("abcd"[:k]), initial / initial.sum(),
                             transition / transition.sum(axis=1, keepdims=True), 3)
    model = MarkovModel(source)
    corpus = Corpus(source.vocab, [tuple(4 + s % k for s in r) for r in rows])
    want = [model.seq_logprob(s) for s in corpus.sequences]
    np.testing.assert_allclose(model.seq_logprobs(corpus), want, rtol=1e-12, atol=0)
    with pytest.raises(InputError):
        model.seq_logprobs(Corpus(source.vocab, [(4, fg.UNK)]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_markov_model_and_oracle_share_one_chain_product(k, length, seed):
    # the scorer over the enumerated domain and the oracle's probability
    # table: the same products, so the logs agree bit for bit, with -inf
    # exactly where p is 0 (entries below 0.15 are zeroed). The reference
    # log is math.log, seq_logprob's; numpy's log may differ in the last bit.
    rng = np.random.default_rng(seed)
    initial = rng.dirichlet(np.full(k, 0.5))
    transition = rng.dirichlet(np.full(k, 0.5), size=k)
    for table in (initial, transition):
        table[table < 0.15] = 0.0
    source = fg.MarkovSource(tuple("abcd"[:k]), initial / initial.sum(),
                             transition / transition.sum(axis=1, keepdims=True), length)
    domain = enumerate_domain(source.vocab, length)
    probs = enumerate_distribution(source, source.vocab, length).probs
    want = np.array([math.log(p) if p > 0 else -math.inf for p in probs.tolist()])
    got = MarkovModel(source).seq_logprobs(domain)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.isneginf(got), probs == 0)


@pytest.mark.parametrize("fixed_length", [None, 3])
def test_neural_seq_logprobs_match_seq_logprob(fixed_length):
    vocab, model = _toy_neural(fixed_length=fixed_length, seed=4)
    lengths = (3,) if fixed_length else (1, 2, 3, 4)
    corpus = Corpus(vocab, [ids for n in lengths
                            for ids in itertools.product((4, 5, 6), repeat=n)])
    want = [model.seq_logprob(s) for s in corpus.sequences]
    np.testing.assert_allclose(model.seq_logprobs(corpus), want, rtol=1e-12, atol=0)


def _ref_neural_nll(model, seqs) -> float:
    """Summed NLL of ``seqs``: the step loop that scored one batch (or one
    sequence) before ``seq_logprobs`` became the batched kernel."""
    p = model.params
    targets, mask = _event_table(model, seqs)
    n, width = targets.shape
    inputs = np.full((n, width), fg.BOS)
    inputs[:, 1:] = model.support[targets[:, :-1]]
    h = np.zeros((n, p["w_hh"].shape[0]))
    loss = 0.0
    for t in range(width):
        x = p["embed"][inputs[:, t]]
        h = np.tanh(x @ p["w_xh"] + h @ p["w_hh"] + p["b_h"])
        logits = h @ p["w_hy"] + p["b_y"]
        logits -= logits.max(axis=1, keepdims=True)
        logz = np.log(np.exp(logits).sum(axis=1))
        picked = logits[np.arange(n), targets[:, t]] - logz
        loss -= float((picked * mask[:, t]).sum())
    return loss


@pytest.mark.parametrize("fixed_length", [None, 4])
def test_neural_batched_kernel_matches_the_scalar_path(fixed_length):
    vocab, model = _toy_neural(fixed_length=fixed_length, seed=6)
    rng = np.random.default_rng(6)
    # 300 rows: one full 256-row forward pass and a partial one
    lengths = np.full(300, 4) if fixed_length else rng.integers(1, 9, 300)
    corpus = Corpus(vocab, [rng.integers(4, 7, n) for n in lengths])
    want = np.array([-_ref_neural_nll(model, corpus[i: i + 1]) for i in range(len(corpus))])
    np.testing.assert_allclose(model.seq_logprobs(corpus), want, rtol=1e-12, atol=0)
    assert [model.seq_logprob(s) for s in corpus[:20].sequences] == pytest.approx(
        want[:20], rel=1e-12, abs=0)
    # the old mean_nll: scalar-path sums over 256-row batches, per event
    total = sum(_ref_neural_nll(model, corpus[i: i + 256]) for i in range(0, 300, 256))
    events = int((lengths + (0 if fixed_length else 1)).sum())
    assert model.mean_nll(corpus) == pytest.approx(total / events, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# The n-gram sampler's CDF table against the per-step sampler it replaced
# ---------------------------------------------------------------------------


def _ref_sample_corpus(model, n, cfg, rng, tie=0.0):
    """``NGramLM.sample_corpus`` before the CDF table: every step ranks the
    active contexts, rebuilds and tempers each distinct context's row, and
    counts each gathered CDF row's entries below u. Also returns which rows
    drew a u within ``tie`` of an entry of their step's CDF row."""
    from filtergen.data import _gram_ranks

    length_cap = (min(model.fixed_length, cfg.max_len)
                  if model.fixed_length is not None else cfg.max_len)
    ctx_len = model.order - 1
    contexts = np.full((n, max(ctx_len, 1)), fg.BOS, dtype=np.int64)
    tokens = np.full((n, length_cap), -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    near = np.zeros(n, dtype=bool)
    eos_sup = int(model._sup_index[EOS]) if model.fixed_length is None else -1
    for t in range(length_cap):
        u = rng.random(n)
        if not active.any():
            continue
        keys = contexts[active, :ctx_len]
        if ctx_len:
            lengths = np.full(len(keys), ctx_len)
            *_, (ranks, n_keys) = _gram_ranks(keys, lengths, ctx_len)
            inverse = ranks[:, 0]
        else:
            inverse, n_keys = np.zeros(len(keys), dtype=np.int64), 1
        holder = np.empty(n_keys, dtype=np.int64)
        holder[inverse] = np.arange(len(keys))
        rows = np.empty((n_keys, len(model.support)))
        for i, row_key in enumerate(keys[holder].tolist()):
            probs = model.cond_probs(tuple(row_key))
            row = _apply_temperature(probs, cfg.temperature)
            if t == 0 and eos_sup >= 0:
                # drop EOS; where it held all the tempered mass, temper without it
                row[eos_sup] = 0.0
                if not row.any():
                    probs[eos_sup] = 0.0
                    row = _apply_temperature(probs, cfg.temperature)
                row = row / row.sum()
            rows[i] = row
        cum = np.cumsum(rows, axis=1)[inverse]
        near[active] |= (np.abs(cum - u[active][:, None]) <= tie).any(axis=1)
        picks = np.minimum((cum < u[active][:, None]).sum(axis=1), cum.shape[1] - 1)
        ended = picks == eos_sup if model.fixed_length is None else np.zeros(len(picks), bool)
        emitted = model.support[picks]
        idx = np.flatnonzero(active)
        keep = ~ended
        tokens[idx[keep], t] = emitted[keep]
        if ctx_len:
            contexts[idx[keep], :ctx_len] = np.concatenate(
                [contexts[idx[keep], 1:ctx_len], emitted[keep, None]], axis=1)
        active[idx[ended]] = False
    # rows are filled left to right, -1 past the end
    return Corpus.from_arrays(model.vocab, tokens, (tokens >= 0).sum(axis=1)), near


# A gap's pick is found by one division, not by the per-step sampler's
# cumulative sums, so a u within this distance of one of that sampler's CDF
# entries may fall on its other side. On rows without gaps every draw matches.
_TIE = 1e-9


@settings(max_examples=150, deadline=None)
@given(_ngram_case(), st.integers(1, 2000), st.integers(1, 6),
       st.lists(st.one_of(st.just(1.0), st.floats(0.05, 5.0),
                          st.sampled_from([1e-4, 1e-300, 1e-320])), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
# every row starts with c, so the first step's row has EOS, UNK, a and b in one gap
@example((2, None, Corpus(fg.Vocab(("a", "b", "c")), [[6, 4], [6], [6, 5, 5]] * 4),
          Corpus(fg.Vocab(("a", "b", "c")), [[4, 6]])), 2000, 4, [1.0, 5.0], 3)
def test_ngram_sampler_matches_the_per_step_sampler(case, n, max_len, temperatures, seed):
    # The temperatures alternate twice on one model, so a call makes a new
    # table when the temperature changes and reads a warm one when it
    # repeats, and a refit must drop it. Small fits leave (context, token)
    # pairs unseen, so rows have gaps; below T = 1e-300 tempering takes the
    # argmax limit. Rows that drew a u within _TIE of a CDF entry are skipped.
    order, fixed, train, test = case
    model = NGramLM(train.vocab, order, 0.05, fixed).fit(train)
    for call, temperature in enumerate(temperatures * 2 + [temperatures[0]]):
        if call == 2 * len(temperatures):
            model.fit(test)
        size = n if call else 1 + n // 100
        cfg = SamplerConfig(temperature=temperature, max_len=max_len, seed=seed)
        got = model.sample_corpus(size, cfg, np.random.default_rng(seed + call))
        want, near = _ref_sample_corpus(model, size, cfg, np.random.default_rng(seed + call),
                                        _TIE)
        if model._table.floors is None:  # no gaps
            assert got == want
        keep = ~near
        assert np.array_equal(got.lengths[keep], want.lengths[keep])
        assert [row for row, k in zip(got.sequences, keep) if k] == [
            row for row, k in zip(want.sequences, keep) if k]


@pytest.mark.parametrize("fixed", [3, None])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_ngram_table_is_made_once_at_the_rows_sampling_can_reach(order, fixed,
                                                                 monkeypatch):
    # a temperature's table is made whole at its first call: a row per seen
    # context, the uniform row of a context never seen and the first step's;
    # later calls at that temperature read it, a call at another makes that
    # one's, and a refit drops it. Every call draws a fresh model's rows.
    vocab = build_vocab(["a b c d"], max_size=10)
    lines = ["a b c", "c b a", "b d a", "d d c"] if fixed else ["a b", "c b a d", "d", "b a"]
    train = encode_corpus(lines * 5, vocab, "train")
    more = encode_corpus(["d c b a", "a a"] if fixed is None else ["a a a"], vocab, "train")
    calls = [(0.7, 6), (0.7, 1), (0.7, 4), (1.3, 6), (1.3, 2)]
    cfgs = [SamplerConfig(temperature=t, max_len=m, seed=seed)
            for seed, (t, m) in enumerate(calls)]
    want = [NGramLM(vocab, order, 0.05, fixed).fit(train).sample_corpus(200, cfg)
            for cfg in cfgs]
    refit = NGramLM(vocab, order, 0.05, fixed).fit(train).fit(more).sample_corpus(200, cfgs[0])
    made, real = [], fg.genmodel._SamplingTable

    def counting(model, temperature):
        made.append(temperature)
        return real(model, temperature)

    monkeypatch.setattr(fg.genmodel, "_SamplingTable", counting)
    model = NGramLM(vocab, order, 0.05, fixed).fit(train)
    tables = []
    for cfg, rows in zip(cfgs, want):
        assert model.sample_corpus(200, cfg) == rows
        tables.append(model._table)
    assert made == [0.7, 1.3]
    assert tables[0] is tables[1] is tables[2] and tables[3] is tables[4]
    assert len(tables[0].starts) == len(model._row_of) + 2
    model.fit(more)
    assert model._table is None
    assert model.sample_corpus(200, cfgs[0]) == refit
    assert made == [0.7, 1.3, 0.7]


def test_threads_share_one_ngram_model_at_two_temperatures():
    # a table is only read once made, so four threads sampling one model at
    # two temperatures, each call making its table anew as another's
    # replaces it, draw the rows one thread draws alone
    import sys
    import threading

    vocab = build_vocab(["a b c d e"], max_size=10)
    model = NGramLM(vocab, 2, 0.05).fit(encode_corpus(["a b", "c b a d e", "e", "b a"], vocab))
    cfgs = [SamplerConfig(temperature=t, max_len=8, seed=0) for t in (0.6, 1.4)]
    calls = 30
    serial = [[model.sample_corpus(500, cfg, np.random.default_rng(c)) for c in range(calls)]
              for cfg in cfgs]
    threaded = [None] * 4
    start = threading.Barrier(4)

    def run(k):
        start.wait()
        threaded[k] = [model.sample_corpus(500, cfgs[k % 2], np.random.default_rng(c))
                       for c in range(calls)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert threaded == serial * 2


@pytest.mark.parametrize("mode", ["fixed", "eos", "eos-short"])
@pytest.mark.parametrize("kind", ["ngram", "neural"])
def test_sampled_corpus_holds_the_validated_matrix(kind, mode):
    # the samplers build their Corpus without Corpus.from_arrays, so they must
    # hand out what it would: int64, C-ordered and read-only, PAD past each
    # length, as wide as the longest row; "eos-short" rows all end before the cap
    vocab = build_vocab(["a b c"], max_size=10)
    lines = ["a"] * 200 if mode == "eos-short" else ["a b c", "b c", "c a b a", "a"] * 50
    fixed, cap = (3 if mode == "fixed" else None), 8
    if kind == "ngram":
        model = NGramLM(vocab, 2, 0.01, fixed).fit(encode_corpus(lines, vocab, "train"))
    else:
        model = NeuralLM(vocab, NeuralConfig(embed_dim=4, hidden_dim=5, fixed_length=fixed,
                                             seed=1))
        if mode == "eos-short":
            model.params["b_y"][model._sup_index[EOS]] = 50.0  # EOS after the first step
    corpus = model.sample_corpus(300, SamplerConfig(max_len=cap, seed=4), split="gen")
    ids, lengths = corpus.ids, corpus.lengths
    assert ids.dtype == lengths.dtype == np.int64
    assert ids.flags.c_contiguous
    assert not ids.flags.writeable and not lengths.flags.writeable
    assert ids.shape == (300, lengths.max())
    valid = np.arange(ids.shape[1]) < lengths[:, None]
    assert (ids[~valid] == fg.data.PAD).all()
    assert np.isin(ids[valid], model.support).all() and not (ids[valid] == EOS).any()
    assert corpus == Corpus.from_arrays(vocab, ids, lengths, "gen")
    assert lengths.min() >= 1
    assert {"fixed": lengths.max() == lengths.min() == 3, "eos": lengths.max() == cap,
            "eos-short": lengths.max() < cap}[mode]


def _sampler_cases():
    """A model of each sampler kind and length mode over one small vocabulary;
    the EOS models end most rows well before the cap."""
    vocab = build_vocab(["a b c"], max_size=10)
    fixed = encode_corpus(["a b c", "c b a", "b b a"] * 20, vocab, "train")
    short = encode_corpus(["a", "b c", "c"] * 20, vocab, "train")
    eos_neural = NeuralLM(vocab, NeuralConfig(embed_dim=4, hidden_dim=5, seed=1))
    eos_neural.params["b_y"][eos_neural._sup_index[EOS]] = 3.0
    chain = fg.MarkovSource(("a", "b", "c"), np.array([0.5, 0.3, 0.2]),
                            np.full((3, 3), 1 / 3), 3)
    return {"ngram-fixed": NGramLM(vocab, 2, 0.01, 3).fit(fixed),
            "ngram-eos": NGramLM(vocab, 2, 0.01).fit(short),
            "markov": MarkovModel(chain),
            "neural-fixed": NeuralLM(vocab, NeuralConfig(embed_dim=4, hidden_dim=5,
                                                         fixed_length=3, seed=1)),
            "neural-eos": eos_neural}


@pytest.mark.parametrize("kind", ["ngram-fixed", "ngram-eos", "markov", "neural-fixed",
                                  "neural-eos"])
def test_sample_corpus_draws_one_uniform_per_row_and_step(kind):
    # the contract that lets estimate_boundary lay out a block's uniforms:
    # a call leaves its rng where a (length_cap, n) draw leaves a twin,
    # however early rows end, and sample_block of that draw gives its rows
    model = _sampler_cases()[kind]
    for max_len, n in ((6, 37), (2, 1)):
        cfg = SamplerConfig(temperature=0.8, max_len=max_len, seed=0)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        corpus = model.sample_corpus(n, cfg, rng)
        u = twin.random((fg.genmodel.length_cap(model, cfg), n))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert corpus == model.sample_block(u[None], cfg)
        if kind.endswith("eos") and n > 1:
            assert corpus.lengths.min() < max_len  # rows that end still drew at every step


def _wide_neural():
    """A NeuralLM over 502 support symbols at the default layer sizes, whose
    rows end at EOS about one step in four: products this wide round
    differently with the number of rows when BLAS takes them whole."""
    vocab = fg.Vocab(tuple(f"w{i}" for i in range(500)))
    model = NeuralLM(vocab, NeuralConfig(seed=1))
    model.params["b_y"][model._sup_index[EOS]] = 5.0
    return model


@pytest.mark.parametrize("kind", ["ngram-eos", "markov", "neural-eos"])
def test_sample_block_is_one_sample_corpus_call_per_round(kind):
    model = _wide_neural() if kind == "neural-eos" else _sampler_cases()[kind]
    cfg = SamplerConfig(max_len=5, seed=0)
    steps = fg.genmodel.length_cap(model, cfg)
    u = np.random.default_rng(3).random((4, steps, 64))
    rounds = [model.sample_block(round_u[None], cfg) for round_u in u]
    assert model.sample_block(u, cfg, "gen") == Corpus.concat(rounds, "gen")
    for shape in ((4, steps + 1, 25), (steps, 25), (0, steps, 25), (4, steps, 0)):
        with pytest.raises(InputError, match="block of uniforms"):
            model.sample_block(np.zeros(shape), cfg)


def test_neural_scores_of_a_row_subset_are_those_rows_scores():
    # each distinct row is scored once, however many rows share its forward pass
    model = _wide_neural()
    corpus = model.sample_corpus(300, SamplerConfig(max_len=6, seed=2))
    assert corpus.lengths.min() < corpus.lengths.max()
    scores = model.seq_logprobs(corpus)
    rng = np.random.default_rng(4)
    for size in (1, 7, 64, 299):
        rows = rng.choice(len(corpus), size, replace=False)
        assert model.seq_logprobs(corpus[rows]).tobytes() == scores[rows].tobytes()
    twice = Corpus.concat([corpus, corpus[::-1]])
    assert model.seq_logprobs(twice).tobytes() == np.concatenate([scores, scores[::-1]]).tobytes()


@pytest.mark.parametrize("fields", [
    {"temperature": math.inf}, {"temperature": math.nan}, {"temperature": 0.0},
    {"temperature": True}, {"max_len": 2.5}, {"max_len": 0}, {"max_len": np.float64(3)},
    {"seed": -1}])
def test_sampler_config_rejects_bad_values(fields):
    with pytest.raises(InputError):
        SamplerConfig(**fields)


def test_sampler_config_accepts_numpy_integers():
    # a scenario length or a parsed seed may be a numpy integer
    cfg = SamplerConfig(temperature=np.float64(0.5), max_len=np.int64(3), seed=np.int64(2))
    model = _sampler_cases()["markov"]
    assert model.sample_corpus(4, cfg).ids.shape == (4, 3)


def _table_state(model):
    table = model._table
    if table is None:
        return None
    return table.temperature, table, {k: v.tobytes() for k, v in vars(table).items()
                                      if isinstance(v, np.ndarray)}


def test_scoring_caches_nothing_and_leaves_the_sampling_table():
    # scoring computes from the counts, caches nothing and leaves the
    # sampling table as it is
    source = _uniform_source(3, 4)
    rng = np.random.default_rng(3)
    train = synth_markov(source, 200, rng, "train")
    test = synth_markov(source, 50, rng, "test")
    model = NGramLM(train.vocab, 3, 0.01, 4).fit(train)
    counts = _ref_counts(model, train)
    s = len(model.support)
    contexts = list(itertools.product((fg.BOS, 4, 5, 6), repeat=2))
    for seed in range(3):
        before = _table_state(model)
        for context in contexts:
            row = model.cond_probs(context)
            c = counts.get(context)
            want = np.full(s, 1.0 / s) if c is None else (c + 0.01) / (c.sum() + 0.01 * s)
            assert np.array_equal(row, want)
            row[:] = 0.0  # a fresh array each call
            assert np.array_equal(model.cond_probs(context), want)
        scores = model.seq_logprobs(test)
        assert np.array_equal(scores, model.seq_logprobs(test))
        assert _table_state(model) == before
        for temperature, max_len in itertools.product((1.0, 0.5), (1, 4)):
            model.sample_corpus(2, SamplerConfig(temperature, max_len, seed))
            assert model._table.temperature == temperature


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 3), st.sampled_from([60, 4]),
       st.sampled_from([1.0, 0.5, 1.7]), st.integers(0, 2**32 - 1))
def test_ngram_sample_frequencies_match_seq_logprobs(order, k, length, train_n, temperature,
                                                     seed):
    # a fitted fixed-length model against its own exact tempered law, the
    # product of each step's _apply_temperature(cond_probs(context)) entry,
    # which at T = 1 is exp(seq_logprobs); 4 training rows leave (context,
    # token) pairs unseen, so draws land in gaps. Bernstein's bound per
    # sequence, failing by chance with p < 1e-9 each
    rng = np.random.default_rng(seed)
    source = fg.MarkovSource(tuple("abc"[:k]), rng.dirichlet(np.ones(k)),
                             rng.dirichlet(np.ones(k), size=k), length)
    train = synth_markov(source, train_n, rng, "train")
    model = NGramLM(train.vocab, order, 0.1, length).fit(train)
    dist = enumerate_distribution(model, train.vocab, length)
    np.testing.assert_allclose(dist.probs, np.exp(model.seq_logprobs(dist.domain)),
                               rtol=1e-12)
    law = np.ones(len(dist.probs))
    for i, row in enumerate(dist.domain.sequences):
        padded = (fg.BOS,) * (order - 1) + row
        for t, tok in enumerate(row):
            step = _apply_temperature(model.cond_probs(padded[t: t + order - 1]), temperature)
            law[i] *= step[model._sup_index[tok]]
    if temperature == 1.0:
        np.testing.assert_allclose(law, dist.probs, rtol=1e-12)
    n = 20_000
    samples = model.sample_corpus(n, SamplerConfig(temperature=temperature, max_len=length,
                                                   seed=seed), np.random.default_rng(seed))
    freq = fg.oracle.empirical_distribution(samples, dist).probs
    x = math.log(2e9)
    bound = np.sqrt(2 * law * (1 - law) * x / n) + 2 * x / (3 * n)
    assert (np.abs(freq - law) <= bound).all()


def test_markov_tempered_chain_is_built_once_and_samples_as_a_fresh_one(monkeypatch):
    # repeated calls at one T share one tempered chain, a call at another
    # T != 1 builds a new one, and T = 1 samples the source and keeps the
    # chain; each call's rows, at any length cap, equal those of a model that
    # has never sampled
    source = fg.MarkovSource(("a", "b", "c"), np.array([0.5, 0.3, 0.2]),
                             np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.1, 0.8, 0.1]]), 5)
    built = []
    real_source = fg.genmodel.MarkovSource

    def counting_source(*args, **kwargs):
        built.append(args)
        return real_source(*args, **kwargs)

    model = MarkovModel(source)
    calls = [(0.7, 5, 1), (0.7, 3, 1), (1.3, 5, 2), (0.7, 4, 3), (1.0, 5, 3), (0.7, 5, 3)]
    for seed, (temperature, max_len, chains) in enumerate(calls):
        cfg = SamplerConfig(temperature=temperature, max_len=max_len)
        monkeypatch.setattr(fg.genmodel, "MarkovSource", counting_source)
        got = model.sample_corpus(40, cfg, np.random.default_rng(seed))
        monkeypatch.undo()
        assert len(built) == chains
        assert got == MarkovModel(source).sample_corpus(40, cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# One tempered softmax, and its T -> 0 limit
# ---------------------------------------------------------------------------


def _former_apply_temperature(probs, temperature):
    """``genmodel._apply_temperature`` before the shared softmax."""
    if temperature == 1.0:
        return probs
    with np.errstate(divide="ignore"):
        logs = np.log(probs) / temperature
    logs -= logs.max(axis=-1, keepdims=True)
    scaled = np.exp(logs)
    return scaled / scaled.sum(axis=-1, keepdims=True)


def _former_neural_softmax(logits, temperature):
    """The softmax ``NeuralLM.sample_block``'s draw computed inline."""
    logits = logits / temperature
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits, out=logits)
    e /= e.sum(axis=1, keepdims=True)
    return e


def test_tempered_softmax_is_both_former_softmaxes_bit_for_bit():
    rng = np.random.default_rng(35)
    fixed = (1.0, 0.9, 1.2, 1e-6, 1e-300, 1e300)
    for case in range(2000):
        temperature = (fixed[case % 7] if case % 7 < 6
                       else float(10.0 ** rng.uniform(-300, 300)))
        shape = (int(rng.integers(1, 4)), int(rng.integers(2, 301)))
        probs = rng.dirichlet(np.full(shape[1], 0.5), size=shape[0])
        probs[rng.random(shape) < 0.2] = 0.0
        probs[:, rng.integers(shape[1])] += 0.1  # a positive entry per row
        logits = rng.normal(0.0, 5.0, shape)
        logits[rng.random(shape) < 0.1] = -np.inf
        logits[:, rng.integers(shape[1])] = rng.normal(0.0, 5.0, shape[0])
        for got, want in [
                (_apply_temperature(probs.copy(), temperature),
                 _former_apply_temperature(probs, temperature)),
                (_apply_temperature(probs[0].copy(), temperature),
                 _former_apply_temperature(probs[0], temperature)),
                (_tempered_softmax(logits.copy(), temperature),
                 _former_neural_softmax(logits, temperature))]:
            assert np.isfinite(want).all()
            assert got.tobytes() == want.tobytes(), (case, temperature)


@pytest.mark.parametrize("temperature", [1e-310, 1e-320])
def test_tempered_softmax_takes_the_argmax_limit(temperature):
    probs = np.array([[0.2, 0.5, 0.3, 0.0], [0.4, 0.1, 0.4, 0.1], [0.0, 1.0, 0.0, 0.0]])
    want = [[0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0]]
    assert _apply_temperature(probs, temperature).tolist() == want
    logits = np.array([[-1e300, 2.0, -np.inf, 2.0, 1.0], [3.0, 1e300, 0.0, 0.0, 0.0]])
    assert _tempered_softmax(logits, temperature).tolist() == [
        [0.0, 0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]]


def _greedy_model(kind, fixed_length):
    """An n-gram, a recurrent LM or a Markov chain over a, b, c whose
    argmax paths emit only c."""
    vocab = build_vocab(["a b c"], max_size=10)
    if kind == "markov":
        return MarkovModel(fg.MarkovSource(
            ("a", "b", "c"), np.array([0.2, 0.3, 0.5]),
            np.array([[0.1, 0.2, 0.7], [0.5, 0.3, 0.2], [0.3, 0.3, 0.4]]), fixed_length))
    train = encode_corpus(["a b c", "c c", "b c c", "c a c", "c"] if fixed_length is None
                          else ["a b c", "c c c", "b c c", "c a c"], vocab)
    return train_mle(train, None, NGramConfig(fixed_length=fixed_length) if kind == "ngram"
                     else NeuralConfig(embed_dim=4, hidden_dim=4, max_epochs=2,
                                       fixed_length=fixed_length))


@pytest.mark.parametrize("kind,fixed_length", [
    ("ngram", None), ("neural", None), ("ngram", 3), ("neural", 3), ("markov", 3)])
def test_samplers_below_the_smallest_normal_temperature_keep_the_argmax(kind, fixed_length):
    # at T = 1e-320, log p / T and logit / T overflow; NaN CDF rows would
    # draw empty rows with an EOS and the first support symbol without one
    model = _greedy_model(kind, fixed_length)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cold, colder = (model.sample_corpus(30, SamplerConfig(temperature=t, max_len=4),
                                            np.random.default_rng(0))
                        for t in (1e-300, 1e-320))
    c = model.vocab.id_of("c")
    assert all(row and set(row) == {c} for row in cold.sequences)
    assert fixed_length is None or cold.lengths.min() == fixed_length
    assert colder == cold


def test_unigram_first_step_skips_an_eos_that_holds_all_the_tempered_mass():
    # EOS is the unigram's likeliest event; at T = 1e-4 its first-step row,
    # tempered, is all EOS's, and dropping EOS alone would leave 0 / 0
    vocab = build_vocab(["a b c"], max_size=10)
    model = train_mle(encode_corpus(["a", "b", "c", "a b"], vocab), None,
                      NGramConfig(order=1))
    for temperature in (1e-4, 1e-300, 1e-320):
        rows = model.sample_corpus(40, SamplerConfig(temperature=temperature, max_len=4),
                                   np.random.default_rng(1))
        # a and b tie as the likeliest first token; EOS follows
        assert rows.lengths.tolist() == [1] * 40
        assert set(rows.ids[:, 0].tolist()) == {vocab.id_of("a"), vocab.id_of("b")}
