import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filtergen import (UNK, Corpus, InputError, MarkovSource, Sequence, Vocab,
                       build_vocab, encode, encode_corpus, exact_prob, load_corpus,
                       save_corpus, split_tail, synth_markov)
from filtergen.data import _draw_from_cdf, corpus_to_arrays


def test_build_vocab_frequency_then_first_occurrence():
    vocab = build_vocab(["a b", "a c"], max_size=10)
    assert set(vocab.tokens) == {"<bos>", "<eos>", "<pad>", "<unk>", "a", "b", "c"}
    assert vocab.id_of("a") == 4
    assert vocab.id_of("b") == 5  # tie with c broken by first occurrence
    assert vocab.id_of("c") == 6


def test_build_vocab_single_type_and_cap():
    vocab = build_vocab(["a a a"], max_size=1)
    assert vocab.tokens == ("<bos>", "<eos>", "<pad>", "<unk>", "a")
    capped = build_vocab(["x y z", "x y", "x"], max_size=2)
    assert capped.content_size == 2
    assert capped.id_of("z") == UNK


def test_unknown_token_maps_to_unk():
    vocab = build_vocab(["a b"], max_size=10)
    assert encode("a z b", vocab).ids == (4, UNK, 5)


def test_reserved_spellings_never_collide():
    vocab = build_vocab(["<unk> a <pad>"], max_size=10)
    assert vocab.content_size == 1
    assert vocab.id_of("<unk>") == UNK
    with pytest.raises(InputError):
        Vocab(["a", "<bos>"])


@pytest.mark.parametrize("tokens", [[7, 8, 9], ["a b", "c"], ["", "c"], ["a\n"]])
def test_vocab_tokens_must_be_strings_without_whitespace(tokens):
    with pytest.raises(InputError, match="vocabulary tokens must be"):
        Vocab(tokens)


def test_vocab_file_tokens_must_be_a_list(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"tokens": "abc"}))
    with pytest.raises(InputError, match="'tokens' list"):
        Vocab.load(path)


def test_vocab_bijection_invariant():
    vocab = build_vocab(["d c b a", "c d", "d"], max_size=10)
    for i, tok in enumerate(vocab.tokens):
        assert vocab.id_of(tok) == i


def _decoded(corpus, path) -> list[str]:
    # save_corpus is the program's one way from ids back to text
    save_corpus(corpus, path)
    return path.read_text(encoding="utf-8").splitlines()


def test_encode_decode_roundtrip_and_truncation(tmp_path):
    vocab = build_vocab(["a b c"], max_size=10)
    corpus = Corpus(vocab, (encode("a b", vocab),))
    assert _decoded(corpus, tmp_path / "decoded.txt") == ["a b"]
    assert len(encode("a b c a b c", vocab, max_len=4)) == 4
    with pytest.raises(InputError):
        encode("", vocab)
    with pytest.raises(InputError):
        Sequence(())


@settings(max_examples=50)
@given(st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=8),
                min_size=1, max_size=20))
def test_roundtrip_property(tmp_path_factory, lines):
    text = [" ".join(line) for line in lines]
    vocab = build_vocab(text, max_size=100)
    corpus = Corpus(vocab, [encode(line, vocab) for line in text])
    assert _decoded(corpus, tmp_path_factory.mktemp("decoded") / "corpus.txt") == text


def _uniform_source(k=3, length=2):
    tokens = tuple("abcdef"[:k])
    return MarkovSource(tokens, np.full(k, 1 / k), np.full((k, k), 1 / k), length)


def test_exact_prob_uniform():
    source = _uniform_source(3, 2)
    corpus = synth_markov(source, 5, np.random.default_rng(0))
    for seq in corpus:
        assert exact_prob(source, seq) == pytest.approx(1 / 9)


def test_exact_prob_deterministic_chain():
    # a -> b -> a, start always at a
    source = MarkovSource(("a", "b", "c"), np.array([1.0, 0.0, 0.0]),
                          np.array([[0.0, 1.0, 0.0],
                                    [1.0, 0.0, 0.0],
                                    [0.0, 0.0, 1.0]]), 3)
    vocab = source.vocab
    aba = Sequence((vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("a")))
    abb = Sequence((vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("b")))
    assert exact_prob(source, aba) == pytest.approx(1.0)
    assert exact_prob(source, abb) == 0.0
    corpus = synth_markov(source, 10, np.random.default_rng(1))
    assert all(seq.ids == aba.ids for seq in corpus)


def test_exact_prob_sums_to_one_by_enumeration():
    # independent oracle: brute-force product over every length-4 state tuple
    source = MarkovSource(
        ("a", "b", "c"), np.array([0.5, 0.25, 0.25]),
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]), 4)
    total = 0.0
    for states in itertools.product(range(3), repeat=4):
        p = source.initial[states[0]]
        for prev, cur in zip(states, states[1:]):
            p *= source.transition[prev, cur]
        total += p
    assert total == pytest.approx(1.0, abs=1e-9)
    seqs = [Sequence(tuple(s + 4 for s in states))
            for states in itertools.product(range(3), repeat=4)]
    assert math.fsum(exact_prob(source, s) for s in seqs) == pytest.approx(1.0, abs=1e-9)


def test_invalid_stochastic_matrix_rejected():
    with pytest.raises(InputError):
        MarkovSource(("a", "b"), np.array([0.7, 0.2]), np.eye(2), 2)
    with pytest.raises(InputError):
        MarkovSource(("a", "b"), np.array([0.5, 0.5]),
                     np.array([[0.9, 0.2], [0.5, 0.5]]), 2)


def test_markov_source_leaves_the_callers_arrays_writable():
    initial, transition = np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.5, 0.5]])
    source = MarkovSource(("a", "b"), initial, transition, 2)
    assert initial.flags.writeable and transition.flags.writeable
    assert not source.initial.flags.writeable and not source.transition.flags.writeable
    initial[0] = 1.0
    assert source.initial[0] == 0.5


def test_exact_prob_rejects_tokens_outside_the_alphabet():
    source = _uniform_source(3, 2)
    with pytest.raises(InputError, match="outside the source alphabet"):
        exact_prob(source, Sequence((4, 7)))


def test_synth_markov_deterministic_given_seed():
    source = _uniform_source(4, 3)
    a = synth_markov(source, 50, np.random.default_rng(7))
    b = synth_markov(source, 50, np.random.default_rng(7))
    assert [s.ids for s in a] == [s.ids for s in b]


def _ref_sample_chain(source, n, length, rng):
    """The chain sampler before the shared draw: row-major CDF rows, each
    counted along its own axis."""
    k = len(source.tokens)
    out = np.empty((n, length), dtype=np.int64)
    cum_init = np.cumsum(source.initial)
    out[:, 0] = np.minimum((cum_init < rng.random(n)[:, None]).sum(axis=1), k - 1)
    cum_rows = np.cumsum(source.transition, axis=1)
    for t in range(1, length):
        rows = cum_rows[out[:, t - 1]]
        out[:, t] = np.minimum((rows < rng.random(n)[:, None]).sum(axis=1), k - 1)
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_synth_markov_draws_match_the_row_major_sampler(k, length, n, seed):
    rng = np.random.default_rng(seed)
    initial = rng.dirichlet(np.full(k, 0.5))
    transition = rng.dirichlet(np.full(k, 0.5), size=k)
    initial[initial < 0.1] = 0.0  # zero entries tie CDF steps
    source = MarkovSource(tuple("abcdef"[:k]), initial / initial.sum(), transition, length)
    got = synth_markov(source, n, np.random.default_rng(seed + 1))
    want = _ref_sample_chain(source, n, length, np.random.default_rng(seed + 1))
    assert np.array_equal(got.ids, want + 4)


def test_draw_from_cdf_counts_entries_below_u_and_clamps():
    # the last entry rounds below 1, so u above it must still stay in range
    cdf = np.array([[0.25, 0.5, 1.0 - 2**-53], [0.0, 0.5, 0.5]])
    u = np.array([0.25, 1.0 - 2**-54])
    assert _draw_from_cdf(cdf, u).tolist() == [0, 2]
    assert _draw_from_cdf(cdf[:1], np.array([0.0, 0.3, 0.9, 0.99999999])).tolist() == [
        0, 1, 2, 2]
    assert _draw_from_cdf(cdf, np.array([0.6, 0.5, 0.3]), np.array([1, 0, 1])).tolist() == [
        2, 1, 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70), st.integers(1, 5), st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_draw_from_cdf_matches_counting_every_entry(s, r, n, seed):
    # nondecreasing rows with ties (zero steps) and a last entry that may
    # end below or above 1; u includes exact entry values
    rng = np.random.default_rng(seed)
    steps = rng.random((r, s)) * (rng.random((r, s)) < 0.7)
    cdf = np.cumsum(steps, axis=1) / steps.sum(axis=1, keepdims=True).clip(1e-300) * (
        rng.random((r, 1)) * 0.2 + 0.9)
    rows = rng.integers(0, r, n)
    u = rng.random(n)
    u[::3] = cdf[rows[::3], rng.integers(0, s, len(u[::3]))]
    want = np.minimum((cdf[rows] < u[:, None]).sum(axis=1), s - 1)
    assert np.array_equal(_draw_from_cdf(cdf, u, rows), want)


def test_split_tail_disjoint_and_covering():
    vocab = build_vocab(["a"], max_size=4)
    seqs = tuple(Sequence((4,)) for _ in range(10))
    corpus = Corpus(vocab, seqs, "train")
    head, tail = split_tail(corpus, 3)
    assert len(head) == 7 and len(tail) == 3
    assert head.sequences + tail.sequences == corpus.sequences
    with pytest.raises(InputError):
        split_tail(corpus, 10)


def test_corpus_validation():
    vocab = build_vocab(["a"], max_size=4)
    with pytest.raises(InputError):
        Corpus(vocab, (), "train")
    with pytest.raises(InputError):
        Corpus(vocab, (Sequence((99,)),), "train")


def test_corpus_and_vocab_file_roundtrip(tmp_path):
    vocab = build_vocab(["a b c", "b c"], max_size=10)
    corpus = encode_corpus(["a b", "c b a"], vocab, "train")
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    again = load_corpus(path, vocab, "train")
    assert [s.ids for s in again] == [s.ids for s in corpus]
    vpath = tmp_path / "vocab.json"
    vocab.save(vpath)
    assert Vocab.load(vpath) == vocab


def test_non_utf8_corpus_is_an_input_error(tmp_path):
    vocab = build_vocab(["a b"], max_size=10)
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"a b\n\xff\xfe\n")
    with pytest.raises(InputError, match="corpus.txt: not UTF-8 text"):
        load_corpus(path, vocab)


# -- the id-matrix Corpus --------------------------------------------------

@st.composite
def _corpora(draw):
    """A vocabulary plus 1-20 sequences of 1-8 ids, reserved ids included."""
    k = draw(st.integers(1, 6))
    vocab = Vocab([f"w{i}" for i in range(k)])
    rows = draw(st.lists(st.lists(st.integers(0, len(vocab) - 1), min_size=1, max_size=8),
                         min_size=1, max_size=20))
    return vocab, tuple(Sequence(tuple(row)) for row in rows)


@settings(max_examples=100, deadline=None)
@given(_corpora())
def test_corpus_matrix_roundtrips_its_sequences(case):
    vocab, seqs = case
    corpus = Corpus(vocab, seqs, "train")
    assert corpus.sequences == seqs
    assert len(corpus) == len(seqs)
    ids, lengths = corpus_to_arrays(corpus)
    packed_ids, packed_lengths = corpus_to_arrays(list(corpus))
    assert np.array_equal(ids, packed_ids) and np.array_equal(lengths, packed_lengths)
    assert ids.shape == (len(seqs), max(len(s) for s in seqs))
    # the matrix constructor rebuilds the same corpus, and its views are fresh
    again = Corpus.from_arrays(vocab, ids, lengths, "train")
    assert again == corpus
    assert again.sequences == seqs


@settings(max_examples=100, deadline=None)
@given(_corpora(), st.data())
def test_split_tail_halves_concatenate_to_the_original(case, data):
    vocab, seqs = case
    corpus = Corpus(vocab, seqs, "train")
    if len(corpus) < 2:
        return
    n = data.draw(st.integers(1, len(corpus) - 1))
    head, tail = split_tail(corpus, n)
    assert head.sequences + tail.sequences == seqs
    assert Corpus.concat([head, tail], "train") == corpus
    for part in (head, tail):
        assert part.ids.shape[1] == part.lengths.max()
    # halves of a corpus whose views were never built give the same rows
    fresh_head, fresh_tail = split_tail(Corpus.from_arrays(vocab, corpus.ids,
                                                           corpus.lengths), n)
    assert fresh_head.sequences + fresh_tail.sequences == seqs


@settings(max_examples=100, deadline=None)
@given(_corpora(), st.data())
def test_corpus_rows_equal_plain_fancy_indexing(case, data):
    # masks, index arrays (repeated and negative), slices and numpy scalars
    # select what numpy's fancy indexing of ids and lengths selects, trimmed
    # to the longest selected row
    vocab, seqs = case
    n = len(seqs)
    index = st.integers(-n, n - 1)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    picks = data.draw(st.lists(index, max_size=30))
    step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    part = slice(data.draw(st.none() | index), data.draw(st.none() | index), step)
    for corpus in (Corpus(vocab, seqs, "train"),
                   Corpus.from_arrays(vocab, *corpus_to_arrays(seqs), "train")):
        for rows in (mask, np.array(picks, dtype=np.int64), picks, part):
            want = corpus.lengths[rows]
            if not len(want):
                with pytest.raises(InputError):
                    corpus[rows]
                continue
            got = corpus[rows]
            assert np.array_equal(got.lengths, want)
            assert np.array_equal(got.ids, corpus.ids[rows][:, : want.max()])
            assert (got.vocab, got.split) == (vocab, "train")
            assert got.sequences == tuple(seqs[i] for i in np.arange(n)[rows])
        i = data.draw(index)
        assert corpus[np.int64(i)] == corpus[np.int32(i)] == seqs[i]
        with pytest.raises(IndexError):
            corpus[np.array([n])]
        with pytest.raises(IndexError):
            corpus[np.array([-n - 1, 0])]
        with pytest.raises(IndexError):
            corpus[np.ones(n + 1, dtype=bool)]


def test_corpus_matrix_validation():
    vocab = build_vocab(["a b"], max_size=4)
    good = np.array([[4, 5], [5, 2]])
    with pytest.raises(InputError):
        Corpus.from_arrays(vocab, np.zeros((0, 3), dtype=np.int64), np.zeros(0))
    with pytest.raises(InputError):
        Corpus.from_arrays(vocab, good, [2, 0])
    with pytest.raises(InputError):
        Corpus.from_arrays(vocab, np.array([[4, -1], [5, 4]]), [2, 2])
    with pytest.raises(InputError):
        Corpus.from_arrays(vocab, np.array([[4, len(vocab)], [5, 4]]), [2, 2])
    with pytest.raises(InputError):
        Corpus.from_arrays(vocab, good, [2, 3])
    # entries past a row's length are ignored, whatever they hold
    corpus = Corpus.from_arrays(vocab, np.array([[4, -7], [5, 4]]), [1, 2])
    assert [s.ids for s in corpus] == [(4,), (5, 4)]


def test_corpus_is_read_only():
    vocab = build_vocab(["a b"], max_size=4)
    buffer = np.array([[4, 5], [5, 4]])
    corpus = Corpus.from_arrays(vocab, buffer, [2, 2])
    with pytest.raises(ValueError):
        corpus.ids[0, 0] = 5
    with pytest.raises(ValueError):
        corpus.lengths[0] = 1
    with pytest.raises(AttributeError):
        corpus.split = "test"
    buffer[0, 0] = 5  # the caller's buffer was copied, not frozen
    assert corpus.sequences[0].ids == (4, 5)
    for part in (corpus[:1], corpus[np.array([1])]):
        with pytest.raises(ValueError):
            part.ids[0, 0] = 4



# str.split separates tokens at every Unicode whitespace character
_SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]
_LINE = st.builds(lambda toks, sep, end: sep.join(toks) + end,
                  st.lists(st.sampled_from(["a", "b", "c", "zz", "<pad>"]), max_size=12),
                  st.sampled_from(_SEPARATORS), st.sampled_from(["", "\n", " \n"]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_LINE, max_size=10), st.integers(0, 5))
@example(["a b c a b c a", "b\n", "c c c c c c\n"], 3)  # rows longer than max_len
def test_encode_corpus_matches_line_by_line_encode(lines, max_len):
    # blank lines skipped, unknown tokens to UNK, rows truncated at max_len
    vocab = build_vocab(["a b c"], max_size=10)
    kept = [line for line in lines if line.strip()]
    if not kept or max_len == 0:
        with pytest.raises(InputError):
            encode_corpus(lines, vocab, "x", max_len)
        return
    corpus = encode_corpus(lines, vocab, "x", max_len)
    assert corpus == Corpus(vocab, [encode(line, vocab, max_len) for line in kept], "x")


def test_load_corpus_reads_crlf_lines(tmp_path):
    # universal newlines: a \r\n file encodes as its \n twin
    vocab = build_vocab(["a b c"], max_size=10)
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"a b\r\nc\r\n\r\nb a c\r\n")
    assert load_corpus(path, vocab, "x") == encode_corpus(["a b", "c", "b a c"], vocab, "x")


def _per_token_vocab(lines, max_size):
    """build_vocab as a count per token, ties broken by first occurrence."""
    counts, first_seen = {}, {}
    for line in lines:
        for tok in line.split():
            counts[tok] = counts.get(tok, 0) + 1
            first_seen.setdefault(tok, len(first_seen))
    for tok in ("<bos>", "<eos>", "<pad>", "<unk>"):
        counts.pop(tok, None)
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return Vocab(ranked[:max_size])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "<unk>", "<pad>", "<eos>"]),
                         max_size=6).map(" ".join), max_size=8),
       st.integers(1, 5))
@example(["a a a"], 1)  # a single type
@example(["b a", "a b", "c"], 2)  # a tie at the cap
def test_build_vocab_matches_a_per_token_count(lines, max_size):
    if not any(tok not in ("<unk>", "<pad>", "<eos>") for line in lines
               for tok in line.split()):
        with pytest.raises(InputError):
            build_vocab(lines, max_size)
        return
    assert build_vocab(lines, max_size) == _per_token_vocab(lines, max_size)


def _per_row_save(corpus, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for seq in corpus:
            fh.write(" ".join(corpus.vocab.tokens[i] for i in seq.ids) + "\n")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=7), min_size=1,
                max_size=15))
@example([[4]])
@example([[5], [9, 8, 7, 6, 5, 4, 3], [2, 2]])
def test_save_corpus_writes_the_per_row_text(tmp_path_factory, rows):
    # non-ASCII tokens, rows of length 1 and mixed widths, reserved ids too
    vocab = Vocab(["x", "é", "日本", "ß", "ñandú", "z"])
    corpus = Corpus(vocab, [Sequence(tuple(row)) for row in rows])
    tmp = tmp_path_factory.mktemp("save")
    save_corpus(corpus, tmp / "bulk.txt")
    _per_row_save(corpus, tmp / "rows.txt")
    assert (tmp / "bulk.txt").read_bytes() == (tmp / "rows.txt").read_bytes()
