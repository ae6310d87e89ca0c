import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filtergen import (PAD, UNK, Corpus, InputError, MarkovSource, Vocab, build_vocab,
                       encode_corpus, load_corpus, save_corpus, split_tail, synth_markov)
from filtergen.data import _draw_from_cdf, chain_probs, corpus_to_arrays


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
    assert encode_corpus(["a z b"], vocab).sequences == ((4, UNK, 5),)


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
    corpus = encode_corpus(["a b"], vocab)
    assert _decoded(corpus, tmp_path / "decoded.txt") == ["a b"]
    assert encode_corpus(["a b c a b c"], vocab, max_len=4).sequences == ((4, 5, 6, 4),)
    for blank in ([""], ["", " \t\n"]):
        with pytest.raises(InputError):
            encode_corpus(blank, vocab)


@settings(max_examples=50)
@given(st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=8),
                min_size=1, max_size=20))
def test_roundtrip_property(tmp_path_factory, lines):
    text = [" ".join(line) for line in lines]
    vocab = build_vocab(text, max_size=100)
    corpus = encode_corpus(text, vocab)
    assert _decoded(corpus, tmp_path_factory.mktemp("decoded") / "corpus.txt") == text


def _uniform_source(k=3, length=2):
    tokens = tuple("abcdef"[:k])
    return MarkovSource(tokens, np.full(k, 1 / k), np.full((k, k), 1 / k), length)


def test_exact_prob_uniform():
    source = _uniform_source(3, 2)
    corpus = synth_markov(source, 5, np.random.default_rng(0))
    assert chain_probs(source, corpus.ids, corpus.lengths) == pytest.approx(np.full(5, 1 / 9))


def test_exact_prob_deterministic_chain():
    # a -> b -> a, start always at a
    source = MarkovSource(("a", "b", "c"), np.array([1.0, 0.0, 0.0]),
                          np.array([[0.0, 1.0, 0.0],
                                    [1.0, 0.0, 0.0],
                                    [0.0, 0.0, 1.0]]), 3)
    vocab = source.vocab
    aba = (vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("a"))
    abb = (vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("b"))
    rows = Corpus(vocab, [aba, abb])
    assert chain_probs(source, rows.ids, rows.lengths).tolist() == [pytest.approx(1.0), 0.0]
    corpus = synth_markov(source, 10, np.random.default_rng(1))
    assert corpus.sequences == (aba,) * 10


def _brute_chain_prob(source, states):
    p = source.initial[states[0]]
    for prev, cur in zip(states, states[1:]):
        p *= source.transition[prev, cur]
    return p


def test_exact_prob_sums_to_one_by_enumeration():
    # independent oracle: brute-force product over every length-4 state tuple
    source = MarkovSource(
        ("a", "b", "c"), np.array([0.5, 0.25, 0.25]),
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]), 4)
    tuples = list(itertools.product(range(3), repeat=4))
    brute = [_brute_chain_prob(source, states) for states in tuples]
    assert math.fsum(brute) == pytest.approx(1.0, abs=1e-9)
    domain = Corpus(source.vocab, [tuple(s + 4 for s in states) for states in tuples])
    probs = chain_probs(source, domain.ids, domain.lengths)
    assert np.array_equal(probs, brute)  # the same products, left to right
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)


def test_chain_probs_match_brute_force_with_zeros_and_ragged_rows():
    source = MarkovSource(
        ("a", "b", "c"), np.array([0.5, 0.0, 0.5]),
        np.array([[0.6, 0.0, 0.4], [0.2, 0.5, 0.3], [0.0, 1.0, 0.0]]), 4)
    # rows of every length 1..4 in one matrix: PAD columns add nothing
    ragged = [states for n in range(1, 5) for states in itertools.product(range(3), repeat=n)]
    brute = [_brute_chain_prob(source, states) for states in ragged]
    assert 0.0 in brute
    rows = Corpus(source.vocab, [tuple(s + 4 for s in states) for states in ragged])
    assert np.array_equal(chain_probs(source, rows.ids, rows.lengths), brute)


def test_invalid_stochastic_matrix_rejected():
    with pytest.raises(InputError):
        MarkovSource(("a", "b"), np.array([0.7, 0.2]), np.eye(2), 2)
    with pytest.raises(InputError):
        MarkovSource(("a", "b"), np.array([0.5, 0.5]),
                     np.array([[0.9, 0.2], [0.5, 0.5]]), 2)


@pytest.mark.parametrize("where", ["initial", "transition"])
def test_markov_source_rejects_nan_probabilities(where):
    # nan < 0 and abs(nan - 1) > tol are both false: NaN must fail a test for a good value
    initial, transition = np.array([0.5, 0.5]), np.eye(2)
    {"initial": initial, "transition": transition}[where][1] = np.nan
    with pytest.raises(InputError, match="must be non-negative"):
        MarkovSource(("a", "b"), initial, transition, 2)


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
        chain_probs(source, np.array([[4, 7]]), np.array([2]))
    with pytest.raises(InputError, match="outside the source alphabet"):
        chain_probs(source, np.array([[4, 5], [UNK, PAD]]), np.array([2, 1]))


def test_synth_markov_deterministic_given_seed():
    source = _uniform_source(4, 3)
    a = synth_markov(source, 50, np.random.default_rng(7))
    b = synth_markov(source, 50, np.random.default_rng(7))
    assert a.sequences == b.sequences


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
    # given each row's flat start, a draw gets its entry's flat index
    assert _draw_from_cdf(cdf, np.array([0.6, 0.5, 0.3]), np.array([3, 0, 3])).tolist() == [
        5, 1, 4]


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
    assert np.array_equal(_draw_from_cdf(cdf, u, rows * s), rows * s + want)
    assert np.array_equal(_draw_from_cdf(cdf[rows], u), want)
    # ragged rows, the first spans[i] entries of row i laid end to end
    spans = rng.integers(1, s + 1, r)
    starts = np.cumsum(spans) - spans
    flat = cdf[np.arange(s) < spans[:, None]]
    inside = np.arange(s) < spans[rows, None]
    want = np.minimum(((cdf[rows] < u[:, None]) & inside).sum(axis=1), spans[rows] - 1)
    assert np.array_equal(_draw_from_cdf(flat, u, starts[rows], spans[rows]),
                          starts[rows] + want)


def test_split_tail_disjoint_and_covering():
    vocab = build_vocab(["a"], max_size=4)
    corpus = Corpus(vocab, [(4,)] * 10, "train")
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
        Corpus(vocab, [(99,)], "train")
    with pytest.raises(InputError):
        Corpus(vocab, [(4,), (-1,)], "train")


def test_corpus_and_vocab_file_roundtrip(tmp_path):
    vocab = build_vocab(["a b c", "b c"], max_size=10)
    corpus = encode_corpus(["a b", "c b a"], vocab, "train")
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    again = load_corpus(path, vocab, "train")
    assert again.sequences == corpus.sequences
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
    return vocab, tuple(map(tuple, rows))


def _padded_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """The rows as an id matrix padded with PAD, one row at a time."""
    ids = np.full((len(rows), max(map(len, rows))), PAD, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    return ids, np.array([len(row) for row in rows])


@settings(max_examples=100, deadline=None)
@given(_corpora())
def test_corpus_matrix_roundtrips_its_sequences(case):
    vocab, seqs = case
    corpus = Corpus(vocab, seqs, "train")
    assert corpus.sequences == seqs
    assert len(corpus) == len(seqs)
    ids, lengths = corpus_to_arrays(corpus)
    want_ids, want_lengths = _padded_rows(seqs)
    assert np.array_equal(ids, want_ids) and np.array_equal(lengths, want_lengths)
    # the matrix constructor rebuilds the same corpus and the same rows
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
    # halves of a matrix-built corpus give the same rows
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
                   Corpus.from_arrays(vocab, *_padded_rows(seqs), "train")):
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
        assert corpus[[i]].sequences == corpus[np.array([i])].sequences == (seqs[i],)
        for scalar in (i, np.int64(i), np.int32(i)):
            with pytest.raises(TypeError):
                corpus[scalar]
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
    assert corpus.sequences == ((4,), (5, 4))


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
    assert corpus.sequences[0] == (4, 5)
    for part in (corpus[:1], corpus[np.array([1])]):
        with pytest.raises(ValueError):
            part.ids[0, 0] = 4



@pytest.mark.parametrize("bad", [4.7, "5", True, np.float64(4.0), np.True_],
                         ids=["float", "str", "bool", "np-float", "np-bool"])
def test_both_constructors_reject_non_integer_ids(bad):
    # checked before any cast: none of these may become a token id
    vocab = build_vocab(["a b"], max_size=4)
    for rows in ([(bad,)], [(4, 5), (5, bad)]):
        with pytest.raises(InputError, match="token ids must be integers"):
            Corpus(vocab, rows)
    with pytest.raises(InputError, match="token ids must be integers"):
        Corpus.from_arrays(vocab, np.array([[bad]]), [1])


@settings(max_examples=100, deadline=None)
@given(_corpora(), st.data())
def test_rows_rebuild_every_corpus_and_no_row_is_an_object(case, data):
    # Corpus(vocab, rows, split) is the one row constructor, and a corpus's
    # rows (of a ragged corpus or of its slice, index-array and mask
    # sub-corpora) rebuild it; a corpus has no int index and no iteration
    vocab, seqs = case
    corpus = Corpus(vocab, seqs, "train")
    n = len(corpus)
    start = data.draw(st.integers(0, n - 1))
    picks = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30)))
    mask = np.zeros(n, dtype=bool)
    mask[picks] = True
    for part in (corpus, corpus[start:], corpus[::-1], corpus[picks], corpus[mask]):
        assert Corpus(part.vocab, part.sequences, part.split) == part
    with pytest.raises(TypeError):
        corpus[0]
    with pytest.raises(TypeError):
        next(iter(corpus))
    with pytest.raises(TypeError):
        corpus_to_arrays(corpus.sequences)
    with pytest.raises(InputError, match="at least one token"):
        Corpus(vocab, [()])
    with pytest.raises(InputError, match="at least one sequence"):
        Corpus(vocab, [])
    assert Corpus(vocab, [np.array([0, 1]), [np.int32(2)]]).sequences == ((0, 1), (2,))


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
    rows = [tuple(vocab.id_of(tok) for tok in line.split())[:max_len] for line in kept]
    assert corpus == Corpus(vocab, rows, "x")


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
        for row in corpus.sequences:
            fh.write(" ".join(corpus.vocab.tokens[i] for i in row) + "\n")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=7), min_size=1,
                max_size=15))
@example([[4]])
@example([[5], [9, 8, 7, 6, 5, 4, 3], [2, 2]])
def test_save_corpus_writes_the_per_row_text(tmp_path_factory, rows):
    # non-ASCII tokens, rows of length 1 and mixed widths, reserved ids too
    vocab = Vocab(["x", "é", "日本", "ß", "ñandú", "z"])
    corpus = Corpus(vocab, rows)
    tmp = tmp_path_factory.mktemp("save")
    save_corpus(corpus, tmp / "bulk.txt")
    _per_row_save(corpus, tmp / "rows.txt")
    assert (tmp / "bulk.txt").read_bytes() == (tmp / "rows.txt").read_bytes()
