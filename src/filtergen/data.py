"""Corpora, vocabularies, and synthetic Markov sources.

A ``Corpus`` is one padded id matrix plus a length vector, and it is the
only representation of a corpus: samplers, the classifier, the metrics and
the oracle all pass that matrix along. There is no per-row object; a row is
a tuple of ids (``corpus.sequences``), and ``corpus[i:i+1]`` is the corpus
of row i. ``row_groups`` gives a corpus's distinct rows and each row's
group, found once per corpus and kept by it. ``chain_probs`` gives a
Markov source's exact probability of every row of an id matrix.

Tokenization is whitespace splitting over pre-tokenized text; any
pre-processing (lowercasing etc.) is the caller's responsibility.
All containers are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import InputError

BOS, EOS, PAD, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<bos>", "<eos>", "<pad>", "<unk>")
NUM_RESERVED = len(RESERVED_TOKENS)

DEFAULT_MAX_LEN = 64


class Vocab:
    """Bijective token <-> id map with reserved ids 0..3 (BOS, EOS, PAD, UNK);
    content tokens are non-empty strings without whitespace."""

    __slots__ = ("tokens", "_ids")

    def __init__(self, content_tokens):
        content = tuple(content_tokens)
        if any(not isinstance(t, str) or t.split() != [t] for t in content):
            raise InputError("vocabulary tokens must be non-empty strings without whitespace")
        if len(set(content)) != len(content):
            raise InputError("vocabulary tokens must be distinct")
        if any(t in RESERVED_TOKENS for t in content):
            raise InputError("corpus tokens may not collide with reserved tokens")
        self.tokens = RESERVED_TOKENS + content
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def __eq__(self, other):
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def __hash__(self):
        return hash(self.tokens)

    def __repr__(self):
        return f"Vocab({len(self)} tokens)"

    @property
    def content_size(self) -> int:
        return len(self.tokens) - NUM_RESERVED

    @property
    def content_ids(self) -> range:
        return range(NUM_RESERVED, len(self.tokens))

    def id_of(self, token: str) -> int:
        """Id of ``token``, or UNK for out-of-vocabulary tokens."""
        return self._ids.get(token, UNK)

    def save(self, path) -> None:
        with atomic_open(path) as fh:
            fh.write(json.dumps({"tokens": list(self.tokens[NUM_RESERVED:])}))

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or not isinstance(doc.get("tokens"), list):
            raise InputError(f"{path}: expected a JSON object with a 'tokens' list")
        return cls(doc["tokens"])


class Corpus:
    """Rows of token ids sharing one vocabulary, tagged with a split name.

    The corpus is a read-only ``(n, Lmax)`` id matrix ``ids``, padded with
    PAD past each row's end, plus the row lengths ``lengths``; ``Lmax`` is
    the longest row. There is no per-row object: ``sequences`` gives the
    rows as tuples of ids, built anew on each use, and a corpus is neither
    iterable nor indexed by an int. Indexing with a slice, index array or
    mask gives the corpus of those rows (``corpus[i:i+1]`` for row i),
    trimmed to their longest row. A slice's rows are views of this corpus's
    arrays; an index array's rows, or a mask's as ``np.flatnonzero``
    indices, are gathered with ``take`` into new arrays.

    ``Corpus(vocab, rows, split)`` builds a corpus from rows of integer ids
    (any sequences of ints) with the checks of ``from_arrays``. A corpus
    keeps its ``row_groups`` once they are found; they depend on its
    read-only arrays alone.
    """

    __slots__ = ("vocab", "ids", "lengths", "split", "_groups")

    def __init__(self, vocab: Vocab, rows, split: str = ""):
        rows = tuple(rows)
        tokens = list(chain.from_iterable(rows))
        # the types are checked before any cast: 4.7, "5" and True are no ids
        if not all(map(_is_id_type, set(map(type, tokens)))):
            raise InputError("token ids must be integers")
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        ids = _padded(np.array(tokens, dtype=np.int64), lengths)
        _init_corpus(self, vocab, *_checked_arrays(vocab, ids, lengths), split)

    @classmethod
    def from_arrays(cls, vocab: Vocab, ids, lengths, split: str = "") -> "Corpus":
        """Corpus of the first ``lengths[i]`` ids of each row of ``ids``.

        Entries past a row's length are ignored. The matrix is validated as
        a whole and copied, so the caller keeps its buffer.
        """
        ids = np.asarray(ids)
        lengths = np.array(lengths, dtype=np.int64)
        if ids.ndim != 2 or lengths.shape != (len(ids),):
            raise InputError("expected an (n, L) id matrix and n lengths")
        if not np.issubdtype(ids.dtype, np.integer):
            raise InputError("token ids must be integers")
        return _new_corpus(vocab, *_checked_arrays(vocab, ids, lengths), split)

    @classmethod
    def concat(cls, parts, split: str = "") -> "Corpus":
        """Rows of several corpora over one vocabulary, in order."""
        parts = list(parts)
        if not parts:
            raise InputError("a corpus must contain at least one sequence")
        vocab = parts[0].vocab
        if any(p.vocab != vocab for p in parts):
            raise InputError("corpora use different vocabularies")
        width = max(p.ids.shape[1] for p in parts)
        ids = np.full((sum(len(p) for p in parts), width), PAD, dtype=np.int64)
        row = 0
        for p in parts:
            ids[row: row + len(p), : p.ids.shape[1]] = p.ids
            row += len(p)
        return _new_corpus(vocab, ids, np.concatenate([p.lengths for p in parts]), split)

    @property
    def sequences(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of ids."""
        return tuple(tuple(row[:n]) for row, n in zip(self.ids.tolist(), self.lengths.tolist()))

    def __len__(self):
        return len(self.lengths)

    def __getitem__(self, rows):
        if isinstance(rows, slice):
            ids, lengths = self.ids[rows], self.lengths[rows]
        else:
            # take with indices gathers rows faster than fancy indexing
            rows = np.asarray(rows)
            if rows.ndim != 1:
                raise TypeError("a Corpus is indexed by a slice, an index array or a mask")
            if rows.dtype == bool:
                if rows.shape != self.lengths.shape:
                    raise IndexError(f"a mask of shape {rows.shape} does not match "
                                     f"{len(self)} rows")
                rows = np.flatnonzero(rows)
            elif not rows.size:
                rows = rows.astype(np.intp)  # [] is a float array
            ids, lengths = self.ids.take(rows, axis=0), self.lengths.take(rows)
        if len(lengths) == 0:
            raise InputError("a corpus must contain at least one sequence")
        width = int(lengths.max())
        if width < ids.shape[1]:
            ids = ids[:, :width]
        return _new_corpus(self.vocab, ids, lengths, self.split)

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.vocab == other.vocab and self.split == other.split
                and np.array_equal(self.lengths, other.lengths)
                and np.array_equal(self.ids, other.ids))

    __hash__ = None

    def __repr__(self):
        return f"Corpus({len(self)} sequences, split={self.split!r})"

    def __setattr__(self, name, value):
        raise AttributeError("a Corpus is immutable")

    __delattr__ = __setattr__


def _valid_mask(lengths: np.ndarray, width: int) -> np.ndarray:
    return np.arange(width)[None, :] < lengths[:, None]


def _check_ids(ids: np.ndarray, vocab_size: int) -> None:
    # padding is PAD, itself a vocabulary id, so the whole matrix is checked
    if ids.min() < 0:
        raise InputError("token ids must be non-negative")
    if ids.max() >= vocab_size:
        raise InputError("sequence contains ids outside the vocabulary")


def _is_id_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def _checked_arrays(vocab, ids, lengths) -> tuple[np.ndarray, np.ndarray]:
    """The first ``lengths[i]`` ids of each row of an integer matrix, as a
    new int64 matrix padded with PAD and trimmed to the longest row."""
    if len(ids) == 0:
        raise InputError("a corpus must contain at least one sequence")
    if lengths.min() < 1:
        raise InputError("a sequence must contain at least one token")
    width = int(lengths.max())
    if width > ids.shape[1]:
        raise InputError("a row length exceeds the id matrix width")
    ids = np.where(_valid_mask(lengths, width), ids[:, :width], PAD).astype(
        np.int64, copy=False)
    _check_ids(ids, len(vocab))
    return ids, lengths


def _init_corpus(corpus, vocab, ids, lengths, split) -> None:
    ids.flags.writeable = False
    lengths.flags.writeable = False
    for name, value in (("vocab", vocab), ("ids", ids), ("lengths", lengths),
                        ("split", split), ("_groups", None)):
        object.__setattr__(corpus, name, value)


def _new_corpus(vocab, ids, lengths, split) -> Corpus:
    """A Corpus over arrays that are already valid, without a copy."""
    corpus = object.__new__(Corpus)
    _init_corpus(corpus, vocab, ids, lengths, split)
    return corpus


def _padded(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The rows' ids, given one after another in ``flat``, padded with PAD."""
    width = int(lengths.max(initial=0))
    ids = np.full((len(lengths), width), PAD, dtype=np.int64)
    ids[_valid_mask(lengths, width)] = flat
    return ids


def _gram_ranks(ids: np.ndarray, lengths: np.ndarray, max_order: int):
    """Dense integer ids of the k-grams of an id matrix, for k = 1..max_order.

    Yields one ``(ranks, count)`` pair per order k: ``ranks`` has shape
    ``(n, width - k + 1)`` and ``ranks[r, p]`` numbers the gram
    ``ids[r, p:p+k]`` when it ends within the row's length, and is -1
    otherwise. Equal grams get equal numbers, the numbers run over
    ``0..count-1`` and follow the lexicographic order of the grams.
    Order k keys a gram as ``rank_{k-1} * count_1 + rank_1`` of its last
    token, so no key exceeds ``n * width * count_1``.
    """
    n, width = ids.shape
    valid = _valid_mask(lengths, width)
    tokens = np.full((n, width), -1, dtype=np.int64)
    uniq, inverse = np.unique(ids[valid], return_inverse=True)
    tokens[valid] = inverse
    base = len(uniq)
    ranks = tokens
    yield ranks, base
    for k in range(2, max_order + 1):
        last = tokens[:, k - 1:]
        ok = last >= 0
        uniq, inverse = np.unique(ranks[:, : last.shape[1]][ok] * base + last[ok],
                                  return_inverse=True)
        ranks = np.full(last.shape, -1, dtype=np.int64)
        ranks[ok] = inverse
        yield ranks, len(uniq)


_KEY_MAX = np.iinfo(np.int64).max  # the largest packed row key
# Below this bound on the packed row keys, _distinct_rows marks the keys in a
# flag array instead of sorting them. Marking costs about the bound, sorting
# about n log n. On a 2-vCPU Xeon VM, marking keys below 2**14 beat sorting
# from 64 rows up, marking keys below 2**16 lost up to 1,000 rows, and at
# 100k rows marking keys below 2**16 was 4-6x faster.
_MARK_KEYS_BELOW = 2**15


def _distinct_rows(ids: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of one row per distinct (ids, length), and each row's group.

    ``ids[distinct][inverse]`` rebuilds ``ids``. The TextCNN's
    ``predict_corpus`` and training step, the n-gram LM's fit and scores,
    BLEU, self-BLEU and the sentence embeddings do each row's work on the
    distinct rows only, all but the fit through a corpus's kept
    ``row_groups``; the rows come out ordered by length first, then by
    ``ids[:, L-1]``, ..., ``ids[:, 0]``, and only ``predict_corpus``'s
    chunks need the length order. Each row is packed into one int64 key
    whose digits, most significant first, are the length and then the ids
    from the last column to the first, in base ``max id + 1`` (ids are
    non-negative). Columns are appended a run at a time, by one integer
    matrix-vector product with the powers of the base. Before a digit could
    push a key past 2**63 - 1, the keys are re-ranked to their dense ranks
    below n, which keep their order, so no width or vocabulary size can
    overflow.

    When every key is below ``_MARK_KEYS_BELOW``, the keys are marked in a
    flag array, the flagged keys ascending give the groups, and each group
    keeps one of its rows; otherwise (and for the re-ranks) one argsort of
    the keys and a comparison of neighbours give them. Both list the groups
    in ascending key order, so the training step's cache and gradients do
    not depend on which ran.
    """
    base = int(ids.max(initial=0)) + 1
    key = lengths.astype(np.int64)
    top = int(lengths.max(initial=0))  # a bound on every key
    end = ids.shape[1]  # columns end, end + 1, ... are in the key
    while end:
        # append columns start..end-1 at once, as many as keep the bound,
        # and so base ** (end - start), below 2**63 - 1
        start, bound = end, top
        while start and (bound + 1) * base <= _KEY_MAX:
            start, bound = start - 1, (bound + 1) * base - 1
        if start == end:
            _, first, key = _dense_ranks(key)
            top = int(first.sum()) - 1
            continue
        powers = base ** np.arange(end - start, dtype=np.int64)
        key = key * base ** (end - start) + ids[:, start:end] @ powers
        top, end = bound, start
    return _group_keys(key, top)


def _group_keys(key: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """``_distinct_rows``'s result from each row's non-negative key, at most
    ``top``: one row per distinct key and each row's group, the groups in
    ascending key order."""
    if top < _MARK_KEYS_BELOW:
        # the scheme TextCNN._forward uses for tokens: a flag per possible
        # key, the flagged keys ascending, each key's rank, and a row per rank
        present = np.zeros(top + 1, dtype=bool)
        present[key] = True
        values = present.nonzero()[0]
        rank = np.empty(top + 1, dtype=np.intp)
        rank[values] = np.arange(len(values))
        inverse = rank[key]
        distinct = np.empty(len(values), dtype=np.intp)
        distinct[inverse] = np.arange(len(key))
        return distinct, inverse
    order, first, inverse = _dense_ranks(key)
    return order[first], inverse


def row_groups(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """``_distinct_rows`` of a corpus's arrays, computed once per corpus.

    The corpus keeps the read-only result, so the classifier, the n-gram
    LM's scores and the metrics group a corpus they all read only once.
    Two threads that ask at once may both compute it, and get equal arrays.
    """
    if corpus._groups is None:
        _keep_groups(corpus, _distinct_rows(corpus.ids, corpus.lengths))
    return corpus._groups


def _slice_with_groups(corpus: Corpus, rows: slice) -> Corpus:
    """``corpus[rows]`` with its ``row_groups`` derived from the corpus's.

    The slice's rows keep their groups' ranks, which order the groups by
    key as ``_distinct_rows`` does, so grouping the ranks gives the groups
    ``_distinct_rows`` would find on the slice's own arrays, in the same
    order, without packing a key.
    """
    distinct, inverse = row_groups(corpus)
    part = corpus[rows]
    _keep_groups(part, _group_keys(inverse[rows], len(distinct) - 1))
    return part


def _keep_groups(corpus: Corpus, groups: tuple[np.ndarray, np.ndarray]) -> None:
    for a in groups:
        a.flags.writeable = False
    object.__setattr__(corpus, "_groups", groups)


def _dense_ranks(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An order that sorts ``key``, where a new value starts in it, and each
    entry's rank among the distinct values (equal keys, equal ranks)."""
    # any entry of a group stands for it, so the sort need not be stable
    order = np.argsort(key)
    sorted_key = key[order]
    first = np.ones(len(key), dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    ranks = np.empty(len(key), dtype=np.intp)
    ranks[order] = np.cumsum(first) - 1
    return order, first, ranks


def build_vocab(lines, max_size: int) -> Vocab:
    """Vocabulary of the ``max_size`` most frequent tokens.

    Ties are broken by first occurrence; tokens spelled like reserved
    markers are skipped (they encode to UNK).
    """
    if max_size < 1:
        raise InputError("max_size must be >= 1")
    counts = Counter(chain.from_iterable(map(str.split, lines)))
    for tok in RESERVED_TOKENS:
        counts.pop(tok, None)
    if not counts:
        raise InputError("corpus is empty: no tokens found")
    # a Counter keeps first-occurrence order and most_common sorts stably
    return Vocab(tok for tok, _ in counts.most_common(max_size))


def encode_corpus(lines, vocab: Vocab, split: str = "",
                  max_len: int = DEFAULT_MAX_LEN) -> Corpus:
    """Corpus of the non-blank lines: each line's whitespace-separated tokens
    as ids (UNK outside the vocabulary), truncated at ``max_len``."""
    rows = list(filter(None, map(str.split, lines)))  # the non-blank lines' tokens
    if not rows:
        raise InputError("no non-empty lines to encode")
    if max_len < 1:
        raise InputError("a sequence must contain at least one token")
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.fromiter(map(vocab._ids.get, chain.from_iterable(rows), repeat(UNK)),
                       dtype=np.int64, count=int(lengths.sum()))
    if lengths.max() > max_len:
        # each token's position in its row: the flat index minus the row's start
        starts = np.cumsum(lengths) - lengths
        flat = flat[np.arange(len(flat)) - np.repeat(starts, lengths) < max_len]
        lengths = np.minimum(lengths, max_len)
    return _new_corpus(vocab, _padded(flat, lengths), lengths, split)


def split_tail(corpus: Corpus, n: int) -> tuple[Corpus, Corpus]:
    """Split off the last ``n`` sequences (head, tail); disjoint and covering."""
    if not 0 < n < len(corpus):
        raise InputError("tail size must leave both splits non-empty")
    return corpus[:-n], corpus[-n:]


def save_corpus(corpus: Corpus, path) -> None:
    """One line per row: its tokens joined by single spaces."""
    ids, lengths = corpus.ids, corpus.lengths
    words = np.array(corpus.vocab.tokens, dtype=object).take(
        ids[_valid_mask(lengths, ids.shape[1])])
    # each word, then " " or, at a row's last word, "\n"
    text = np.full(2 * len(words), " ", dtype=object)
    text[0::2] = words
    text[2 * np.cumsum(lengths) - 1] = "\n"
    with atomic_open(path) as fh:
        fh.write("".join(text.tolist()))


@contextmanager
def atomic_open(path):
    """A text handle on a temp file that replaces ``path`` when the block
    ends; a failure leaves the old file (or none), never a partial one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; InputError if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def load_corpus(path, vocab: Vocab, split: str = "",
                max_len: int = DEFAULT_MAX_LEN) -> Corpus:
    return encode_corpus(read_lines(path), vocab, split=split, max_len=max_len)


def corpus_to_arrays(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """The corpus's read-only (N, Lmax) id matrix, padded with PAD, and its
    length vector."""
    if not isinstance(corpus, Corpus):
        raise TypeError(f"expected a Corpus, got {type(corpus).__name__}")
    return corpus.ids, corpus.lengths


_STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True)
class MarkovSource:
    """First-order Markov chain over content tokens, emitting fixed-length sequences."""

    tokens: tuple[str, ...]
    initial: np.ndarray
    transition: np.ndarray
    length: int
    vocab: Vocab = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable
        initial = np.array(self.initial, dtype=np.float64)
        transition = np.array(self.transition, dtype=np.float64)
        k = len(self.tokens)
        if initial.shape != (k,) or transition.shape != (k, k):
            raise InputError("initial/transition shapes do not match token count")
        if not ((initial >= 0).all() and (transition >= 0).all()):  # NaN is neither
            raise InputError("probabilities must be non-negative")
        if abs(initial.sum() - 1.0) > _STOCHASTIC_TOL:
            raise InputError("initial distribution must sum to 1")
        if np.abs(transition.sum(axis=1) - 1.0).max() > _STOCHASTIC_TOL:
            raise InputError("transition rows must sum to 1")
        if self.length < 1:
            raise InputError("sequence length must be >= 1")
        initial.setflags(write=False)
        transition.setflags(write=False)
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "vocab", Vocab(self.tokens))


def synth_markov(source: MarkovSource, n: int, rng, split: str = "") -> Corpus:
    """Draw ``n`` i.i.d. length-L sequences from the chain."""
    if n < 1:
        raise InputError("n must be >= 1")
    return _sample_chain(source, rng.random((source.length, n)), split)


def _sample_chain(source: MarkovSource, u: np.ndarray, split: str = "") -> Corpus:
    """The rows of states a ``(length, n)`` block of uniforms draws from the
    chain: ``u[t, j]`` draws state t of row j, so the rows match drawing
    ``rng.random(n)`` at each step. Every state is a content token, so the
    Corpus is built without a check, as the trained samplers build theirs."""
    length, n = u.shape
    out = np.empty((n, length), dtype=np.int64)
    out[:, 0] = _draw_from_cdf(np.cumsum(source.initial)[None, :], u[0])
    cum_rows = np.cumsum(source.transition, axis=1)
    for t in range(1, length):
        out[:, t] = _draw_from_cdf(cum_rows[out[:, t - 1]], u[t])
    return _new_corpus(source.vocab, out + NUM_RESERVED, np.full(n, length), split)


def chain_probs(source: MarkovSource, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Exact chain probability of each row of a corpus's id matrix and
    lengths: initial[x1] * transition[x1, x2] * ... over the row's ids.

    Each row's factors are multiplied left to right, one column at a time,
    and a factor of 1.0 stands past a row's end, so ragged rows get the
    same products as rows scored one by one.
    """
    valid = _valid_mask(lengths, ids.shape[1])
    states = ids - NUM_RESERVED
    used = states[valid]
    if used.min() < 0 or used.max() >= len(source.tokens):
        raise InputError("sequence contains tokens outside the source alphabet")
    states = np.where(valid, states, 0)
    probs = source.initial[states[:, 0]]
    for t in range(1, ids.shape[1]):
        factors = source.transition[states[:, t - 1], states[:, t]]
        probs *= np.where(valid[:, t], factors, 1.0)
    return probs


def _draw_from_cdf(cdf: np.ndarray, u: np.ndarray, starts: np.ndarray | None = None,
                   spans=None) -> np.ndarray:
    """Inverse-CDF draws: for each draw j, how many entries of its CDF row
    are below ``u[j]``, clamped to the last index: its pick.

    ``cdf`` is a C-ordered block of nondecreasing rows, ``(R, S)`` or flat.
    Without ``starts``, draw j searches row j of an ``(R, S)`` block, or row
    0 when it has one row, and gets its pick. With ``starts``, draw j
    searches the row of ``spans[j]`` entries (S by default; one int serves
    every draw) that begins at flat index ``starts[j]`` of
    ``cdf.reshape(-1)`` and gets the flat index of its entry, ``starts[j]``
    plus the pick; the n-gram sampler's rows carry these offsets from step
    to step. The count is exact: a binary search over each row's first
    span - 1 entries finds the same index as counting them all and clamping,
    in ceil(log2 span) gathers of one entry per draw. The clamp keeps a draw
    whose u lies above a last entry that rounded below 1 inside the support.
    Every sampler draws through this function.
    """
    s = cdf.shape[-1]
    if starts is None and len(cdf) > 1:
        starts = np.arange(0, len(u) * s, s)
        return _draw_from_cdf(cdf, u, starts) - starts
    flat = cdf.reshape(-1)
    # the draw's entry lies in [pos, pos + span) of flat
    pos = np.zeros(len(u), dtype=np.intp) if starts is None else starts.astype(np.intp)
    span = s if spans is None else spans
    if isinstance(span, np.ndarray):  # once a draw's span is 1, half is 0: it adds 0
        for _ in range((int(span.max(initial=1)) - 1).bit_length()):
            half = span >> 1
            pos += (flat.take(pos + (half - 1)) < u) * half
            span = span - half
        return pos
    while span > 1:  # a step of one adds the bool
        half = span // 2
        if half == 1:
            pos += flat.take(pos) < u
        else:
            pos += (flat.take(pos + (half - 1)) < u) * half
        span -= half
    return pos
