"""Autoregressive sequence generators with exact log-probabilities.

Three interchangeable model kinds:

* ``NGramLM`` -- additively smoothed n-gram counts (the default generator;
  exact, fast, deterministic).
* ``NeuralLM`` -- a tiny recurrent LM trained by gradient descent with
  manually derived backpropagation, for exercising gradient-based training.
* ``MarkovModel`` -- an exact wrapper around a ``MarkovSource``, used as
  analytic ground truth.

All models share one contract: ``seq_logprob`` / ``seq_logprobs`` (one
row of ids, or every row of a corpus), ``sample_corpus`` (n sequences by
temperature-controlled ancestral sampling), ``sample_block`` (the rows of
several such calls from their uniforms at once), a ``vocab``, and a
``fixed_length`` attribute (``None`` means variable length with an EOS
event). In fixed-length mode the per-step distribution is supported on the
content tokens only, so the model is a proper distribution over the
enumerable domain V^L; in variable-length mode EOS and UNK join the
support.

The n-gram model works on the corpus id matrix: every context gets a dense
integer key (``data._gram_ranks``), so fitting is one ``bincount`` into one
count matrix, a row per context. Scoring gathers each event's count and its
context's stored total from that matrix, and caches nothing. Both find the
events of each distinct row once (``data._distinct_rows``; scoring reads
the corpus's kept ``data.row_groups``): fitting weighs them by the row's
multiplicity, and scoring gathers each row's score back to its copies.
Sampling reads a table of the temperature the model sampled last (another
temperature starts a new one) that holds each reached context's tempered
CDF, computed once, and the row each (context, token) step leads to, so a
warm step is an exact binary search for the number of CDF entries below u
(O(log S) per sequence) and a gather of successor rows. Each growing row
carries the flat offset of its CDF row in the table, so the flat index the
search ends on is also the (row, token) key of its successor and the step's
pick is that index less the offset. The table is made once, at every row
sampling can reach or as many as ``_CACHE_BYTES`` holds, the first step's
at row 0; a full table is cleared and refilled.

Every sampler turns uniforms into rows. ``sample_corpus`` draws one
``(length_cap, n)`` block with one ``rng.random`` call, which leaves the rng
where drawing n uniforms at every step, whether or not rows have ended,
leaves it, and hands it to ``sample_block`` as one round. ``sample_block``
takes a ``(rounds, steps, n)`` block and returns the rounds' rows one round
after another, equal to one ``sample_corpus`` call per round; so
``filtering.estimate_boundary`` samples each block of rounds in one call.
A row depends on its own uniforms alone, so every sampler draws a block's
rows together; the trained ones grow them in one loop (``_grow_rows``) that
stops stepping a row once it draws EOS. The recurrent LM's products run over
fixed row blocks (``_row_product``), so a row's states, score and ids depend
on that row alone, and none of its sums on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (BOS, DEFAULT_MAX_LEN, EOS, PAD, UNK, Corpus, MarkovSource,
                   _distinct_rows, _draw_from_cdf, _gram_ranks, _new_corpus, _sample_chain,
                   chain_probs, corpus_to_arrays, row_groups, split_tail)
from .errors import InputError, check_fields, integer, number

# Byte cap of one NGramLM's sampling table. The table may pass it only when
# the contexts in flight, and the first step's row, need more.
_CACHE_BYTES = 256 * 2**20
# ``_row_product``'s rows did not depend on each other or on one or two
# OpenBLAS threads over 8-row blocks; they did over 16-row blocks at one
# thread, and over sums of 600 terms or more at two.
_ROW_BLOCK, _SUM_SPAN = 8, 256
_SAMPLE_ROWS = 1024  # the most rows NeuralLM samples at once


@dataclass(frozen=True)
class SamplerConfig:
    """Ancestral-sampling knobs: softmax temperature, length cap, seed."""

    temperature: float = 1.0
    max_len: int = DEFAULT_MAX_LEN
    seed: int = 0

    def __post_init__(self):
        check_fields(self, temperature=number("(0, inf)"), max_len=integer(1),
                     seed=integer(0))


def length_cap(gen, cfg: SamplerConfig) -> int:
    """Steps a sampler takes: ``cfg.max_len``, or the generator's fixed length
    when that is shorter."""
    return cfg.max_len if gen.fixed_length is None else min(gen.fixed_length, cfg.max_len)


def _one_round(gen, n: int, cfg: SamplerConfig, rng) -> np.ndarray:
    """The ``(1, length_cap, n)`` block of uniforms a ``sample_corpus`` call
    draws, from ``rng`` or, when it is None, from ``cfg.seed``."""
    if n < 1:
        raise InputError("n must be >= 1")
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    return rng.random((1, length_cap(gen, cfg), n))


def _check_block(gen, u: np.ndarray, cfg: SamplerConfig) -> None:
    """Raise unless ``u`` is a ``(rounds, length_cap, n)`` block with rows."""
    if u.ndim != 3 or u.shape[1] != length_cap(gen, cfg) or not u.shape[0] * u.shape[2]:
        raise InputError(f"a block of uniforms must have shape (rounds, "
                         f"{length_cap(gen, cfg)}, n) with rows, got {u.shape}")


def support_ids(vocab, fixed_length) -> np.ndarray:
    """Token ids a model may emit; content only when the length is fixed."""
    content = list(vocab.content_ids)
    if fixed_length is not None:
        return np.array(content, dtype=np.int64)
    return np.array([EOS, UNK] + content, dtype=np.int64)


def _support_index(vocab, support) -> np.ndarray:
    index = np.full(len(vocab), -1, dtype=np.int64)
    index[support] = np.arange(len(support))
    return index


def _apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    # p^(1/T) renormalized == dividing softmax logits by T; computed in log
    # space so extreme temperatures stay stable (T -> 0 gives the argmax)
    if temperature == 1.0:
        return probs
    with np.errstate(divide="ignore"):
        logs = np.log(probs) / temperature
    logs -= logs.max(axis=-1, keepdims=True)
    scaled = np.exp(logs)
    return scaled / scaled.sum(axis=-1, keepdims=True)


def libm_map(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (``math.log`` or ``math.exp``) of each value, once per distinct value.

    numpy's vectorised ``log``/``exp`` may differ from the C library's in
    the last bit, so batched scores use the same function as ``math``.
    """
    uniq, inverse = np.unique(values.ravel(), return_inverse=True)
    return np.array([fn(v) for v in uniq.tolist()], dtype=np.float64)[inverse].reshape(
        values.shape)


class NGramLM:
    """Order-n language model with additive delta-smoothing.

    Every conditional is strictly positive and sums to one over the
    support, so sequence log-probabilities are always finite. ``fit`` and
    ``seq_logprobs`` find each distinct row's events once, and their counts
    and scores equal the row-by-row ones bit for bit. The counts are one
    matrix, a row per context; sampling fills one table, so one model is not
    for concurrent use from several threads.
    """

    kind = "ngram"

    def __init__(self, vocab, order: int = 2, delta: float = 0.01,
                 fixed_length: int | None = None):
        if order < 1:
            raise InputError("order must be >= 1")
        if not delta > 0:
            raise InputError("smoothing delta must be > 0")
        self.vocab = vocab
        self.order = order
        self.delta = float(delta)
        self.fixed_length = fixed_length
        self.support = support_ids(vocab, fixed_length)
        self._sup_index = _support_index(vocab, self.support)
        self._counts = np.zeros((0, len(self.support)))
        self._totals = np.zeros(0)
        self._row_of: dict[tuple[int, ...], int] = {}
        self._table: _CdfTable | None = None

    # -- training ---------------------------------------------------------

    def fit(self, corpus: Corpus) -> "NGramLM":
        """Add the corpus's event counts. Each distinct row's events are
        found once and counted with the row's multiplicity; the counts are
        integers, so their float sums are exact."""
        if corpus.vocab != self.vocab:
            raise InputError("corpus vocabulary does not match the model")
        rows, inverse = _distinct_rows(corpus.ids, corpus.lengths)
        contexts, ctx, sup, mask = self._events(corpus[rows])
        copies = np.repeat(np.bincount(inverse), mask.sum(axis=1))
        s = len(self.support)
        counts = np.bincount(ctx * s + sup, weights=copies, minlength=len(contexts) * s)
        self._add_counts(contexts, counts.reshape(-1, s))
        self._table = None
        return self

    def _add_counts(self, contexts: list, counts: np.ndarray) -> None:
        """Add a row of ``counts`` per distinct context to the contexts' rows,
        appending new ones; an empty model keeps ``counts`` itself."""
        if not self._row_of:
            self._counts = counts
            self._row_of = dict(zip(contexts, range(len(contexts))))
        else:
            rows = [self._row_of.setdefault(c, len(self._row_of)) for c in contexts]
            grown = np.zeros((len(self._row_of), counts.shape[1]))
            grown[:len(self._counts)] = self._counts
            grown[rows] += counts
            self._counts = grown
        self._totals = self._counts.sum(axis=1)

    def _events(self, corpus: Corpus):
        """Every (context, next token) event of a corpus, in row-major order.

        Returns ``(contexts, ctx, sup, mask)``: the distinct context tuples,
        each event's index into them, each event's support index, and the
        ``(n, width + 1)`` mask of event positions. Event t of a row has
        context ``(BOS,) * (order - 1) + ids`` at ``[t, t + order - 1)``; a
        variable-length row ends with an EOS event at t = length.
        """
        ids, lengths = corpus.ids, corpus.lengths
        n, width = ids.shape
        targets = np.empty((n, width + 1), dtype=np.int64)
        targets[:, :width] = ids
        targets[np.arange(n), lengths] = EOS
        n_events = lengths + (self.fixed_length is None)
        mask = np.arange(width + 1)[None, :] < n_events[:, None]
        tokens = targets[mask]
        sup = self._sup_index[tokens]
        outside = sup < 0
        if outside.any():
            raise InputError(
                f"token id {int(tokens[outside][0])} is outside the model support")
        ctx_len = self.order - 1
        if ctx_len == 0:
            return [()], np.zeros(len(sup), dtype=np.int64), sup, mask
        padded = np.full((n, ctx_len + width), BOS, dtype=np.int64)
        padded[:, ctx_len:] = ids
        *_, (ranks, _) = _gram_ranks(padded, lengths + ctx_len, ctx_len)
        _, first, ctx = np.unique(ranks[mask], return_index=True, return_inverse=True)
        rows, cols = np.nonzero(mask)
        windows = padded[rows[first, None], cols[first, None] + np.arange(ctx_len)]
        return list(map(tuple, windows.tolist())), ctx, sup, mask

    # -- probabilities ----------------------------------------------------

    def cond_probs(self, context: tuple[int, ...], sup=slice(None)):
        """Smoothed probabilities of the support indices ``sup`` after
        ``context``, by default the whole next-token distribution over
        ``self.support`` as a fresh array: (c + delta) / (N + delta * S) from
        the context's counts c and their total N, or 1 / S after a context
        never seen."""
        s = len(self.support)
        row = self._row_of.get(context)
        if row is None:
            return np.full(s, 1.0 / s)[sup]
        return (self._counts[row, sup] + self.delta) / (self._totals[row] + self.delta * s)

    def seq_logprob(self, ids) -> float:
        """Log-probability of one row of ids, event by event."""
        ids = tuple(ids)
        ctx_len = self.order - 1
        padded = (BOS,) * ctx_len + ids
        events = ids + ((EOS,) if self.fixed_length is None else ())
        total = 0.0
        for t, tok in enumerate(events):
            idx = self._sup_index[tok]
            if idx < 0:
                raise InputError(f"token id {tok} is outside the model support")
            total += math.log(self.cond_probs(padded[t: t + ctx_len], idx))
        return total

    def seq_logprobs(self, corpus: Corpus) -> np.ndarray:
        """``seq_logprob`` of every row. Each distinct row is scored once:
        each event's probability is gathered from its context's counts row
        as ``cond_probs`` forms it, logged, and each row's terms are summed
        left to right; the scores are gathered back to every row."""
        rows, inverse = row_groups(corpus)
        contexts, ctx, sup, mask = self._events(corpus[rows])
        s = len(self.support)
        row = np.array([self._row_of.get(c, -1) for c in contexts], dtype=np.intp)[ctx]
        seen = row >= 0
        probs = np.full(len(ctx), 1.0 / s)
        probs[seen] = ((self._counts[row[seen], sup[seen]] + self.delta)
                       / (self._totals[row[seen]] + self.delta * s))
        terms = np.zeros(mask.shape)
        terms[mask] = libm_map(math.log, probs)
        total = np.zeros(len(terms))
        for column in terms.T:
            total += column
        return total[inverse]

    # -- sampling ---------------------------------------------------------

    def sample_corpus(self, n: int, cfg: SamplerConfig, rng=None,
                      split: str = "") -> Corpus:
        """Ancestral sampling; the first step never emits EOS, so sequences
        are always non-empty."""
        return self.sample_block(_one_round(self, n, cfg, rng), cfg, split)

    def sample_block(self, u: np.ndarray, cfg: SamplerConfig, split: str = "") -> Corpus:
        """The rows of a ``(rounds, length_cap, n)`` block of uniforms, round
        after round; ``u[r, t, j]`` draws step t of round r's row j. A row
        depends on its own uniforms alone, so every row is drawn together."""
        _check_block(self, u, cfg)
        table = self._table
        if table is None or table.temperature != cfg.temperature:
            table = self._table = self._new_table(cfg.temperature)
        # a growing row's state is the flat CDF offset of its table row, all
        # row 0's at the first step; a draw's flat index is its successor's key
        def draw(offsets, ut, t):
            offsets = offsets if t else np.zeros(len(ut), dtype=np.intp)
            drawn = _draw_from_cdf(table.cdf, ut, offsets)
            return drawn - offsets, drawn

        return _grow_rows(self, u, draw, lambda drawn, _ids: self._successors(table, drawn),
                          split)

    def _successors(self, table: _CdfTable, drawn: np.ndarray) -> np.ndarray:
        """Flat CDF offset of the table row reached by each drawn entry: the
        flat index ``row * len(support) + pick`` emits ``support[pick]`` from
        table row ``row``."""
        s = len(self.support)
        nxt = table.succ.take(drawn)
        unknown = nxt < 0
        if not unknown.any():
            return nxt
        pairs, inverse = np.unique(drawn[unknown], return_inverse=True)
        rows = self._table_rows(table, self._next_contexts(table, pairs))
        if rows is None:
            pairs, inverse = np.unique(drawn, return_inverse=True)
            return self._rebuilt_rows(table, self._next_contexts(table, pairs))[inverse] * s
        np.put(table.succ, pairs, rows * s)
        nxt[unknown] = rows[inverse] * s
        return nxt

    def _next_contexts(self, table: _CdfTable, pairs: np.ndarray) -> list:
        """Context reached by each ``row * len(support) + pick`` in ``pairs``."""
        rows, picks = np.divmod(pairs, len(self.support))
        return [(self._context(table.keys[r]) + (tok,))[1:]
                for r, tok in zip(rows.tolist(), self.support[picks].tolist())]

    def _new_table(self, temperature: float) -> _CdfTable:
        """A table of the rows sampling can reach, or of the cap's (at least
        one), with the first step's at row 0. Those are the first step's and
        each context after a step: BOS padding then j >= 1 symbols other than
        EOS (for order 1, ``()``)."""
        s, rows = len(self.support), 1
        grow = s - (self.fixed_length is None)
        cap = _CACHE_BYTES // (s * 12)  # a float64 CDF entry and an int32 successor each
        for j in range(min(1, self.order - 1), self.order):  # order may be a checkpoint's
            rows += grow ** j
            if rows > cap:
                break
        table = _CdfTable(s, temperature, max(1, min(rows, cap)))
        self._table_rows(table, [None])
        return table

    def _table_rows(self, table: _CdfTable, keys: list):
        """Row ids of ``keys`` in ``table``, adding the missing rows; ``None``
        when they do not fit."""
        missing = [k for k in dict.fromkeys(keys) if k not in table.row_of]
        if len(table.keys) + len(missing) > table.capacity:
            return None
        for r, key in zip(table.extend(missing), missing):
            table.cdf[r] = self._tempered_cdf(key, table.temperature)
        return np.array([table.row_of[k] for k in keys], dtype=np.int64)

    def _rebuilt_rows(self, table: _CdfTable, keys: list) -> np.ndarray:
        """Refill ``table`` with the first step's row, at row 0, and ``keys``,
        the contexts in flight; returns their row ids. The rows are recomputed
        with the same formula, so the draws do not change. The table keeps
        the cap's rows, or takes the rows the contexts in flight need."""
        table.reset(max(len(set(keys)) + 1, _CACHE_BYTES // table.row_bytes))
        self._table_rows(table, [None])
        return self._table_rows(table, keys)

    def _context(self, key) -> tuple[int, ...]:
        return (BOS,) * (self.order - 1) if key is None else key

    def _tempered_cdf(self, key, temperature: float) -> np.ndarray:
        """CDF of a table row: the first step's row drops EOS and renormalises."""
        row = _apply_temperature(self.cond_probs(self._context(key)), temperature)
        if key is None and self.fixed_length is None:
            row[self._sup_index[EOS]] = 0.0  # cond_probs returned a fresh array
            row /= row.sum()
        return np.cumsum(row)


class MarkovModel:
    """Exact generator view of a MarkovSource (fixed length, no smoothing)."""

    kind = "markov"

    def __init__(self, source: MarkovSource):
        self.source = source
        self.vocab = source.vocab
        self.fixed_length = source.length
        self.support = support_ids(self.vocab, self.fixed_length)
        self._tempered: tuple[float, MarkovSource] | None = None

    def seq_logprob(self, ids) -> float:
        return float(self.seq_logprobs(Corpus(self.vocab, [ids]))[0])

    def seq_logprobs(self, corpus: Corpus) -> np.ndarray:
        """The log of each row's exact chain probability, -inf where it is 0."""
        probs = chain_probs(self.source, corpus.ids, corpus.lengths)
        out = np.full(len(probs), -np.inf)
        live = probs > 0
        out[live] = libm_map(math.log, probs[live])
        return out

    def sample_corpus(self, n: int, cfg: SamplerConfig, rng=None,
                      split: str = "") -> Corpus:
        return self.sample_block(_one_round(self, n, cfg, rng), cfg, split)

    def sample_block(self, u: np.ndarray, cfg: SamplerConfig, split: str = "") -> Corpus:
        """The chain's rows of a ``(rounds, length_cap, n)`` block of
        uniforms, round after round, every row drawn together. At T != 1 it
        keeps the tempered chain of the last such T, at the source's length."""
        _check_block(self, u, cfg)
        rounds, steps, n = u.shape
        u = u.transpose(1, 0, 2).reshape(steps, rounds * n)  # a view for one round
        if cfg.temperature == 1.0:
            return _sample_chain(self.source, u, split)
        if self._tempered is None or self._tempered[0] != cfg.temperature:
            self._tempered = cfg.temperature, MarkovSource(
                self.source.tokens,
                _apply_temperature(self.source.initial, cfg.temperature),
                _apply_temperature(self.source.transition, cfg.temperature),
                self.source.length,
            )
        return _sample_chain(self._tempered[1], u, split)


class _CdfTable:
    """One temperature's tempered next-token CDFs, one row per context reached.

    ``cdf[r]`` is row r's CDF, the block ``data._draw_from_cdf`` searches.
    ``succ[r, p]`` is the flat offset in ``cdf`` (its row id times S) of the
    row reached from row r by emitting ``support[p]``, or -1 until a step
    first needs it; it is an int32 unless the block holds 2**31 entries or
    more, which only a table past the byte cap can. ``keys[r]`` is row r's
    context, or ``None`` for row 0, the first step's; ``row_of`` inverts
    ``keys``. The blocks keep the ``capacity`` they are made or reset with.
    """

    def __init__(self, n_support: int, temperature: float, capacity: int):
        self.n_support = n_support
        self.temperature = temperature
        self.cdf, self.succ = self._blocks(capacity)
        self.keys: list = []
        self.row_of: dict = {}

    def _blocks(self, capacity: int):
        """Empty ``cdf`` and ``succ`` blocks of ``capacity`` rows."""
        shape = (capacity, self.n_support)
        return np.empty(shape), np.empty(shape, dtype=np.int32 if capacity * self.n_support
                                         < 2**31 else np.int64)

    def reset(self, capacity: int) -> None:
        """Forget every row and size the blocks to ``capacity`` rows, reusing
        them when they already have that size."""
        if capacity != self.capacity:
            self.cdf, self.succ = self._blocks(capacity)
        self.keys = []
        self.row_of = {}

    @property
    def capacity(self) -> int:
        return len(self.succ)

    @property
    def row_bytes(self) -> int:
        return self.n_support * (self.cdf.itemsize + self.succ.itemsize)

    def extend(self, keys: list) -> range:
        """Append a row per key, with unknown successors; returns the new row
        ids, whose CDFs the caller writes."""
        new = range(len(self.keys), len(self.keys) + len(keys))
        self.succ[new.start: new.stop] = -1
        self.row_of.update(zip(keys, new))
        self.keys.extend(keys)
        return new


def _grow_rows(model, u, draw, advance, split: str) -> Corpus:
    """The Corpus of the rows a trained sampler grows from a ``(rounds, steps,
    n)`` block of uniforms, round after round. ``draw(state, ut, t)`` returns
    the growing rows' support picks and a carry with a row each (the state is
    None at t = 0); a row that picks EOS ends, and ``advance(carry, ids)`` makes
    the others' next state. The ids come from the support, PAD past each row's
    end (every id is drawn at a fixed length), trimmed to the longest row."""
    steps, total = u.shape[1], u.shape[0] * u.shape[2]
    eos_sup = int(model._sup_index[EOS]) if model.fixed_length is None else -1
    ids = np.full((total, steps), PAD) if eos_sup >= 0 else np.empty((total, steps), int)
    lengths = np.full(total, steps)
    idx = state = None  # idx: the output rows still growing, None until some row ends
    for t in range(steps):
        ut = u[:, t].reshape(total)  # a view for one round
        if idx is not None:
            if not len(idx):
                break
            ut = ut[idx]
        picks, carry = draw(state, ut, t)
        if eos_sup >= 0:
            ended = picks == eos_sup
            if ended.any():
                growing = np.arange(total) if idx is None else idx
                lengths[growing[ended]] = t
                keep = ~ended
                idx, picks, carry = growing[keep], picks[keep], carry[keep]
        tokens = model.support.take(picks)
        ids[slice(None) if idx is None else idx, t] = tokens
        if t + 1 < steps:
            state = advance(carry, tokens)
    width = int(lengths.max())
    if width < steps:
        ids = ids[:, :width].copy()
    return _new_corpus(model.vocab, ids, lengths, split)


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over blocks of ``_ROW_BLOCK`` rows (the last padded with zeros),
    summed over spans of ``_SUM_SPAN`` columns added in order, so a row's bits
    depend neither on the other rows nor on the BLAS thread count."""
    n, k = a.shape
    blocks = np.zeros((-(-n // _ROW_BLOCK), _ROW_BLOCK, k))
    blocks.reshape(-1, k)[:n] = a
    out = blocks[:, :, :_SUM_SPAN] @ b[:_SUM_SPAN]
    for start in range(_SUM_SPAN, k, _SUM_SPAN):
        out += blocks[:, :, start:start + _SUM_SPAN] @ b[start:start + _SUM_SPAN]
    return out.reshape(-1, b.shape[1])[:n]


# ---------------------------------------------------------------------------
# Tiny recurrent LM with hand-written backpropagation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NGramConfig:
    order: int = 2
    delta: float = 0.01
    fixed_length: int | None = None

    def __post_init__(self):
        check_fields(self, order=integer(1), delta=number("(0, inf)"),
                     fixed_length=integer(1, optional=True))


@dataclass(frozen=True)
class NeuralConfig:
    embed_dim: int = 32
    hidden_dim: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 3
    fixed_length: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self, embed_dim=integer(1), hidden_dim=integer(1),
                     lr=number("[0, inf)"), momentum=number("[0, 1)"),
                     batch_size=integer(1), max_epochs=integer(1), patience=integer(1),
                     fixed_length=integer(1, optional=True), seed=integer(0))


@dataclass
class TrainReport:
    """Per-epoch validation negative log-likelihoods of gradient training."""

    valid_nll: list
    best_epoch: int
    stopped_early: bool


class NeuralLM:
    """One-layer Elman RNN over token embeddings, trained by MLE.

    Forward/backward passes are explicit numpy; float64 throughout so the
    analytic gradients can be checked against central finite differences.
    """

    kind = "neural"

    def __init__(self, vocab, cfg: NeuralConfig):
        self.vocab = vocab
        self.cfg = cfg
        self.fixed_length = cfg.fixed_length
        self.support = support_ids(vocab, cfg.fixed_length)
        self._sup_index = _support_index(vocab, self.support)
        rng = np.random.default_rng(cfg.seed)
        v, de, dh, s = len(vocab), cfg.embed_dim, cfg.hidden_dim, len(self.support)
        self.params = {
            "embed": rng.standard_normal((v, de)) * 0.1,
            "w_xh": rng.standard_normal((de, dh)) / math.sqrt(de),
            "w_hh": rng.standard_normal((dh, dh)) / math.sqrt(dh),
            "b_h": np.zeros(dh),
            "w_hy": rng.standard_normal((dh, s)) / math.sqrt(dh),
            "b_y": np.zeros(s),
        }
        self.train_report: TrainReport | None = None

    # -- batching ---------------------------------------------------------

    def _targets(self, corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
        """Target-event matrix (support indices) and per-sequence event counts."""
        ids, lengths = corpus_to_arrays(corpus)
        extra = 0 if self.fixed_length is not None else 1
        events = lengths + extra
        idx = self._sup_index[ids]
        valid = np.arange(ids.shape[1])[None, :] < lengths[:, None]
        if (idx[valid] < 0).any():
            raise InputError("sequence contains ids outside the model support")
        targets = np.zeros((len(ids), int(events.max())), dtype=np.int64)
        targets[:, : ids.shape[1]] = np.where(valid, idx, 0)
        if extra:
            targets[np.arange(len(ids)), lengths] = self._sup_index[EOS]
        return targets, events

    def _step_stack(self, targets, events):
        """Input token ids per step (BOS first, then the previous target)."""
        n, width = targets.shape
        inputs = np.full((n, width), BOS, dtype=np.int64)
        inputs[:, 1:] = self.support[targets[:, :-1]]
        mask = np.arange(width)[None, :] < events[:, None]
        return inputs, mask

    def _step(self, ids: np.ndarray, h: np.ndarray):
        """One recurrence step from token ids and the previous hidden state;
        returns the step's hidden state and its logits, a row each."""
        p = self.params
        h = np.tanh(_row_product(p["embed"][ids], p["w_xh"]) + _row_product(h, p["w_hh"])
                    + p["b_h"])
        logits = _row_product(h, p["w_hy"])
        logits += p["b_y"]
        return h, logits

    def nll_and_grads(self, corpus: Corpus) -> tuple[float, dict]:
        """Mean per-event NLL of a batch plus gradients for every parameter."""
        p = self.params
        targets, events = self._targets(corpus)
        inputs, mask = self._step_stack(targets, events)
        n, width = targets.shape
        dh_dim = p["w_hh"].shape[0]
        hs = np.zeros((width + 1, n, dh_dim))
        probs = np.empty((width, n, len(self.support)))
        total_events = float(mask.sum())
        loss = 0.0
        for t in range(width):
            hs[t + 1], logits = self._step(inputs[:, t], hs[t])
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits, out=logits)
            np.divide(e, e.sum(axis=1, keepdims=True), out=probs[t])
            picked = probs[t, np.arange(n), targets[:, t]]
            loss -= float((np.log(picked) * mask[:, t]).sum())
        loss /= total_events

        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dh_next = np.zeros((n, dh_dim))
        for t in range(width - 1, -1, -1):
            dlogits = probs[t]  # overwritten in place
            dlogits[np.arange(n), targets[:, t]] -= 1.0
            dlogits *= mask[:, t, None] / total_events
            grads["w_hy"] += _row_product(hs[t + 1].T, dlogits)
            grads["b_y"] += dlogits.sum(axis=0)
            dz = (_row_product(dlogits, p["w_hy"].T) + dh_next) * (1.0 - hs[t + 1] ** 2)
            grads["b_h"] += dz.sum(axis=0)
            grads["w_xh"] += _row_product(p["embed"][inputs[:, t]].T, dz)
            grads["w_hh"] += _row_product(hs[t].T, dz)
            np.add.at(grads["embed"], inputs[:, t], _row_product(dz, p["w_xh"].T))
            dh_next = _row_product(dz, p["w_hh"].T)
        return loss, grads

    def seq_logprobs(self, corpus: Corpus) -> np.ndarray:
        """Log probability of every row. A row's score depends on that row
        alone, so each distinct row (``data.row_groups``) is scored once, 256
        rows per forward pass, and the scores are gathered back to every row."""
        rows, inverse = row_groups(corpus)
        distinct = corpus[rows]
        out = []
        for start in range(0, len(distinct), 256):
            targets, events = self._targets(distinct[start: start + 256])
            inputs, mask = self._step_stack(targets, events)
            n, width = targets.shape
            h = np.zeros((n, self.params["w_hh"].shape[0]))
            logp = np.zeros(n)
            for t in range(width):
                h, logits = self._step(inputs[:, t], h)
                logits -= logits.max(axis=1, keepdims=True)
                logz = np.log(np.exp(logits).sum(axis=1))
                picked = logits[np.arange(n), targets[:, t]] - logz
                logp += np.where(mask[:, t], picked, 0.0)
            out.append(logp)
        return np.concatenate(out)[inverse]

    def seq_logprob(self, ids) -> float:
        return float(self.seq_logprobs(Corpus(self.vocab, [ids]))[0])

    def mean_nll(self, corpus: Corpus) -> float:
        """Mean NLL per event over the corpus."""
        extra = 0 if self.fixed_length is not None else 1
        return float(-self.seq_logprobs(corpus).sum() / (corpus.lengths + extra).sum())

    # -- training ---------------------------------------------------------

    def fit(self, train: Corpus, valid: Corpus) -> "NeuralLM":
        cfg = self.cfg
        rng = np.random.default_rng(cfg.seed + 1)
        velocity = {k: np.zeros_like(v) for k, v in self.params.items()}
        best = {k: v.copy() for k, v in self.params.items()}
        best_valid = math.inf
        best_epoch = -1
        valid_nll = []
        stale = 0
        stopped_early = False
        for epoch in range(cfg.max_epochs):
            order = rng.permutation(len(train))
            for start in range(0, len(train), cfg.batch_size):
                batch = train[order[start: start + cfg.batch_size]]
                _, grads = self.nll_and_grads(batch)
                for k, g in grads.items():
                    velocity[k] = cfg.momentum * velocity[k] - cfg.lr * g
                    self.params[k] += velocity[k]
            valid_nll.append(self.mean_nll(valid))
            if valid_nll[-1] < best_valid - 1e-12:
                best_valid = valid_nll[-1]
                best_epoch = epoch
                best = {k: v.copy() for k, v in self.params.items()}
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    stopped_early = True
                    break
        self.params = best
        self.train_report = TrainReport(valid_nll, best_epoch, stopped_early)
        return self

    # -- sampling ---------------------------------------------------------

    def sample_corpus(self, n: int, cfg: SamplerConfig, rng=None,
                      split: str = "") -> Corpus:
        """Ancestral sampling; the first step never emits EOS."""
        return self.sample_block(_one_round(self, n, cfg, rng), cfg, split)

    def sample_block(self, u: np.ndarray, cfg: SamplerConfig, split: str = "") -> Corpus:
        """The rows of a ``(rounds, length_cap, n)`` block of uniforms, round
        after round, drawn together at most ``_SAMPLE_ROWS`` rows at a time."""
        _check_block(self, u, cfg)
        eos_sup = self._sup_index[EOS] if self.fixed_length is None else None
        dh = len(self.params["b_h"])

        def draw(state, ut, t):  # a growing row's state: its last id and hidden state
            ids, h = state if t else (np.full(len(ut), BOS), np.zeros((len(ut), dh)))
            h, logits = self._step(ids, h)
            logits /= cfg.temperature
            if t == 0 and eos_sup is not None:
                logits[:, eos_sup] = -np.inf
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits, out=logits)
            e /= e.sum(axis=1, keepdims=True)
            return _draw_from_cdf(np.cumsum(e, axis=1, out=e), ut), h

        per = max(1, _SAMPLE_ROWS // u.shape[2])  # whole rounds at a time, or parts of one
        return Corpus.concat([_grow_rows(self, u[r:r + per, :, j:j + _SAMPLE_ROWS], draw,
                                         lambda h, ids: (ids, h), split)
                              for r in range(0, len(u), per)
                              for j in range(0, u.shape[2], _SAMPLE_ROWS)], split)


# ---------------------------------------------------------------------------
# Shared entry points.
# ---------------------------------------------------------------------------


def train_mle(train: Corpus, valid: Corpus | None, config) -> "NGramLM | NeuralLM":
    """Fit a generator by maximum likelihood; dispatch on the config type."""
    if train is None or len(train) == 0:
        raise InputError("training corpus is empty")
    if isinstance(config, NGramConfig):
        model = NGramLM(train.vocab, config.order, config.delta, config.fixed_length)
        return model.fit(train)
    if isinstance(config, NeuralConfig):
        if valid is None:
            train, valid = split_tail(train, max(1, len(train) // 10))
        model = NeuralLM(train.vocab, config)
        return model.fit(train, valid)
    raise InputError(f"unknown generator config: {type(config).__name__}")


def nll_rates(model, corpus: Corpus) -> np.ndarray:
    """Per-row NLL per event: -log p(x) / (len(x) + 1 if EOS is an event)."""
    extra = 0 if model.fixed_length is not None else 1
    return -model.seq_logprobs(corpus) / (corpus.lengths + extra)


def perplexity(model, corpus: Corpus) -> float:
    """exp(mean per-token NLL), averaged per sequence then over the corpus."""
    return float(np.exp(np.mean(nll_rates(model, corpus))))
