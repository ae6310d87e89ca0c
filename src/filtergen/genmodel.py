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
support. ``_event_table`` gives every row's events (its tokens, then EOS
when the length is variable) as support indices, for fitting, scoring and
counting events. Every tempered law is ``_tempered_softmax``, softmax(x / T),
of the n-gram's and the chain's log-probabilities or of the recurrent LM's
logits; as T -> 0 it tends to the argmax, uniform over exact ties.

The n-gram model keeps its counts in one matrix, a row per context (keyed
by ``data._gram_ranks``), and fits and scores each distinct row once.
It samples from a table made whole once per temperature: each context's
tempered CDF, kept at its seen entries and at the gaps of unseen entries
between them, which smoothing gives one shared value. A step is a binary
search over the row's segments (``data._draw_from_cdf``), a division where
it lands in a gap, and a gather of the row it leads to.

Every sampler turns uniforms into rows. ``sample_corpus`` draws one
``(length_cap, n)`` block with one ``rng.random`` call, which leaves the rng
where n uniforms at every step would, whether or not rows have ended, and
hands it to ``sample_block``, which takes a ``(rounds, steps, n)`` block and returns
the rounds' rows one round after another, equal to one ``sample_corpus``
call per round. A row depends on its own uniforms alone; the trained
samplers grow a block's rows in one loop (``_grow_rows``) that stops
stepping a row once it draws EOS. The recurrent LM's products run over
fixed row blocks (``_row_product``), so none of a row's bits depend on the
other rows or on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (BOS, DEFAULT_MAX_LEN, EOS, PAD, UNK, Corpus, MarkovSource,
                   _distinct_rows, _draw_from_cdf, _gram_ranks, _new_corpus, _sample_chain,
                   chain_probs, row_groups, split_tail)
from .errors import InputError, check_fields, integer, number

# ``_row_product``'s rows did not depend on each other or on one or two
# OpenBLAS threads over 8-row blocks; they did over 16-row blocks at one
# thread, and over sums of 600 terms or more at two.
_ROW_BLOCK, _SUM_SPAN = 8, 256
_SAMPLE_ROWS = 1024  # the most rows a sampler tempers at once


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


def _tempered_softmax(x: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(x / T) along the last axis, in place in the float64 ``x``.

    A row whose maximum / T is infinite becomes 0 at its maxima and -inf
    elsewhere first: the T -> 0 limit, uniform over exact ties. Every row
    is then divided by T, less its maximum / T, exponentiated and normalised.
    """
    top = x.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        shift = top / temperature
        limit = np.isinf(shift)
        if limit.any():
            x[...] = np.where(limit, np.where(x == top, 0.0, -np.inf), x)
            shift[limit] = 0.0
        if temperature != 1.0:  # x / 1 is x
            x /= temperature
        x -= shift
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    # p^(1/T) renormalised is softmax(log p / T), the law logits divided by
    # T give; T = 1 returns ``probs`` itself
    if temperature == 1.0:
        return probs
    with np.errstate(divide="ignore"):  # log 0 is -inf
        return _tempered_softmax(np.log(probs), temperature)


def _event_table(model, corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """The support index of each event of each row, and the event mask.

    A row's events are its tokens, then EOS when the length is variable, so
    both arrays are ``(n, width + 1)`` then and ``(n, width)`` otherwise.
    Past a row's events the index is 0 and the mask False, so PAD is no
    event. An event outside the model's support raises InputError.
    """
    ids, lengths = corpus.ids, corpus.lengths
    n, width = ids.shape
    eos = int(model.fixed_length is None)
    tokens = ids
    if eos:
        tokens = np.full((n, width + 1), PAD)
        tokens[:, :width] = ids
        tokens[np.arange(n), lengths] = EOS
    mask = np.arange(width + eos) < (lengths + eos)[:, None]
    targets = np.where(mask, model._sup_index.take(tokens), 0)
    if targets.min() < 0:
        raise InputError(f"token id {int(tokens[targets < 0][0])} is outside the model support")
    return targets, mask


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
    matrix, a row per context. Sampling keeps one immutable table, of the
    temperature it sampled last, so threads may share one model.
    """

    kind = "ngram"

    def __init__(self, vocab, order: int = 2, delta: float = 0.01,
                 fixed_length: int | None = None):
        if order < 1:
            raise InputError("order must be >= 1")
        if not 0 < delta < math.inf:
            raise InputError("smoothing delta must be finite and > 0")
        self.vocab = vocab
        self.order = order
        self.delta = float(delta)
        self.fixed_length = fixed_length
        self.support = support_ids(vocab, fixed_length)
        self._sup_index = _support_index(vocab, self.support)
        self._counts = np.zeros((0, len(self.support)))
        self._totals = np.zeros(0)
        self._row_of: dict[tuple[int, ...], int] = {}
        self._table: _SamplingTable | None = None

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
        mask of event positions (``_event_table``'s). Event t of a row has
        context ``(BOS,) * (order - 1) + ids`` at ``[t, t + order - 1)``.
        """
        targets, mask = _event_table(self, corpus)
        sup = targets[mask]
        ctx_len = self.order - 1
        if ctx_len == 0:
            return [()], np.zeros(len(sup), dtype=np.int64), sup, mask
        ids, lengths = corpus.ids, corpus.lengths
        padded = np.full((len(ids), ctx_len + ids.shape[1]), BOS, dtype=np.int64)
        padded[:, ctx_len:] = ids
        *_, (ranks, _) = _gram_ranks(padded, lengths + ctx_len, ctx_len)
        _, first, ctx = np.unique(ranks[:, :mask.shape[1]][mask], return_index=True,
                                  return_inverse=True)
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
            table = self._table = _SamplingTable(self, cfg.temperature)
        # a growing row's state: its table row's first segment slot
        first = table.starts[-1]
        if self.order < 3:  # which the row's last token sets
            def draw(starts, ut, t):
                picks = table.draw(starts if t else np.full(len(ut), first), ut)
                return picks, picks

            return _grow_rows(self, u, draw, lambda picks, _ids: table.next_start.take(picks),
                              split)

        def draw_in_context(state, ut, t):  # and its context
            starts, ctx = state if t else (np.full(len(ut), first),
                                           np.full((len(ut), self.order - 1), BOS))
            return table.draw(starts, ut), ctx

        def advance(ctx, ids):
            ctx = np.column_stack([ctx[:, 1:], ids])
            return table.starts_of(ctx), ctx

        return _grow_rows(self, u, draw_in_context, advance, split)


class _SamplingTable:
    """One temperature's tempered next-token law of an ``NGramLM``, made whole
    at once and only read after, so threads may share it.

    Its rows are each seen context's (in the model's row order), the uniform
    row of a context never seen, and last the first step's. Smoothing gives
    every unseen entry of a seen context's row one tempered value, the row's
    ``floors`` entry, so a row is kept as segments in support order: one per
    seen entry and one per run of unseen entries (a gap); the uniform row
    keeps every entry, the first step's keeps EOS as one. Row r's slots in
    ``ends`` are its CDF start, 0, then from ``starts[r]`` its ``spans[r]``
    segments' CDF ends; at a segment's slot ``firsts`` holds its first
    support index and ``rooms`` its width less one. The rows are made
    ``_SAMPLE_ROWS`` at a time as the per-row sampler made each
    (``cond_probs``, ``_apply_temperature``, the first step's EOS rule,
    ``cumsum``), so every kept CDF value has its bits and a row without gaps
    draws as it did. When no row has a gap, ``spans`` is the support's size
    and ``floors``, ``firsts`` and ``rooms`` are None. A step leads to the
    row at ``next_start[pick]`` below order 3, and above it to the row
    ``starts_of`` finds for the context.
    """

    def __init__(self, model: NGramLM, temperature: float):
        self.temperature = temperature
        s, seen_rows = len(model.support), len(model._counts)
        spans, ends, firsts, lasts, floors = [], [], [], [], []

        def add(probs, seen, first_step=False):  # smoothed rows, their seen entries
            law = _apply_temperature(probs, temperature)  # probs itself at T = 1
            if first_step and model.fixed_length is None:
                # drop EOS, or, when it held all the tempered mass, temper the
                # row without it (its T -> 0 limit: the argmax of the rest)
                eos = model._sup_index[EOS]
                law[:, eos] = 0.0
                if not law.any():
                    probs[:, eos] = 0.0
                    law = _apply_temperature(probs, temperature)
                law /= law.sum(axis=1, keepdims=True)
                seen[:, eos] = True
            floors.append(law[np.arange(len(law)), seen.argmin(axis=1)])
            cdf = np.cumsum(law, axis=1, out=law)
            last, first = seen.copy(), seen.copy()
            last[:, :-1] |= seen[:, 1:]
            last[:, -1] = first[:, 0] = True
            first[:, 1:] |= seen[:, :-1]
            spans.append(last.sum(axis=1))
            ends.append(cdf[last])
            firsts.append(np.nonzero(first)[1])
            lasts.append(np.nonzero(last)[1])

        for a in range(0, seen_rows, _SAMPLE_ROWS):
            counts = model._counts[a:a + _SAMPLE_ROWS]
            add((counts + model.delta) / (model._totals[a:a + _SAMPLE_ROWS, None]
                                          + model.delta * s), counts > 0)
        add(np.full((1, s), 1.0 / s), np.ones((1, s), dtype=bool))
        bos = (BOS,) * (model.order - 1)
        row = model._row_of.get(bos)
        add(model.cond_probs(bos)[None],
            np.ones((1, s), dtype=bool) if row is None else model._counts[row:row + 1] > 0,
            first_step=True)

        spans = np.concatenate(spans)
        self.starts = np.cumsum(spans + 1) - spans
        slots = np.arange(spans.sum()) + np.repeat(np.arange(len(spans)), spans) + 1
        self.ends = np.zeros(len(slots) + len(spans))
        self.ends[slots] = np.concatenate(ends)
        self.spans, self.floors, self.firsts, self.rooms = s, None, None, None
        if (spans < s).any():
            self.spans = spans
            # a floor below the smallest normal float only holds a gap whose
            # CDF entries round to its start; raised to it, no division overflows
            self.floors = np.maximum(np.concatenate(floors), np.finfo(np.float64).tiny)
            self.firsts = np.zeros(len(self.ends), dtype=np.intp)
            self.firsts[slots] = np.concatenate(firsts)
            self.rooms = np.zeros(len(self.ends), dtype=np.intp)
            self.rooms[slots] = np.concatenate(lasts) - self.firsts[slots]
        if model.order < 3:  # the context after a token is () or the token
            self.next_start = self.starts[[model._row_of.get((tok,)[2 - model.order:], seen_rows)
                                           for tok in model.support.tolist()]]
            return
        # level j keys a seen context's first j + 1 ids by its j-prefix's rank
        # and its last id, and ends with a key past every other
        contexts = np.array(list(model._row_of), dtype=np.int64).reshape(seen_rows,
                                                                         model.order - 1)
        self.base, self.levels, rank = len(model.vocab), [], np.zeros(seen_rows, dtype=np.int64)
        for column in contexts.T:
            keys, rank = np.unique(rank * self.base + column, return_inverse=True)
            self.levels.append(np.append(keys, np.iinfo(np.int64).max))
        self.level_starts = np.full(seen_rows + 1, self.starts[seen_rows])  # past: uniform
        self.level_starts[rank] = self.starts[:seen_rows]

    def draw(self, starts: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The support pick of each draw j from the row whose segments start
        at slot ``starts[j]``, by its uniform ``u[j]``. A pick in a gap is
        how many floor-wide steps from the gap's CDF start lie below u, at
        most the gap's width less one."""
        if self.floors is None:
            return _draw_from_cdf(self.ends, u, starts, self.spans) - starts
        rows = np.searchsorted(self.starts, starts)
        slots = _draw_from_cdf(self.ends, u, starts, self.spans.take(rows))
        inside = (u - self.ends.take(slots - 1)) / self.floors.take(rows)
        return self.firsts.take(slots) + np.minimum(inside, self.rooms.take(slots)).astype(np.intp)

    def starts_of(self, ctx: np.ndarray) -> np.ndarray:
        """The first segment slot of each row of context ids' table row: its
        seen context's, or the uniform row's. A prefix never seen, and so
        each of its extensions, ranks with the key past every other."""
        rank = np.zeros(len(ctx), dtype=np.int64)
        for keys, column in zip(self.levels, ctx.T):
            key = rank * self.base + column
            rank = np.searchsorted(keys, key)
            rank = np.where(keys.take(rank) == key, rank, len(keys) - 1)
        return self.level_starts.take(rank)


class MarkovModel:
    """Exact generator view of a MarkovSource (fixed length, no smoothing)."""

    kind = "markov"

    def __init__(self, source: MarkovSource):
        self.source = source
        self.vocab = source.vocab
        self.fixed_length = source.length
        self.support = support_ids(self.vocab, self.fixed_length)
        self._sup_index = _support_index(self.vocab, self.support)
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
        targets, mask = _event_table(self, corpus)
        n, width = targets.shape
        inputs = np.column_stack([np.full(n, BOS), self.support[targets[:, :-1]]])
        dh_dim = p["w_hh"].shape[0]
        hs = np.zeros((width + 1, n, dh_dim))
        probs = np.empty((width, n, len(self.support)))
        total_events = float(mask.sum())
        loss = 0.0
        for t in range(width):
            hs[t + 1], logits = self._step(inputs[:, t], hs[t])
            probs[t] = _tempered_softmax(logits, 1.0)
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
            targets, mask = _event_table(self, distinct[start: start + 256])
            n, width = targets.shape
            inputs = np.column_stack([np.full(n, BOS), self.support[targets[:, :-1]]])
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
        return float(-self.seq_logprobs(corpus).sum() / _event_table(self, corpus)[1].sum())

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
            if t == 0 and eos_sup is not None:
                logits[:, eos_sup] = -np.inf
            e = _tempered_softmax(logits, cfg.temperature)
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
    """Per-row NLL per event: -log p(x) over the row's number of events."""
    return -model.seq_logprobs(corpus) / _event_table(model, corpus)[1].sum(axis=1)


def perplexity(model, corpus: Corpus) -> float:
    """exp(mean per-token NLL), averaged per sequence then over the corpus."""
    return float(np.exp(np.mean(nll_rates(model, corpus))))
