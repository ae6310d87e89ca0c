"""Autoregressive sequence generators with exact log-probabilities.

Three interchangeable model kinds:

* ``NGramLM`` -- additively smoothed n-gram counts (the default generator;
  exact, fast, deterministic).
* ``NeuralLM`` -- a tiny recurrent LM trained by gradient descent with
  manually derived backpropagation, for exercising gradient-based training.
* ``MarkovModel`` -- an exact wrapper around a ``MarkovSource``, used as
  analytic ground truth.

All models share one contract: ``seq_logprob`` / ``seq_logprobs`` (one
sequence, or every row of a corpus), ``sample_corpus`` / ``sample``
(temperature-controlled ancestral sampling), a ``vocab``, and a
``fixed_length`` attribute (``None`` means variable length with an EOS
event). In fixed-length mode the per-step distribution is supported on the
content tokens only, so the model is a proper distribution over the
enumerable domain V^L; in variable-length mode EOS and UNK join the
support.

The n-gram model works on the corpus id matrix: every context gets a dense
integer key (``data._gram_ranks``), so fitting is one ``bincount`` and
scoring gathers each distinct context's log-probabilities once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (BOS, DEFAULT_MAX_LEN, EOS, NUM_RESERVED, UNK, Corpus, MarkovSource,
                   Sequence, _gram_ranks, corpus_to_arrays, split_tail)
from .errors import InputError, check_fields, integer, number


@dataclass(frozen=True)
class SamplerConfig:
    """Ancestral-sampling knobs: softmax temperature, length cap, seed."""

    temperature: float = 1.0
    max_len: int = DEFAULT_MAX_LEN
    seed: int = 0

    def __post_init__(self):
        if not self.temperature > 0:
            raise InputError("temperature must be > 0")
        if self.max_len < 1:
            raise InputError("max_len must be >= 1")


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


def _resolve_rng(rng, cfg: SamplerConfig):
    return np.random.default_rng(cfg.seed) if rng is None else rng


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


def _draw_from_rows(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    hits = (cum_rows < u[:, None]).sum(axis=1)
    return np.minimum(hits, cum_rows.shape[1] - 1)


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
    support, so sequence log-probabilities are always finite.
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
        self._counts: dict[tuple[int, ...], np.ndarray] = {}
        self._row_cache: dict[tuple[int, ...], np.ndarray] = {}

    # -- training ---------------------------------------------------------

    def fit(self, corpus: Corpus) -> "NGramLM":
        if corpus.vocab != self.vocab:
            raise InputError("corpus vocabulary does not match the model")
        contexts, ctx, sup, _ = self._events(corpus)
        s = len(self.support)
        counts = np.bincount(ctx * s + sup, minlength=len(contexts) * s)
        for context, row in zip(contexts, counts.reshape(-1, s).astype(np.float64)):
            seen = self._counts.get(context)
            if seen is None:
                self._counts[context] = row
            else:
                seen += row
        self._row_cache.clear()
        return self

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

    def cond_probs(self, context: tuple[int, ...]) -> np.ndarray:
        """Smoothed next-token distribution over ``self.support``."""
        row = self._row_cache.get(context)
        if row is None:
            counts = self._counts.get(context)
            s = len(self.support)
            if counts is None:
                row = np.full(s, 1.0 / s)
            else:
                row = (counts + self.delta) / (counts.sum() + self.delta * s)
            row.setflags(write=False)
            self._row_cache[context] = row
        return row

    def seq_logprob(self, seq: Sequence) -> float:
        """Log-probability of one sequence, event by event."""
        ctx_len = self.order - 1
        padded = (BOS,) * ctx_len + seq.ids
        events = seq.ids + ((EOS,) if self.fixed_length is None else ())
        total = 0.0
        for t, tok in enumerate(events):
            idx = self._sup_index[tok]
            if idx < 0:
                raise InputError(f"token id {tok} is outside the model support")
            total += math.log(self.cond_probs(padded[t: t + ctx_len])[idx])
        return total

    def seq_logprobs(self, corpus: Corpus) -> np.ndarray:
        """``seq_logprob`` of every row: each distinct context's row is looked
        up once, only the events' entries are gathered from it and logged,
        and each row's terms are summed left to right."""
        contexts, ctx, sup, mask = self._events(corpus)
        by_ctx = np.argsort(ctx, kind="stable")
        bounds = np.searchsorted(ctx[by_ctx], np.arange(len(contexts) + 1))
        probs = np.empty(len(ctx))
        for u, context in enumerate(contexts):
            events = by_ctx[bounds[u]: bounds[u + 1]]
            probs[events] = self.cond_probs(context)[sup[events]]
        terms = np.zeros(mask.shape)
        terms[mask] = libm_map(math.log, probs)
        total = np.zeros(len(terms))
        for column in terms.T:
            total += column
        return total

    # -- sampling ---------------------------------------------------------

    def sample_corpus(self, n: int, cfg: SamplerConfig, rng=None,
                      split: str = "") -> Corpus:
        """Ancestral sampling; the first step never emits EOS, so sequences
        are always non-empty."""
        rng = _resolve_rng(rng, cfg)
        length_cap = (min(self.fixed_length, cfg.max_len)
                      if self.fixed_length is not None else cfg.max_len)
        ctx_len = self.order - 1
        contexts = np.full((n, max(ctx_len, 1)), BOS, dtype=np.int64)
        tokens = np.full((n, length_cap), -1, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        eos_sup = int(self._sup_index[EOS]) if self.fixed_length is None else -1
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
            # one row holding each key, to read the context tuple from
            holder = np.empty(n_keys, dtype=np.int64)
            holder[inverse] = np.arange(len(keys))
            rows = np.empty((n_keys, len(self.support)))
            for i, row_key in enumerate(keys[holder].tolist()):
                rows[i] = _apply_temperature(self.cond_probs(tuple(row_key)),
                                             cfg.temperature)
            if t == 0 and eos_sup >= 0:
                rows[:, eos_sup] = 0.0
                rows /= rows.sum(axis=1, keepdims=True)
            cum = np.cumsum(rows, axis=1)
            picks = _draw_from_rows(cum[inverse], u[active])
            if self.fixed_length is None:
                ended = picks == eos_sup
            else:
                ended = np.zeros(len(picks), dtype=bool)
            emitted = self.support[picks]
            idx = np.flatnonzero(active)
            keep = ~ended
            tokens[idx[keep], t] = emitted[keep]
            if ctx_len:
                new_ctx = np.concatenate(
                    [contexts[idx[keep], 1:ctx_len], emitted[keep, None]], axis=1)
                contexts[idx[keep], :ctx_len] = new_ctx
            active[idx[ended]] = False
        return _token_corpus(self.vocab, tokens, split)

    def sample(self, cfg: SamplerConfig, rng=None) -> Sequence:
        return self.sample_corpus(1, cfg, rng).sequences[0]


class MarkovModel:
    """Exact generator view of a MarkovSource (fixed length, no smoothing)."""

    kind = "markov"

    def __init__(self, source: MarkovSource):
        self.source = source
        self.vocab = source.vocab
        self.fixed_length = source.length
        self.support = support_ids(self.vocab, self.fixed_length)

    def seq_logprob(self, seq: Sequence) -> float:
        from .data import exact_prob

        p = exact_prob(self.source, seq)
        return math.log(p) if p > 0 else -math.inf

    def seq_logprobs(self, corpus: Corpus) -> np.ndarray:
        return np.array([self.seq_logprob(seq) for seq in corpus], dtype=np.float64)

    def sample_corpus(self, n: int, cfg: SamplerConfig, rng=None,
                      split: str = "") -> Corpus:
        from .data import _sample_chain

        rng = _resolve_rng(rng, cfg)
        length = min(self.fixed_length, cfg.max_len)
        if cfg.temperature == 1.0:
            states = _sample_chain(self.source, n, length, rng)
        else:
            src = MarkovSource(
                self.source.tokens,
                _apply_temperature(self.source.initial, cfg.temperature),
                np.apply_along_axis(
                    _apply_temperature, 1, self.source.transition, cfg.temperature),
                length,
            )
            states = _sample_chain(src, n, length, rng)
        return Corpus.from_arrays(self.vocab, states + NUM_RESERVED, np.full(n, length),
                                  split)

    def sample(self, cfg: SamplerConfig, rng=None) -> Sequence:
        return self.sample_corpus(1, cfg, rng).sequences[0]


def _token_corpus(vocab, tokens: np.ndarray, split: str) -> Corpus:
    # sampled rows are filled left to right, -1 past the end
    return Corpus.from_arrays(vocab, tokens, (tokens >= 0).sum(axis=1), split)


# ---------------------------------------------------------------------------
# Tiny recurrent LM with hand-written backpropagation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NGramConfig:
    order: int = 2
    delta: float = 0.01
    fixed_length: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self, order=integer(1), delta=number("(0, inf)"),
                     fixed_length=integer(1, optional=True), seed=integer())


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
                     fixed_length=integer(1, optional=True), seed=integer())


@dataclass
class TrainReport:
    """Per-epoch negative log-likelihoods observed during gradient training."""

    train_nll: list
    valid_nll: list
    best_epoch: int
    stopped_early: bool


class NeuralLM:
    """One-layer Elman RNN over token embeddings, trained by MLE.

    Forward/backward passes are explicit numpy; float64 throughout so the
    analytic gradients can be checked against central finite differences.
    """

    kind = "neural"

    def __init__(self, vocab, cfg: NeuralConfig, rng=None):
        self.vocab = vocab
        self.cfg = cfg
        self.fixed_length = cfg.fixed_length
        self.support = support_ids(vocab, cfg.fixed_length)
        self._sup_index = _support_index(vocab, self.support)
        rng = np.random.default_rng(cfg.seed) if rng is None else rng
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

    @property
    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    # -- batching ---------------------------------------------------------

    def _targets(self, seqs) -> tuple[np.ndarray, np.ndarray]:
        """Target-event matrix (support indices) and per-sequence event counts."""
        ids, lengths = corpus_to_arrays(seqs)
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

    def nll_and_grads(self, seqs) -> tuple[float, dict]:
        """Mean per-event NLL of a batch plus gradients for every parameter."""
        p = self.params
        targets, events = self._targets(seqs)
        inputs, mask = self._step_stack(targets, events)
        n, width = targets.shape
        dh_dim = p["w_hh"].shape[0]
        hs = np.zeros((width + 1, n, dh_dim))
        xs = np.empty((width, n, p["embed"].shape[1]))
        probs = np.empty((width, n, len(self.support)))
        total_events = float(mask.sum())
        loss = 0.0
        for t in range(width):
            x = p["embed"][inputs[:, t]]
            h = np.tanh(x @ p["w_xh"] + hs[t] @ p["w_hh"] + p["b_h"])
            logits = h @ p["w_hy"] + p["b_y"]
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            prob = e / e.sum(axis=1, keepdims=True)
            xs[t], hs[t + 1], probs[t] = x, h, prob
            picked = prob[np.arange(n), targets[:, t]]
            loss -= float((np.log(picked) * mask[:, t]).sum())
        loss /= total_events

        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dh_next = np.zeros((n, dh_dim))
        for t in range(width - 1, -1, -1):
            dlogits = probs[t].copy()
            dlogits[np.arange(n), targets[:, t]] -= 1.0
            dlogits *= mask[:, t, None] / total_events
            grads["w_hy"] += hs[t + 1].T @ dlogits
            grads["b_y"] += dlogits.sum(axis=0)
            dh = dlogits @ p["w_hy"].T + dh_next
            dz = dh * (1.0 - hs[t + 1] ** 2)
            grads["b_h"] += dz.sum(axis=0)
            grads["w_xh"] += xs[t].T @ dz
            grads["w_hh"] += hs[t].T @ dz
            np.add.at(grads["embed"], inputs[:, t], dz @ p["w_xh"].T)
            dh_next = dz @ p["w_hh"].T
        return loss, grads

    def seq_logprobs(self, corpus) -> np.ndarray:
        """Log probability of every row, 256 rows per forward pass."""
        p = self.params
        out = []
        for start in range(0, len(corpus), 256):
            targets, events = self._targets(corpus[start: start + 256])
            inputs, mask = self._step_stack(targets, events)
            n, width = targets.shape
            h = np.zeros((n, p["w_hh"].shape[0]))
            logp = np.zeros(n)
            for t in range(width):
                x = p["embed"][inputs[:, t]]
                h = np.tanh(x @ p["w_xh"] + h @ p["w_hh"] + p["b_h"])
                logits = h @ p["w_hy"] + p["b_y"]
                logits -= logits.max(axis=1, keepdims=True)
                logz = np.log(np.exp(logits).sum(axis=1))
                picked = logits[np.arange(n), targets[:, t]] - logz
                logp += np.where(mask[:, t], picked, 0.0)
            out.append(logp)
        return np.concatenate(out) if out else np.zeros(0)

    def seq_logprob(self, seq: Sequence) -> float:
        return float(self.seq_logprobs([seq])[0])

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
        train_nll, valid_nll = [], []
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
            train_nll.append(self.mean_nll(train))
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
        self.train_report = TrainReport(train_nll, valid_nll, best_epoch, stopped_early)
        return self

    # -- sampling ---------------------------------------------------------

    def sample_corpus(self, n: int, cfg: SamplerConfig, rng=None,
                      split: str = "") -> Corpus:
        """Ancestral sampling; the first step never emits EOS."""
        rng = _resolve_rng(rng, cfg)
        p = self.params
        length_cap = (min(self.fixed_length, cfg.max_len)
                      if self.fixed_length is not None else cfg.max_len)
        h = np.zeros((n, p["w_hh"].shape[0]))
        current = np.full(n, BOS, dtype=np.int64)
        tokens = np.full((n, length_cap), -1, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        eos_sup = int(self._sup_index[EOS]) if self.fixed_length is None else -1
        for t in range(length_cap):
            u = rng.random(n)
            if not active.any():
                continue
            x = p["embed"][current]
            h = np.tanh(x @ p["w_xh"] + h @ p["w_hh"] + p["b_h"])
            logits = (h @ p["w_hy"] + p["b_y"]) / cfg.temperature
            if t == 0 and eos_sup >= 0:
                logits[:, eos_sup] = -np.inf
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            rows = e / e.sum(axis=1, keepdims=True)
            picks = _draw_from_rows(np.cumsum(rows, axis=1), u)
            emitted = self.support[picks]
            ended = (picks == eos_sup) & active
            live = active & ~ended
            tokens[live, t] = emitted[live]
            current = np.where(live, emitted, current)
            active = live
        return _token_corpus(self.vocab, tokens, split)

    def sample(self, cfg: SamplerConfig, rng=None) -> Sequence:
        return self.sample_corpus(1, cfg, rng).sequences[0]


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
