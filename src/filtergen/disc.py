"""Binary real-vs-generated sequence classifier.

A small convolutional net over token embeddings: window sizes 2 and 3,
global max-pool, one linear output, sigmoid. Forward and backward passes
are explicit numpy in float64, so every gradient can be checked against
central finite differences. Padding positions are masked out of the pools,
which makes predictions invariant to appended padding.

A window's pre-activation is linear in its embeddings, so no window matrix
is built. With ``W_i`` the rows ``i*de:(i+1)*de`` of a bank's weight, the
table ``T_i = embed[tokens] @ W_i`` holds every token's term as a window's
i-th token, over only the ``tokens`` that occur in the batch, and a
window's pre-activation at position p is ``b + sum_i T_i[local[:, p + i]]``
(``local`` indexes ``tokens``). The relu is applied after the pool, which
gives the same value. In the backward the pool's gradient reaches only
each (row, kernel)'s first maximising window: per offset ``i``, a
``bincount`` of that gradient over the token at ``argmax + i`` gives
``G_i`` of shape ``(U, k)``, and then ``dW_i = embed[tokens].T @ G_i`` and
``dembed[tokens] = sum_i G_i @ W_i.T``.

A sequence's score depends on that sequence alone, bit for bit, whatever
else is in the batch. A matrix-matrix product's rows can round differently
with the number of rows, so every token's row of all the ``T_i`` comes from
its own vector-matrix product and each logit from its own dot product
(stacked ``@`` with one row per stack); pooling, masking and the sigmoid
are elementwise. ``predict_corpus`` relies on this: it runs the forward pass
once per distinct (ids, length) row and gathers the scores back, which is
bit-identical to scoring every row on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import PAD, Corpus, corpus_to_arrays, split_tail
from .errors import InputError, check_fields, integer, number
from .genmodel import SamplerConfig

_PROB_CLIP = 1e-12


@dataclass(frozen=True)
class DiscConfig:
    """Architecture and training knobs for the classifier."""

    embed_dim: int = 32
    kernels2: int = 16
    kernels3: int = 32
    lr: float = 1e-4
    momentum: float = 0.9
    batch_size: int = 512
    max_epochs: int = 200
    patience: int = 5
    temperature: float = 1.0  # generator temperature for fresh negatives
    seed: int = 0

    def __post_init__(self):
        check_fields(self, embed_dim=integer(1), kernels2=integer(1), kernels3=integer(1),
                     lr=number("[0, inf)"), momentum=number("[0, 1)"),
                     batch_size=integer(1), max_epochs=integer(1), patience=integer(1),
                     temperature=number("(0, inf)"), seed=integer())


@dataclass
class DiscTrainReport:
    """Per-epoch training trace and why training stopped.

    ``stop_reason`` is ``"patience"`` when validation accuracy stopped
    improving for ``patience`` epochs (converged) and ``"max_epochs"`` when
    the epoch budget ran out first.
    """

    train_loss: list
    valid_accuracy: list
    best_epoch: int
    final_valid_accuracy: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "patience"

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def running_best(self) -> list:
        best, out = -math.inf, []
        for acc in self.valid_accuracy:
            best = max(best, acc)
            out.append(best)
        return out


class TextCNN:
    """Convolutional sequence scorer mapping a sequence to (0, 1)."""

    kind = "textcnn"

    def __init__(self, vocab, cfg: DiscConfig, rng=None, embeddings=None):
        self.vocab = vocab
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed) if rng is None else rng
        self.banks = ((2, cfg.kernels2), (3, cfg.kernels3))
        self.embed_frozen = embeddings is not None
        if embeddings is not None:
            embed = np.array(embeddings, dtype=np.float64)
            if embed.shape[0] != len(vocab):
                raise InputError("copied embeddings do not match the vocabulary")
        else:
            embed = rng.standard_normal((len(vocab), cfg.embed_dim)) * 0.1
        de = embed.shape[1]
        self.params = {"embed": embed}
        for w, k in self.banks:
            self.params[f"conv{w}_w"] = rng.standard_normal((w * de, k)) * 0.1
            self.params[f"conv{w}_b"] = np.zeros(k)
        total = sum(k for _, k in self.banks)
        self.params["out_w"] = rng.standard_normal(total) * 0.1
        self.params["out_b"] = np.zeros(1)

    @property
    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def trainable(self) -> list[str]:
        names = [k for k in self.params if k != "embed" or not self.embed_frozen]
        return names

    # -- forward ----------------------------------------------------------

    def _forward(self, ids: np.ndarray, lengths: np.ndarray):
        p = self.params
        b, l = ids.shape
        # the tokens that occur, ascending, and each position's index into
        # them; sorting bounds the cost by the batch, not the vocabulary
        tokens, local = np.unique(ids, return_inverse=True)
        local = local.reshape(ids.shape)
        emb = p["embed"][tokens]  # (U, de)
        de = emb.shape[1]
        pooled, cache = [], {"tokens": tokens, "local": local, "emb": emb, "banks": {}}
        for w, k in self.banks:
            positions = l - w + 1
            if positions < 1:
                pooled.append(np.zeros((b, k)))
                cache["banks"][w] = None
                continue
            # tables[:, i] = emb @ W_i: every token's term as a window's i-th
            # token, one vector-matrix product per (token, i) so that a
            # token's row does not depend on the other tokens
            weight = p[f"conv{w}_w"].reshape(w, de, k)
            tables = (emb[:, None, None, :] @ weight)[:, :, 0]  # (U, w, k)
            pre = p[f"conv{w}_b"] + np.take(tables[:, 0], local[:, :positions], axis=0)
            for i in range(1, w):
                pre += np.take(tables[:, i], local[:, i:i + positions], axis=0)
            valid = np.arange(positions) < (lengths - w + 1)[:, None]
            pre[~valid] = -np.inf
            top = pre.max(axis=1)  # (B, k); -inf for a row with no valid window
            pooled.append(np.maximum(top, 0.0))  # relu after the pool
            cache["banks"][w] = (pre, top)
        feats = np.concatenate(pooled, axis=1)
        # one dot product per row: a matrix-vector product's rows can round
        # differently with the number of rows
        logits = (feats[:, None, :] @ p["out_w"])[:, 0] + p["out_b"][0]
        cache["feats"] = feats
        return logits, cache

    def _backward(self, cache, dlogits: np.ndarray) -> dict:
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        feats = cache["feats"]
        grads["out_w"] += feats.T @ dlogits
        grads["out_b"][0] += dlogits.sum()
        dfeats = dlogits[:, None] * p["out_w"][None, :]
        local, emb = cache["local"], cache["emb"]
        (b, l), (u, de) = local.shape, emb.shape
        demb = np.zeros_like(emb)
        offset = 0
        for w, k in self.banks:
            dpool = dfeats[:, offset: offset + k]
            offset += k
            bank = cache["banks"][w]
            if bank is None:
                continue
            pre, top = bank
            # the pool passes its gradient to one window per (row, kernel),
            # and the relu after it only where the pooled value is positive
            dpre = np.where(top > 0.0, dpool, 0.0)  # (B, k)
            grads[f"conv{w}_b"] += dpre.sum(axis=0)
            # the first maximising window; a pass per position costs less
            # than argmax over the short middle axis, which works row by row
            arg = np.zeros((b, k), dtype=np.intp)
            for q in range(pre.shape[1] - 1, 0, -1):
                arg[pre[:, q] == top] = q
            first = arg + np.arange(0, b * l, l)[:, None]  # flat index into local
            local_k = local.ravel() * k
            weight = p[f"conv{w}_w"]
            for i in range(w):
                # G_i[t, j]: dpre summed over the argmax windows whose i-th token is t
                slot = np.take(local_k[i:], first) + np.arange(k)
                g = np.bincount(slot.ravel(), weights=dpre.ravel(),
                                minlength=u * k).reshape(u, k)
                rows = slice(i * de, (i + 1) * de)
                grads[f"conv{w}_w"][rows] = emb.T @ g
                demb += g @ weight[rows].T
        if not self.embed_frozen:
            grads["embed"][cache["tokens"]] = demb
        return grads

    def loss_and_grads(self, seqs, labels) -> tuple[float, dict]:
        """Mean binary cross-entropy of a batch plus parameter gradients."""
        ids, lengths = corpus_to_arrays(seqs, PAD)
        labels = np.asarray(labels, dtype=np.float64)
        logits, cache = self._forward(ids, lengths)
        # stable BCE-with-logits: softplus(logit) - y * logit
        loss = float(np.mean(np.logaddexp(0.0, logits) - labels * logits))
        dlogits = (_sigmoid(logits) - labels) / len(labels)
        return loss, self._backward(cache, dlogits)

    # -- inference --------------------------------------------------------

    def predict(self, seq) -> float:
        return float(self.predict_corpus([seq])[0])

    def predict_corpus(self, corpus, chunk: int = 1024) -> np.ndarray:
        """Scores in (0, 1), one per row, each as if the row were scored alone.

        Only the distinct (ids, length) rows go through the forward pass;
        a score depends on its row alone, so gathering them back is
        bit-identical to scoring every row.
        """
        ids, lengths = corpus_to_arrays(corpus, PAD)
        distinct, inverse = _distinct_rows(ids, lengths)
        ids, lengths = ids[distinct], lengths[distinct]  # sorted by length first
        # 1024-row chunks keep a bank's (rows, positions, kernels) block in
        # cache on short sequences; 8192 rows ran at half the speed
        out = np.empty(len(lengths))
        for start in range(0, len(lengths), chunk):
            rows = slice(start, start + chunk)
            # as wide as the chunk's longest row, as if packed on its own
            width = int(lengths[rows].max())
            logits, _ = self._forward(ids[rows, :width], lengths[rows])
            out[rows] = _sigmoid(logits)
        return np.clip(out, _PROB_CLIP, 1.0 - _PROB_CLIP)[inverse]


def _distinct_rows(ids: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of one row per distinct (ids, length), and each row's group.

    ``ids[distinct][inverse]`` rebuilds ``ids``. One lexsort over the id
    columns and the lengths, then a comparison of neighbours; no packing of
    a row into one integer, so no width or vocabulary size can overflow.
    """
    n = len(lengths)
    order = np.lexsort(np.vstack([ids.T, lengths[None, :]]))
    sorted_ids, sorted_len = ids[order], lengths[order]
    first = np.ones(n, dtype=bool)
    first[1:] = ((sorted_ids[1:] != sorted_ids[:-1]).any(axis=1)
                 | (sorted_len[1:] != sorted_len[:-1]))
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


def train_discriminator(real: Corpus, gen_model, cfg: DiscConfig | None = None,
                        rng=None) -> tuple[TextCNN, DiscTrainReport]:
    """Train against freshly generated negatives until convergence.

    Classes stay exactly balanced: every epoch draws as many generator
    samples as there are real training sequences. The last 10% of the real
    data is held out for the validation accuracy that drives early
    stopping. Embeddings are copied from the generator and frozen when the
    generator has an embedding table.
    """
    cfg = cfg or DiscConfig()
    if real.vocab != gen_model.vocab:
        raise InputError("real corpus and generator use different vocabularies")
    if len(real) < 2:
        raise InputError("need at least two real sequences")
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    real_tr, real_val = split_tail(real, max(1, len(real) // 10))
    sampler = SamplerConfig(temperature=cfg.temperature, seed=cfg.seed)
    embeddings = _generator_embeddings(gen_model)
    disc = TextCNN(real.vocab, cfg, rng, embeddings=embeddings)
    fake_val = gen_model.sample_corpus(len(real_val), sampler, rng)

    def negatives(_epoch):
        return real_tr, gen_model.sample_corpus(len(real_tr), sampler, rng)

    report = _fit(disc, negatives, real_val, fake_val, cfg, rng)
    return disc, report


def train_discriminator_corpora(real: Corpus, fake: Corpus,
                                cfg: DiscConfig | None = None,
                                rng=None) -> tuple[TextCNN, DiscTrainReport]:
    """Train on two fixed corpora, balanced by per-epoch subsampling."""
    cfg = cfg or DiscConfig()
    if real.vocab != fake.vocab:
        raise InputError("corpora use different vocabularies")
    if len(real) < 2 or len(fake) < 2:
        raise InputError("need at least two sequences per class")
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    real_tr, real_val = split_tail(real, max(1, len(real) // 10))
    fake_tr, fake_val = split_tail(fake, max(1, len(fake) // 10))
    m = min(len(real_tr), len(fake_tr))
    disc = TextCNN(real.vocab, cfg, rng)

    def negatives(_epoch):
        ri = rng.permutation(len(real_tr))[:m]
        fi = rng.permutation(len(fake_tr))[:m]
        return real_tr[ri], fake_tr[fi]

    report = _fit(disc, negatives, real_val, fake_val, cfg, rng)
    return disc, report


def _generator_embeddings(gen_model):
    params = getattr(gen_model, "params", None)
    if isinstance(params, dict) and "embed" in params:
        return params["embed"].copy()
    return None


def _fit(disc: TextCNN, pair_provider, real_val, fake_val, cfg: DiscConfig,
         rng) -> DiscTrainReport:
    velocity = {k: np.zeros_like(v) for k, v in disc.params.items()}
    trainable = disc.trainable()
    best_params = {k: v.copy() for k, v in disc.params.items()}
    best_acc, best_epoch, stale = -1.0, -1, 0
    losses, accs = [], []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        pos, neg = pair_provider(epoch)
        assert len(pos) == len(neg)  # balanced classes by construction
        seqs = Corpus.concat([pos, neg])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        order = rng.permutation(len(seqs))
        total_loss, seen = 0.0, 0
        for start in range(0, len(seqs), cfg.batch_size):
            take = order[start: start + cfg.batch_size]
            loss, grads = disc.loss_and_grads(seqs[take], labels[take])
            for name in trainable:
                velocity[name] = cfg.momentum * velocity[name] - cfg.lr * grads[name]
                disc.params[name] += velocity[name]
            total_loss += loss * len(take)
            seen += len(take)
        losses.append(total_loss / seen)
        accs.append(_accuracy(disc, real_val, fake_val))
        if accs[-1] >= best_acc:
            # ties keep the most-trained snapshot but still count as stale,
            # so a flat accuracy plateau cannot postpone convergence forever
            if accs[-1] > best_acc + 1e-12:
                stale = 0
            else:
                stale += 1
            best_acc, best_epoch = accs[-1], epoch
            best_params = {k: v.copy() for k, v in disc.params.items()}
        else:
            stale += 1
        if stale >= cfg.patience:
            stop_reason = "patience"
            break
    disc.params = best_params
    return DiscTrainReport(losses, accs, best_epoch, best_acc, stop_reason)


def _accuracy(disc: TextCNN, real_val, fake_val) -> float:
    p_real = disc.predict_corpus(real_val)
    p_fake = disc.predict_corpus(fake_val)
    correct = int((p_real >= 0.5).sum()) + int((p_fake < 0.5).sum())
    return correct / (len(p_real) + len(p_fake))


def error_rate(disc, real_test: Corpus, gen_samples: Corpus) -> float:
    """Misclassification rate at threshold 0.5 over a balanced union."""
    if len(real_test) == 0 or len(gen_samples) == 0:
        raise InputError("both corpora must be non-empty")
    m = min(len(real_test), len(gen_samples))
    p_real = disc.predict_corpus(real_test[:m])
    p_fake = disc.predict_corpus(gen_samples[:m])
    wrong = int((p_real < 0.5).sum()) + int((p_fake >= 0.5).sum())
    return wrong / (2 * m)
