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
gives the same value. A bank's pre-activations are one position-major
``(P, B, k)`` block, gathered with ``np.take`` on ``local.T``: the pool is
a max over the leading axis, one contiguous ``(B, k)`` slab per position,
and padding is masked only when some row is shorter than the batch.

In the backward the pool's gradient reaches only each (row, kernel)'s
first maximising window. Its position is the number of leading positions
whose value is not the maximum: a ``behind`` flag that stays true until
the first maximum is and-ed with ``pre[q] != top`` and added up, position
by position. Per offset ``i``, a ``bincount`` of that gradient over the
token at ``argmax + i`` gives ``G_i`` of shape ``(U, k)``, and then
``dW_i = embed[tokens].T @ G_i`` and ``dembed[tokens] = sum_i G_i @ W_i.T``
(skipped for frozen embeddings, whose gradient is zero).

A sequence's score depends on that sequence alone, bit for bit, whatever
else is in the batch. A matrix-matrix product's rows can round differently
with the number of rows, so every token's row of all the ``T_i`` comes from
its own vector-matrix product and each logit from its own dot product
(stacked ``@`` with one row per stack); pooling, masking and the sigmoid
are elementwise. ``predict_corpus`` relies on this: it runs the forward pass
once per distinct (ids, length) row and gathers the scores back, which is
bit-identical to scoring every row on its own. ``data._distinct_rows``
finds those rows, the helper the n-gram LM and the metrics use too; it
lists them by length first, in ascending order of a packed integer key.

Training runs the whole step once per distinct row of the batch. Rows that
repeat have the same logit, so their gradients differ only through
``dlogits``, and the backward is linear in it: ``loss_and_grads`` adds up
each distinct row's ``dlogits`` in batch order (one ``bincount``), and
``_backward`` runs on the distinct rows with those sums. The loss is
bit-identical to the full-batch step's and the gradients equal its up to
rounding; their bits depend on which rows repeat and on the batch's order.

No sum in the step depends on the BLAS thread count. ``dW_i`` is the one
product that reduces over many terms, the batch's distinct tokens, and
OpenBLAS splits such a product between threads in a way that rounds
differently at one and two threads. ``_token_sum`` computes it in blocks
of tokens, each block one product too small for OpenBLAS to thread, and
adds the blocks in token order. The other two products gave the same bits
at one and two threads at V = 2,000 and 10,000: ``feats.T @ dlogits`` is a
matrix-vector product, whose outputs OpenBLAS divides between threads,
and ``G_i @ W_i.T`` reduces over a bank's k kernels only. ``_fit`` keeps
the trainable parameters as views of one flat buffer while it trains, so
that a momentum step is three elementwise operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Corpus, _distinct_rows, corpus_to_arrays, split_tail
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
                     temperature=number("(0, inf)"), seed=integer(0))


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

    def trainable(self) -> list[str]:
        names = [k for k in self.params if k != "embed" or not self.embed_frozen]
        return names

    # -- forward ----------------------------------------------------------

    def _forward(self, ids: np.ndarray, lengths: np.ndarray):
        p = self.params
        b, l = ids.shape
        # the tokens that occur, ascending, and each position's index into
        # them: the same as np.unique(ids, return_inverse=True), by a mark
        # per vocabulary entry instead of a sort
        present = np.zeros(len(p["embed"]), dtype=bool)
        present[ids] = True
        tokens = np.flatnonzero(present)
        index = np.empty(len(present), dtype=np.intp)
        index[tokens] = np.arange(len(tokens))
        local = index[ids]  # (B, L)
        by_position = np.ascontiguousarray(local.T)  # (L, B)
        ragged = (lengths < l).any()  # else no window reaches padding
        emb = p["embed"][tokens]  # (U, de)
        de = emb.shape[1]
        pooled, cache = [], {"tokens": tokens, "local": local, "emb": emb, "banks": {}}
        for w, k in self.banks:
            positions = l - w + 1
            if positions < 1:
                pooled.append(np.zeros((b, k)))
                cache["banks"][w] = None
                continue
            # tables[i] = emb @ W_i: every token's term as a window's i-th
            # token, one vector-matrix product per (i, token) so that a
            # token's row does not depend on the other tokens
            weight = p[f"conv{w}_w"].reshape(w, 1, de, k)
            tables = (emb[:, None, :] @ weight)[:, :, 0]  # (w, U, k), each T_i contiguous
            # position-major (P, B, k), so the pool and the backward's scans
            # read one contiguous (B, k) slab per window position
            pre = np.take(tables[0], by_position[:positions], axis=0)
            pre += p[f"conv{w}_b"]
            for i in range(1, w):
                pre += np.take(tables[i], by_position[i:i + positions], axis=0)
            if ragged:
                pre[np.arange(positions)[:, None] > lengths - w] = -np.inf
            top = pre.max(axis=0)  # (B, k); -inf for a row with no valid window
            pooled.append(np.maximum(top, 0.0))  # relu after the pool
            cache["banks"][w] = (pre, top)
        feats = np.concatenate(pooled, axis=1)
        # one dot product per row: a matrix-vector product's rows can round
        # differently with the number of rows
        logits = (feats[:, None, :] @ p["out_w"])[:, 0] + p["out_b"][0]
        cache["feats"] = feats
        return logits, cache

    def _backward(self, cache, dlogits: np.ndarray) -> dict:
        """Parameter gradients of the rows ``_forward`` ran on.

        ``cache`` is ``_forward``'s and ``dlogits`` holds one entry per row
        of it: in training, each distinct row's ``dlogits`` summed over the
        batch rows it stands for.
        """
        p = self.params
        feats = cache["feats"]  # (D, K)
        grads = {"out_w": feats.T @ dlogits, "out_b": np.array([dlogits.sum()])}
        # the pool passes its gradient to one window per (row, kernel), and
        # the relu after it only where the pooled value is positive
        dpres = np.where(feats > 0.0, dlogits[:, None] * p["out_w"], 0.0)  # (D, K)
        local, emb = cache["local"], cache["emb"]
        (d, l), (u, de) = local.shape, emb.shape
        demb = np.zeros_like(emb)
        offset = 0
        for w, k in self.banks:
            dpre = dpres[:, offset: offset + k]
            offset += k
            bank = cache["banks"][w]
            weight = p[f"conv{w}_w"]
            if bank is None:
                grads[f"conv{w}_w"], grads[f"conv{w}_b"] = np.zeros_like(weight), np.zeros(k)
                continue
            pre, top = bank
            grads[f"conv{w}_b"] = dpre.sum(axis=0)
            # each row's first maximising window, as a flat index into
            # local: the row's offset plus the number of leading positions
            # that are not the maximum (at most the last position)
            first = np.arange(0, d * l, l).repeat(k).reshape(d, k)
            behind = np.ones((d, k), dtype=bool)
            for q in range(len(pre) - 1):
                behind &= pre[q] != top
                first += behind
            # slots[i, r, j] = t * k + j, t the i-th token of row r's window
            # for kernel j
            slots = (local.ravel() * k).take(first + np.arange(w)[:, None, None])
            slots += np.arange(k)
            weights = dpre.ravel()
            dweight = np.empty_like(weight)
            for i in range(w):
                # G_i[t, j]: dpre summed over the argmax windows whose i-th
                # token is t, one row after another
                g = np.bincount(slots[i].ravel(), weights=weights,
                                minlength=u * k).reshape(u, k)
                rows = slice(i * de, (i + 1) * de)
                dweight[rows] = _token_sum(emb, g)
                if not self.embed_frozen:
                    demb += g @ weight[rows].T
            grads[f"conv{w}_w"] = dweight
        grads["embed"] = np.zeros_like(p["embed"])  # stays zero when frozen
        if not self.embed_frozen:
            grads["embed"][cache["tokens"]] = demb
        return grads

    def loss_and_grads(self, seqs, labels) -> tuple[float, dict]:
        """Mean binary cross-entropy of a batch plus parameter gradients.

        ``labels`` holds one number in [0, 1] per row. The forward pass and
        the backward run once per distinct (ids, length) row: a row's logit
        depends on that row alone, so its softplus and sigmoid are gathered
        back to the batch unchanged, and the backward takes each distinct
        row's ``dlogits`` summed in batch order. The gradients are the whole
        batch's up to rounding.
        """
        ids, lengths = corpus_to_arrays(seqs)
        labels = np.asarray(labels, dtype=np.float64)
        # NaN fails both comparisons, and so is rejected with the rest
        if labels.shape != lengths.shape or not ((labels >= 0.0) & (labels <= 1.0)).all():
            raise InputError(f"labels must hold one number in [0, 1] per row: "
                             f"{len(lengths)} rows, labels of shape {labels.shape}")
        distinct, inverse = _distinct_rows(ids, lengths)
        logits, cache = self._forward(ids[distinct], lengths[distinct])
        # stable BCE-with-logits: softplus(logit) - y * logit
        loss = float(np.mean(np.logaddexp(0.0, logits)[inverse] - labels * logits[inverse]))
        dlogits = (_sigmoid(logits)[inverse] - labels) / len(labels)
        summed = np.bincount(inverse, weights=dlogits, minlength=len(distinct))
        return loss, self._backward(cache, summed)

    # -- inference --------------------------------------------------------

    def predict_corpus(self, corpus, chunk: int = 1024) -> np.ndarray:
        """Scores in (0, 1), one per row, each as if the row were scored alone.

        Only the distinct (ids, length) rows go through the forward pass,
        found by marking or sorting one packed int64 key per row
        (``_distinct_rows``); a score depends on its row alone, so gathering
        them back is bit-identical to scoring every row.
        """
        ids, lengths = corpus_to_arrays(corpus)
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


# As many tokens per block as keep a block's product at 2**16 multiply-adds:
# OpenBLAS runs a gemm of m * n * k <= 65536 * GEMM_MULTITHREAD_THRESHOLD
# (a build constant, at least 1) on the calling thread alone.
_BLOCK_MULADDS = 2**16


def _token_sum(emb: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``emb.T @ g`` over the tokens, in a fixed order whatever the threads.

    The tokens go in blocks of ``_BLOCK_MULADDS // (de * k)`` (at least one),
    each block one product that BLAS does not split between threads, and
    the blocks' products are added in token order. A one-token block is an
    outer product, which sums nothing.
    """
    block = max(1, _BLOCK_MULADDS // (emb.shape[1] * g.shape[1]))
    out = emb[:block].T @ g[:block]
    for start in range(block, len(emb), block):
        out += emb[start:start + block].T @ g[start:start + block]
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only: 1 / (1 + e^-x) for x >= 0 and
    # e^x / (1 + e^x) below
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


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
    trainable = disc.trainable()
    # the trainable parameters become views of one flat buffer, so a
    # momentum step is three elementwise operations on all of them at once
    flat = np.concatenate([disc.params[k].ravel() for k in trainable])
    at = 0
    for k in trainable:
        size, shape = disc.params[k].size, disc.params[k].shape
        disc.params[k] = flat[at: at + size].reshape(shape)
        at += size
    velocity = np.zeros_like(flat)
    best_params = {k: v.copy() for k, v in disc.params.items()}
    best_acc, best_epoch, stale = -1.0, -1, 0
    losses, accs = [], []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        pos, neg = pair_provider(epoch)
        assert len(pos) == len(neg)  # balanced classes by construction
        seqs = Corpus.concat([pos, neg])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        # shuffled once per epoch, so that each batch is a slice
        order = rng.permutation(len(seqs))
        seqs, labels = seqs[order], labels[order]
        total_loss, seen = 0.0, 0
        for start in range(0, len(seqs), cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            batch_labels = labels[batch]
            loss, grads = disc.loss_and_grads(seqs[batch], batch_labels)
            velocity *= cfg.momentum
            velocity -= cfg.lr * np.concatenate([grads[k].ravel() for k in trainable])
            flat += velocity
            total_loss += loss * len(batch_labels)
            seen += len(batch_labels)
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
    disc.params = best_params  # copies, so no parameter is a view of flat
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
