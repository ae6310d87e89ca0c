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
(``local`` indexes ``tokens``); the bias is added to ``T_0``'s rows, once
per token rather than once per window. The relu is applied after the pool,
which gives the same value. A bank's pre-activations are one
position-major ``(P, B, k)`` block, gathered with ``take`` on ``local.T``:
the pool is a max over the leading axis, one contiguous ``(B, k)`` slab
per position, and padding is masked only when some row is shorter than the
batch. Both banks' relu'd pools are written into one ``(B, K)`` array.

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
bit-identical to scoring every row on its own. ``data.row_groups`` finds
those rows (``data._distinct_rows``, which the n-gram LM and the metrics
use too, lists them by length first, in ascending order of a packed
integer key) and the corpus keeps them, so a validation split scored after
every epoch is grouped once.

Training runs the whole step once per distinct row of the batch. Rows that
repeat have the same logit, so their gradients differ only through
``dlogits``, and the backward is linear in it: ``loss_and_grads`` adds up
each distinct row's ``dlogits`` in batch order (one ``bincount``), and
``_backward`` runs on the distinct rows with those sums. The loss is
bit-identical to the full-batch step's and the gradients equal its up to
rounding; their bits depend on which rows repeat and on the batch's order.
``_fit`` groups each shuffled epoch's rows once, and each batch, a slice of
them, takes its groups from the epoch's ranks (``data._slice_with_groups``):
the same groups, in the same order, as grouping the batch on its own, with
no key packed per batch.

No sum in the step depends on the BLAS thread count. ``dW_i`` is the one
product that reduces over many terms, the batch's distinct tokens, and
OpenBLAS splits such a product between threads in a way that rounds
differently at one and two threads. ``_token_sum`` computes it in blocks
of tokens, each block one product too small for OpenBLAS to thread, and
adds the blocks in token order. The other two products gave the same bits
at one and two threads at V = 2,000 and 10,000: ``feats.T @ dlogits`` is a
matrix-vector product, whose outputs OpenBLAS divides between threads,
and ``G_i @ W_i.T`` reduces over a bank's k kernels only. ``_fit`` keeps
the trainable parameters as views of one flat buffer while it trains, and
``loss_and_grads`` writes their gradients into views of a second buffer
of the same layout, so that a momentum step is a few elementwise
operations on two flat vectors and nothing is concatenated per step. That
buffer and the forward's pre-activation blocks, its largest arrays, live
in a ``work`` dict that ``_fit`` keeps for the whole training: the
allocator would otherwise return the blocks to the system and fault them
back in at every step. The model itself keeps only its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Corpus, _slice_with_groups, corpus_to_arrays, row_groups, split_tail
from .errors import InputError, check_fields, integer, number
from .genmodel import SamplerConfig

_PROB_CLIP = 1e-12
# fewest rows of a class a classifier trains on: one to fit, one to validate
MIN_CLASS_ROWS = 2
# Rows per scoring forward pass: 1024-row chunks keep a bank's (rows, positions,
# kernels) block in cache on short sequences; 8192 rows ran at half the speed.
_SCORE_CHUNK = 1024


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

    def _forward(self, ids: np.ndarray, lengths: np.ndarray, work: dict):
        """Logits of the rows and the cache ``_backward`` reads.

        The pre-activation blocks are views of buffers kept in ``work``, a
        dict the caller keeps, grown as needed and overwritten by the next
        call with the same dict.
        """
        p = self.params
        b, l = ids.shape
        # the tokens that occur, ascending, and each position's index into
        # them: the same as np.unique(ids, return_inverse=True), by a mark
        # per vocabulary entry instead of a sort
        present = np.zeros(len(p["embed"]), dtype=bool)
        present[ids] = True
        tokens = present.nonzero()[0]
        index = np.empty(len(present), dtype=np.intp)
        index[tokens] = np.arange(len(tokens))
        local = index[ids]  # (B, L)
        by_position = np.ascontiguousarray(local.T)  # (L, B)
        ragged = lengths.min() < l  # else no window reaches padding
        emb = p["embed"][tokens]  # (U, de)
        de = emb.shape[1]
        feats = np.empty((b, len(p["out_w"])))  # each bank's relu'd pools
        cache = {"tokens": tokens, "local": local, "emb": emb, "feats": feats, "banks": {}}
        offset = 0
        for w, k in self.banks:
            pooled = feats[:, offset: offset + k]
            offset += k
            positions = l - w + 1
            if positions < 1:
                pooled[...] = 0.0
                cache["banks"][w] = None
                continue
            # tables[i] = emb @ W_i: every token's term as a window's i-th
            # token, one vector-matrix product per (i, token) so that a
            # token's row does not depend on the other tokens
            weight = p[f"conv{w}_w"].reshape(w, 1, de, k)
            tables = (emb[:, None, :] @ weight)[:, :, 0]  # (w, U, k), each T_i contiguous
            tables[0] += p[f"conv{w}_b"]  # the bias, once per token, not per window
            # position-major (P, B, k), so the pool and the backward's scans
            # read one contiguous (B, k) slab per window position
            pre, term = _blocks(work, ("pre", w), (positions, b, k))
            # the indices are valid: "clip" only spares the copy that "raise"
            # makes of a result with an out array
            tables[0].take(by_position[:positions], axis=0, out=pre, mode="clip")
            for i in range(1, w):
                tables[i].take(by_position[i:i + positions], axis=0, out=term, mode="clip")
                pre += term
            if ragged:
                pre[np.arange(positions)[:, None] > lengths - w] = -np.inf
            top = pre.max(axis=0)  # (B, k); -inf for a row with no valid window
            np.maximum(top, 0.0, out=pooled)  # relu after the pool
            cache["banks"][w] = (pre, top)
        # one dot product per row: a matrix-vector product's rows can round
        # differently with the number of rows
        logits = (feats[:, None, :] @ p["out_w"])[:, 0] + p["out_b"][0]
        return logits, cache

    def _trainable_views(self, flat: np.ndarray) -> dict:
        """Views of a flat float64 buffer shaped as the trainable parameters,
        one after another in ``trainable()`` order."""
        views, at = {}, 0
        for k in self.trainable():
            size, shape = self.params[k].size, self.params[k].shape
            views[k] = flat[at: at + size].reshape(shape)
            at += size
        return views

    def _backward(self, cache, dlogits: np.ndarray, grads: dict) -> dict:
        """Parameter gradients of the rows ``_forward`` ran on.

        ``cache`` is ``_forward``'s and ``dlogits`` holds one entry per row
        of it: in training, each distinct row's ``dlogits`` summed over the
        batch rows it stands for. The trainable parameters' gradients are
        written into ``grads``, arrays shaped as them such as
        ``_trainable_views``; a frozen embedding's is set to new zeros.
        """
        p = self.params
        if self.embed_frozen:
            grads["embed"] = np.zeros_like(p["embed"])  # stays zero
        feats = cache["feats"]  # (D, K)
        grads["out_w"][...] = feats.T @ dlogits
        grads["out_b"][0] = dlogits.sum()
        # the pool passes its gradient to one window per (row, kernel), and
        # the relu after it only where the pooled value is positive
        dpres = np.where(feats > 0.0, dlogits[:, None] * p["out_w"], 0.0)  # (D, K)
        bias = dpres.sum(axis=0)  # each column alone, row after row
        local, emb = cache["local"], cache["emb"]
        (d, l), (u, de) = local.shape, emb.shape
        row_starts = np.arange(0, d * l, l)[:, None]  # each row's offset into local
        demb = np.zeros(emb.shape)
        offset = 0
        for w, k in self.banks:
            dpre = dpres[:, offset: offset + k]
            grads[f"conv{w}_b"][...] = bias[offset: offset + k]
            offset += k
            bank = cache["banks"][w]
            weight = p[f"conv{w}_w"]
            dweight = grads[f"conv{w}_w"]
            if bank is None:
                dweight[...] = 0.0
                continue
            pre, top = bank
            # each row's first maximising window, as a flat index into
            # local: the row's offset plus the number of leading positions
            # that are not the maximum (at most the last position)
            first = row_starts.repeat(k, axis=1)
            behind = np.ones((d, k), dtype=bool)
            for q in range(len(pre) - 1):
                behind &= pre[q] != top
                first += behind
            # slots[i, r, j] = t * k + j, t the i-th token of row r's window
            # for kernel j
            slots = (local.ravel() * k).take(first + np.arange(w)[:, None, None])
            slots += np.arange(k)
            weights = dpre.ravel()
            for i in range(w):
                # G_i[t, j]: dpre summed over the argmax windows whose i-th
                # token is t, one row after another
                g = np.bincount(slots[i].ravel(), weights=weights,
                                minlength=u * k).reshape(u, k)
                rows = slice(i * de, (i + 1) * de)
                dweight[rows] = _token_sum(emb, g)
                if not self.embed_frozen:
                    demb += g @ weight[rows].T
        if not self.embed_frozen:
            grads["embed"][...] = 0.0
            grads["embed"][cache["tokens"]] = demb
        return grads

    def loss_and_grads(self, seqs, labels, work: dict | None = None) -> tuple[float, dict]:
        """Mean binary cross-entropy of a batch plus parameter gradients.

        ``labels`` holds one number in [0, 1] per row. The forward pass and
        the backward run once per distinct (ids, length) row of the batch's
        ``row_groups``: a row's logit depends on that row alone, so its
        softplus and sigmoid are gathered back to the batch unchanged, and
        the backward takes each distinct row's ``dlogits`` summed in batch
        order. The gradients are the whole batch's up to rounding.

        ``work`` is a dict the caller keeps between steps, or a new one when
        it is None. The first step into it makes the flat float64 gradient
        buffer ``work["grad"]``, laid out in ``trainable()`` order, and its
        views; every step into ``work`` overwrites them and returns the
        views. A frozen embedding's gradient is a separate array of zeros.
        The forward's pre-activation blocks are kept in ``work`` too, so
        that a training loop does not ask the allocator for its largest
        arrays anew at every step. One ``work`` serves one model and one
        step at a time.
        """
        ids, lengths = corpus_to_arrays(seqs)
        labels = np.asarray(labels, dtype=np.float64)
        # NaN fails both comparisons, and so is rejected with the rest
        if labels.shape != lengths.shape or not (labels.min() >= 0.0 and labels.max() <= 1.0):
            raise InputError(f"labels must hold one number in [0, 1] per row: "
                             f"{len(lengths)} rows, labels of shape {labels.shape}")
        distinct, inverse = row_groups(seqs)
        work = {} if work is None else work
        if "grad" not in work:
            work["grad"] = np.empty(sum(self.params[k].size for k in self.trainable()))
            work["grad_views"] = self._trainable_views(work["grad"])
        logits, cache = self._forward(ids[distinct], lengths[distinct], work)
        # stable BCE-with-logits: softplus(logit) - y * logit
        terms = np.logaddexp(0.0, logits)[inverse]
        terms -= labels * logits[inverse]
        loss = float(terms.sum() / len(terms))
        dlogits = (_sigmoid(logits)[inverse] - labels) / len(labels)
        summed = np.bincount(inverse, weights=dlogits, minlength=len(distinct))
        return loss, self._backward(cache, summed, work["grad_views"])

    # -- inference --------------------------------------------------------

    def predict_corpus(self, corpus) -> np.ndarray:
        """Scores in (0, 1), one per row, each as if the row were scored alone.

        Only the distinct (ids, length) rows go through the forward pass,
        found by marking or sorting one packed int64 key per row
        (``row_groups``, once per corpus); a score depends on its row alone,
        so gathering them back is bit-identical to scoring every row.
        """
        ids, lengths = corpus_to_arrays(corpus)
        distinct, inverse = row_groups(corpus)
        ids, lengths = ids[distinct], lengths[distinct]  # sorted by length first
        out = np.empty(len(lengths))
        work = {}  # the chunks' blocks, grown as the rows widen
        for start in range(0, len(lengths), _SCORE_CHUNK):
            rows = slice(start, start + _SCORE_CHUNK)
            # as wide as the chunk's longest row, as if packed on its own
            width = int(lengths[rows].max())
            logits, _ = self._forward(ids[rows, :width], lengths[rows], work)
            out[rows] = _sigmoid(logits)
        return np.clip(out, _PROB_CLIP, 1.0 - _PROB_CLIP)[inverse]


def _blocks(work: dict, key, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Two float64 arrays of ``shape``, views of the buffer ``work`` keeps
    under ``key``, made or grown when too small."""
    size = shape[0] * shape[1] * shape[2]
    buf = work.get(key)
    if buf is None or len(buf) < 2 * size:
        buf = work[key] = np.empty(2 * size)
    return buf[:size].reshape(shape), buf[size: 2 * size].reshape(shape)


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
    if len(real) < MIN_CLASS_ROWS:
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
    if min(len(real), len(fake)) < MIN_CLASS_ROWS:
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
    # the trainable parameters become views of one flat buffer, and each
    # step writes their gradients into views of work["grad"], so a momentum
    # step is four elementwise operations on all of them at once
    flat = np.concatenate([disc.params[k].ravel() for k in disc.trainable()])
    disc.params.update(disc._trainable_views(flat))
    velocity = np.zeros_like(flat)
    work = {}  # the steps' gradient buffer and forward blocks
    best_params = {k: v.copy() for k, v in disc.params.items()}
    best_acc, best_epoch, stale = -1.0, -1, 0
    losses, accs = [], []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        pos, neg = pair_provider(epoch)
        assert len(pos) == len(neg)  # balanced classes by construction
        seqs = Corpus.concat([pos, neg])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        # shuffled once per epoch, so that each batch is a slice whose rows'
        # groups come from the epoch's, found once
        order = rng.permutation(len(seqs))
        seqs, labels = seqs[order], labels[order]
        total_loss, seen = 0.0, 0
        for start in range(0, len(seqs), cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            batch_labels = labels[batch]
            loss, _ = disc.loss_and_grads(_slice_with_groups(seqs, batch), batch_labels, work)
            grad = work["grad"]
            grad *= cfg.lr
            velocity *= cfg.momentum
            velocity -= grad
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
