"""Binary real-vs-generated sequence classifier.

A small convolutional net over token embeddings: window sizes 2 and 3,
global max-pool, one linear output, sigmoid. Forward and backward passes
are explicit numpy in float64, so every gradient can be checked against
central finite differences. Padding positions are masked out of the pools,
which makes predictions invariant to appended padding.

A window's pre-activation is linear in its embeddings, so no window matrix
is built. With ``W_i`` the rows ``i*de:(i+1)*de`` of a bank's weight, the
table ``T_i = embed[tokens] @ W_i`` holds every token's term as a window's
i-th token, over only the ``tokens`` that occur in the rows, and a
window's pre-activation at position p is ``b + sum_i T_i[local[:, p + i]]``
(``local`` indexes ``tokens``); the bias is added to ``T_0``'s rows, once
per token rather than once per window. ``_forward`` takes its rows so
remapped: ``_remap`` finds ``tokens`` and ``local``, for each of
``predict_corpus``'s chunks and for each batch of ``TextCNN._plan``. The
relu is applied after the pool, which gives the same value. A bank's pre-activations are
one position-major ``(P, B, k)`` block, gathered with ``take`` on
``local.T``: the pool is a max over the leading axis, one contiguous
``(B, k)`` slab per position, and padding is masked only when some row is
shorter than the batch. Both banks' relu'd pools are written into one
``(B, K)`` array.

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

``_fit`` plans each shuffled epoch once (``TextCNN._plan``). One grouping
over the epoch's arrays gives every batch's distinct rows (the groups
``row_groups`` finds on the batch's own rows, in the same order) and each
batch row's group, and the labels are checked there, once per epoch. Then,
a few batches at a time (``_PLAN_CELLS``), the plan gathers each batch's
distinct rows at the batch's width, remaps them (``_remap``) and makes the
backward's index bases, each distinct row's offset and each bank's
``local * k``. A step, one ``loss_and_grads`` call on a planned batch,
runs only the forward, loss and backward that depend on the parameters,
with the same sums in the same order as on the batch's own ``Corpus``,
which ``loss_and_grads`` also takes and plans as one batch. ``_fit`` makes
exactly one call per step, so a tracer that wraps ``loss_and_grads`` sees
every step.

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
buffer, a frozen embedding's read-only zero gradient and the forward's
pre-activation blocks, its largest arrays, live in a ``work`` dict that
``_fit`` keeps for the whole training: the allocator would otherwise return
the blocks to the system and fault them back in at every step. The model
itself keeps only its parameters.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import (Corpus, _group_keys, _marked_ranks, corpus_to_arrays, row_groups,
                   split_tail)
from .errors import InputError, check_fields, integer, number
from .genmodel import SamplerConfig

_PROB_CLIP = 1e-12
# fewest rows of a class a classifier trains on: one to fit, one to validate
MIN_CLASS_ROWS = 2
# Most distinct-row positions (rows x width) of the batches that a training
# plan makes in one go, a few MB of index arrays: a whole epoch of the
# bundled scenarios' short rows, or four 256-row batches of 64-token rows.
# On a 2-vCPU VM, making each batch just before its step ran s3's 2-epoch
# training about 5% slower than making all of them at once, and making a
# whole epoch's at once raised tools/pipeline_probe.py's peak RSS (36,000
# rows of up to 64 tokens an epoch) by 130 MB.
_PLAN_CELLS = 2**16
# Most flags (batches x vocabulary entries) that one go of a plan marks
# tokens with: the rank table, 8 bytes a flag, fits a 32 KB L1 data cache.
# Marking a go's tokens at once rather than batch by batch ran s3's
# training about 3% faster; across more flags it was slower at V = 2,000.
_PLAN_FLAGS = 2**12
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

    def _forward(self, rows: _Rows, work: dict):
        """Logits of remapped rows (``_remap``) and the cache ``_backward``
        reads.

        The pre-activation blocks are views of buffers kept in ``work``, a
        dict the caller keeps, grown as needed and overwritten by the next
        call with the same dict.
        """
        p = self.params
        by_position, lengths = rows.by_position, rows.lengths  # (L, B), (B,)
        l, b = by_position.shape
        emb = p["embed"][rows.tokens]  # (U, de)
        de = emb.shape[1]
        feats = np.empty((b, len(p["out_w"])))  # each bank's relu'd pools
        cache = {"emb": emb, "feats": feats, "banks": {}}
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
            if rows.ragged:  # else no window reaches padding
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

    def _gradient_views(self, flat: np.ndarray) -> dict:
        """``_trainable_views`` of ``flat`` for the gradients, plus one
        read-only zero array as a frozen embedding's, which stays zero."""
        views = self._trainable_views(flat)
        if self.embed_frozen:
            views["embed"] = np.zeros_like(self.params["embed"])
            views["embed"].flags.writeable = False
        return views

    def _backward(self, batch: _Batch, cache, dlogits: np.ndarray, grads: dict) -> dict:
        """Parameter gradients of the rows ``_forward`` ran on.

        ``batch`` is the planned batch whose ``rows`` went through
        ``_forward``, ``cache`` is ``_forward``'s and ``dlogits`` holds one
        entry per row of it: in training, each distinct row's ``dlogits``
        summed over the batch rows it stands for. The trainable parameters'
        gradients are written into ``grads``, arrays shaped as them such as
        ``_trainable_views``; a frozen embedding's entry is not touched.
        """
        p = self.params
        feats = cache["feats"]  # (D, K)
        grads["out_w"][...] = feats.T @ dlogits
        grads["out_b"][0] = dlogits.sum()
        # the pool passes its gradient to one window per (row, kernel), and
        # the relu after it only where the pooled value is positive
        dpres = np.where(feats > 0.0, dlogits[:, None] * p["out_w"], 0.0)  # (D, K)
        bias = dpres.sum(axis=0)  # each column alone, row after row
        emb = cache["emb"]
        (d, _), (u, de) = feats.shape, emb.shape
        demb = np.zeros(emb.shape)
        offset = 0
        for (w, k), base in zip(self.banks, batch.slots):
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
            # base: the row's start plus the number of leading positions
            # that are not the maximum (at most the last position)
            first = batch.starts.repeat(k, axis=1)
            behind = np.ones((d, k), dtype=bool)
            for q in range(len(pre) - 1):
                behind &= pre[q] != top
                first += behind
            # slots[i, r, j] = t * k + j, t the i-th token of row r's window
            # for kernel j
            slots = base.take(first + np.arange(w)[:, None, None])
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
            grads["embed"][batch.rows.tokens] = demb
        return grads

    def loss_and_grads(self, seqs, labels, work: dict | None = None) -> tuple[float, dict]:
        """Mean binary cross-entropy of a batch plus parameter gradients.

        ``seqs`` is a ``Corpus``, planned here as one batch, or one batch of
        ``_plan``, whose labels ``_plan`` has checked. ``labels`` holds one
        number in [0, 1] per row. The forward pass and the backward run once
        per distinct (ids, length) row of the batch: a row's logit depends
        on that row alone, so its softplus and sigmoid are gathered back to
        the batch unchanged, and the backward takes each distinct row's
        ``dlogits`` summed in batch order. The gradients are the whole
        batch's up to rounding. A planned batch carries its rows' token
        remap and the backward's index bases, so the call does only the
        math that depends on the parameters; ``_fit`` makes one call per
        step, which is what a tracer of this method sees.

        ``work`` is a dict the caller keeps between steps, or a new one when
        it is None. The first step into it makes the flat float64 gradient
        buffer ``work["grad"]``, laid out in ``trainable()`` order, and its
        views, plus one read-only zero array as a frozen embedding's
        gradient; every step into ``work`` overwrites the buffer and returns
        the views. The forward's pre-activation blocks are kept in ``work``
        too, so that a training loop does not ask the allocator for its
        largest arrays anew at every step. One ``work`` serves one model and
        one step at a time.
        """
        labels = np.asarray(labels, dtype=np.float64)
        batch = seqs if isinstance(seqs, _Batch) else next(self._plan(seqs, labels, len(seqs)))
        work = {} if work is None else work
        if "grad" not in work:
            work["grad"] = np.empty(sum(self.params[k].size for k in self.trainable()))
            work["grad_views"] = self._gradient_views(work["grad"])
        inverse = batch.inverse
        logits, cache = self._forward(batch.rows, work)
        # stable BCE-with-logits: softplus(logit) - y * logit
        terms = np.logaddexp(0.0, logits)[inverse]
        terms -= labels * logits[inverse]
        loss = float(terms.sum() / len(terms))
        dlogits = (_sigmoid(logits)[inverse] - labels) / len(labels)
        summed = np.bincount(inverse, weights=dlogits, minlength=len(logits))
        return loss, self._backward(batch, cache, summed, work["grad_views"])

    def _plan(self, seqs: Corpus, labels: np.ndarray, batch_size: int) -> Iterator[_Batch]:
        """The batches of ``batch_size`` consecutive rows of ``seqs`` (the
        last may be shorter), each planned for ``loss_and_grads``.

        ``labels`` holds one number in [0, 1] per row, checked here, once
        for every batch. A batch's ``rows`` and ``inverse`` are what
        ``row_groups`` and ``_remap`` give on ``seqs[batch]``'s own arrays.
        The groups of every batch come from one grouping of keys over the
        whole corpus, here: a row's key is its batch times the corpus's
        group count plus its group's rank, and ascending keys list each
        batch's groups in the order ``_distinct_rows`` gives on the batch
        alone. The iterator makes the rest a chunk of batches at a time, at
        most ``_PLAN_CELLS`` distinct-row positions and ``_PLAN_FLAGS``
        flags, and at least one batch: it gathers the chunk's distinct rows
        at its widest batch's width and marks their tokens at once
        (``data._marked_ranks``), with the key ``batch * V + id`` and, past
        a batch's width, a spare key that no batch's tokens include. The
        backward's bases, ``local * k`` per bank and each distinct row's
        offset in it, are one array each for the chunk.
        """
        ids, lengths = corpus_to_arrays(seqs)
        # NaN fails both comparisons, and so is rejected with the rest
        if labels.shape != lengths.shape or not (labels.min() >= 0.0 and labels.max() <= 1.0):
            raise InputError(f"labels must hold one number in [0, 1] per row: "
                             f"{len(lengths)} rows, labels of shape {labels.shape}")
        groups, ranks = row_groups(seqs)
        batch_of = np.arange(len(lengths)) // batch_size
        count = int(batch_of[-1]) + 1
        distinct, inverse = _group_keys(batch_of * len(groups) + ranks, count * len(groups) - 1)
        owner = batch_of[distinct]  # each distinct row's batch, ascending
        # the distinct rows of batch b are distinct[bounds[b]:bounds[b + 1]]
        bounds = np.searchsorted(owner, np.arange(count + 1))
        inverse -= bounds[batch_of]  # each row's index among its batch's groups
        lengths = lengths[distinct]
        widths = np.maximum.reduceat(lengths, bounds[:-1])  # each batch's longest row
        ragged = (np.minimum.reduceat(lengths, bounds[:-1]) < widths).tolist()
        vocab = len(self.params["embed"])
        most_rows = max(1, _PLAN_CELLS // ids.shape[1])
        most_batches = max(1, _PLAN_FLAGS // vocab)

        def batches():
            first = 0
            while first < count:
                end = int(np.searchsorted(bounds, bounds[first] + most_rows, "right")) - 1
                end = max(first + 1, min(first + most_batches, end))
                lo, hi = bounds[first], bounds[end]
                width = int(widths[first:end].max())
                # the chunk's tokens marked at once: key (batch - first) * V +
                # id, and past a batch's width a spare key no batch includes
                chunk = owner[lo:hi] - first
                key = ids[distinct[lo:hi], :width]
                key += (chunk * vocab)[:, None]
                spare = (end - first) * vocab
                if widths[first:end].min() < width:
                    key[np.arange(width) >= widths[owner[lo:hi]][:, None]] = spare
                values, local = _marked_ranks(key, spare)
                token_bounds = np.searchsorted(values, np.arange(end - first + 1) * vocab)
                local -= token_bounds[chunk][:, None]
                tokens = values % vocab
                starts = np.arange(0, local.size, width)[:, None]
                slots = tuple(local.ravel() * k for _, k in self.banks)
                for b in range(first, end):
                    rows = slice(bounds[b] - lo, bounds[b + 1] - lo)
                    block = local[rows, :widths[b]]
                    remapped = _Rows(lengths[bounds[b]: bounds[b + 1]],
                                     tokens[token_bounds[b - first]: token_bounds[b - first + 1]],
                                     block, np.ascontiguousarray(block.T), ragged[b])
                    yield _Batch(remapped, inverse[b * batch_size: (b + 1) * batch_size],
                                 starts[rows], slots)
                first = end

        return batches()

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
            chunk = slice(start, start + _SCORE_CHUNK)
            # as wide as the chunk's longest row, as if packed on its own
            width = int(lengths[chunk].max())
            rows = _remap(ids[chunk, :width], lengths[chunk], len(self.params["embed"]))
            logits, _ = self._forward(rows, work)
            out[chunk] = _sigmoid(logits)
        return np.clip(out, _PROB_CLIP, 1.0 - _PROB_CLIP)[inverse]


class _Rows(NamedTuple):
    """Rows of token ids as ``TextCNN._forward`` reads them (``_remap``).

    ``tokens`` holds the ids that occur in the rows, ascending, ``local``
    the ``(D, L)`` index of each position's id into ``tokens``,
    ``by_position`` its contiguous transpose, and ``ragged`` whether some
    row is shorter than ``L``, so that windows can reach padding.
    """

    lengths: np.ndarray
    tokens: np.ndarray
    local: np.ndarray
    by_position: np.ndarray
    ragged: bool


class _Batch(NamedTuple):
    """One training batch of ``TextCNN._plan``.

    ``rows`` are the batch's distinct (ids, length) rows at its width, in
    ``row_groups`` order, remapped, and ``inverse`` gives each batch row's
    distinct row. ``slots`` holds the backward's index base of each bank,
    ``local * k`` of the rows at some width, flattened, and ``starts`` the
    ``(D, 1)`` offset of each distinct row in it.
    """

    rows: _Rows
    inverse: np.ndarray
    starts: np.ndarray
    slots: tuple


def _remap(ids: np.ndarray, lengths: np.ndarray, vocab_size: int) -> _Rows:
    """The rows of an id matrix and their lengths, remapped to the tokens
    that occur in them: the same tokens and indices as
    ``np.unique(ids, return_inverse=True)``, by a flag per vocabulary entry
    instead of a sort (``data._marked_ranks``)."""
    tokens, local = _marked_ranks(ids, vocab_size - 1)
    return _Rows(lengths, tokens, local, np.ascontiguousarray(local.T),
                 bool(lengths.min() < ids.shape[1]))


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
        # shuffled and planned once per epoch: each step runs only the
        # math that depends on the parameters
        order = rng.permutation(len(seqs))
        seqs, labels = seqs[order], labels[order]
        total_loss, seen = 0.0, 0
        # run to its end, so that the plan lets go of the epoch's arrays
        for batch in disc._plan(seqs, labels, cfg.batch_size):
            batch_labels = labels[seen: seen + len(batch.inverse)]
            loss, _ = disc.loss_and_grads(batch, batch_labels, work)
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
