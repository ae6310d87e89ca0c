"""Quality/diversity evaluation: BLEU vs self-BLEU, forward and reverse
language-model scores, Frechet embedding distance, and the temperature
sweep harness that traces quality-diversity curves for baseline, accepted,
and rejected sample streams.

Samples repeat rows, often: a small domain holds few distinct sequences.
BLEU, self-BLEU, the sentence embeddings and the n-gram LM scores do each
row's work once per distinct row (``data.row_groups``) and gather it back,
while every mean and covariance across rows still runs over all rows in
their order, so each metric is bit-identical to its row-by-row value. A
corpus keeps its groups, so a sample corpus scored by several metrics, or
a ``MetricScorer``'s ``real_test`` scored against every sweep row, is
grouped once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import BOS, EOS, Corpus, _gram_ranks, row_groups
from .disc import DiscConfig, error_rate, train_discriminator_corpora
from .errors import InputError
from .filtering import (MAX_ATTEMPTS_PER_SAMPLE, BoundaryEstimateConfig, FilteredGenerator,
                        FilterParams, estimate_boundary, sample_filtered)
from .genmodel import NGramConfig, SamplerConfig, libm_map, nll_rates, train_mle
from .seeding import derive_seed

_EPSILON = 1e-9  # BLEU's floor for zero precision numerators
_WINDOW = 2  # co-occurrence half-width of the PPMI embedding
_FED_REG = 1e-6  # ridge FED adds to both covariances

# ---------------------------------------------------------------------------
# BLEU / self-BLEU
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BleuConfig:
    max_order: int = 5

    def __post_init__(self):
        if self.max_order < 1:
            raise InputError("BLEU order must be >= 1")


def _row_gram_counts(ranks: np.ndarray, count: int):
    """(row, gram, count) for every distinct gram of every row at one order."""
    rows, cols = np.nonzero(ranks >= 0)
    keys, counts = np.unique(rows * count + ranks[rows, cols], return_counts=True)
    return keys // count, keys % count, counts


def _closest_length(distinct: np.ndarray, below: np.ndarray, above: np.ndarray,
                    target: np.ndarray) -> np.ndarray:
    """The nearer of ``distinct[below]`` and ``distinct[above]`` to ``target``;
    ties favor the shorter. An index outside ``distinct`` is no candidate."""
    size = len(distinct)
    lo = distinct[np.clip(below, 0, size - 1)]
    hi = distinct[np.clip(above, 0, size - 1)]
    take_lo = (below >= 0) & ((above >= size) | (target - lo <= hi - target))
    return np.where(take_lo, lo, hi)


def _sentence_bleu(matches, lengths: np.ndarray, ref_lengths: np.ndarray) -> np.ndarray:
    """Each row's sentence BLEU from its clipped matches per order.

    Per row: the geometric mean of modified precisions over the orders that
    fit in the row, times the brevity penalty against ``ref_lengths``. A
    row's value depends on its own entries alone.
    """
    log_sum = np.zeros(len(lengths))
    orders = np.zeros(len(lengths), dtype=np.int64)
    for k, matched in enumerate(matches, start=1):
        possible = lengths - k + 1
        fits = possible >= 1
        numerator = np.where(matched > 0, matched, _EPSILON)
        log_sum[fits] += libm_map(math.log, numerator[fits] / possible[fits])
        orders += fits
    penalty = np.ones(len(lengths))
    short = lengths < ref_lengths
    penalty[short] = libm_map(math.exp, 1.0 - ref_lengths[short] / lengths[short])
    return penalty * libm_map(math.exp, log_sum / orders)


def bleu(hypotheses: Corpus, references: Corpus, cfg: BleuConfig | None = None) -> float:
    """Corpus-averaged sentence BLEU against the full reference set.

    Geometric mean of modified n-gram precisions (orders with no possible
    n-grams are skipped) times the brevity penalty against the closest
    reference length. A sentence's BLEU depends on its own row and on the
    set of reference rows, so it is computed once per distinct hypothesis
    row against the distinct reference rows, and the mean runs over every
    hypothesis row. The n-grams of both get shared integer keys, so each
    order is counted with one ``np.unique`` over (row, gram) keys; the
    hypotheses and references must therefore share one vocabulary
    (``InputError`` otherwise).
    """
    cfg = cfg or BleuConfig()
    if len(hypotheses) == 0 or len(references) == 0:
        raise InputError("hypotheses and references must be non-empty")
    rows, inverse = row_groups(hypotheses)
    hyps = hypotheses[rows]
    refs = references[row_groups(references)[0]]
    both = Corpus.concat([hyps, refs])
    n_hyp = len(hyps)
    matches = []
    for ranks, count in _gram_ranks(both.ids, both.lengths, cfg.max_order):
        row, gram, counts = _row_gram_counts(ranks, count)
        ref = row >= n_hyp
        ref_max = np.zeros(count, dtype=np.int64)
        np.maximum.at(ref_max, gram[ref], counts[ref])
        hyp = ~ref
        clipped = np.minimum(counts[hyp], ref_max[gram[hyp]])
        matches.append(np.bincount(row[hyp], weights=clipped, minlength=n_hyp))
    distinct = np.unique(refs.lengths)
    pos = np.searchsorted(distinct, hyps.lengths)
    ref_len = _closest_length(distinct, pos - 1, pos, hyps.lengths)
    return float(np.mean(_sentence_bleu(matches, hyps.lengths, ref_len)[inverse]))


def self_bleu(samples: Corpus, cfg: BleuConfig | None = None) -> float:
    """Mean BLEU of each sample against all the others (lower = more diverse).

    A sample's BLEU depends on its row and on the multiset of the other
    rows, so it is computed once per distinct row, with each distinct row's
    multiplicity standing in for its copies, and the mean runs over every
    row.
    """
    cfg = cfg or BleuConfig()
    if len(samples) < 2:
        raise InputError("self-BLEU needs at least two samples")
    rows, inverse = row_groups(samples)
    copies = np.bincount(inverse)
    unique = samples[rows]
    matches = []
    for ranks, count in _gram_ranks(unique.ids, unique.lengths, cfg.max_order):
        row, gram, counts = _row_gram_counts(ranks, count)
        # per gram: its best count, a distinct row holding it, and the
        # runner-up among the others; the leave-one-out maximum is the best
        # unless the row is the one sample that holds it
        order = np.lexsort((-counts, gram))
        g, c, r = gram[order], counts[order], row[order]
        head = np.flatnonzero(np.diff(g, prepend=-1))
        best = np.zeros(count, dtype=np.int64)
        owner = np.full(count, -1, dtype=np.int64)
        second = np.zeros(count, dtype=np.int64)
        best[g[head]], owner[g[head]] = c[head], r[head]
        runner = head[np.append(g[1:] == g[:-1], False)[head]]
        second[g[runner]] = c[runner + 1]
        alone = (owner[gram] == row) & (copies[row] == 1)
        loo = np.where(alone, second[gram], best[gram])
        matches.append(np.bincount(row, weights=np.minimum(counts, loo),
                                   minlength=len(rows)))
    # reference length: the row's own when another row shares it, else the
    # nearest other length
    lengths = samples.lengths
    distinct, length_of, per_length = np.unique(lengths, return_inverse=True,
                                                return_counts=True)
    nearest = _closest_length(distinct, length_of - 1, length_of + 1, lengths)
    ref_len = np.where(per_length[length_of] > 1, lengths, nearest)
    return float(np.mean(
        _sentence_bleu(matches, lengths[rows], ref_len[rows])[inverse]))


# ---------------------------------------------------------------------------
# Language-model scores
# ---------------------------------------------------------------------------


def lm_score(oracle_lm, samples: Corpus) -> float:
    """Mean per-token NLL of samples under a real-data LM (lower = better).

    By construction equals log(perplexity(oracle_lm, samples)).
    """
    return float(np.mean(nll_rates(oracle_lm, samples)))


RLM_MIN_SAMPLES = 1000  # fewest samples the reverse LM is trained on


def reverse_lm_score(samples: Corpus, real_test: Corpus, lm_config) -> float:
    """NLL of real held-out text under an LM trained on the samples.

    Detects mode collapse: a degenerate sample set trains an LM that
    explains real text poorly. Refuses to train on fewer than
    ``RLM_MIN_SAMPLES`` sequences.
    """
    if len(samples) < RLM_MIN_SAMPLES:
        raise InputError(
            f"reverse LM needs >= {RLM_MIN_SAMPLES} samples, got {len(samples)}")
    model = train_mle(samples, None, lm_config)
    return lm_score(model, real_test)


# ---------------------------------------------------------------------------
# Sentence embeddings and Frechet distance
# ---------------------------------------------------------------------------


class EmbeddingModel:
    """Sentence embedding = mean of per-token vectors."""

    def __init__(self, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if not np.isfinite(vectors).all():
            raise InputError("embedding vectors must be finite")
        vectors.setflags(write=False)
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _cooccurrences(corpus: Corpus, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The token ids seen (plus BOS and EOS) and their co-occurrence counts.

    ``cooc[i, j]`` counts the positions of ``seen[j]`` within ``window`` of a
    ``seen[i]`` in one row framed as BOS, its tokens, EOS; both directions
    of every pair go into one ``bincount``.
    """
    ids, lengths = corpus.ids, corpus.lengths
    n, width = ids.shape
    valid = np.arange(width)[None, :] < lengths[:, None]
    seen = np.union1d(ids[valid], [BOS, EOS])
    k = len(seen)
    index = np.zeros(len(corpus.vocab), dtype=np.int64)
    index[seen] = np.arange(k)
    framed = np.full((n, width + 2), EOS, dtype=np.int64)
    framed[:, 0] = BOS
    framed[:, 1:-1] = np.where(valid, ids, EOS)
    local = index[framed]
    keys = [np.zeros(0, dtype=np.int64)]
    for d in range(1, window + 1):
        # pairs (p, p + d) with p + d at or before the row's EOS
        pair = np.arange(width + 2 - d)[None, :] + d < lengths[:, None] + 2
        a, b = local[:, : width + 2 - d][pair], local[:, d:][pair]
        keys += [a * k + b, b * k + a]
    cooc = np.bincount(np.concatenate(keys), minlength=k * k)
    return seen, cooc.reshape(k, k).astype(np.float64)


def fit_ppmi_svd(corpus: Corpus, dim: int = 64) -> EmbeddingModel:
    """Token vectors from a PPMI-weighted co-occurrence factorization.

    Co-occurrence is counted within a symmetric in-sentence window that
    also sees the BOS/EOS boundary markers (so length-1 corpora still
    embed); the dimension is capped by the number of distinct tokens
    observed.
    """
    seen, cooc = _cooccurrences(corpus, _WINDOW)
    k = len(seen)
    total = cooc.sum()
    if total == 0:
        raise InputError("corpus has no co-occurrences")
    joint = cooc / total
    marg = joint.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(joint / np.outer(marg, marg))
    ppmi = np.where(np.isfinite(pmi), np.maximum(pmi, 0.0), 0.0)
    u, s, _ = np.linalg.svd(ppmi, full_matrices=False)
    d = min(dim, k)
    vecs = u[:, :d] * np.sqrt(s[:d])
    # stabilize the SVD sign convention
    signs = np.where(np.abs(vecs).max(axis=0) == vecs.max(axis=0), 1.0, -1.0)
    vecs = vecs * signs
    vocab_size = len(corpus.vocab)
    table = np.zeros((vocab_size, d))
    table[seen] = vecs
    return EmbeddingModel(table)


def embed(samples: Corpus, em: EmbeddingModel) -> np.ndarray:
    """One vector per sequence: the mean of its token embeddings.

    Token vectors are added position by position, then divided by the
    row's length, once per distinct row; the vectors are gathered back to
    every row.
    """
    rows, inverse = row_groups(samples)
    ids, lengths = samples.ids[rows], samples.lengths[rows]
    total = np.zeros((len(rows), em.dim))
    for t, column in enumerate(ids.T):
        total += np.where((lengths > t)[:, None], em.vectors[column], 0.0)
    return (total / lengths[:, None])[inverse]


def fed(real_emb: np.ndarray, gen_emb: np.ndarray) -> float:
    """Frechet distance between Gaussians fitted to two embedding sets.

    Covariances get ``_FED_REG * I`` added before use; the matrix square root
    comes from a symmetric eigendecomposition with negative eigenvalues
    (roundoff) clipped at zero.
    """
    real_emb = np.atleast_2d(np.asarray(real_emb, dtype=np.float64))
    gen_emb = np.atleast_2d(np.asarray(gen_emb, dtype=np.float64))
    d = real_emb.shape[1]
    if gen_emb.shape[1] != d:
        raise InputError("embedding dimensions differ")
    if len(real_emb) < d + 1 or len(gen_emb) < d + 1:
        raise InputError(f"need at least {d + 1} rows per set for a {d}-dim FED")
    mu_r, mu_g = real_emb.mean(axis=0), gen_emb.mean(axis=0)
    cov_r = np.atleast_2d(np.cov(real_emb, rowvar=False)) + _FED_REG * np.eye(d)
    cov_g = np.atleast_2d(np.cov(gen_emb, rowvar=False)) + _FED_REG * np.eye(d)
    root_r = _sym_sqrt(cov_r)
    inner = root_r @ cov_g @ root_r
    eigs = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    tr_sqrt = np.sqrt(np.clip(eigs, 0.0, None)).sum()
    diff = mu_r - mu_g
    return float(diff @ diff + np.trace(cov_r) + np.trace(cov_g) - 2.0 * tr_sqrt)


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.T


# ---------------------------------------------------------------------------
# Temperature sweep
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("temperature", "c", "stream", "bleu5", "self_bleu5",
                 "lm_score", "rev_lm_score", "fed", "error_rate")

KNOWN_METRICS = ("bleu", "selfbleu", "lm", "rlm", "fed", "err")


@dataclass
class SweepReport:
    """One row per (temperature, acceptance ratio, stream) grid point."""

    rows: list

    def csv_text(self) -> str:
        lines = [",".join(SWEEP_COLUMNS)]
        for row in self.rows:
            cells = []
            for col in SWEEP_COLUMNS:
                val = row.get(col)
                if val is None:
                    cells.append("")
                elif isinstance(val, str):
                    cells.append(val)
                else:
                    cells.append(f"{val:.6f}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


class MetricScorer:
    """Scores sample corpora against real data with one set of metrics.

    Built once per grid, with one evaluation policy: the oracle LM is a
    bigram with delta 0.01 fitted on ``real_train``, whose config (of
    sequence length ``fixed_length``) also fits each reverse LM, and the FED
    embedding is fitted on ``real_train`` too. The oracle LM and the
    embedding are fitted only when ``lm`` or ``fed`` is requested, and
    ``cells`` scores only requested metrics. BLEU and self-BLEU are of order
    5 and the embedding has 64 dimensions, the defaults of ``BleuConfig``
    and ``fit_ppmi_svd``. ``seed`` is the master seed of the rows'
    classification-error seeds and of ``temperature_sweep``'s grid.
    """

    def __init__(self, metric_names, *, real_train: Corpus, real_test: Corpus,
                 fixed_length: int | None, seed: int = 0,
                 disc_cfg: DiscConfig | None = None):
        unknown = set(metric_names) - set(KNOWN_METRICS)
        if unknown:
            raise InputError(f"unknown metrics: {sorted(unknown)}")
        self.metric_names = tuple(metric_names)
        self.real_train, self.real_test, self.seed = real_train, real_test, seed
        self.lm_config = NGramConfig(order=2, delta=0.01, fixed_length=fixed_length)
        self.oracle_lm = None
        if "lm" in self.metric_names:
            self.oracle_lm = train_mle(real_train, None, self.lm_config)
        self.disc_cfg = disc_cfg or DiscConfig()
        self.embedding = self.real_emb = None
        if "fed" in self.metric_names:
            self.embedding = fit_ppmi_svd(real_train)
            self.real_emb = embed(real_test, self.embedding)

    def cells(self, samples: Corpus, seed: int, metric_names=None) -> dict:
        """The cells of one corpus for ``metric_names``, some of the scorer's
        metrics (all of them by default); ``seed`` seeds the error rate."""
        names = self.metric_names if metric_names is None else metric_names
        if not set(names) <= set(self.metric_names):
            raise InputError(f"metrics not requested of this scorer: "
                             f"{sorted(set(names) - set(self.metric_names))}")
        row: dict = {}
        if "bleu" in names:
            row["bleu5"] = bleu(samples, self.real_test)
        if "selfbleu" in names:
            row["self_bleu5"] = self_bleu(samples)
        if "lm" in names:
            row["lm_score"] = lm_score(self.oracle_lm, samples)
        if "rlm" in names:
            row["rev_lm_score"] = reverse_lm_score(samples, self.real_test,
                                                   self.lm_config)
        if "fed" in names:
            row["fed"] = fed(self.real_emb, embed(samples, self.embedding))
        if "err" in names:
            row["error_rate"] = classification_error(
                self.real_train, self.real_test, samples, self.disc_cfg, seed)
        return row

    def row(self, temp, ratio, stream: str, samples: Corpus) -> dict:
        """The sweep row of one grid stream.

        The error-rate seed derives from (temperature, "baseline") or from
        (temperature, ratio, "a" or "r") for the accepted or rejected
        stream. A stream too short for the reverse LM leaves that cell empty.
        """
        key = (temp, "baseline") if stream == "baseline" else (temp, ratio, stream[0])
        names = self.metric_names
        if len(samples) < RLM_MIN_SAMPLES:
            names = tuple(m for m in names if m != "rlm")
        return {"temperature": temp, "c": ratio, "stream": stream,
                **self.cells(samples, derive_seed(self.seed, "err", *key), names)}


def classification_error(real_train: Corpus, real_test: Corpus, samples: Corpus,
                         disc_cfg: DiscConfig, seed: int) -> float:
    """Error rate of a freshly trained classifier on held-out data.

    The sample set is split 70/30 into classifier-training and evaluation
    parts; higher error = real and sampled text are harder to tell apart.
    """
    n_eval = max(1, int(len(samples) * 0.3))
    if len(samples) - n_eval < 2:
        raise InputError("too few samples for a classification-error estimate")
    train_part, eval_part = samples[:-n_eval], samples[-n_eval:]
    cfg = replace(disc_cfg, seed=seed)
    rng = np.random.default_rng(seed)
    disc, _ = train_discriminator_corpora(real_train, train_part, cfg, rng)
    return error_rate(disc, real_test, eval_part)


# One (temperature, ratio) grid point, shared by ``temperature_sweep`` and
# the pipeline's estimate-uc, sample and evaluate stages.


def grid_sampler(seed: int, temp) -> SamplerConfig:
    """The sampler of one temperature's streams; rows stop at
    ``data.DEFAULT_MAX_LEN`` tokens."""
    return SamplerConfig(temperature=temp, seed=derive_seed(seed, "sample", temp))


def grid_baseline(gen, seed: int, temp, n: int) -> Corpus:
    """The unfiltered stream of one temperature."""
    sampler = grid_sampler(seed, temp)
    return gen.sample_corpus(n, sampler, np.random.default_rng(sampler.seed),
                             split="baseline")


def grid_boundary(gen, disc, seed: int, temp, ratio, uc_cfg) -> tuple[float, list]:
    """``(u_c, trace)`` of one grid point; ratio 1 is the identity filter at 0."""
    sampler = grid_sampler(seed, temp)  # checks the temperature at every ratio
    if ratio == 1.0:
        return 0.0, []
    return estimate_boundary(gen, disc, ratio, uc_cfg, sampler,
                             np.random.default_rng(derive_seed(seed, "uc", temp, ratio)))


def grid_streams(gen, disc, seed: int, temp, ratio, boundary: float, n: int,
                 max_attempts_per_sample: int = MAX_ATTEMPTS_PER_SAMPLE):
    """``(accepted, rejected, stats)`` of one grid point.

    The rejected stream is cut to its first ``n`` rows, or is None when
    nothing was rejected.
    """
    sampler = grid_sampler(seed, temp)
    fg = FilteredGenerator(gen, disc, FilterParams(ratio, boundary),
                           max_attempts_per_sample)
    accepted, stats = sample_filtered(fg, n, sampler, np.random.default_rng(sampler.seed),
                                      keep_rejected=n)
    rejected = stats.rejected_sequences
    return accepted, rejected if len(rejected) else None, stats


def temperature_sweep(gen, scorer: MetricScorer, temps, n_per_point: int, *,
                      disc=None, c_values=(),
                      uc_cfg: BoundaryEstimateConfig | None = None) -> SweepReport:
    """Metric grid over softmax temperatures for up to three streams.

    For every temperature: the unfiltered baseline, then per acceptance
    ratio the accepted and rejected streams, each scored by ``scorer``.
    The boundary is re-estimated at each temperature because the proposal
    distribution changes with it. The grid's streams and boundaries are
    seeded with ``scorer.seed``, as the pipeline seeds them with its own.
    """
    temps = list(temps)
    if not temps or any(t <= 0 for t in temps):
        raise InputError("temperatures must be a non-empty list of positives")
    if c_values and disc is None:
        raise InputError("filtered streams need a discriminator")
    seed = scorer.seed
    rows = []
    for temp in temps:
        rows.append(scorer.row(temp, 1.0, "baseline",
                               grid_baseline(gen, seed, temp, n_per_point)))
        for ratio in c_values:
            boundary, _ = grid_boundary(gen, disc, seed, temp, ratio, uc_cfg)
            accepted, rejected, _ = grid_streams(gen, disc, seed, temp, ratio, boundary,
                                                 n_per_point)
            rows.append(scorer.row(temp, ratio, "accepted", accepted))
            if rejected is not None:
                rows.append(scorer.row(temp, ratio, "rejected", rejected))
    return SweepReport(rows)
