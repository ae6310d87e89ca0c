"""Exact verification layer for enumerable toy domains.

Everything here is brute force by design: enumerate every sequence of a
small domain, compute generator and source probabilities explicitly, derive
the ideal real-vs-generated scorer, and work out filtered distributions and
acceptance boundaries as exact sums. The sampling modules are tested
against these quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (NUM_RESERVED, Corpus, MarkovSource, Vocab, _new_corpus, chain_probs,
                   corpus_to_arrays)
from .errors import DegenerateError, InputError
from .filtering import _check_ratio, _clipped_odds, raw_acceptance_probability

MAX_DOMAIN = 10**6
_CLIP = 1e-12  # ExactDiscriminator clips its scores to [_CLIP, 1 - _CLIP]


@dataclass(frozen=True)
class ExactDistribution:
    """All |V|^L sequences of a domain, as one Corpus in lexicographic
    order, with an aligned probability vector."""

    vocab: Vocab
    length: int
    domain: Corpus
    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)  # a copy, so the caller's stays writable
        if len(probs) != len(self.domain):
            raise InputError("probability vector does not match the domain")
        if not ((probs >= 0) & (probs < np.inf)).all():  # NaN fails both
            raise InputError("probabilities must be finite and non-negative")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.domain)

    def renormalized(self, probs: np.ndarray) -> "ExactDistribution":
        return ExactDistribution(self.vocab, self.length, self.domain, probs)


def sequence_indices(corpus: Corpus, base: int, length: int) -> np.ndarray:
    """Position of each sequence of a corpus in the lexicographic enumeration
    of V^L, where V has ``base`` content tokens."""
    ids, lengths = corpus_to_arrays(corpus)
    if (lengths != length).any():
        raise InputError(f"expected length-{length} sequences")
    states = ids - NUM_RESERVED
    if states.min() < 0 or states.max() >= base:
        raise InputError("corpus contains tokens outside the domain alphabet")
    weights = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return states @ weights


def enumerate_domain(vocab: Vocab, length: int) -> Corpus:
    """Every length-L sequence over the content tokens, in lexicographic
    order, as the rows of one Corpus built from an index grid."""
    k = vocab.content_size
    if length < 1:
        raise InputError("sequence length must be >= 1")
    if k == 0:
        raise InputError("vocabulary has no content tokens")
    if k ** length > MAX_DOMAIN:
        raise InputError("domain too large to enumerate")
    # row r holds the base-k digits of r, most significant first
    grid = np.indices((k,) * length, dtype=np.int64).reshape(length, -1)
    ids = np.ascontiguousarray(grid.T) + NUM_RESERVED
    return _new_corpus(vocab, ids, np.full(len(ids), length), "")


def enumerate_distribution(model_or_source, vocab: Vocab, length: int) -> ExactDistribution:
    """Exhaustive probability table of a model or Markov source over V^L."""
    domain = enumerate_domain(vocab, length)
    if isinstance(model_or_source, MarkovSource):
        if vocab != model_or_source.vocab:
            raise InputError("vocabulary does not match the source")
        probs = chain_probs(model_or_source, domain.ids, domain.lengths)
    else:
        # one row at a time through seq_logprob; only NGramLM's is a
        # per-event loop independent of its batched seq_logprobs
        probs = np.array(
            [math.exp(model_or_source.seq_logprob(ids)) for ids in domain.sequences])
    return ExactDistribution(vocab, length, domain, probs)


def empirical_distribution(corpus: Corpus, template: ExactDistribution) -> ExactDistribution:
    """Relative frequencies of corpus sequences over the template's domain."""
    idx = sequence_indices(corpus, template.vocab.content_size, template.length)
    counts = np.bincount(idx, minlength=len(template)).astype(np.float64)
    return template.renormalized(counts / counts.sum())


def optimal_discriminator(p_real: ExactDistribution,
                          p_model: ExactDistribution) -> np.ndarray:
    """Ideal real-vs-generated score p_r / (p_r + p_model), pointwise.

    Returns an array aligned with the shared domain; where both
    probabilities vanish the score is fixed at 0.5.
    """
    _check_same_domain(p_real, p_model)
    total = p_real.probs + p_model.probs
    out = np.full(len(total), 0.5)
    nz = total > 0
    out[nz] = p_real.probs[nz] / total[nz]
    return out


class ExactDiscriminator:
    """Lookup discriminator over an enumerated domain.

    Scores are clipped to the open interval (0, 1) so downstream filter
    arithmetic never sees the degenerate endpoints.
    """

    def __init__(self, dist: ExactDistribution, scores: np.ndarray):
        if len(scores) != len(dist):
            raise InputError("score vector does not match the domain")
        self.vocab = dist.vocab
        self.length = dist.length
        self._base = dist.vocab.content_size
        self.scores = np.clip(np.asarray(scores, dtype=np.float64), _CLIP, 1.0 - _CLIP)
        self.scores.setflags(write=False)

    def predict_corpus(self, corpus) -> np.ndarray:
        return self.scores[sequence_indices(corpus, self._base, self.length)]


def _acceptance(p_model: ExactDistribution, scores: np.ndarray, ratio: float,
                boundary: float) -> tuple[float, np.ndarray]:
    """Exact acceptance ratio and the per-sequence accepted mass S(x)p(x)."""
    mass = raw_acceptance_probability(scores, ratio, boundary) * p_model.probs
    return float(np.sum(mass)), mass


def exact_filtered_distribution(p_model: ExactDistribution, scores, ratio: float,
                                boundary: float) -> tuple[ExactDistribution, float]:
    """Filtered law S(x)p(x)/c_exact and the exact acceptance ratio c_exact."""
    c_exact, mass = _acceptance(p_model, _score_vector(scores, p_model), ratio, boundary)
    if c_exact <= 0.0:
        raise DegenerateError("filter accepts nothing: zero acceptance mass")
    return p_model.renormalized(mass / c_exact), c_exact


def exact_acceptance(p_model: ExactDistribution, scores, ratio: float, boundary: float) -> float:
    return _acceptance(p_model, _score_vector(scores, p_model), ratio, boundary)[0]


@dataclass(frozen=True)
class BoundarySolution:
    """Result of the exact boundary search for a target acceptance ratio."""

    boundary: float
    acceptance: float
    floor_acceptance: float
    achievable: bool


def exact_boundary(p_model: ExactDistribution, scores, ratio: float) -> BoundarySolution:
    """Smallest boundary whose exact acceptance is <= ratio (and closest to it).

    Acceptance is a step function of the boundary b (a score >= b passes
    outright), so one sort of the distinct scores u_1 < ... < u_m gives each
    plateau [0, u_1], (u_1, u_2], ..., (u_m, 1] its acceptance as cumulative
    sums of p_model weight. It never rises with b, so the first plateau within
    ratio + 1e-12 is the closest; its boundary is 0.0 or min(u_k + 1e-12,
    u_{k+1}), as at b = u_k the u_k sequences would pass outright. The
    acceptance reported is ``exact_acceptance``'s direct sum; if its rounding
    exceeds the limit, the next plateau is taken. If even a boundary of 1.0
    accepts more than ``ratio``, the floor is reported with
    ``achievable=False`` instead of failing.
    """
    _check_ratio(ratio)
    scores = _score_vector(scores, p_model)
    values, inverse = np.unique(scores, return_inverse=True)
    weight = np.bincount(inverse, weights=p_model.probs, minlength=len(values))
    clip = _clipped_odds(values, ratio)  # the acceptance below the boundary
    # plateau k passes values[k:] outright; (u_m, 1] exists only if u_m < 1
    outright = np.append(np.cumsum((weight * (1.0 - clip))[::-1])[::-1], 0.0)
    approx = (np.sum(weight * clip) + outright)[:len(values) + int(values[-1] < 1.0)]
    starts = np.append(0.0, np.minimum(values + 1e-12, np.append(values[1:], 1.0)))
    floor = _acceptance(p_model, scores, ratio, 1.0)[0]
    # rounding is monotone, so approx never rises and the feasible plateaus are a suffix
    for boundary in starts[np.count_nonzero(approx > ratio + 1e-12):len(approx)]:
        acceptance = _acceptance(p_model, scores, ratio, float(boundary))[0]
        if acceptance <= ratio + 1e-12:
            return BoundarySolution(float(boundary), acceptance, floor, True)
    return BoundarySolution(1.0, floor, floor, False)


def tv_distance(p: ExactDistribution, q: ExactDistribution) -> float:
    """Total variation distance, half the L1 difference."""
    _check_same_domain(p, q)
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def js_divergence(p: ExactDistribution, q: ExactDistribution) -> float:
    """Jensen-Shannon divergence in nats."""
    _check_same_domain(p, q)
    m = 0.5 * (p.probs + q.probs)
    return float(0.5 * _kl(p.probs, m) + 0.5 * _kl(q.probs, m))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    nz = p > 0
    if (q[nz] <= 0).any():
        return math.inf
    return float(np.sum(p[nz] * np.log(p[nz] / q[nz])))


def _check_same_domain(p: ExactDistribution, q: ExactDistribution) -> None:
    if p.vocab != q.vocab or p.length != q.length:
        raise InputError("distributions live on different domains")


def _score_vector(scores, p_model: ExactDistribution) -> np.ndarray:
    if hasattr(scores, "predict_corpus"):
        scores = scores.predict_corpus(p_model.domain)
    arr = np.asarray(scores, dtype=np.float64)
    if arr.shape != (len(p_model),):
        raise InputError("score vector does not match the domain")
    if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails both comparisons
        raise InputError("scores must be finite and lie in [0, 1]")
    return arr
