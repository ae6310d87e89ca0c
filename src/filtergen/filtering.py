"""Rejection filter over a base generator, steered by a discriminator.

A candidate with discriminator score d is accepted outright when
d >= boundary, and otherwise with probability min(1, ratio * d / (1 - d)).
Composing this accept/reject loop with a generator yields a new generator
whose output law is the filtered, renormalized distribution; when the
discriminator equals the ideal score, the filtered law matches the real
distribution on the filtered region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus
from .errors import BudgetError, InputError, check_fields, integer, number
from .genmodel import SamplerConfig, length_cap

RATIO_CAP = 1e9  # keeps d/(1-d) finite as d approaches 1
# The default attempt budget per requested sample of filtered sampling.
MAX_ATTEMPTS_PER_SAMPLE = 10_000
# Rows the boundary search scores per classifier call: 16 rounds of the
# default 1000 samples. Scoring all 100 rounds at once grew the README
# pipeline's peak RSS by a fifth.
_BLOCK_ROWS = 16_384


def raw_acceptance_probability(scores, ratio, boundary):
    """Piecewise acceptance probability without input validation.

    Vectorized over ``scores``; tolerates the closed interval [0, 1] so the
    exact oracle can evaluate it on ideal score vectors.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return np.where(scores >= boundary, 1.0, _clipped_odds(scores, ratio))


def _clipped_odds(scores: np.ndarray, ratio) -> np.ndarray:
    """min(1, ratio * d / (1 - d)) per float64 score d: the acceptance
    probability below the boundary, which does not depend on the boundary."""
    odds = np.divide(scores, 1.0 - scores, out=np.full(scores.shape, RATIO_CAP),
                     where=scores < 1.0)
    np.minimum(odds, RATIO_CAP, out=odds)
    odds *= ratio
    return np.minimum(odds, 1.0, out=odds)


def acceptance_probability(score, ratio: float, boundary: float):
    """Acceptance probability for score(s) strictly inside (0, 1)."""
    arr = np.asarray(score, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise InputError("discriminator score must lie strictly in (0, 1)")
    _check_params(ratio, boundary)
    out = raw_acceptance_probability(arr, ratio, boundary)
    return float(out) if np.isscalar(score) or arr.ndim == 0 else out


def _check_ratio(ratio: float) -> None:
    if not 0.0 < ratio <= 1.0:
        raise InputError("acceptance ratio must be in (0, 1]")


def _check_params(ratio: float, boundary: float) -> None:
    _check_ratio(ratio)
    if not 0.0 <= boundary <= 1.0:
        raise InputError("sampling boundary must be in [0, 1]")


@dataclass(frozen=True)
class FilterParams:
    """Target acceptance ratio plus the score boundary realizing it.

    A ratio of 1 means the identity filter, which forces the boundary to 0
    so every candidate is accepted outright.
    """

    acceptance_ratio: float
    boundary: float

    def __post_init__(self):
        _check_params(self.acceptance_ratio, self.boundary)
        if self.acceptance_ratio == 1.0 and self.boundary != 0.0:
            raise InputError("ratio 1.0 is the identity filter; boundary must be 0")


def _accept_mask(scores: np.ndarray, ratio: float, boundary: float, rng) -> np.ndarray:
    """One accept/reject decision per score, with one uniform draw each."""
    z = rng.random(len(scores))
    return (scores >= boundary) | (z <= _clipped_odds(scores, ratio))


@dataclass(frozen=True)
class BoundaryEstimateConfig:
    """Knobs of the iterative boundary search."""

    samples_per_round: int = 1000
    rounds: int = 100
    step: float = 0.01
    init: float = 0.5
    tail: int = 10  # rounds averaged into the returned boundary

    def __post_init__(self):
        check_fields(self, samples_per_round=integer(1), rounds=integer(1),
                     step=number("(0, 1)"), init=number("[0, 1]"), tail=integer(1))


def estimate_boundary(gen, disc, ratio: float, cfg: BoundaryEstimateConfig | None = None,
                      sampler: SamplerConfig | None = None, rng=None,
                      ) -> tuple[float, list[dict]]:
    """Monte Carlo search for the boundary matching a target acceptance ratio.

    Each round draws a fresh batch from the generator, measures the
    empirical acceptance under the current boundary, and nudges the
    boundary down when acceptance falls short of the target, up when it
    overshoots. The raw iterate oscillates around the fixed point by
    construction, so the returned boundary averages the last ``cfg.tail``
    rounds. Returns the boundary plus the full per-round trace.

    A round's batch and its uniforms do not depend on the boundary, so
    they are drawn a block of consecutive rounds of at most ``_BLOCK_ROWS``
    rows (and at least one round) ahead, with one ``rng.random`` call that
    lays them out as one round at a time would draw them: the generator's
    ``length_cap`` steps of one uniform per row, then one accept uniform
    per row. The generator samples the block with one ``gen.sample_block``
    call and the classifier scores it with one ``disc.predict_corpus``
    call; the rows equal those of one ``sample_corpus`` call per round and
    a score depends on its row alone, so the scores, the trace and the rng
    state after the search are those of sampling and scoring round by round.

    A fixed point only exists when some boundary attains the target ratio:
    with a sharply bimodal score distribution the achievable acceptance
    set has gaps, the iterate oscillates across a gap, and no boundary is
    right. Inspect the trace (alternating acceptances far from the
    target), or ``oracle.exact_boundary`` on enumerable domains, to detect
    an unachievable target.
    """
    _check_ratio(ratio)
    cfg = cfg or BoundaryEstimateConfig()
    sampler = sampler or SamplerConfig()
    rng = np.random.default_rng(sampler.seed) if rng is None else rng
    n = cfg.samples_per_round
    steps = length_cap(gen, sampler)
    per_block = max(1, _BLOCK_ROWS // n)
    boundary = cfg.init
    trace = []
    for first in range(0, cfg.rounds, per_block):
        draws = rng.random((min(per_block, cfg.rounds - first), steps + 1, n))
        batch = gen.sample_block(draws[:, :steps], sampler)
        scores = np.asarray(disc.predict_corpus(batch), dtype=np.float64)
        scores = scores.reshape(len(draws), n)
        # the part of _accept_mask's decision the boundary does not enter
        below_odds = draws[:, steps] <= _clipped_odds(scores, ratio)
        for round_idx, (s, z_ok) in enumerate(zip(scores, below_odds), first):
            acc = int(np.count_nonzero((s >= boundary) | z_ok)) / n
            trace.append({"round": round_idx, "u_c": boundary, "acceptance": acc})
            # ties move down so the ratio-1 target settles at boundary 0
            boundary = boundary - cfg.step if acc <= ratio else boundary + cfg.step
            boundary = min(max(boundary, 0.0), 1.0)
    final = float(np.mean([row["u_c"] for row in trace[-cfg.tail:]]))
    return final, trace


@dataclass
class FilterStats:
    """Bookkeeping of one filtered-sampling run.

    The kept prefix of the rejected stream is a list of ``Corpus`` blocks,
    one per batch that rejected anything while the keep limit had room.
    """

    attempts: int = 0
    acceptances: int = 0
    sum_score_accepted: float = 0.0
    sum_score_rejected: float = 0.0
    rejected_blocks: list = field(default_factory=list)

    @property
    def rejected_sequences(self) -> Corpus | tuple:
        """Every rejected sequence kept, in order; empty when there is none."""
        if not self.rejected_blocks:
            return ()
        return Corpus.concat(self.rejected_blocks, "rejected")

    @property
    def acceptance_rate(self) -> float:
        return self.acceptances / self.attempts if self.attempts else 0.0

    @property
    def mean_score_accepted(self) -> float:
        return self.sum_score_accepted / self.acceptances if self.acceptances else math.nan

    @property
    def mean_score_rejected(self) -> float:
        n = self.attempts - self.acceptances
        return self.sum_score_rejected / n if n else math.nan

    def to_dict(self) -> dict:
        """The counts and means, with None (JSON null) for an undefined mean."""
        return {
            "attempts": self.attempts,
            "acceptances": self.acceptances,
            "acceptance_rate": self.acceptance_rate,
            "mean_score_accepted": _defined(self.mean_score_accepted),
            "mean_score_rejected": _defined(self.mean_score_rejected),
        }


def _defined(mean: float) -> float | None:
    return None if math.isnan(mean) else mean


@dataclass(frozen=True)
class FilteredGenerator:
    """A base generator composed with the rejection filter."""

    gen: object
    disc: object
    params: FilterParams
    max_attempts_per_sample: int = MAX_ATTEMPTS_PER_SAMPLE

    def __post_init__(self):
        check_fields(self, max_attempts_per_sample=integer(1))

    @property
    def vocab(self):
        return self.gen.vocab

    @property
    def fixed_length(self):
        return self.gen.fixed_length

    def sample_corpus(self, n: int, cfg: SamplerConfig, rng=None,
                      split: str = "") -> Corpus:
        corpus, _ = sample_filtered(self, n, cfg, rng, split=split, keep_rejected=0)
        return corpus


def sample_filtered(fg: FilteredGenerator, n: int, cfg: SamplerConfig, rng=None,
                    split: str = "accepted", keep_rejected: int | None = None,
                    ) -> tuple[Corpus, FilterStats]:
    """Draw until ``n`` candidates are accepted; returns them plus stats.

    Generation and accept/reject decisions use two independent streams
    spawned from one rng, so with ratio 1 the accepted stream reproduces
    the base generator's output for the same seed bit for bit. The stats
    keep the first ``keep_rejected`` rejected sequences, or all of them when
    it is None; the counts and mean scores cover every rejection. Raises
    ``BudgetError`` (carrying partial results) if the attempt budget
    ``max_attempts_per_sample * n`` runs out.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    accept_rng = rng.spawn(1)[0]
    stats = FilterStats()
    accepted: list = []  # Corpus blocks, one per batch that accepted anything
    budget = fg.max_attempts_per_sample * n
    # no run rejects more than its budget of attempts
    room = budget if keep_rejected is None else keep_rejected
    while stats.acceptances < n:
        want = n - stats.acceptances
        batch_size = min(want, budget - stats.attempts)
        if batch_size <= 0:
            partial = Corpus.concat(accepted, split) if accepted else None
            raise BudgetError(
                f"attempt budget {budget} exhausted with {stats.acceptances}/{n} accepted",
                partial=partial, stats=stats)
        batch = fg.gen.sample_corpus(batch_size, cfg, rng)
        scores = np.asarray(fg.disc.predict_corpus(batch), dtype=np.float64)
        mask = _accept_mask(scores, fg.params.acceptance_ratio, fg.params.boundary,
                            accept_rng)
        ok, rejected = np.flatnonzero(mask), np.flatnonzero(~mask)
        stats.attempts += batch_size
        stats.acceptances += len(ok)
        stats.sum_score_accepted += float(scores.take(ok).sum())
        stats.sum_score_rejected += float(scores.take(rejected).sum())
        if len(ok):
            accepted.append(batch[ok])
        if len(rejected) and room > 0:
            rows = rejected[:room]
            stats.rejected_blocks.append(batch[rows])
            room -= len(rows)
    return Corpus.concat(accepted, split), stats
