"""Integer-only golden digests of filtered sampling on s3.

The filter runs on the ideal lookup scores of s3, so every number on the
path is an elementwise float64 operation or an integer: no BLAS, no
reduction whose order could differ across machines. Any change to the
random draws, their order, or the accept/reject bookkeeping moves these
digests.
"""

import hashlib

import numpy as np

import filtergen as fg
from filtergen import oracle

RATIO = 0.2
# mid-plateau between two adjacent ideal scores, so no score sits at the
# boundary within rounding
BOUNDARY = 0.75
N_ACCEPTED = 2000
SEED = 20240

GOLDEN = {
    "attempts": 10322,
    "acceptances": 2000,
    "accepted_sha256": "e8beb3d4a48353dfe44b5fe24725181c05a23be95a0a86f34cfe27b265a5a592",
    "rejected_sha256": "0ee28164f145fde613abb88010c2bc404ccb2bdfc669c6455cc23f6c8eb7e805",
}


def _sha(indices: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(indices, dtype="<i8").tobytes()).hexdigest()


def test_filtered_sampling_golden_on_s3(s3):
    scores = oracle.optimal_discriminator(s3.p_real, s3.p_model)
    disc = oracle.ExactDiscriminator(s3.p_model, scores)
    below = disc.scores[disc.scores < BOUNDARY].max()
    above = disc.scores[disc.scores >= BOUNDARY].min()
    assert below < BOUNDARY - 1e-3 and above > BOUNDARY + 1e-3
    # the plateau is the one the exact solver lands on for c=0.2
    assert below <= oracle.exact_boundary(s3.p_model, disc, RATIO).boundary < above

    gen = fg.FilteredGenerator(s3.generator, disc, fg.FilterParams(RATIO, BOUNDARY))
    sampler = fg.SamplerConfig(max_len=s3.length, seed=SEED)
    accepted, stats = fg.sample_filtered(gen, N_ACCEPTED, sampler,
                                         np.random.default_rng(SEED))
    base, length = s3.vocab.content_size, s3.length
    rejected = stats.rejected_sequences
    got = {
        "attempts": stats.attempts,
        "acceptances": stats.acceptances,
        "accepted_sha256": _sha(oracle.sequence_indices(accepted, base, length)),
        "rejected_sha256": _sha(oracle.sequence_indices(rejected, base, length)),
    }
    assert len(accepted) == N_ACCEPTED
    assert len(stats.rejected_sequences) == stats.attempts - stats.acceptances
    assert got == GOLDEN
