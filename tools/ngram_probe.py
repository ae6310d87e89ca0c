"""Scale probe for the n-gram generator on a synthetic Zipf corpus.

Builds a corpus from a seed, with no download: row lengths uniform in
1..30 and word ranks Zipf-distributed (p(r) proportional to 1/r) over a
vocabulary of V words. It fits a bigram over it (the CLI's default
generator), scores a held-out split of rows // 5 rows, built the same way
from the next seed, twice with ``seq_logprobs``, then samples twice with
``sample_corpus``, and then makes 200 warm ``sample_corpus`` calls of 10
rows each, where the per-call cost shows. It prints one JSON line with the
fit time, the cold and warm scoring and sampling times, the time of the
small calls, the bytes of the model's sampling table's arrays, its rows
and segments (a row per context, plus the uniform row and the first
step's; a segment per seen entry and per run of unseen ones), SHA-256
digests of the scores and of the two large samples' ids, and the
process's peak RSS. Times are CPU seconds of this process.

    PYTHONPATH=src python tools/ngram_probe.py --vocab 2000 --seed 0

Dense counts take V * (V + 2) * 8 bytes, so keep V small: about 32 MB at
V = 2,000 and 800 MB at V = 10,000.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time

import numpy as np

import filtergen as fg
from filtergen.data import NUM_RESERVED

SMALL_CALLS, SMALL_ROWS = 200, 10  # the small sample_corpus calls timed together


def zipf_corpus(vocab_size: int, rows: int, seed: int) -> fg.Corpus:
    rng = np.random.default_rng(seed)
    vocab = fg.Vocab(tuple(f"w{i}" for i in range(vocab_size)))
    weights = 1.0 / np.arange(1, vocab_size + 1)
    lengths = rng.integers(1, 31, rows)
    ids = rng.choice(vocab_size, size=(rows, 30), p=weights / weights.sum())
    return fg.Corpus.from_arrays(vocab, ids + NUM_RESERVED, lengths, "train")


def probe(vocab_size: int, rows: int, samples: int, seed: int) -> dict:
    test_rows = rows // 5
    corpus = zipf_corpus(vocab_size, rows, seed)
    held_out = zipf_corpus(vocab_size, test_rows, seed + 1)
    start = time.process_time()
    model = fg.train_mle(corpus, None, fg.NGramConfig(order=2))
    fit_s = time.process_time() - start
    score_digest = hashlib.sha256()
    score_times = []
    for _ in range(2):  # cold, then warm
        start = time.process_time()
        scores = model.seq_logprobs(held_out)
        score_times.append(time.process_time() - start)
        score_digest.update(np.ascontiguousarray(scores, dtype="<f8").tobytes())
    digest = hashlib.sha256()
    times = []
    for call in range(2):  # cold, then warm
        cfg = fg.SamplerConfig(seed=seed + call)
        start = time.process_time()
        sampled = model.sample_corpus(samples, cfg)
        times.append(time.process_time() - start)
        digest.update(np.ascontiguousarray(sampled.ids, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(sampled.lengths, dtype="<i8").tobytes())
    small_cfg = fg.SamplerConfig(seed=seed + 2)
    small_rng = np.random.default_rng(small_cfg.seed)
    start = time.process_time()
    for _ in range(SMALL_CALLS):
        model.sample_corpus(SMALL_ROWS, small_cfg, small_rng)
    small_s = time.process_time() - start
    table = model._table
    return {
        "vocab": vocab_size,
        "rows": rows,
        "test_rows": test_rows,
        "samples": samples,
        "seed": seed,
        "contexts": len(model._row_of),
        "fit_s": fit_s,
        "score_cold_s": score_times[0],
        "score_warm_s": score_times[1],
        "scores_sha256": score_digest.hexdigest(),
        "sample_cold_s": times[0],
        "sample_warm_s": times[1],
        "sample_small_s": small_s,
        "table_bytes": sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray)),
        "table_rows": len(table.starts),
        "table_segments": len(table.ends) - len(table.starts),
        "samples_sha256": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vocab", type=int, default=2000, help="vocabulary size V")
    parser.add_argument("--rows", type=int, default=20_000, help="training rows")
    parser.add_argument("--samples", type=int, default=1000, help="rows per sample call")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps(probe(args.vocab, args.rows, args.samples, args.seed)))


if __name__ == "__main__":
    main()
