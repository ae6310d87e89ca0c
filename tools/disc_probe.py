"""Scale probe for TextCNN training on user-sized rows.

Builds two synthetic Zipf corpora from a seed with ``ngram_probe.zipf_corpus``
(row lengths uniform in 1..30, word ranks Zipf-distributed over V words),
labels one real and the other generated, and trains the classifier on them
for exactly two epochs with ``train_discriminator_corpora``. Such rows
rarely repeat, unlike the bundled scenarios' batches. It prints one JSON
line with the training time, the number of training steps (batches) and
the CPU milliseconds per step (the training time over the steps, so each
step carries its share of the epochs' validation scoring), a SHA-256 of
the trained parameters and the process's peak RSS. Times are CPU seconds
of this process, a sum over its BLAS threads; set
``OPENBLAS_NUM_THREADS=1`` to time one thread. The trained parameters do
not depend on the thread count.

    PYTHONPATH=src python tools/disc_probe.py --vocab 2000 --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time

import numpy as np

import filtergen as fg
from ngram_probe import zipf_corpus


def probe(vocab_size: int, rows: int, seed: int) -> dict:
    real = zipf_corpus(vocab_size, rows, seed)
    fake = zipf_corpus(vocab_size, rows, seed + 1)
    cfg = fg.DiscConfig(lr=0.05, batch_size=256, max_epochs=2, patience=3, seed=seed)
    steps = 0
    step = fg.TextCNN.loss_and_grads

    def counted_step(*args, **kwargs):
        nonlocal steps
        steps += 1
        return step(*args, **kwargs)

    fg.TextCNN.loss_and_grads = counted_step
    try:
        start = time.process_time()
        disc, report = fg.train_discriminator_corpora(real, fake, cfg)
        train_s = time.process_time() - start
    finally:
        fg.TextCNN.loss_and_grads = step
    digest = hashlib.sha256()
    for name in sorted(disc.params):
        digest.update(np.ascontiguousarray(disc.params[name], dtype="<f8").tobytes())
    return {
        "vocab": vocab_size,
        "rows": rows,
        "seed": seed,
        "epochs": report.epochs,
        "train_s": train_s,
        "steps": steps,
        "step_ms": 1000.0 * train_s / steps,
        "params_sha256": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vocab", type=int, default=2000, help="vocabulary size V")
    parser.add_argument("--rows", type=int, default=5000, help="rows per corpus")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps(probe(args.vocab, args.rows, args.seed)))


if __name__ == "__main__":
    main()
