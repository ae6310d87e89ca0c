"""End-to-end probe of the data-mode pipeline on user-sized text.

Writes three seeded Zipf splits as text with ``ngram_probe.zipf_corpus``
(row lengths uniform in 1..30, word ranks Zipf-distributed over V words):
train with ``--rows`` rows from ``--seed``, valid with rows // 10 from the
next seed and test with rows // 5 from the one after. It then runs
``filtergen pipeline`` on them in data mode, in this process, with the
README's metrics, the default ``vocab_size``, T = 1 and c = 0.5, and the
default bigram or, with ``--generator neural``, the default recurrent
generator; ``--epochs`` and ``--rounds`` cap classifier training (and the
recurrent generator's training) and the boundary search to keep the run
short. It prints one JSON line with each
stage's wall time from ``manifest.json``, the run's wall time, the
process's peak RSS and the SHA-256 of ``sweep.csv``. BLAS is held to one
thread (unless the environment already sets its thread count), so the
digest does not depend on the machine's core count.

    PYTHONPATH=src python tools/pipeline_probe.py --vocab 2000 --seed 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import tempfile
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # before numpy loads BLAS

import filtergen as fg  # noqa: E402
from filtergen import cli  # noqa: E402
from ngram_probe import zipf_corpus  # noqa: E402


def probe(vocab_size: int, rows: int, samples: int, seed: int, epochs: int,
          rounds: int, generator: str = "ngram") -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        splits = {"train": rows, "valid": rows // 10, "test": rows // 5}
        for offset, (name, n) in enumerate(splits.items()):
            fg.save_corpus(zipf_corpus(vocab_size, n, seed + offset), tmp / f"{name}.txt")
        config = {
            "seed": seed,
            "data": {name: str(tmp / f"{name}.txt") for name in splits},
            "generator": ({"kind": "neural", "max_epochs": epochs} if generator == "neural"
                          else {"kind": "ngram"}),
            "discriminator": {"lr": 0.05, "batch_size": 256, "max_epochs": epochs,
                              "patience": 8},
            "filter": {"c": [0.5]},
            "temperatures": [1.0],
            "metrics": ["bleu", "selfbleu", "lm", "rlm", "fed"],
            "eval": {"n_samples": samples},
            "uc": {"rounds": rounds},
        }
        (tmp / "config.json").write_text(json.dumps(config))
        out = tmp / "run"
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):  # the manifest it prints
            code = cli.main(["pipeline", "--config", str(tmp / "config.json"),
                             "--out-dir", str(out)])
        wall_s = time.perf_counter() - start
        if code:
            raise SystemExit(code)
        manifest = json.loads((out / "manifest.json").read_text())
        sweep = (out / "sweep.csv").read_bytes()
    return {
        "vocab": vocab_size,
        "rows": rows,
        "samples": samples,
        "seed": seed,
        "epochs": epochs,
        "rounds": rounds,
        "generator": generator,
        "stages_s": {st["name"]: st["wall_clock_s"] for st in manifest["stages"]},
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sweep_sha256": hashlib.sha256(sweep).hexdigest(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vocab", type=int, default=2000, help="vocabulary size V")
    parser.add_argument("--rows", type=int, default=20_000, help="training rows")
    parser.add_argument("--samples", type=int, default=2000,
                        help="eval.n_samples (at least 1000, the reverse LM's minimum)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=3,
                        help="discriminator.max_epochs, and the neural generator's")
    parser.add_argument("--rounds", type=int, default=20, help="uc.rounds")
    parser.add_argument("--generator", choices=("ngram", "neural"), default="ngram",
                        help="generator.kind")
    args = parser.parse_args(argv)
    print(json.dumps(probe(args.vocab, args.rows, args.samples, args.seed, args.epochs,
                           args.rounds, args.generator)))


if __name__ == "__main__":
    main()
