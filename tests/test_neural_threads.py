"""The recurrent generator's products, its training, samples and scores, and
a data-mode pipeline on it, are alike at one and two BLAS threads."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Each row of a _row_product must not depend on the rows beside it: plain
# products of these shapes round some rows differently with them, and so do
# 16-row blocks at one thread. Then one epoch on 600 Zipf rows at V = 500,
# whose output layer's products OpenBLAS splits between two threads.
_NEURAL_RUN = """
import hashlib, json
import numpy as np
import filtergen as fg
from filtergen.genmodel import _row_product
from ngram_probe import zipf_corpus

def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

rows_alike = True
for k, m in ((32, 64), (64, 502), (64, 1001), (32, 2001), (64, 2001), (600, 64)):
    rng = np.random.default_rng(k * m)
    a, b = rng.standard_normal((300, k)), rng.standard_normal((k, m))
    full = _row_product(a, b)
    rows_alike &= bool(np.allclose(full, a @ b, rtol=1e-10, atol=1e-10))
    for size in (1, 5, 8, 63, 200):
        rows = rng.choice(len(a), size, replace=False)
        rows_alike &= _row_product(a[rows], b).tobytes() == full[rows].tobytes()

train = zipf_corpus(500, 600, 0)
model = fg.train_mle(train, None, fg.NeuralConfig(max_epochs=1))
samples = model.sample_corpus(300, fg.SamplerConfig(seed=1))
print(json.dumps({"rows_alike": rows_alike, "params": sha(*model.params.values()),
                  "samples": sha(samples.ids, samples.lengths),
                  "scores": sha(model.seq_logprobs(train))}))
"""


def _run(cmd, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tools"),
                                                      env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_neural_products_training_samples_and_scores_do_not_depend_on_the_blas_threads():
    one, two = (_run([sys.executable, "-c", _NEURAL_RUN], threads) for threads in (1, 2))
    assert one["rows_alike"] and two["rows_alike"]
    assert one == two


def test_neural_pipeline_sweep_does_not_depend_on_the_blas_thread_count():
    cmd = [sys.executable, str(ROOT / "tools" / "pipeline_probe.py"), "--vocab", "500",
           "--rows", "600", "--samples", "1000", "--seed", "0", "--epochs", "1",
           "--rounds", "5", "--generator", "neural"]
    one, two = (_run(cmd, threads) for threads in (1, 2))
    assert one["sweep_sha256"] == two["sweep_sha256"]
