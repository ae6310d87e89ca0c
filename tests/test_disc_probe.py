"""The classifier training probe runs end to end, alike at one and two BLAS threads."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _probe(args, threads=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    if threads is not None:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = str(threads)
    cmd = [sys.executable, str(ROOT / "tools" / "disc_probe.py"), *args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_disc_probe_smoke():
    first, again = (_probe(["--vocab", "50", "--rows", "400", "--seed", "3"])
                    for _ in range(2))
    assert (first["vocab"], first["rows"], first["seed"], first["epochs"]) == (50, 400, 3, 2)
    assert first["train_s"] >= 0.0
    # two epochs of 2 * 360 rows (the 90% of 400 left for training) in
    # batches of 256
    assert first["steps"] == 2 * 3
    assert first["step_ms"] == 1000.0 * first["train_s"] / first["steps"]
    assert first["peak_rss_mb"] > 0
    assert len(first["params_sha256"]) == 64
    assert first["params_sha256"] == again["params_sha256"]


def test_trained_parameters_do_not_depend_on_the_blas_thread_count():
    # at V = 2,000 a batch holds about a thousand distinct tokens, enough for
    # OpenBLAS to split a plain product over them between two threads
    args = ["--vocab", "2000", "--rows", "1500", "--seed", "0"]
    one, two = (_probe(args, threads) for threads in (1, 2))
    assert one["params_sha256"] == two["params_sha256"]
