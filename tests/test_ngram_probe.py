"""The n-gram scale probe runs end to end at a small vocabulary, and its digests repeat."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ngram_probe_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "tools" / "ngram_probe.py"), "--vocab", "50",
           "--rows", "500", "--samples", "200", "--seed", "3"]
    runs = [subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    first, again = (json.loads(proc.stdout.strip().splitlines()[-1]) for proc in runs)
    assert ((first["vocab"], first["rows"], first["test_rows"], first["samples"], first["seed"])
            == (50, 500, 100, 200, 3))
    assert 1 <= first["contexts"] <= 51
    # a row per context, the uniform row and the first step's, each 1 to 52
    # segments (a segment per seen entry and per run of unseen ones over the
    # 52 support symbols: EOS, UNK and the 50 words); at 8 bytes a number,
    # each row's start, span and floor, each row's CDF start and each
    # segment's CDF end, first index and width, and the 52 next rows
    rows, segments = first["table_rows"], first["table_segments"]
    assert rows == first["contexts"] + 2
    assert rows < segments <= rows * 52
    assert first["table_bytes"] == 8 * (3 * rows + 3 * (rows + segments) + 52)
    assert min(first[k] for k in ("fit_s", "score_cold_s", "score_warm_s",
                                  "sample_cold_s", "sample_warm_s", "sample_small_s")) >= 0.0
    assert first["peak_rss_mb"] > 0
    assert first["scores_sha256"] == again["scores_sha256"]
    assert first["samples_sha256"] == again["samples_sha256"]
    assert first["table_bytes"] == again["table_bytes"]
