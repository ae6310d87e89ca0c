"""The pipeline probe runs end to end at a small vocabulary, on either
generator, and its digest repeats."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pipeline_probe_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "tools" / "pipeline_probe.py"), "--vocab", "50",
           "--rows", "500", "--samples", "1000", "--seed", "3", "--epochs", "1",
           "--rounds", "5"]
    for generator in ("ngram", "neural"):
        runs = [subprocess.run(cmd + ["--generator", generator], env=env,
                               capture_output=True, text=True, timeout=300)
                for _ in range(2)]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
        first, again = (json.loads(proc.stdout.strip().splitlines()[-1]) for proc in runs)
        assert ((first["vocab"], first["rows"], first["samples"], first["seed"],
                 first["epochs"], first["rounds"], first["generator"])
                == (50, 500, 1000, 3, 1, 5, generator))
        assert list(first["stages_s"]) == ["data", "train-gen", "train-disc", "estimate-uc",
                                           "sample", "evaluate"]
        assert min(first["stages_s"].values()) >= 0.0
        assert first["wall_s"] > 0
        assert first["peak_rss_mb"] > 0
        assert first["sweep_sha256"] == again["sweep_sha256"], generator
