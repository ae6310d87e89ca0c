"""The classifier training probe runs end to end at a small vocabulary."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_disc_probe_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "tools" / "disc_probe.py"), "--vocab", "50",
           "--rows", "400", "--seed", "3"]
    runs = [subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    first, again = (json.loads(proc.stdout.strip().splitlines()[-1]) for proc in runs)
    assert (first["vocab"], first["rows"], first["seed"], first["epochs"]) == (50, 400, 3, 2)
    assert first["train_s"] >= 0.0
    assert first["peak_rss_mb"] > 0
    assert len(first["params_sha256"]) == 64
    assert first["params_sha256"] == again["params_sha256"]
