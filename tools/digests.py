"""Digests of the outputs that a change meant to keep them should leave bit-identical.

Prints one JSON object with sorted keys:

- ``pipeline/seed<k>/<file>``: the SHA-256 of every artifact but
  ``manifest.json`` of the README pipeline config
  (``perfbench.workloads.README_PIPELINE``, scenario s2) at seeds 5 and 11;
- ``perfbench/<workload>/seed<k>``: the digest each benchmark workload's
  ``check`` returns after one pass, at seeds 1 and 2;
- ``ngram_probe/...``: the score and sample digests of
  ``tools/ngram_probe.py --vocab 2000 --seed 0``, and of ``--vocab 5000
  --samples 5000``;
- ``disc_probe/...``: the parameter digest of
  ``tools/disc_probe.py --vocab 2000 --rows 1500 --seed 0``;
- ``pipeline_probe/...``: the ``sweep.csv`` digest of
  ``tools/pipeline_probe.py --vocab 2000 --seed 0``, and of
  ``--vocab 500 --rows 4000 --epochs 2 --generator neural``;
- ``numpy/version`` and ``numpy/blas``: the build they were computed with.
  TextCNN, NeuralLM and FED bits may differ between BLAS builds.

With ``--against FILE`` it prints, in place of the object, every key whose
value differs from the one in FILE (a saved run), then an ``N moved`` line,
and exits with code 1 when N > 0. BLAS is held to one thread (unless the
environment already sets its thread count) before numpy loads, as in the
probes. It runs everything in this process, in about a minute, and peaks
near 500 MB of RSS.

    PYTHONPATH=src python tools/digests.py > DIGESTS.json
    PYTHONPATH=src python tools/digests.py --against DIGESTS.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # for perfbench

import numpy as np  # noqa: E402

import disc_probe  # noqa: E402
import ngram_probe  # noqa: E402
import pipeline_probe  # noqa: E402
from filtergen import cli  # noqa: E402
from perfbench import workloads  # noqa: E402

PIPELINE_SEEDS = (5, 11)
WORKLOAD_SEEDS = (1, 2)


def pipeline_digests(seed: int) -> dict:
    """SHA-256 of each file but ``manifest.json`` that ``filtergen pipeline``
    writes for the README config at ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = {**workloads.README_PIPELINE, "seed": seed}
        (tmp / "config.json").write_text(json.dumps(config))
        out = tmp / "run"
        with contextlib.redirect_stdout(io.StringIO()):  # the manifest it prints
            code = cli.main(["pipeline", "--config", str(tmp / "config.json"),
                             "--out-dir", str(out)])
        if code:
            raise SystemExit(f"pipeline at seed {seed} exited with code {code}")
        return {f"pipeline/seed{seed}/{path.relative_to(out).as_posix()}":
                hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.rglob("*"))
                if path.is_file() and path.name != "manifest.json"}


def workload_digests(seed: int) -> dict:
    """The ``check`` digest of one pass of each benchmark workload at ``seed``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (workloads.FilterS3(seed), workloads.DiscTrainS3(seed),
                         workloads.PipelineS2(seed, Path(tmp))):
            state = workload.setup()
            problems, digest = workload.check(state, workload.run_pass(state))
            workload.cleanup()
            if problems:
                raise SystemExit(f"{workload.name} at seed {seed}: {'; '.join(problems)}")
            out[f"perfbench/{workload.name}/seed{seed}"] = digest
    return out


def collect() -> dict:
    found = {}
    for seed in PIPELINE_SEEDS:
        found.update(pipeline_digests(seed))
    for seed in WORKLOAD_SEEDS:
        found.update(workload_digests(seed))
    ngram = ngram_probe.probe(2000, 20_000, 1000, 0)
    found["ngram_probe/vocab2000/scores_sha256"] = ngram["scores_sha256"]
    found["ngram_probe/vocab2000/samples_sha256"] = ngram["samples_sha256"]
    ngram = ngram_probe.probe(5000, 20_000, 5000, 0)
    found["ngram_probe/vocab5000_samples5000/scores_sha256"] = ngram["scores_sha256"]
    found["ngram_probe/vocab5000_samples5000/samples_sha256"] = ngram["samples_sha256"]
    found["disc_probe/vocab2000_rows1500/params_sha256"] = (
        disc_probe.probe(2000, 1500, 0)["params_sha256"])
    found["pipeline_probe/vocab2000/sweep_sha256"] = (
        pipeline_probe.probe(2000, 20_000, 2000, 0, 3, 20)["sweep_sha256"])
    found["pipeline_probe/vocab500_rows4000_epochs2_neural/sweep_sha256"] = (
        pipeline_probe.probe(500, 4000, 2000, 0, 2, 20, "neural")["sweep_sha256"])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found["numpy/version"] = np.__version__
    found["numpy/blas"] = " ".join(str(blas.get(k, "")) for k in
                                   ("name", "version", "openblas configuration"))
    return found


def moved(before: dict, after: dict) -> list[str]:
    """One line per key whose value differs between two runs, or that one lacks."""
    return [f"{key}: {before.get(key)} -> {after.get(key)}"
            for key in sorted(before.keys() | after.keys())
            if before.get(key) != after.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="a saved run to compare with")
    args = parser.parse_args(argv)
    found = collect()
    if args.against is None:
        print(json.dumps(found, indent=1, sort_keys=True))
        return 0
    lines = moved(json.loads(args.against.read_text()), found)
    for line in lines:
        print(line)
    print(f"{len(lines)} moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
