"""The three benchmark workloads, driven only through filtergen's public calls.

Each workload has a ``setup`` (timed on its own as ``setup_s``), a timed
``run_pass`` that does one fixed unit of work, and a ``check`` that runs
outside the timed region and returns the list of mismatches. Every pass
of one run uses the same inputs, so each pass's output must also equal the
first pass's. Functions are looked up through their module at call time
(``fg.filtering.sample_filtered``), never bound at import, so the tracer's
wrappers see every call.

- ``filter-s3``: exact boundary at c=0.2 on a briefly trained TextCNN, then
  filtered sampling to 20k accepted sequences (criterion-4 flow).
- ``disc-train-s3``: one ``train_discriminator`` of exactly 2 epochs
  (criterion-5 unit of work).
- ``pipeline-s2``: the README ``pipeline`` config via ``filtergen.cli.main``,
  each run in a fresh out-dir (the user path).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import filtergen as fg
import filtergen.cli


class ExitError(Exception):
    """The command-line entry point returned a non-zero exit code."""


def derive(seed: int, label: str) -> int:
    """Stable 31-bit sub-seed of the workload seed, independent of filtergen."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# Conftest training hyperparameters; patience above max_epochs pins the
# epoch count, because early stopping would make it depend on float rounding.
DISC_LR, DISC_BATCH = 0.05, 256


class Workload:
    """Defaults for the optional parts of a workload."""

    def pass_layers(self, output) -> dict:
        """Per-layer figures the program itself reports for one pass."""
        return {}

    def cleanup(self) -> None:
        """Remove whatever the passes wrote."""


class FilterS3(Workload):
    name = "filter-s3"
    setup_repeats = 3
    ratio = 0.2

    # 20k accepted (about 100k attempts) per pass rather than 100k, so that
    # a run holds about ten passes for its median; the batches stay large,
    # so the per-sequence cost is that of a 100k pass
    def __init__(self, seed: int, n: int = 20_000, setup_epochs: int = 3):
        self.seed, self.n, self.setup_epochs = seed, n, setup_epochs

    def setup(self):
        s3 = fg.scenarios.build_scenario("s3")
        disc_seed = derive(self.seed, "disc")
        cfg = fg.DiscConfig(lr=DISC_LR, batch_size=DISC_BATCH,
                            max_epochs=self.setup_epochs,
                            patience=self.setup_epochs + 1, seed=disc_seed)
        disc, _ = fg.disc.train_discriminator(s3.train, s3.generator, cfg,
                                              np.random.default_rng(disc_seed))
        return s3, disc

    def run_pass(self, state):
        s3, disc = state
        sol = fg.oracle.exact_boundary(s3.p_model, disc, self.ratio)
        gen = fg.FilteredGenerator(s3.generator, disc,
                                   fg.FilterParams(self.ratio, sol.boundary))
        sampler_seed = derive(self.seed, "filter")
        sampler = fg.SamplerConfig(temperature=1.0, max_len=s3.length, seed=sampler_seed)
        accepted, stats = fg.filtering.sample_filtered(
            gen, self.n, sampler, np.random.default_rng(sampler_seed))
        return sol.boundary, accepted, stats

    def seqs(self, state, output) -> int:
        return len(output[1])

    def check(self, state, output) -> tuple[list[str], str]:
        s3, disc = state
        boundary, accepted, stats = output
        problems = []
        if len(accepted) != self.n:
            problems.append(f"accepted {len(accepted)} != n={self.n}")
        scores = disc.predict_corpus(s3.p_model.domain)
        c_exact = fg.oracle.exact_acceptance(s3.p_model, scores, self.ratio, boundary)
        c_emp = stats.acceptances / stats.attempts
        # multinomial (here binomial) bound at five standard deviations
        tol = 5.0 * math.sqrt(c_exact * (1.0 - c_exact) / stats.attempts)
        if abs(c_emp - c_exact) > tol:
            problems.append(f"acceptance {c_emp:.5f} vs exact {c_exact:.5f} (tol {tol:.5f})")
        filtered, _ = fg.exact_filtered_distribution(s3.p_model, scores, self.ratio, boundary)
        idx = fg.oracle.sequence_indices(accepted, s3.vocab.content_size, s3.length)
        counts = np.bincount(idx, minlength=len(s3.p_real)).astype(np.float64)
        empirical = s3.p_real.renormalized(counts / counts.sum())
        tv_emp = fg.tv_distance(empirical, s3.p_real)
        tv_exact = fg.tv_distance(filtered, s3.p_real)
        # |TV(emp, real) - TV(filtered, real)| <= TV(emp, filtered), whose
        # mean is below half the summed per-cell standard deviations
        q = filtered.probs
        tv_tol = 3.0 * 0.5 * float(np.sqrt(q * (1.0 - q) / len(accepted)).sum())
        if abs(tv_emp - tv_exact) > tv_tol:
            problems.append(f"empirical TV {tv_emp:.5f} vs exact filtered "
                            f"{tv_exact:.5f} (tol {tv_tol:.5f})")
        if not tv_emp < s3.tv_baseline:
            problems.append(f"empirical TV {tv_emp:.5f} not below baseline "
                            f"{s3.tv_baseline:.5f}")
        return problems, _digest(np.array([boundary, stats.attempts]), idx)


class DiscTrainS3(Workload):
    name = "disc-train-s3"
    setup_repeats = 15
    # best validation accuracy of 2-epoch runs on seeds 1-12 was 0.610-0.639;
    # an untrained classifier scores about 0.5
    accuracy_floor = 0.58

    def __init__(self, seed: int, epochs: int = 2):
        self.seed, self.epochs = seed, epochs

    def setup(self):
        return fg.scenarios.build_scenario("s3")

    def run_pass(self, s3):
        disc_seed = derive(self.seed, "disc")
        cfg = fg.DiscConfig(lr=DISC_LR, batch_size=DISC_BATCH, max_epochs=self.epochs,
                            patience=self.epochs + 1, seed=disc_seed)
        return fg.disc.train_discriminator(s3.train, s3.generator, cfg,
                                           np.random.default_rng(disc_seed))

    def seqs(self, s3, output) -> int:
        # epochs x (real + equally many fresh negatives); the held-out tenth
        # of the real corpus is not trained on
        _, report = output
        real_train = len(s3.train) - max(1, len(s3.train) // 10)
        return report.epochs * 2 * real_train

    def check(self, s3, output) -> tuple[list[str], str]:
        disc, report = output
        problems = []
        if report.epochs != self.epochs:
            problems.append(f"{report.epochs} epochs ran, expected {self.epochs}")
        if report.final_valid_accuracy < self.accuracy_floor:
            problems.append(f"validation accuracy {report.final_valid_accuracy:.4f} "
                            f"below floor {self.accuracy_floor}")
        return problems, _digest(np.array(report.train_loss),
                                 *(disc.params[k] for k in sorted(disc.params)))


README_PIPELINE = {
    "scenario": "s2",
    "discriminator": {"lr": 0.05, "batch_size": 256, "max_epochs": 120, "patience": 8},
    "filter": {"c": [1.0, 0.5]},
    "temperatures": [0.9, 1.0, 1.1, 1.2],
    "metrics": ["bleu", "selfbleu", "lm", "rlm", "fed"],
    "eval": {"n_samples": 2000},
}

STAGES = ("data", "train-gen", "train-disc", "estimate-uc", "sample", "evaluate")
_METRIC_COLUMNS = {"bleu": "bleu5", "selfbleu": "self_bleu5", "lm": "lm_score",
                   "rlm": "rev_lm_score", "fed": "fed", "err": "error_rate"}


class PipelineS2(Workload):
    name = "pipeline-s2"
    setup_repeats = 15
    # largest |acceptance - 0.5| over 20 c=0.5 streams on 5 seeds was 0.027
    acceptance_tol = 0.06

    def __init__(self, seed: int, scratch: Path, config: dict | None = None,
                 runs_per_pass: int = 2):
        # Training to convergence makes one pipeline's time depend on its
        # seed's epoch count, so a pass runs several sub-seeded pipelines.
        base = config or README_PIPELINE
        self.configs = [{**base, "seed": derive(seed, f"pipeline/{k}")}
                        for k in range(runs_per_pass)]
        self.scratch = Path(scratch)
        self._dirs: list[Path] = []

    def _fresh_dir(self) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))
        self._dirs.append(path)
        return path

    def setup(self):
        # the program gets only the generated configs; the scenario built
        # here is the independent reference for the oracle report
        run_dir = self._fresh_dir()
        paths = []
        for k, config in enumerate(self.configs):
            paths.append(run_dir / f"config{k}.json")
            paths[-1].write_text(json.dumps(config))
        return paths, fg.scenarios.build_scenario(self.configs[0]["scenario"])

    def run_pass(self, state):
        outs = []
        for config_path in state[0]:
            outs.append(self._fresh_dir() / "run")
            with contextlib.redirect_stdout(io.StringIO()):
                code = fg.cli.main(["pipeline", "--config", str(config_path),
                                    "--out-dir", str(outs[-1])])
            if code != 0:
                raise ExitError(f"filtergen pipeline exited with code {code}")
        return outs

    def seqs(self, state, output) -> int:
        # accepted sequences delivered: n_samples per (temperature, c) per run
        return sum(cfg["eval"]["n_samples"] * len(cfg["temperatures"])
                   * len(cfg["filter"]["c"]) for cfg in self.configs)

    def check(self, state, output) -> tuple[list[str], str]:
        problems, digest = [], hashlib.sha256()
        for config, out in zip(self.configs, output):
            found, sweep = self._check_run(config, state[1], out)
            problems.extend(f"seed {config['seed']}: {p}" for p in found)
            digest.update(sweep.encode())
        return problems, digest.hexdigest()

    def _check_run(self, config, scenario, out) -> tuple[list[str], str]:
        problems = []
        oracle = json.loads((out / "oracle_report.json").read_text())
        if oracle.get("pass") is not True:
            problems.append("oracle_report.json: pass is not true")
        if abs(oracle["tv_before"] - scenario.tv_baseline) > 1e-12:
            problems.append("oracle_report.json: tv_before differs from the scenario's")
        sweep_text = (out / "sweep.csv").read_text()
        rows = list(csv.DictReader(io.StringIO(sweep_text)))
        ratios, temps = config["filter"]["c"], config["temperatures"]
        expected = len(temps) * (1 + sum(2 if c < 1.0 else 1 for c in ratios))
        if len(rows) != expected:
            problems.append(f"sweep.csv has {len(rows)} rows, expected {expected}")
        for i, row in enumerate(rows):
            for metric in config["metrics"]:
                cell = row.get(_METRIC_COLUMNS[metric], "")
                try:
                    finite = math.isfinite(float(cell))
                except ValueError:
                    finite = False
                if not finite:
                    problems.append(f"sweep.csv row {i}: {metric} cell {cell!r} not finite")
        for temp in temps:
            for ratio in ratios:
                if ratio == 1.0:
                    continue
                stats = json.loads((out / f"samples_T{temp:g}_c{ratio:g}_stats.json")
                                   .read_text())
                if abs(stats["acceptance_rate"] - ratio) > self.acceptance_tol:
                    problems.append(f"T={temp:g} c={ratio:g}: acceptance "
                                    f"{stats['acceptance_rate']:.4f}")
        return problems, sweep_text

    def pass_layers(self, output) -> dict:
        layers = dict.fromkeys((f"cli.stage.{stage}.s" for stage in STAGES), 0.0)
        for out in output:
            manifest = json.loads((out / "manifest.json").read_text())
            for stage in manifest["stages"]:
                layers[f"cli.stage.{stage['name']}.s"] += stage["wall_clock_s"]
        return layers

    def cleanup(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs = []
        with contextlib.suppress(OSError):
            self.scratch.rmdir()
