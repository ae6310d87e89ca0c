"""Command-line interface and experiment pipeline.

Subcommands: train-gen, train-disc, estimate-uc, sample, evaluate,
oracle-check, pipeline. Exit codes: 0 success, 2 configuration error,
3 stage failure, 4 attempt budget exhausted.

The pipeline persists one artifact set per stage under the output
directory and records the run in ``manifest.json``: a rerun recomputes the
first stage whose config, code, inputs or artifacts changed, and every
later stage. Its estimate-uc, sample and evaluate stages walk the grid with
the sweep functions of ``metrics``, as ``temperature_sweep`` does. Each stage
subcommand makes its stage's calls for one grid point, with the stage's seed
derivation and default sections, so on the pipeline's files it reproduces
the stage's artifacts and ``sweep.csv`` cells, apart from ``error_rate``,
which the pipeline seeds per grid point. Every run reads, samples and scores
rows of at most ``data.DEFAULT_MAX_LEN`` tokens and is bit-reproducible for
a given (config, seed) with a single worker. FED's LAPACK calls alone depend
on the BLAS thread count, so set ``OPENBLAS_NUM_THREADS=1`` (as perfbench
does) for FED values that match across machines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_model, save_model
from .data import (Vocab, atomic_open, build_vocab, encode_corpus, load_corpus, read_lines,
                   save_corpus)
from .disc import MIN_CLASS_ROWS, DiscConfig, error_rate, train_discriminator
from .errors import BudgetError, ConfigError, FiltergenError, InputError, integer, number
from .filtering import MAX_ATTEMPTS_PER_SAMPLE, BoundaryEstimateConfig, FilterStats
# unused here since the subcommands run metrics.grid_boundary and grid_streams,
# but perfbench's tracer test still expects this module to bind them
from .filtering import estimate_boundary, sample_filtered  # noqa: F401
from .genmodel import NeuralConfig, NGramConfig, train_mle
from .metrics import (GRID_STREAMS, KNOWN_METRICS, MIN_ROWS, SWEEP_COLUMNS, MetricScorer,
                      SweepReport, grid_boundary, grid_streams, sweep_boundaries, sweep_points,
                      sweep_rows, sweep_streams)
from .oracle import exact_boundary, exact_filtered_distribution, tv_distance
from .scenarios import SCENARIO_NAMES, build_scenario, load_spec
from .seeding import derive_seed

# ---------------------------------------------------------------------------
# Experiment configuration (strict schema: unknown keys are errors).
# ---------------------------------------------------------------------------

_EVAL_DEFAULTS = {"n_samples": 2000}
# the vocabulary limit of the data section and of train-gen's config
_CORPUS_DEFAULTS = {"vocab_size": 10_000}
_GENERATORS = {"ngram": NGramConfig, "neural": NeuralConfig}
_is_positive_int, _ = integer(1)
_is_seed, _ = integer(0)
_is_ratio, _ = number("(0, 1]")
_is_temperature, _ = number("(0, inf)")


@dataclass
class ExperimentConfig:
    seed: int
    scenario: str | None
    data: dict | None
    data_sizes: dict | None
    generator: NGramConfig | NeuralConfig | None
    discriminator: DiscConfig
    filter_ratios: list
    max_attempts_per_sample: int
    temperatures: list
    metrics: list
    eval: dict
    uc: BoundaryEstimateConfig
    raw: dict = field(repr=False, default_factory=dict)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


_SCHEMA_SECTIONS = {
    "seed", "scenario", "data", "data_sizes", "generator", "discriminator",
    "filter", "temperatures", "metrics", "eval", "uc",
}
_SPLITS = ("train", "valid", "test")


def validate_config(path) -> ExperimentConfig:
    """Parse and validate; raises ConfigError carrying every problem found."""
    problems: list[str] = []
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a JSON object"])

    for key in doc:
        if key not in _SCHEMA_SECTIONS:
            problems.append(f"unknown key '{key}'")

    seed = doc.get("seed")
    if not _is_seed(seed):
        problems.append("seed required (integer >= 0)" if seed is None else
                        f"seed must be an integer >= 0, got {seed!r}")
        seed = 0

    scenario, data = doc.get("scenario"), doc.get("data")
    data_sizes, generator = doc.get("data_sizes"), doc.get("generator")
    if scenario is not None and scenario not in SCENARIO_NAMES:
        problems.append(f"unknown scenario '{scenario}'")
    if (scenario is None) == (data is None):
        problems.append("exactly one of 'scenario' or 'data' is required")
    if isinstance(data, dict):
        for key in _SPLITS:
            if key not in data:
                problems.append(f"data.{key} required")
            elif not isinstance(data[key], str) or not Path(data[key]).exists():
                problems.append(f"data.{key}: file not found: {data[key]}")
    if data is not None:
        data = _positive_ints(problems, data, "data", _CORPUS_DEFAULTS, extra=_SPLITS)
    if data_sizes is not None:
        if scenario is None:
            problems.append("data_sizes only applies to scenario mode")
        data_sizes = _positive_ints(problems, data_sizes, "data_sizes",
                                    dict.fromkeys(_SPLITS))
        if (data_sizes["train"] or MIN_CLASS_ROWS) < MIN_CLASS_ROWS:
            problems.append(f"data_sizes.train must be >= {MIN_CLASS_ROWS} for the classifier")
    if generator is None and scenario is None:
        problems.append("generator section required in data mode")
    if generator is not None:
        if scenario is not None:
            problems.append("generator only applies to data mode")
        generator = _generator_section(problems, generator, derive_seed(seed, "train-gen"))

    disc_cfg = _section(problems, doc.get("discriminator"), "discriminator", DiscConfig,
                        seed=seed)

    filt = _positive_ints(problems, doc.get("filter"), "filter",
                 {"max_attempts_per_sample": MAX_ATTEMPTS_PER_SAMPLE}, extra=("c",))
    ratios = _grid_values(problems, filt.get("c", [0.5]), "filter.c", _is_ratio,
                          "filter.c entries must lie in (0, 1], got {!r}")
    temps = _grid_values(problems, doc.get("temperatures", [1.0]), "temperatures",
                         _is_temperature, "temperature must be > 0, got {!r}")

    eval_doc = _positive_ints(problems, doc.get("eval"), "eval", _EVAL_DEFAULTS)
    metrics = doc.get("metrics", ["bleu", "selfbleu", "lm", "fed"])
    if not isinstance(metrics, list):
        problems.append(f"metrics must be a list, got {metrics!r}")
        metrics = []
    for m in metrics:
        if m not in KNOWN_METRICS:
            problems.append(f"unknown metric '{m}' (known: {', '.join(KNOWN_METRICS)})")
        elif (MIN_ROWS[m] or 0) > eval_doc["n_samples"]:  # FED's depends on the vocabulary
            problems.append(f"eval.n_samples must be >= {MIN_ROWS[m]} when '{m}' is requested")

    uc_cfg = _section(problems, doc.get("uc"), "uc", BoundaryEstimateConfig)

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(seed=seed, scenario=scenario, data=data,
                            data_sizes=data_sizes, generator=generator,
                            discriminator=disc_cfg, filter_ratios=list(ratios),
                            max_attempts_per_sample=filt["max_attempts_per_sample"],
                            temperatures=list(temps), metrics=list(metrics),
                            eval=eval_doc, uc=uc_cfg, raw=doc)


def _grid_values(problems, values, name: str, is_valid, bad: str) -> list:
    """The valid entries of the grid list ``values`` as floats, so that ``1``
    seeds the streams ``1.0`` does; the list must be non-empty, each entry
    valid, and no two entries may share an artifact name (the value
    formatted ``{:g}``)."""
    if not isinstance(values, list) or not values:
        problems.append(f"{name} must be a non-empty list")
        return [1.0]
    problems.extend(bad.format(v) for v in values if not is_valid(v))
    valid = [float(v) for v in values if is_valid(v)]
    if len({f"{v:g}" for v in valid}) < len(valid):
        problems.append(f"{name} entries must differ in their {{:g}} artifact names, "
                        f"got {values!r}")
    return valid


def _object(problems, doc, name: str, allowed) -> dict | None:
    """The ``allowed`` keys of section ``doc`` ({} when absent); None if not an object."""
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        problems.append(f"{name} must be an object")
        return None
    problems.extend(f"unknown key '{name}.{key}'" for key in doc if key not in allowed)
    return {key: value for key, value in doc.items() if key in allowed}


def _positive_ints(problems, doc, name: str, defaults: dict, extra=()) -> dict:
    """Section ``doc`` over ``defaults``, whose keys take positive integers.

    ``extra`` names the section's other keys; a None default means required.
    """
    section = _object(problems, doc, name, {*defaults, *extra})
    if section is None:
        return dict(defaults)
    values = {**defaults, **section}
    for key, default in defaults.items():
        value = values[key]
        if not _is_positive_int(value):
            problems.append(f"{name}.{key} required" if value is None and default is None else
                            f"{name}.{key} must be a positive integer, got {value!r}")
            values[key] = default
    return values


def _section(problems, doc, name: str, cls, **fixed):
    """Config dataclass ``cls`` built from section ``doc``, or None on a problem.

    The section's keys are the fields of ``cls`` other than those in ``fixed``.
    """
    doc = _object(problems, doc, name, {f.name for f in fields(cls)} - set(fixed))
    try:
        return None if doc is None else cls(**doc, **fixed)
    except (TypeError, InputError) as exc:
        problems.append(f"{name}: {exc}")
        return None


def _generator_section(problems, doc, seed: int):
    """The config of the generator ``kind`` names (default ``ngram``); the
    neural generator's is seeded with ``seed``, the n-gram draws nothing."""
    kind = doc.get("kind", "ngram") if isinstance(doc, dict) else "ngram"
    if not isinstance(kind, str) or kind not in _GENERATORS:
        problems.append(f"generator.kind must be one of {'|'.join(_GENERATORS)}, "
                        f"got {kind!r}")
        return None
    if isinstance(doc, dict):
        doc = {key: value for key, value in doc.items() if key != "kind"}
    fixed = {"seed": seed} if kind == "neural" else {}
    return _section(problems, doc, "generator", _GENERATORS[kind], **fixed)


# ---------------------------------------------------------------------------
# Pipeline.
# ---------------------------------------------------------------------------


def _write_json(path, doc, **dump_args) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, **dump_args))


def _source_sha256(package: Path = Path(__file__).resolve().parent) -> str:
    """SHA-256 over the package's ``*.py`` and ``scenarios/*.json`` files,
    each one's relative path, size and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted([*package.glob("*.py"), *package.glob("scenarios/*.json")]):
        data = path.read_bytes()
        h.update(f"{path.relative_to(package).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Pipeline:
    def __init__(self, config: ExperimentConfig, out_dir: Path):
        self.cfg = config
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest = {
            "config_hash": config.config_hash(),
            "versions": {"filtergen": __version__, "numpy": np.__version__,
                         "source_sha256": _source_sha256()},
            "inputs": ({name: _sha256(config.data[name]) for name in _SPLITS}
                       if config.data is not None else {}),
            "stages": [],
        }
        # the previous run's stages, if it had this config, code and inputs
        try:
            previous = json.loads((self.out / "manifest.json").read_text())
        except (OSError, ValueError, RecursionError):  # missing or corrupt: every stage reruns
            previous = None
        same = isinstance(previous, dict) and all(
            previous.get(key) == self.manifest[key]
            for key in ("config_hash", "versions", "inputs"))
        self.previous = previous.get("stages") if same else None
        spec = load_spec(config.scenario) if config.scenario else None
        if config.data_sizes:  # the scenario's splits, drawn at other sizes
            spec["data_sizes"] = config.data_sizes
        self.scenario = build_scenario(spec) if spec else None

    def _digests(self, artifacts: list[str]) -> list[dict]:
        return [{"path": a, "sha256": _sha256(self.out / a)} for a in artifacts]

    def _stage(self, name: str, artifacts: list[str], runner) -> None:
        # skip a stage only while no earlier stage has run, and only if the
        # previous run recorded it here with the artifacts' current digests
        stages = self.manifest["stages"]
        try:
            recorded, digests = self.previous[len(stages)], self._digests(artifacts)
            skipped = recorded["name"] == name and recorded["artifacts"] == digests
        except (LookupError, TypeError, OSError):  # no or a corrupt record, a missing file
            skipped = False
        elapsed = 0.0
        if not skipped:
            self.previous = None  # every later stage reruns too
            t0 = time.perf_counter()
            try:
                runner()
            except FiltergenError:
                raise
            except Exception as exc:  # surface the failing stage
                raise FiltergenError(f"stage '{name}' failed: {exc}") from exc
            elapsed = round(time.perf_counter() - t0, 3)
            digests = self._digests(artifacts)
        stages.append({"name": name, "skipped": skipped, "wall_clock_s": elapsed,
                       "artifacts": digests})
        # rewritten after every stage, so a crash keeps the finished stages
        _write_json(self.out / "manifest.json", self.manifest, indent=1, sort_keys=True)

    # -- stage bodies -----------------------------------------------------

    def run(self) -> dict:
        grid = self.cfg.temperatures, self.cfg.filter_ratios
        self._stage("data", ["train.txt", "valid.txt", "test.txt", "vocab.json"],
                    self._stage_data)
        self._stage("train-gen", ["gen.json"], self._stage_train_gen)
        self._stage("train-disc", ["disc.json", "disc_report.json"], self._stage_train_disc)
        self._stage("estimate-uc", [_artifact(*p) for p in sweep_points(*grid, (), ("uc",))],
                    self._stage_uc)
        self._stage("sample", [_artifact(*p) for p in sweep_points(*grid, filtered=GRID_STREAMS)],
                    self._stage_sample)
        final = ["sweep.csv", "report.json"]
        if self.scenario is not None:
            final.append("oracle_report.json")
        self._stage("evaluate", final, self._stage_evaluate)
        return self.manifest

    def _stage_data(self) -> None:
        cfg = self.cfg
        if self.scenario is not None:
            for name in _SPLITS:
                save_corpus(getattr(self.scenario, name), self.out / f"{name}.txt")
            self.scenario.vocab.save(self.out / "vocab.json")
        else:
            vocab = build_vocab(read_lines(cfg.data["train"]), cfg.data["vocab_size"])
            vocab.save(self.out / "vocab.json")
            for name in _SPLITS:
                save_corpus(load_corpus(cfg.data[name], vocab, name), self.out / f"{name}.txt")

    def _corpora(self, *names):
        """The named splits of the data stage, encoded with its vocabulary."""
        vocab = Vocab.load(self.out / "vocab.json")
        return {name: load_corpus(self.out / f"{name}.txt", vocab, name) for name in names}

    def _stage_train_gen(self) -> None:
        if self.scenario is not None:
            save_model(self.scenario.generator, self.out / "gen.json")
            return
        corpora = self._corpora("train", "valid")
        model = train_mle(corpora["train"], corpora["valid"], self.cfg.generator)
        save_model(model, self.out / "gen.json")

    def _stage_train_disc(self) -> None:
        train = self._corpora("train")["train"]
        gen = load_model(self.out / "gen.json")
        rng = np.random.default_rng(derive_seed(self.cfg.seed, "train-disc"))
        disc, report = train_discriminator(train, gen, self.cfg.discriminator, rng)
        save_model(disc, self.out / "disc.json")
        _write_json(self.out / "disc_report.json", {
            "train_loss": report.train_loss,
            "valid_accuracy": report.valid_accuracy,
            "best_epoch": report.best_epoch,
            "final_valid_accuracy": report.final_valid_accuracy,
            "converged": report.converged,
            "stop_reason": report.stop_reason,
        })

    def _models(self):
        return load_model(self.out / "gen.json"), load_model(self.out / "disc.json")

    def _stage_uc(self) -> None:
        cfg = self.cfg
        for (temp, ratio), (boundary, trace) in sweep_boundaries(
                *self._models(), cfg.seed, cfg.temperatures, cfg.filter_ratios, cfg.uc).items():
            _save_uc(self.out / _artifact(temp, ratio, "uc"), ratio, boundary, trace)

    def _stage_sample(self) -> None:
        cfg = self.cfg
        def boundary(temp, ratio) -> float:  # the estimate-uc stage's u_c
            return json.loads((self.out / _artifact(temp, ratio, "uc")).read_text())["u_c"]
        for temp, ratio, kind, value in sweep_streams(
                *self._models(), cfg.seed, cfg.temperatures, cfg.filter_ratios, boundary,
                cfg.eval["n_samples"], cfg.max_attempts_per_sample):
            _save_point(value, self.out / _artifact(temp, ratio, kind))

    def _stage_evaluate(self) -> None:
        cfg = self.cfg
        corpora = self._corpora("train", "test")
        gen_cfg = self.scenario.generator if self.scenario is not None else cfg.generator
        scorer = MetricScorer(
            cfg.metrics, real_train=corpora["train"], real_test=corpora["test"],
            fixed_length=gen_cfg.fixed_length, seed=cfg.seed, disc_cfg=cfg.discriminator)
        vocab = corpora["train"].vocab
        def stream(temp, ratio, kind):  # a blank file is an empty stream
            lines = read_lines(self.out / _artifact(temp, ratio, kind))
            return encode_corpus(lines, vocab, kind) if any(map(str.split, lines)) else ()
        rows = sweep_rows(scorer, cfg.temperatures, cfg.filter_ratios, stream)
        with atomic_open(self.out / "sweep.csv") as fh:
            fh.write(SweepReport(rows).csv_text())
        _write_json(self.out / "report.json", {"rows": rows, "columns": list(SWEEP_COLUMNS)},
                    sort_keys=True)
        if self.scenario is not None:
            # the smallest ratio: the identity ratio 1 checks no filter at all
            doc = oracle_check(self.scenario, min(cfg.filter_ratios))
            _write_json(self.out / "oracle_report.json", doc, sort_keys=True)


def _artifact(temp, ratio, kind) -> str:
    """The file of a sweep point's stream, ``stats`` or boundary (``uc``)."""
    if kind == "baseline":
        return f"samples_T{temp:g}_baseline.txt"
    if kind == "uc":
        return f"uc_T{temp:g}_c{ratio:g}.json"
    return f"samples_T{temp:g}_c{ratio:g}_{kind}.{'json' if kind == 'stats' else 'txt'}"


def _save_uc(path, ratio, boundary: float, trace: list) -> None:
    """The boundary file of one grid point."""
    # float: a config may list the identity ratio as the integer 1
    _write_json(path, {"c": float(ratio), "u_c": boundary, "trace": trace})


def _save_point(value, path) -> None:
    """The file of one grid point's stream, one line per row, or stats."""
    if isinstance(value, FilterStats):
        _write_json(path, value.to_dict())
    else:
        save_corpus(value, path)


def run_pipeline(config: ExperimentConfig, out_dir) -> dict:
    return _Pipeline(config, Path(out_dir)).run()


def oracle_check(scenario, ratio: float) -> dict:
    """Exact-filter invariant report for a bundled scenario.

    On the unclamped filtered region the filtered law must be exactly
    proportional to the real law; it is exactly equal whenever the target
    acceptance ratio is attained exactly (possible only when an acceptance
    plateau coincides with the target, as on s1).
    """
    sol = exact_boundary(scenario.p_model, scenario.ideal_scores, ratio)
    filtered, c_exact = exact_filtered_distribution(
        scenario.p_model, scenario.ideal_scores, ratio, sol.boundary)
    tv_before = tv_distance(scenario.p_model, scenario.p_real)
    tv_after = tv_distance(filtered, scenario.p_real)
    region = scenario.ideal_scores < min(sol.boundary, 1.0 / (1.0 + ratio))
    if region.any():
        scaled = (ratio / c_exact) * scenario.p_real.probs[region]
        proportional_err = float(np.abs(filtered.probs[region] - scaled).max())
        corrected = float(
            np.abs(filtered.probs[region] - scenario.p_real.probs[region]).max())
    else:
        proportional_err = corrected = 0.0
    target_attained = abs(c_exact - ratio) <= 1e-12
    boundaries = [exact_boundary(scenario.p_model, scenario.ideal_scores, c).boundary
                  for c in sorted(scenario.target_ratios)]
    checks = {
        "normalized": bool(abs(filtered.probs.sum() - 1.0) <= 1e-12),
        "filtered_region_proportional_to_real": bool(proportional_err <= 1e-9),
        "exact_correction_when_target_attained": bool(
            corrected <= 1e-9 if target_attained else True),
        "tv_not_increased": bool(tv_after <= tv_before + 1e-12),
        "acceptance_matches_target": bool(abs(c_exact - ratio) <= 0.05),
        "boundary_monotone_in_target": bool(
            all(boundaries[i] >= boundaries[i + 1] - 1e-9
                for i in range(len(boundaries) - 1))),
    }
    return {
        "scenario": scenario.name,
        "c": ratio,
        "u_c": sol.boundary,
        "c_exact": c_exact,
        "achievable": sol.achievable,
        "target_attained": target_attained,
        "tv_before": tv_before,
        "tv_after": tv_after,
        "max_correction_error": float(corrected),
        "checks": checks,
        "pass": all(checks.values()),
    }


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ConfigError([f"cannot read {path}: {exc}"])


_GENERATOR_KINDS = ("ngram", "neural", "markov")


def _load_kind(path, *kinds):
    """The model of checkpoint ``path``, which must be of one of ``kinds``."""
    model = load_model(path)
    if model.kind not in kinds:
        raise InputError(f"{path}: a {model.kind} checkpoint, expected {' or '.join(kinds)}")
    return model


def _load_classifier(path, gen):
    """The classifier of checkpoint ``path``, over the vocabulary of ``gen``."""
    disc = _load_kind(path, "textcnn")
    if disc.vocab != gen.vocab:
        raise InputError(f"{path}: the classifier's vocabulary is not the generator's")
    return disc


def _cmd_train_gen(args) -> int:
    # the generator section's keys plus the data section's corpus limits
    doc, problems = _load_json(args.config), []
    if not isinstance(doc, dict):
        raise ConfigError(["generator must be an object"])
    limits = {k: v for k, v in doc.items() if k in _CORPUS_DEFAULTS}
    cfg = _generator_section(problems, {k: v for k, v in doc.items() if k not in limits},
                             derive_seed(args.seed, "train-gen"))
    limits = _positive_ints(problems, limits, "generator", _CORPUS_DEFAULTS)
    if problems:
        raise ConfigError(problems)
    vocab = build_vocab(read_lines(args.train), limits["vocab_size"])
    train = load_corpus(args.train, vocab, "train")
    valid = load_corpus(args.valid, vocab, "valid") if args.valid else None
    model = train_mle(train, valid, cfg)
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_train_disc(args) -> int:
    problems = []
    cfg = _section(problems, _load_json(args.config) if args.config else None,
                   "discriminator", DiscConfig, seed=args.seed)
    if problems:
        raise ConfigError(problems)
    gen = _load_kind(args.gen_model, *_GENERATOR_KINDS)
    real = load_corpus(args.real, gen.vocab, "train")
    disc, report = train_discriminator(
        real, gen, cfg, np.random.default_rng(derive_seed(args.seed, "train-disc")))
    save_model(disc, args.out)
    print(f"wrote {args.out} (valid accuracy {report.final_valid_accuracy:.4f}, "
          f"converged={report.converged}, stop_reason={report.stop_reason})")
    return 0


def _cmd_estimate_uc(args) -> int:
    gen = _load_kind(args.gen, *_GENERATOR_KINDS)
    disc = _load_classifier(args.disc, gen)
    boundary, trace = grid_boundary(gen, disc, args.seed, args.temperature, args.c,
                                    BoundaryEstimateConfig())
    _save_uc(args.out, args.c, boundary, trace)
    print(f"u_c = {boundary:.4f} (written to {args.out})")
    return 0


def _cmd_sample(args) -> int:
    if args.c < 1.0 and args.u_c is None:
        raise ConfigError(["--u-c is required when --c is below 1"])
    gen = _load_kind(args.gen, *_GENERATOR_KINDS)
    disc = _load_classifier(args.disc, gen)
    streams = grid_streams(gen, disc, args.seed, args.temperature, args.c,
                           args.u_c if args.c < 1.0 else 0.0, args.n, args.max_attempts)
    for value, path in zip(streams, (args.out, args.rejected_out,
                                     args.stats_out or f"{args.out}.stats.json")):
        if path:  # no rejected file without --rejected-out
            _save_point(value, path)
    stats = streams[2]
    print(f"accepted {stats.acceptances}/{stats.attempts} "
          f"(rate {stats.acceptance_rate:.4f})")
    return 0


def _cmd_evaluate(args) -> int:
    gen = _load_kind(args.gen, *_GENERATOR_KINDS)
    disc = _load_classifier(args.disc, gen) if args.disc else None
    train = load_corpus(args.train, gen.vocab, "train")
    real = load_corpus(args.real, gen.vocab, "real")
    samples = load_corpus(args.samples, gen.vocab, "samples")
    metric_names = [m for m in args.metrics.split(",") if m]
    unknown = set(metric_names) - set(KNOWN_METRICS)
    if unknown:
        raise ConfigError([f"unknown metric '{m}'" for m in sorted(unknown)])
    scorer = MetricScorer(metric_names, real_train=train, real_test=real,
                          fixed_length=gen.fixed_length, seed=args.seed)
    row = scorer.cells(samples, args.seed)
    if disc is not None:
        row["disc_error_rate"] = error_rate(disc, real, samples)
    _write_json(args.out, row, sort_keys=True)
    print(json.dumps(row, sort_keys=True))
    return 0


def _cmd_oracle_check(args) -> int:
    scenario = build_scenario(args.scenario)
    doc = oracle_check(scenario, args.c)
    _write_json(args.out, doc, sort_keys=True, indent=1)
    status = "PASS" if doc["pass"] else "FAIL"
    for name, ok in doc["checks"].items():
        print(f"{'ok ' if ok else 'FAIL'} {name}")
    print(f"{status}: tv {doc['tv_before']:.4f} -> {doc['tv_after']:.4f}, "
          f"u_c={doc['u_c']:.4f}, c_exact={doc['c_exact']:.4f}")
    return 0 if doc["pass"] else 3


def _cmd_pipeline(args) -> int:
    config = validate_config(args.config)
    manifest = run_pipeline(config, args.out_dir)
    print(json.dumps(manifest, indent=1, sort_keys=True))
    return 0


def _seed_arg(text: str) -> int:
    """The value of ``--seed``: an integer >= 0, as numpy's generators need."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtergen",
        description="Discriminator-guided rejection sampling for sequence generators")
    # --seed only where a subcommand draws randomness outside a config file
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed_arg, default=0, help="random seed (>= 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-gen", parents=[seeded],
                       help="fit a generator by maximum likelihood")
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_gen)

    p = sub.add_parser("train-disc", parents=[seeded],
                       help="train the real-vs-generated classifier to convergence")
    p.add_argument("--real", required=True)
    p.add_argument("--gen-model", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_disc)

    p = sub.add_parser("estimate-uc", parents=[seeded],
                       help="search the sampling boundary for a target acceptance ratio")
    p.add_argument("--gen", required=True)
    p.add_argument("--disc", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate_uc)

    p = sub.add_parser("sample", parents=[seeded],
                       help="draw filtered samples (accepted plus optional rejected)")
    p.add_argument("--gen", required=True)
    p.add_argument("--disc", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--u-c", dest="u_c", type=float)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--rejected-out")
    p.add_argument("--stats-out")
    p.add_argument("--max-attempts", type=int, default=MAX_ATTEMPTS_PER_SAMPLE,
                   help="attempt budget per emitted sample")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("evaluate", parents=[seeded],
                       help="score a sample corpus against real data")
    p.add_argument("--train", required=True,
                   help="corpus the oracle LM and the FED embedding are fitted on")
    p.add_argument("--real", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--disc")
    p.add_argument("--metrics", default="bleu,selfbleu,lm,fed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("oracle-check",
                       help="exact-filter invariant report for a bundled scenario")
    p.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("pipeline",
                       help="end-to-end staged run: data, models, boundary, samples, metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="runs", help="artifact directory")
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4
    except (FiltergenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
