import csv
import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import filtergen as fg
from filtergen.checkpoint import load_model
from filtergen.cli import main, oracle_check, run_pipeline, validate_config
from filtergen.errors import ConfigError
from filtergen.metrics import MetricScorer, temperature_sweep

# gen.json of a bigram with delta 0.01 on _natural_corpus_files' train
# split, from the pipeline or from train-gen: its counts are integers, so the
# bytes are the same on every machine
GEN_JSON_SHA256 = "b6ef561eb435c33b3c0ae8964582452d5e4b7b6e2b69bbb6bce34b60c02f100f"

# JSON nested past the decoder's recursion limit: reading it raises RecursionError
_TOO_DEEP = "[" * 200_000 + "]" * 200_000


def _write_config(tmp_path, **overrides):
    doc = {
        "seed": 5,
        "scenario": "s1",
        "discriminator": {"lr": 0.05, "batch_size": 256, "max_epochs": 15, "patience": 3},
        "filter": {"c": [1.0, 0.4]},
        "temperatures": [1.0],
        "metrics": ["bleu", "selfbleu", "lm"],
        "eval": {"n_samples": 500},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_config_collects_all_problems(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "scenario": "s1",
        "temperatures": [0],
        "metrics": ["bleu", "nope"],
        "mystery": 1,
        "filter": {"c": [2.0]},
    }))
    with pytest.raises(ConfigError) as err:
        validate_config(path)
    text = " | ".join(err.value.problems)
    assert "seed required" in text
    assert "temperature must be > 0" in text
    assert "unknown metric 'nope'" in text
    assert "unknown key 'mystery'" in text
    assert "filter.c entries" in text


def test_reverse_lm_minimum_is_one_constant(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'eval.rlm_min_samples'"):
        validate_config(_write_config(tmp_path, eval={"n_samples": 999,
                                                      "rlm_min_samples": 500}))
    with pytest.raises(ConfigError, match="n_samples must be >= 1000"):
        validate_config(_write_config(tmp_path, metrics=["rlm"],
                                      eval={"n_samples": 999}))
    validate_config(_write_config(tmp_path, metrics=["rlm"], eval={"n_samples": 1000}))


@pytest.mark.parametrize("overrides,problem", [
    ({"metrics": ["rlm"], "eval": {"n_samples": "many"}},
     "eval.n_samples must be a positive integer, got 'many'"),
    ({"temperatures": []}, "temperatures must be a non-empty list"),
    ({"filter": {"c": [0.5], "max_attempts_per_sample": "lots"}},
     "filter.max_attempts_per_sample must be a positive integer, got 'lots'"),
    ({"filter": {"c": [0.5], "max_attempts_per_sample": 0}},
     "filter.max_attempts_per_sample must be a positive integer, got 0"),
    ({"filter": [0.5]}, "filter must be an object"),
    ({"eval": [500]}, "eval must be an object"),
    ({"generator": ["ngram"]}, "generator must be an object"),
    ({"scenario": None, "data": 5}, "data must be an object"),
    ({"discriminator": {"lr": "fast"}},
     "discriminator: lr must be a number in [0, inf), got 'fast'"),
    ({"discriminator": {"batch_size": 0}},
     "discriminator: batch_size must be an integer >= 1, got 0"),
    ({"uc": {"rounds": 2.5}}, "uc: rounds must be an integer >= 1, got 2.5"),
    ({"uc": {"tail": 0}}, "uc: tail must be an integer >= 1, got 0"),
    ({"metrics": "bleu"}, "metrics must be a list, got 'bleu'"),
    ({"data_sizes": {"train": 100}}, "data_sizes.valid required"),
    ({"data_sizes": {"train": 100, "valid": 0, "test": 50}},
     "data_sizes.valid must be a positive integer, got 0"),
    ({"generator": {"kind": "neural", "order": 7}}, "generator only applies to data mode"),
    # JSON booleans are not numbers
    ({"temperatures": [True]}, "temperature must be > 0, got True"),
    ({"filter": {"c": [True]}}, "filter.c entries must lie in (0, 1], got True"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    # both would write the T1 artifacts
    ({"temperatures": [1.0, 1.0000001]},
     "temperatures entries must differ in their {:g} artifact names, got [1.0, 1.0000001]"),
])
def test_mistyped_config_values_are_config_errors(tmp_path, overrides, problem):
    path = _write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError) as err:
        validate_config(path)
    assert problem in err.value.problems
    assert main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path / "run")]) == 2


def test_validate_config_requires_one_source(tmp_path):
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"seed": 1}))
    with pytest.raises(ConfigError, match="scenario"):
        validate_config(path)


def test_validate_config_fills_defaults(tmp_path):
    cfg = validate_config(_write_config(tmp_path, eval={}))
    assert cfg.eval == {"n_samples": 2000}
    assert cfg.uc.rounds == 100
    assert cfg.discriminator.kernels3 == 32


@pytest.mark.parametrize("bad", ["empty-object", "too-deep"])
def test_config_error_exit_code(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text({"empty-object": "{}", "too-deep": _TOO_DEEP}[bad])
    assert main(["pipeline", "--config", str(path)]) == 2


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown scenario"):
        validate_config(_write_config(tmp_path, scenario="s9"))


def _natural_corpus_files(tmp_path):
    rng = np.random.default_rng(0)
    words = ["the", "cat", "dog", "sat", "ran", "on", "mat", "log"]
    lines = []
    for _ in range(300):
        n = rng.integers(2, 7)
        lines.append(" ".join(rng.choice(words, n)))
    train = tmp_path / "train.txt"
    train.write_text("\n".join(lines[:240]) + "\n")
    valid = tmp_path / "valid.txt"
    valid.write_text("\n".join(lines[240:270]) + "\n")
    test = tmp_path / "test.txt"
    test.write_text("\n".join(lines[270:]) + "\n")
    return train, valid, test


def _data_config(tmp_path, generator, data=(), **overrides):
    train, valid, test = _natural_corpus_files(tmp_path)
    return _write_config(tmp_path, scenario=None, generator=generator, data={
        "train": str(train), "valid": str(valid), "test": str(test), **dict(data)},
        **overrides)


@pytest.mark.parametrize("generator,data,problem", [
    ({"kind": "markov"}, {}, "generator.kind must be one of ngram|neural, got 'markov'"),
    ({"kind": "ngram", "train_n": 100}, {}, "unknown key 'generator.train_n'"),
    ({"order": "2"}, {}, "generator: order must be an integer >= 1, got '2'"),
    ({}, {"vocab_size": 0}, "data.vocab_size must be a positive integer, got 0"),
    ({}, {"train": 5}, "data.train: file not found: 5"),
])
def test_data_mode_config_errors_exit_before_any_stage(tmp_path, generator, data, problem):
    path = _data_config(tmp_path, generator, data)
    with pytest.raises(ConfigError) as err:
        validate_config(path)
    assert problem in err.value.problems
    assert main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


def test_data_mode_ngram_generator_artifact_is_pinned(tmp_path):
    # no kind means ngram; the digest was recorded with an explicit kind,
    # before the generator section was built from NGramConfig
    cfg = validate_config(_data_config(tmp_path, {"order": 2}, filter={"c": [1.0]},
                                       metrics=["bleu"], eval={"n_samples": 100}))
    assert cfg.generator == fg.NGramConfig(order=2)
    run_pipeline(cfg, tmp_path / "run")
    digest = hashlib.sha256((tmp_path / "run" / "gen.json").read_bytes()).hexdigest()
    assert digest == GEN_JSON_SHA256


def test_train_gen_reproduces_the_pipelines_neural_generator(tmp_path):
    generator = {"kind": "neural", "embed_dim": 4, "hidden_dim": 8, "max_epochs": 2}
    path = _data_config(tmp_path, generator, filter={"c": [1.0]}, metrics=["bleu"],
                        eval={"n_samples": 100})
    cfg = validate_config(path)
    run_pipeline(cfg, tmp_path / "run")
    gen_cfg, out = tmp_path / "gen.cfg", tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps(generator))
    assert main(["train-gen", "--train", cfg.data["train"], "--valid", cfg.data["valid"],
                 "--config", str(gen_cfg), "--out", str(out), "--seed", "5"]) == 0
    assert out.read_bytes() == (tmp_path / "run" / "gen.json").read_bytes()


@pytest.mark.parametrize("command,doc,problem", [
    ("train-gen", {"order": "2"}, "generator: order must be an integer >= 1, got '2'"),
    ("train-gen", {"kind": "markov"},
     "generator.kind must be one of ngram|neural, got 'markov'"),
    ("train-gen", {"vocab_size": "x"}, "generator.vocab_size must be a positive integer, got 'x'"),
    ("train-gen", [2], "generator must be an object"),
    ("train-disc", {"lr": "fast"},
     "discriminator: lr must be a number in [0, inf), got 'fast'"),
    ("train-disc", {"batch_size": 0},
     "discriminator: batch_size must be an integer >= 1, got 0"),
    ("train-disc", {"seed": 3}, "unknown key 'discriminator.seed'"),
])
def test_subcommand_config_errors_exit_2(tmp_path, capsys, command, doc, problem):
    train, _, _ = _natural_corpus_files(tmp_path)
    cfg = tmp_path / "stage.cfg"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "model.json"
    inputs = (["--train", str(train)] if command == "train-gen" else
              ["--real", str(train), "--gen-model", str(tmp_path / "gen.json")])
    assert main([command, *inputs, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {problem}" in capsys.readouterr().err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize("section,key,value", [
    ("data", "max_len", 64), ("eval", "max_len", 64), ("eval", "bleu_order", 5),
    ("eval", "embed_dim", 64), ("train-gen", "max_len", 64)])
def test_removed_keys_are_unknown_key_errors(tmp_path, capsys, section, key, value):
    # the row-length limit, the BLEU order and the FED dimension are fixed:
    # a config that still sets one, even to its fixed value, is refused
    # before any stage runs
    if section == "train-gen":
        problem = f"unknown key 'generator.{key}'"
        train, _, _ = _natural_corpus_files(tmp_path)
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "gen.json"
        argv = ["train-gen", "--train", str(train), "--config", str(cfg), "--out", str(out)]
    else:
        problem = f"unknown key '{section}.{key}'"
        path = (_data_config(tmp_path, {}, {key: value}) if section == "data" else
                _write_config(tmp_path, eval={"n_samples": 500, key: value}))
        with pytest.raises(ConfigError) as err:
            validate_config(path)
        assert err.value.problems == [problem]
        out = tmp_path / "run"
        argv = ["pipeline", "--config", str(path), "--out-dir", str(out)]
    assert main(argv) == 2
    assert f"config error: {problem}" in capsys.readouterr().err.splitlines()
    assert not out.exists()


def test_data_sizes_pipeline_writes_the_resized_scenario_splits(tmp_path):
    sizes = {"train": 300, "valid": 40, "test": 120}
    cfg = validate_config(_write_config(tmp_path, data_sizes=sizes, filter={"c": [1.0]},
                                        metrics=["bleu"], eval={"n_samples": 100}))
    run_pipeline(cfg, tmp_path / "run")
    resized = fg.build_scenario({**fg.scenarios.load_spec("s1"), "data_sizes": sizes})
    for name, size in sizes.items():
        split = getattr(resized, name)
        assert len(split) == size
        fg.save_corpus(split, tmp_path / f"{name}.want")
        written = (tmp_path / "run" / f"{name}.txt").read_bytes()
        assert written == (tmp_path / f"{name}.want").read_bytes(), name


@pytest.mark.parametrize("argv", [
    ["pipeline", "--config", "c.json", "--seed", "3"],
    ["oracle-check", "--scenario", "s1", "--out", "o.json", "--seed", "3"],
    ["train-gen", "--train", "t.txt", "--config", "g.json", "--out", "g", "--out-dir", "x"],
    ["evaluate", "--train", "t", "--real", "r", "--samples", "s", "--gen", "g",
     "--out", "o", "--out-dir", "x"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train-gen", "--train", "t.txt", "--config", "g.json", "--out", "g"],
    ["train-disc", "--real", "r", "--gen-model", "g", "--out", "d"],
    ["estimate-uc", "--gen", "g", "--disc", "d", "--c", "0.5", "--out", "u"],
    ["sample", "--gen", "g", "--disc", "d", "--c", "0.5", "--u-c", "0.1", "--n", "5",
     "--out", "s"],
    ["evaluate", "--train", "t", "--real", "r", "--samples", "s", "--gen", "g",
     "--out", "o"],
])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seeds_numpy_cannot_take_are_usage_errors(capsys, argv, seed):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be an integer >= 0, got '{seed}'" in err
    assert "Traceback" not in err


def test_cli_train_sample_evaluate_roundtrip(tmp_path, capsys):
    train, valid, test = _natural_corpus_files(tmp_path)
    gen_cfg = tmp_path / "gen.json.cfg"
    gen_cfg.write_text(json.dumps({"kind": "ngram", "order": 2, "delta": 0.01}))
    gen_path = tmp_path / "gen.json"
    assert main(["train-gen", "--train", str(train), "--valid", str(valid),
                 "--config", str(gen_cfg), "--out", str(gen_path), "--seed", "1"]) == 0

    disc_cfg = tmp_path / "disc.cfg"
    disc_cfg.write_text(json.dumps({"lr": 0.05, "batch_size": 64,
                                    "max_epochs": 10, "patience": 2}))
    disc_path = tmp_path / "disc.json"
    assert main(["train-disc", "--real", str(train), "--gen-model", str(gen_path),
                 "--config", str(disc_cfg), "--out", str(disc_path), "--seed", "2"]) == 0

    uc_path = tmp_path / "uc.json"
    assert main(["estimate-uc", "--gen", str(gen_path), "--disc", str(disc_path),
                 "--c", "0.5", "--seed", "3", "--out", str(uc_path)]) == 0
    uc_doc = json.loads(uc_path.read_text())
    assert 0.0 <= uc_doc["u_c"] <= 1.0
    assert len(uc_doc["trace"]) == 100
    # the identity ratio searches nothing, as in the pipeline
    assert main(["estimate-uc", "--gen", str(gen_path), "--disc", str(disc_path),
                 "--c", "1", "--out", str(uc_path)]) == 0
    assert json.loads(uc_path.read_text()) == {"c": 1.0, "u_c": 0.0, "trace": []}

    samples = tmp_path / "samples.txt"
    rejected = tmp_path / "rejected.txt"
    assert main(["sample", "--gen", str(gen_path), "--disc", str(disc_path),
                 "--c", "0.5", "--u-c", str(uc_doc["u_c"]), "--n", "200",
                 "--temperature", "1.0", "--out", str(samples),
                 "--rejected-out", str(rejected), "--seed", "4"]) == 0
    stats = json.loads((tmp_path / "samples.txt.stats.json").read_text())
    assert stats["acceptances"] == 200
    assert hashlib.sha256(gen_path.read_bytes()).hexdigest() == GEN_JSON_SHA256
    # the identity ratio needs no boundary: it accepts every row
    assert main(["sample", "--gen", str(gen_path), "--disc", str(disc_path),
                 "--c", "1", "--n", "20", "--out", str(samples)]) == 0
    stats = json.loads((tmp_path / "samples.txt.stats.json").read_text())
    assert stats["attempts"] == stats["acceptances"] == 20

    # --rejected-out holds the first --n rejected rows, as the pipeline writes
    assert main(["sample", "--gen", str(gen_path), "--disc", str(disc_path),
                 "--c", "0.2", "--u-c", "1.0", "--n", "50", "--out", str(samples),
                 "--rejected-out", str(rejected), "--seed", "4"]) == 0
    gen, disc = load_model(gen_path), load_model(disc_path)
    accepted, full = fg.sample_filtered(
        fg.FilteredGenerator(gen, disc, fg.FilterParams(0.2, 1.0)), 50,
        fg.SamplerConfig(seed=fg.seeding.derive_seed(4, "sample", 1.0)),
        np.random.default_rng(fg.seeding.derive_seed(4, "sample", 1.0)))
    assert len(full.rejected_sequences) > 50
    assert fg.load_corpus(samples, gen.vocab).sequences == accepted.sequences
    written = fg.load_corpus(rejected, gen.vocab)
    assert written.sequences == full.rejected_sequences[:50].sequences

    report = tmp_path / "report.json"
    assert main(["evaluate", "--train", str(train), "--real", str(test),
                 "--samples", str(samples), "--gen", str(gen_path),
                 "--metrics", "bleu,selfbleu,lm",
                 "--out", str(report), "--seed", "5"]) == 0
    doc = json.loads(report.read_text())
    assert set(doc) == {"bleu5", "self_bleu5", "lm_score"}
    assert 0.0 <= doc["bleu5"] <= 1.0


def test_cli_sample_below_ratio_one_requires_a_boundary(tmp_path, capsys):
    # checked before any file is read
    out = tmp_path / "s.txt"
    assert main(["sample", "--gen", "g", "--disc", "d", "--c", "0.5", "--n", "5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: --u-c is required when --c is below 1"]
    assert not out.exists()


def test_cli_sample_budget_exhaustion_exit_code(tmp_path):
    train, valid, _ = _natural_corpus_files(tmp_path)
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(json.dumps({"kind": "ngram"}))
    gen_path = tmp_path / "gen.json"
    main(["train-gen", "--train", str(train), "--valid", str(valid),
          "--config", str(gen_cfg), "--out", str(gen_path)])
    disc_path = tmp_path / "disc.json"
    main(["train-disc", "--real", str(train), "--gen-model", str(gen_path),
          "--out", str(disc_path), "--seed", "2"])
    # boundary 1.0 with a small ratio and one attempt per sample cannot finish
    code = main(["sample", "--gen", str(gen_path), "--disc", str(disc_path),
                 "--c", "0.05", "--u-c", "1.0", "--n", "500",
                 "--out", str(tmp_path / "never.txt"), "--max-attempts", "1"])
    assert code == 4


def test_oracle_check_passes_on_bundled_scenarios(s1, s2):
    for scenario, ratio in ((s1, 0.4), (s2, 0.5)):
        doc = oracle_check(scenario, ratio)
        assert doc["pass"], doc
        assert doc["tv_after"] <= doc["tv_before"]


def test_oracle_check_cli(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--scenario", "s1", "--c", "0.4",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"]
    assert doc["c_exact"] == pytest.approx(0.4, abs=1e-9)


def test_pipeline_identity_ratio_matches_baseline(tmp_path):
    cfg = validate_config(_write_config(tmp_path, filter={"c": [1.0]}))
    run_pipeline(cfg, tmp_path / "run")
    with open(tmp_path / "run" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    by_stream = {r["stream"]: r for r in rows}
    base, acc = by_stream["baseline"], by_stream["accepted"]
    for col in ("bleu5", "self_bleu5", "lm_score"):
        assert base[col] == acc[col]
    # identity ratio: no rejected stream row at all
    assert all(r["stream"] != "rejected" for r in rows)
    # nothing rejected, so no mean rejected score: null, as strict JSON has no NaN
    stats = json.loads((tmp_path / "run" / "samples_T1_c1_stats.json").read_text(),
                       parse_constant=_no_json_constant)
    assert stats["acceptance_rate"] == 1.0 and stats["mean_score_rejected"] is None
    report = json.loads((tmp_path / "run" / "disc_report.json").read_text())
    assert report["stop_reason"] in ("patience", "max_epochs")
    assert report["converged"] == (report["stop_reason"] == "patience")


def test_integer_grid_values_write_the_samples_of_their_floats(tmp_path):
    # seeds are derived from each grid value's str(), so 1 must become 1.0
    for name, value in (("int", 1), ("float", 1.0)):
        (tmp_path / name).mkdir()
        cfg = validate_config(_write_config(tmp_path / name, filter={"c": [value]},
                                            temperatures=[value]))
        assert cfg.temperatures == [1.0] and cfg.filter_ratios == [1.0]
        run_pipeline(cfg, tmp_path / name / "run")
    names = sorted(p.name for p in (tmp_path / "float" / "run").glob("samples_*.txt"))
    assert names == ["samples_T1_baseline.txt", "samples_T1_c1_accepted.txt",
                     "samples_T1_c1_rejected.txt"]
    for sample_file in names:
        assert ((tmp_path / "int" / "run" / sample_file).read_bytes()
                == (tmp_path / "float" / "run" / sample_file).read_bytes())


def test_pipeline_resume_recomputes_only_final_stage(tmp_path):
    cfg = validate_config(_write_config(tmp_path))
    out = tmp_path / "run"
    first = run_pipeline(cfg, out)
    assert all(not st["skipped"] for st in first["stages"])
    (out / "sweep.csv").unlink()
    (out / "report.json").unlink()
    (out / "oracle_report.json").unlink()
    second = run_pipeline(cfg, out)
    by_name = {st["name"]: st for st in second["stages"]}
    assert not by_name["evaluate"]["skipped"]
    for name in ("data", "train-gen", "train-disc", "estimate-uc", "sample"):
        assert by_name[name]["skipped"]
    assert _artifact_digests(first) == _artifact_digests(second)


_STAGES = ["data", "train-gen", "train-disc", "estimate-uc", "sample", "evaluate"]


@pytest.mark.parametrize("change,first_rerun", [
    ("version", "data"), ("source", "data"), ("delete gen.json", "train-gen")])
def test_a_rerun_recomputes_every_stage_from_the_first_changed_one(
        tmp_path, monkeypatch, change, first_rerun):
    cfg = validate_config(_write_config(tmp_path))
    out = tmp_path / "run"
    first = run_pipeline(cfg, out)
    if change == "version":
        monkeypatch.setattr("filtergen.cli.__version__", "0.0.0+other")
    elif change == "source":  # an edited module under the same version
        monkeypatch.setattr("filtergen.cli._source_sha256", lambda: "0" * 64)
    else:
        (out / "gen.json").unlink()
    second = run_pipeline(cfg, out)
    skipped = [st["name"] for st in second["stages"] if st["skipped"]]
    assert skipped == _STAGES[:_STAGES.index(first_rerun)]
    assert _artifact_digests(second) == _artifact_digests(first)
    assert json.loads((out / "manifest.json").read_text()) == second


def test_the_source_digest_covers_the_modules_and_the_scenarios(tmp_path):
    package = tmp_path / "filtergen"
    shutil.copytree(Path(fg.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    digest = fg.cli._source_sha256(package)
    assert digest == fg.cli._source_sha256()  # the copy hashes as the package does
    (package / "notes.txt").write_text("neither a module nor a scenario")
    assert fg.cli._source_sha256(package) == digest
    for name in ("disc.py", "scenarios/s2.json"):
        path = package / name
        original = path.read_bytes()
        path.write_bytes(original + b"\n")
        assert fg.cli._source_sha256(package) != digest, name
        path.write_bytes(original)
    assert fg.cli._source_sha256(package) == digest


def test_a_changed_input_file_recomputes_every_stage(tmp_path):
    path = _data_config(tmp_path, {"order": 2}, filter={"c": [1.0, 0.5]},
                        metrics=["bleu", "lm"], eval={"n_samples": 100},
                        discriminator={"batch_size": 64, "max_epochs": 3},
                        uc={"samples_per_round": 200, "rounds": 20})
    cfg, out = validate_config(path), tmp_path / "run"
    run_pipeline(cfg, out)
    train = Path(cfg.data["train"])
    train.write_text("".join(train.read_text().splitlines(keepends=True)[:200]))
    second = run_pipeline(cfg, out)
    assert not any(st["skipped"] for st in second["stages"])
    digest = hashlib.sha256(train.read_bytes()).hexdigest()
    assert second["inputs"]["train"] == digest
    clean = run_pipeline(cfg, tmp_path / "clean")
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "clean" / "sweep.csv").read_bytes()
    assert _artifact_digests(second) == _artifact_digests(clean)


def test_oracle_report_checks_the_smallest_ratio(tmp_path):
    cfg = validate_config(_write_config(tmp_path, filter={"c": [1.0, 0.4, 0.6]},
                                        metrics=["bleu"]))
    run_pipeline(cfg, tmp_path / "run")
    doc = json.loads((tmp_path / "run" / "oracle_report.json").read_text())
    assert doc["c"] == 0.4 and doc["pass"]
    assert doc["tv_after"] < doc["tv_before"]


@pytest.mark.parametrize("damage", ["truncated", "not-an-object", "too-deep"])
def test_corrupt_state_file_recomputes_every_stage(tmp_path, capsys, damage):
    path = _write_config(tmp_path)
    out = tmp_path / "run"
    argv = ["pipeline", "--config", str(path), "--out-dir", str(out)]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    manifest = out / "manifest.json"
    text = manifest.read_text()
    # a truncated file is what a crash in the middle of a plain write leaves
    manifest.write_text({"truncated": text[: len(text) // 2], "not-an-object": "[1, 2]",
                         "too-deep": _TOO_DEEP}[damage])
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert all(not st["skipped"] for st in second["stages"])
    assert _artifact_digests(second) == _artifact_digests(first)
    assert json.loads(manifest.read_text()) == second
    assert not (out / "manifest.json.tmp").exists()


def _artifact_digests(manifest: dict) -> dict:
    return {a["path"]: a["sha256"] for st in manifest["stages"] for a in st["artifacts"]}


@pytest.fixture(scope="module")
def clean_run_digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clean")
    return _artifact_digests(
        run_pipeline(validate_config(_write_config(tmp)), tmp / "run"))


@pytest.mark.parametrize("target", [
    "train.txt", "vocab.json", "gen.json", "disc.json", "disc_report.json",
    "uc_T1_c0.4.json", "samples_T1_c0.4_accepted.txt", "samples_T1_c1_rejected.txt",
    "samples_T1_c0.4_stats.json", "sweep.csv", "report.json", "oracle_report.json",
    "manifest.json",
])
def test_failed_artifact_write_exits_cleanly_and_a_rerun_completes(
        tmp_path, capsys, monkeypatch, clean_run_digests, target):
    # the rename of one artifact fails, after the stage has written others
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == target:
            raise OSError(f"cannot replace {dst}")
        real_replace(src, dst)

    path = _write_config(tmp_path)
    out = tmp_path / "run"
    argv = ["pipeline", "--config", str(path), "--out-dir", str(out)]
    monkeypatch.setattr(os, "replace", replace)
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / target).exists()
    assert not list(out.glob("*.tmp"))
    monkeypatch.undo()
    assert main(argv) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert not list(out.glob("*.tmp"))
    assert _artifact_digests(manifest) == clean_run_digests
    for name in ("manifest.json", *clean_run_digests):
        if name.endswith(".json"):
            json.loads((out / name).read_text())  # every JSON artifact is whole


def _no_json_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def test_missing_input_file_is_a_stage_failure(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(json.dumps({"kind": "ngram"}))
    code = main(["train-gen", "--train", str(tmp_path / "nope.txt"),
                 "--config", str(cfg), "--out", str(tmp_path / "gen.json")])
    assert code == 3


def _s2_config(tmp_path, **overrides):
    return _write_config(tmp_path, **{
        "scenario": "s2",
        "discriminator": {"lr": 0.05, "batch_size": 256, "max_epochs": 4, "patience": 8},
        "filter": {"c": [1.0, 0.5]},
        "eval": {"n_samples": 1000},
        "uc": {"samples_per_round": 200, "rounds": 40},
        **overrides})


def test_pipeline_sweep_equals_temperature_sweep_on_its_artifacts(tmp_path):
    # seed 8 rejects at least n_samples rows at every point, so the reverse
    # LM scores every row
    cfg = validate_config(_s2_config(
        tmp_path, seed=8, temperatures=[0.9, 1.2],
        metrics=["bleu", "selfbleu", "lm", "rlm", "fed", "err"]))
    out = tmp_path / "run"
    run_pipeline(cfg, out)
    vocab = fg.Vocab.load(out / "vocab.json")
    train, test = (fg.load_corpus(out / f"{name}.txt", vocab, name)
                   for name in ("train", "test"))
    gen, disc = load_model(out / "gen.json"), load_model(out / "disc.json")
    # the evaluate stage's scorer
    scorer = MetricScorer(cfg.metrics, real_train=train, real_test=test,
                          fixed_length=gen.fixed_length, seed=cfg.seed,
                          disc_cfg=cfg.discriminator)
    report = temperature_sweep(gen, scorer, cfg.temperatures, cfg.eval["n_samples"],
                               disc=disc, c_values=cfg.filter_ratios, uc_cfg=cfg.uc)
    assert len(report.rows) == 2 * 4
    assert report.csv_text() == (out / "sweep.csv").read_text()


def test_short_rejected_stream_leaves_the_reverse_lm_cell_empty(tmp_path):
    # seed 3 rejects 913 of the 1000 rows the reverse LM needs
    path = _s2_config(tmp_path, seed=3, filter={"c": [0.5]}, metrics=["bleu", "rlm"])
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(path), "--out-dir", str(out)]) == 0
    assert len((out / "samples_T1_c0.5_rejected.txt").read_text().splitlines()) < 1000
    with open(out / "sweep.csv") as fh:
        rows = {r["stream"]: r for r in csv.DictReader(fh)}
    assert rows["rejected"]["rev_lm_score"] == "" and rows["rejected"]["bleu5"] != ""
    assert rows["baseline"]["rev_lm_score"] != "" and rows["accepted"]["rev_lm_score"] != ""
    # the evaluate subcommand stays strict about the minimum
    code = main(["evaluate", "--train", str(out / "train.txt"),
                 "--real", str(out / "test.txt"),
                 "--samples", str(out / "samples_T1_c0.5_rejected.txt"),
                 "--gen", str(out / "gen.json"), "--metrics", "rlm",
                 "--out", str(tmp_path / "rlm.json")])
    assert code == 3


def test_stage_subcommands_reproduce_the_pipeline_on_its_files(tmp_path):
    path = _s2_config(tmp_path, filter={"c": [0.5]}, uc={},
                      metrics=["bleu", "selfbleu", "lm", "rlm", "fed"])
    run, sub = tmp_path / "run", tmp_path / "sub"
    assert main(["pipeline", "--config", str(path), "--out-dir", str(run)]) == 0
    sub.mkdir()
    disc_cfg = tmp_path / "disc.cfg"
    disc_cfg.write_text(json.dumps(json.loads(path.read_text())["discriminator"]))
    seed, gen, disc = ["--seed", "5"], str(run / "gen.json"), str(run / "disc.json")
    train, test = str(run / "train.txt"), str(run / "test.txt")
    assert main(["train-disc", "--real", train, "--gen-model", gen, "--config", str(disc_cfg),
                 "--out", str(sub / "disc.json"), *seed]) == 0
    uc_path = sub / "uc_T1_c0.5.json"
    assert main(["estimate-uc", "--gen", gen, "--disc", disc, "--c", "0.5",
                 "--out", str(uc_path), *seed]) == 0
    u_c = json.loads(uc_path.read_text())["u_c"]
    assert main(["sample", "--gen", gen, "--disc", disc, "--c", "0.5", "--u-c", repr(u_c),
                 "--n", "1000", "--out", str(sub / "samples_T1_c0.5_accepted.txt"),
                 "--rejected-out", str(sub / "samples_T1_c0.5_rejected.txt"), *seed]) == 0
    for name in ("disc.json", "uc_T1_c0.5.json", "samples_T1_c0.5_accepted.txt",
                 "samples_T1_c0.5_rejected.txt"):
        assert (sub / name).read_bytes() == (run / name).read_bytes(), name
    sweep = (run / "sweep.csv").read_text().splitlines()
    for line, ratio, stream, samples in ((1, 1.0, "baseline", "samples_T1_baseline.txt"),
                                         (2, 0.5, "accepted", "samples_T1_c0.5_accepted.txt")):
        out = sub / f"{stream}.json"
        assert main(["evaluate", "--train", train, "--real", test,
                     "--samples", str(run / samples), "--gen", gen,
                     "--metrics", "bleu,selfbleu,lm,rlm,fed", "--out", str(out), *seed]) == 0
        row = {"temperature": 1.0, "c": ratio, "stream": stream, **json.loads(out.read_text())}
        assert fg.SweepReport([row]).csv_text().splitlines()[1] == sweep[line]


@pytest.mark.parametrize("flag,value", [
    ("--max-attempts", "0"), ("--max-attempts", "-1"), ("--n", "0"), ("--c", "2")])
def test_out_of_range_sample_flags_exit_3_with_one_error_line(tmp_path, capsys, input_files,
                                                             flag, value):
    args = {"--gen": str(input_files["gen"]), "--disc": str(input_files["disc"]),
            "--c": "0.5", "--u-c": "0.5", "--n": "5", "--out": str(tmp_path / "s.txt"),
            "--rejected-out": str(tmp_path / "r.txt"), flag: value}
    assert main(["sample", *[part for item in args.items() for part in item]]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,flags", [
    ("sample", ["--c", "0.5", "--u-c", "0.5", "--n", "5"]), ("estimate-uc", ["--c", "0.5"]),
    ("estimate-uc", ["--c", "1"])])
def test_infinite_temperature_exits_3_with_one_error_line(tmp_path, capsys, input_files,
                                                          command, flags):
    # T = inf would flatten every step to its support, zero-probability rows included
    out = tmp_path / "out"
    argv = [command, "--gen", str(input_files["gen"]), "--disc", str(input_files["disc"]),
            *flags, "--temperature", "inf", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: temperature must be")
    assert not list(tmp_path.iterdir())


def test_rejected_artifact_is_the_scored_prefix(tmp_path):
    # seed 1 rejects more rows than n_samples; the artifact keeps the first n
    cfg = validate_config(_s2_config(tmp_path, seed=1, filter={"c": [0.5]},
                                     metrics=["bleu"]))
    out = tmp_path / "run"
    run_pipeline(cfg, out)
    vocab = fg.Vocab.load(out / "vocab.json")
    gen, disc = load_model(out / "gen.json"), load_model(out / "disc.json")
    u_c = json.loads((out / "uc_T1_c0.5.json").read_text())["u_c"]
    sampler = fg.SamplerConfig(temperature=1.0, seed=fg.seeding.derive_seed(1, "sample", 1.0))
    _, stats = fg.sample_filtered(
        fg.FilteredGenerator(gen, disc, fg.FilterParams(0.5, u_c)), 1000, sampler,
        np.random.default_rng(sampler.seed))
    assert len(stats.rejected_sequences) > 1000
    written = fg.load_corpus(out / "samples_T1_c0.5_rejected.txt", vocab)
    assert written.sequences == stats.rejected_sequences[:1000].sequences


@pytest.mark.parametrize("content, code", [(b" \n\t\n\n", 0), (b"the\n\xff\xfe\n", 3)])
def test_evaluate_skips_a_blank_rejected_file_and_fails_on_non_utf8(tmp_path, monkeypatch, content, code):
    # a blank rejected file means nothing was rejected: no row; one that is
    # not UTF-8 is a stage failure
    path = _write_config(tmp_path, filter={"c": [1.0]}, metrics=["bleu"])
    sample = fg.cli._Pipeline._stage_sample

    def sample_then_overwrite(self):
        sample(self)
        (self.out / "samples_T1_c1_rejected.txt").write_bytes(content)

    monkeypatch.setattr(fg.cli._Pipeline, "_stage_sample", sample_then_overwrite)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(path), "--out-dir", str(out)]) == code
    if code == 0:
        with open(out / "sweep.csv") as fh:
            assert [r["stream"] for r in csv.DictReader(fh)] == ["baseline", "accepted"]


def test_stages_load_only_the_splits_they_read(tmp_path, monkeypatch):
    loaded = []
    load_corpus = fg.cli.load_corpus

    def recording(path, *args, **kwargs):
        if Path(path).parent.name == "run":
            loaded.append(Path(path).name)
        return load_corpus(path, *args, **kwargs)

    monkeypatch.setattr(fg.cli, "load_corpus", recording)
    path = _data_config(tmp_path, {"order": 2}, filter={"c": [1.0, 0.5]},
                        metrics=["bleu"], eval={"n_samples": 100},
                        discriminator={"batch_size": 64, "max_epochs": 3},
                        uc={"samples_per_round": 200, "rounds": 20})
    run_pipeline(validate_config(path), tmp_path / "run")
    # train-gen, then train-disc, then evaluate
    assert loaded == ["train.txt", "valid.txt", "train.txt", "train.txt", "test.txt"]


# malformed checkpoint files: each must end in exit 3, not in a traceback
_BAD_CHECKPOINTS = {
    "not-json": b"{not json",
    "not-an-object": b"[1,2]",
    "ngram-without-params": json.dumps({"format_version": 1, "kind": "ngram",
                                        "vocab": {"tokens": ["a"]}, "params": {}}).encode(),
    "not-utf8": b"\xff\xfe",
    "too-deep": _TOO_DEEP.encode(),
}


def _one_error_line(capsys, path) -> bool:
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith(f"error: {path}: ")


@pytest.mark.parametrize("bad", list(_BAD_CHECKPOINTS))
@pytest.mark.parametrize("command", ["train-disc", "estimate-uc", "sample", "evaluate"])
def test_malformed_checkpoint_exits_3_with_one_error_line(tmp_path, capsys, command, bad):
    ckpt = tmp_path / "model.json"
    ckpt.write_bytes(_BAD_CHECKPOINTS[bad])
    unread = str(tmp_path / "unread")  # the checkpoint is read first
    inputs = {
        "train-disc": ["--real", unread, "--gen-model", str(ckpt)],
        "estimate-uc": ["--gen", str(ckpt), "--disc", unread, "--c", "0.5"],
        "sample": ["--gen", str(ckpt), "--disc", unread, "--c", "0.5", "--u-c", "0.5",
                   "--n", "5"],
        "evaluate": ["--train", unread, "--real", unread, "--samples", unread,
                     "--gen", str(ckpt)],
    }[command]
    out = tmp_path / "out"
    assert main([command, *inputs, "--out", str(out)]) == 3
    assert _one_error_line(capsys, ckpt)
    assert not out.exists()


@pytest.mark.parametrize("tokens", [[7, 8, 9], ["a b", "c", "d"], ["", "c", "d"], "abc"])
def test_checkpoint_with_bad_vocab_tokens_exits_3(tmp_path, capsys, tokens):
    # a bigram whose tokens would not survive a saved corpus (or, as a
    # string, would load as its characters)
    vocab = fg.build_vocab(["a b c"], 10)
    ckpt = tmp_path / "gen.json"
    fg.checkpoint.save_model(fg.train_mle(fg.encode_corpus(["a b c", "c b"], vocab),
                                          None, fg.NGramConfig()), ckpt)
    doc = json.loads(ckpt.read_text())
    doc["vocab"]["tokens"] = tokens
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    assert main(["sample", "--gen", str(ckpt), "--disc", str(tmp_path / "unread"),
                 "--c", "0.5", "--u-c", "0.5", "--n", "5", "--out", str(out)]) == 3
    assert _one_error_line(capsys, ckpt)
    assert not out.exists()


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """Good and bad inputs: _natural_corpus_files' text, a bigram and a
    classifier checkpoint over it, a train-gen config, non-UTF-8 text, and a
    bigram over other words."""
    tmp = tmp_path_factory.mktemp("inputs")
    train, _, test = _natural_corpus_files(tmp)
    vocab = fg.build_vocab(train.read_text().splitlines(), 100)
    gen = fg.train_mle(fg.load_corpus(train, vocab), None, fg.NGramConfig())
    disc, _ = fg.train_discriminator(fg.load_corpus(train, vocab), gen,
                                     fg.DiscConfig(max_epochs=1, batch_size=64))
    files = {"train": train, "test": test, "gen": tmp / "gen.json",
             "disc": tmp / "disc.json", "gen-cfg": tmp / "gen.cfg",
             "not-utf8": tmp / "not-utf8.txt"}
    fg.checkpoint.save_model(gen, files["gen"])
    fg.checkpoint.save_model(disc, files["disc"])
    other = fg.encode_corpus(["one two three", "three two"], fg.build_vocab(["one two three"], 10))
    files["other-gen"] = tmp / "other-gen.json"
    fg.checkpoint.save_model(fg.train_mle(other, None, fg.NGramConfig()), files["other-gen"])
    files["gen-cfg"].write_text(json.dumps({"kind": "ngram"}))
    files["not-utf8"].write_bytes(b"the cat\n\xff\xfe\n")
    return files


# each case names the flag whose file is bad: text that is not UTF-8, a
# checkpoint of the wrong kind, or a classifier over another vocabulary
@pytest.mark.parametrize("command,inputs,culprit", [
    ("train-gen", {"--train": "not-utf8", "--config": "gen-cfg"}, "--train"),
    ("train-disc", {"--real": "not-utf8", "--gen-model": "gen"}, "--real"),
    ("train-disc", {"--real": "train", "--gen-model": "disc"}, "--gen-model"),
    ("estimate-uc", {"--gen": "gen", "--disc": "not-utf8", "--c": "0.5"}, "--disc"),
    ("estimate-uc", {"--gen": "disc", "--disc": "disc", "--c": "0.5"}, "--gen"),
    ("estimate-uc", {"--gen": "gen", "--disc": "gen", "--c": "0.5"}, "--disc"),
    ("sample", {"--gen": "gen", "--disc": "not-utf8", "--c": "0.5", "--u-c": "0.5",
                "--n": "5"}, "--disc"),
    ("sample", {"--gen": "gen", "--disc": "gen", "--c": "0.5", "--u-c": "0.5",
                "--n": "5"}, "--disc"),
    ("evaluate", {"--train": "train", "--real": "not-utf8", "--samples": "test",
                  "--gen": "gen"}, "--real"),
    ("evaluate", {"--train": "train", "--real": "test", "--samples": "not-utf8",
                  "--gen": "gen"}, "--samples"),
    ("evaluate", {"--train": "train", "--real": "test", "--samples": "test", "--gen": "gen",
                  "--disc": "not-utf8"}, "--disc"),
    ("evaluate", {"--train": "train", "--real": "test", "--samples": "test",
                  "--gen": "disc"}, "--gen"),
    ("estimate-uc", {"--gen": "other-gen", "--disc": "disc", "--c": "0.5"}, "--disc"),
    ("sample", {"--gen": "other-gen", "--disc": "disc", "--c": "0.5", "--u-c": "0.5",
                "--n": "5"}, "--disc"),
    ("evaluate", {"--train": "train", "--real": "test", "--samples": "test",
                  "--gen": "other-gen", "--disc": "disc", "--metrics": "bleu"}, "--disc"),
    ("evaluate", {"--train": "not-utf8", "--real": "test", "--samples": "test",
                  "--gen": "gen"}, "--train"),
])
def test_bad_input_file_exits_3_with_one_error_line(tmp_path, capsys, input_files,
                                                    command, inputs, culprit):
    argv = [command]
    for flag, name in inputs.items():
        argv += [flag, str(input_files.get(name, name))]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    assert _one_error_line(capsys, input_files[inputs[culprit]])
    assert not out.exists()


def test_failed_output_write_leaves_no_file(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", replace)
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--scenario", "s1", "--c", "0.4", "--out", str(out)]) == 3
    assert not out.exists() and not list(tmp_path.iterdir())
