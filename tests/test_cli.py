import csv
import hashlib
import json

import numpy as np
import pytest

import filtergen as fg
from filtergen.checkpoint import load_model
from filtergen.cli import main, oracle_check, run_pipeline, validate_config
from filtergen.errors import ConfigError
from filtergen.metrics import temperature_sweep

# gen.json of a bigram with delta 0.01 on _natural_corpus_files' train
# split, from the pipeline or from train-gen: its counts are integers, so the
# bytes are the same on every machine
GEN_JSON_SHA256 = "b6ef561eb435c33b3c0ae8964582452d5e4b7b6e2b69bbb6bce34b60c02f100f"


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
    ({"eval": {"bleu_order": 2.5}}, "eval.bleu_order must be a positive integer, got 2.5"),
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
    cfg = validate_config(_write_config(tmp_path))
    assert cfg.eval["bleu_order"] == 5
    assert cfg.uc.rounds == 100
    assert cfg.discriminator.kernels3 == 32


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
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
    ({}, {"max_len": "x"}, "data.max_len must be a positive integer, got 'x'"),
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
    seed = fg.seeding.derive_seed(5, "train-gen")
    assert cfg.generator == fg.NGramConfig(order=2, seed=seed)
    run_pipeline(cfg, tmp_path / "run")
    digest = hashlib.sha256((tmp_path / "run" / "gen.json").read_bytes()).hexdigest()
    assert digest == GEN_JSON_SHA256


@pytest.mark.parametrize("command,doc,problem", [
    ("train-gen", {"order": "2"}, "generator: order must be an integer >= 1, got '2'"),
    ("train-gen", {"kind": "markov"},
     "generator.kind must be one of ngram|neural, got 'markov'"),
    ("train-gen", {"max_len": "x"}, "generator.max_len must be a positive integer, got 'x'"),
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


@pytest.mark.parametrize("argv", [
    ["pipeline", "--config", "c.json", "--seed", "3"],
    ["sweep", "--config", "c.json", "--out", "s.csv", "--seed", "3"],
    ["oracle-check", "--scenario", "s1", "--out", "o.json", "--seed", "3"],
    ["train-gen", "--train", "t.txt", "--config", "g.json", "--out", "g", "--out-dir", "x"],
    ["evaluate", "--real", "r", "--samples", "s", "--gen", "g", "--out", "o",
     "--out-dir", "x"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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

    samples = tmp_path / "samples.txt"
    rejected = tmp_path / "rejected.txt"
    assert main(["sample", "--gen", str(gen_path), "--disc", str(disc_path),
                 "--c", "0.5", "--u-c", str(uc_doc["u_c"]), "--n", "200",
                 "--temperature", "1.0", "--out", str(samples),
                 "--rejected-out", str(rejected), "--seed", "4"]) == 0
    stats = json.loads((tmp_path / "samples.txt.stats.json").read_text())
    assert stats["acceptances"] == 200
    assert hashlib.sha256(gen_path.read_bytes()).hexdigest() == GEN_JSON_SHA256

    # --rejected-out holds the first --n rejected rows, as the pipeline writes
    assert main(["sample", "--gen", str(gen_path), "--disc", str(disc_path),
                 "--c", "0.2", "--u-c", "1.0", "--n", "50", "--out", str(samples),
                 "--rejected-out", str(rejected), "--seed", "4"]) == 0
    gen, disc = load_model(gen_path), load_model(disc_path)
    accepted, full = fg.sample_filtered(
        fg.FilteredGenerator(gen, disc, fg.FilterParams(0.2, 1.0)), 50,
        fg.SamplerConfig(seed=4), np.random.default_rng(4))
    assert len(full.rejected_sequences) > 50
    assert fg.load_corpus(samples, gen.vocab).sequences == accepted.sequences
    written = fg.load_corpus(rejected, gen.vocab)
    assert written.sequences == full.rejected_sequences[:50].sequences

    report = tmp_path / "report.json"
    assert main(["evaluate", "--real", str(test), "--samples", str(samples),
                 "--gen", str(gen_path), "--metrics", "bleu,selfbleu,lm",
                 "--out", str(report), "--seed", "5"]) == 0
    doc = json.loads(report.read_text())
    assert set(doc) == {"bleu5", "self_bleu5", "lm_score"}
    assert 0.0 <= doc["bleu5"] <= 1.0


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
    report = json.loads((tmp_path / "run" / "disc_report.json").read_text())
    assert report["stop_reason"] in ("patience", "max_epochs")
    assert report["converged"] == (report["stop_reason"] == "patience")


def test_pipeline_resume_recomputes_only_final_stage(tmp_path):
    cfg = validate_config(_write_config(tmp_path))
    out = tmp_path / "run"
    first = run_pipeline(cfg, out)
    assert all(not st["skipped"] for st in first.stages)
    (out / "sweep.csv").unlink()
    (out / "report.json").unlink()
    (out / "oracle_report.json").unlink()
    second = run_pipeline(cfg, out)
    by_name = {st["name"]: st for st in second.stages}
    assert not by_name["evaluate"]["skipped"]
    for name in ("data", "train-gen", "train-disc", "estimate-uc", "sample"):
        assert by_name[name]["skipped"]
    assert first.artifact_digests() == second.artifact_digests()


@pytest.mark.parametrize("damage", ["truncated", "not-an-object"])
def test_corrupt_state_file_recomputes_every_stage(tmp_path, capsys, damage):
    path = _write_config(tmp_path)
    out = tmp_path / "run"
    argv = ["pipeline", "--config", str(path), "--out-dir", str(out)]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    state = out / "checkpoints.json"
    text = state.read_text()
    # a truncated file is what a crash in the middle of a plain write leaves
    state.write_text(text[: len(text) // 2] if damage == "truncated" else "[1, 2]")
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert all(not st["skipped"] for st in second["stages"])
    assert _artifact_digests(second) == _artifact_digests(first)
    assert json.loads(state.read_text()) == json.loads(text)
    assert not (out / "checkpoints.json.tmp").exists()


def _artifact_digests(manifest: dict) -> dict:
    return {a["path"]: a["sha256"] for st in manifest["stages"] for a in st["artifacts"]}


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
    train, test = (fg.load_corpus(out / f"{name}.txt", vocab, name, cfg.eval["max_len"])
                   for name in ("train", "test"))
    gen, disc = load_model(out / "gen.json"), load_model(out / "disc.json")
    oracle_cfg = fg.NGramConfig(order=2, delta=0.01, fixed_length=gen.fixed_length)
    report = temperature_sweep(
        gen, train, test, cfg.temperatures, cfg.metrics, cfg.eval["n_samples"],
        cfg.seed, disc=disc, c_values=cfg.filter_ratios,
        bleu_cfg=fg.BleuConfig(max_order=cfg.eval["bleu_order"]),
        embed_dim=cfg.eval["embed_dim"], rlm_config=oracle_cfg,
        oracle_lm=fg.train_mle(train, None, oracle_cfg), uc_cfg=cfg.uc,
        disc_cfg=cfg.discriminator, max_len=cfg.eval["max_len"])
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
    code = main(["evaluate", "--real", str(out / "test.txt"),
                 "--samples", str(out / "samples_T1_c0.5_rejected.txt"),
                 "--gen", str(out / "gen.json"), "--metrics", "rlm",
                 "--out", str(tmp_path / "rlm.json")])
    assert code == 3


def test_rejected_artifact_is_the_scored_prefix(tmp_path):
    # seed 1 rejects more rows than n_samples; the artifact keeps the first n
    cfg = validate_config(_s2_config(tmp_path, seed=1, filter={"c": [0.5]},
                                     metrics=["bleu"]))
    out = tmp_path / "run"
    run_pipeline(cfg, out)
    vocab = fg.Vocab.load(out / "vocab.json")
    gen, disc = load_model(out / "gen.json"), load_model(out / "disc.json")
    u_c = json.loads((out / "uc_T1_c0.5.json").read_text())["u_c"]
    sampler = fg.SamplerConfig(temperature=1.0, max_len=cfg.eval["max_len"],
                               seed=fg.seeding.derive_seed(1, "sample", 1.0))
    _, stats = fg.sample_filtered(
        fg.FilteredGenerator(gen, disc, fg.FilterParams(0.5, u_c)), 1000, sampler,
        np.random.default_rng(sampler.seed))
    assert len(stats.rejected_sequences) > 1000
    written = fg.load_corpus(out / "samples_T1_c0.5_rejected.txt", vocab)
    assert written.sequences == stats.rejected_sequences[:1000].sequences
