import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import filtergen as fg
import filtergen.cli
from perfbench import harness, probe, tracing, workloads
from perfbench.tracing import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_PIPELINE = {
    "scenario": "s2",
    "discriminator": {"lr": 0.05, "batch_size": 256, "max_epochs": 2, "patience": 8},
    "filter": {"c": [1.0, 0.5]},
    "temperatures": [1.0],
    "metrics": ["bleu", "selfbleu", "lm", "rlm", "fed"],
    "eval": {"n_samples": 1000},  # the reverse LM needs 1000
    "uc": {"samples_per_round": 100, "rounds": 100},
}


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        Span("a", -1, 0.0, 10.0),
        Span("b", 0, 1.0, 4.0),
        Span("c", 0, 3.0, 6.0),   # overlaps b: the union counts once
        Span("d", 1, 2.0, 3.0),   # grandchild: covers b, not a
        Span("e", 0, 9.0, 12.0),  # runs past a's end: clipped to it
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_wrapped_calls_nest_and_self_times_sum_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    root = tracer.wrap("root", lambda: (mid(), leaf()))
    root()
    assert [s.name for s in tracer.spans] == ["root", "mid", "leaf", "leaf", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, 1, 0]
    own = self_times(tracer.spans)
    assert min(own) >= 0.0
    root_span = tracer.spans[0]
    assert sum(own) == pytest.approx(root_span.end - root_span.start)


# Bindings the program's callers look up, beyond each defining module.
CALLER_BINDINGS = [
    ("disc", "corpus_to_arrays"),
    ("cli", "estimate_boundary"), ("metrics", "estimate_boundary"),
    ("cli", "sample_filtered"), ("metrics", "sample_filtered"),
    ("cli", "exact_boundary"), ("cli", "build_scenario"),
    ("scenarios", "enumerate_distribution"), ("scenarios", "train_mle"),
    ("cli", "train_mle"), ("metrics", "train_mle"),
    ("cli", "save_corpus"), ("cli", "load_corpus"),
    ("cli", "save_model"), ("cli", "load_model"),
    ("cli", "train_discriminator"),
]


@pytest.mark.parametrize("module, attr", CALLER_BINDINGS)
def test_patch_reaches_every_caller_binding_and_restores_it(module, attr):
    mod = sys.modules[f"filtergen.{module}"]
    original = getattr(mod, attr)
    with Tracer().patch():
        assert getattr(mod, attr).__wrapped__ is original
    assert getattr(mod, attr) is original


def test_every_wrapper_intercepts_its_call(tmp_path):
    """A tiny pipeline reaches every traced layer through the program's own callers."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_PIPELINE, "seed": 3}))
    tracer = Tracer()
    with tracer.patch():
        code = fg.cli.main(["pipeline", "--config", str(config),
                            "--out-dir", str(tmp_path / "run")])
        # markov generators are only reached through the oracle scenarios
        s1 = fg.scenarios.build_scenario("s1")
        s1.generator.sample_corpus(5, fg.SamplerConfig(max_len=s1.length, seed=1))
    assert code == 0
    summary = tracer.summary()
    missing = [layer for layer in tracing.LAYERS if summary[f"{layer}.calls"] == 0]
    assert missing == []
    assert summary["disc.train.epochs"] == 2
    assert summary["filtering.estimate_boundary.rounds"] == 100
    assert summary["filtering.attempts"] >= summary["filtering.acceptances"] == 2000
    assert not hasattr(fg.NGramLM.sample_corpus, "__wrapped__")


def _tiny(name, seed, scratch):
    if name == "filter-s3":
        return workloads.FilterS3(seed, n=2000, setup_epochs=1)
    if name == "disc-train-s3":
        return workloads.DiscTrainS3(seed, epochs=1)
    # without the reverse LM, whose 1000-sample minimum a short rejected
    # stream can miss
    config = {**TINY_PIPELINE, "metrics": ["bleu", "selfbleu", "lm", "fed"],
              "eval": {"n_samples": 300}}
    w = workloads.PipelineS2(seed, scratch, config, runs_per_pass=1)
    w.acceptance_tol = 0.15  # 100-sample boundary rounds, not 1000
    return w


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_of_each_workload(name, trace, tmp_path):
    result = harness.measure(_tiny(name, 11, tmp_path / "runs"), 0, trace)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    line = json.loads(harness.result_line(result, SPEC, trace))
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in listed}
    assert not (tmp_path / "runs").exists()
    if trace:
        assert result["metrics"]["trace.spans"] > 0
        own = [result["metrics"][f"{layer}.self_s"] for layer in tracing.LAYERS]
        assert min(own) >= 0.0 and max(own) > 0.0
    else:
        assert all(line["metrics"][m]["value"] > 0 for m in line["metrics"])


def test_filter_check_flags_a_short_stream(tmp_path):
    w = _tiny("filter-s3", 5, tmp_path)
    state = w.setup()
    boundary, accepted, stats = w.run_pass(state)
    short = fg.Corpus(accepted.vocab, accepted.sequences[:-1], accepted.split)
    problems, _ = w.check(state, (boundary, short, stats))
    assert any("accepted 1999" in p for p in problems)


def test_probe_samples_during_cpu_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with probe.Probe() as prb:
        first = len(prb.samples)
        while len(prb.samples) < first + 5:
            sum(i * i for i in range(10_000))
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert min(prb.samples) > 0.0
    assert prb.slowdown(first) > 0.0
    assert prb.slowdown(len(prb.samples)) is None


def test_run_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "filter-s3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spec_names_are_unique_and_setup_has_the_largest_bound():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
