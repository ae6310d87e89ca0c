"""Bundled enumerable scenarios used by tests, demos, and the CLI.

Each scenario fixes a small Markov source (the "real" distribution), a
generator construction, corpus sizes, and a seed, so every build is fully
reproducible. Scenarios span the analytic two-sequence case (s1), a
structurally mismatched generator (s2), a deliberately under-trained
generator with a large initial gap (s3), and a longer-sequence family for
length-bucket experiments (s4).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .data import Corpus, MarkovSource, synth_markov
from .errors import InputError
from .genmodel import MarkovModel, NGramConfig, train_mle
from .oracle import (ExactDiscriminator, ExactDistribution, enumerate_distribution,
                     optimal_discriminator, tv_distance)
from .seeding import derive_seed

SCENARIO_NAMES = ("s1", "s2", "s3", "s4")


def load_spec(name: str) -> dict:
    if name not in SCENARIO_NAMES:
        raise InputError(f"unknown scenario '{name}'; available: {SCENARIO_NAMES}")
    text = resources.files(__package__).joinpath(f"scenarios/{name}.json").read_text()
    return json.loads(text)


@dataclass
class Scenario:
    """A fully built scenario: source, corpora, generator, exact tables."""

    name: str
    source: MarkovSource
    length: int
    generator: object
    train: Corpus
    valid: Corpus
    test: Corpus
    p_real: ExactDistribution
    p_model: ExactDistribution
    ideal_scores: np.ndarray
    target_ratios: tuple

    @property
    def vocab(self):
        return self.source.vocab

    @property
    def exact_disc(self) -> ExactDiscriminator:
        return ExactDiscriminator(self.p_real, self.ideal_scores)

    @property
    def tv_baseline(self) -> float:
        return tv_distance(self.p_model, self.p_real)


def build_scenario(name_or_spec, length: int | None = None) -> Scenario:
    """Build a scenario by name or from a spec dict.

    ``length`` overrides the sequence length (used by the length-bucket
    family s4, whose spec lists ``bucket_lengths``).
    """
    spec = load_spec(name_or_spec) if isinstance(name_or_spec, str) else name_or_spec
    seq_len = length if length is not None else spec["length"]
    seed = spec["seed"]
    source = MarkovSource(
        tuple(spec["tokens"]),
        np.array(spec["real"]["initial"], dtype=np.float64),
        np.array(spec["real"]["transition"], dtype=np.float64),
        seq_len,
    )
    sizes = spec["data_sizes"]
    train = synth_markov(source, sizes["train"],
                         np.random.default_rng(derive_seed(seed, "train", seq_len)), "train")
    valid = synth_markov(source, sizes["valid"],
                         np.random.default_rng(derive_seed(seed, "valid", seq_len)), "valid")
    test = synth_markov(source, sizes["test"],
                        np.random.default_rng(derive_seed(seed, "test", seq_len)), "test")
    generator = _build_generator(spec["generator"], source, seq_len, seed)
    p_real = enumerate_distribution(source, source.vocab, seq_len)
    p_model = enumerate_distribution(generator, source.vocab, seq_len)
    ideal_scores = optimal_discriminator(p_real, p_model)
    return Scenario(
        name=spec.get("name", "custom"),
        source=source,
        length=seq_len,
        generator=generator,
        train=train,
        valid=valid,
        test=test,
        p_real=p_real,
        p_model=p_model,
        ideal_scores=ideal_scores,
        target_ratios=tuple(spec.get("target_c", (0.5,))),
    )


def bucket_lengths(name_or_spec) -> tuple[int, ...]:
    spec = load_spec(name_or_spec) if isinstance(name_or_spec, str) else name_or_spec
    return tuple(spec.get("bucket_lengths", (spec["length"],)))


def _build_generator(gen_spec: dict, source: MarkovSource, seq_len: int, seed: int):
    kind = gen_spec.get("kind")
    if kind == "markov":
        gen_source = MarkovSource(
            source.tokens,
            np.array(gen_spec["initial"], dtype=np.float64),
            np.array(gen_spec["transition"], dtype=np.float64),
            seq_len,
        )
        return MarkovModel(gen_source)
    if kind == "ngram":
        rng = np.random.default_rng(derive_seed(seed, "gen-train", seq_len))
        gen_train = synth_markov(source, gen_spec["train_n"], rng, "gen-train")
        cfg = NGramConfig(order=gen_spec.get("order", 2),
                          delta=gen_spec.get("delta", 0.01),
                          fixed_length=seq_len)
        return train_mle(gen_train, None, cfg)
    raise InputError(f"unknown generator kind '{kind}'")

