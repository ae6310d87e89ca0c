"""Golden digests of ``NGramLM.sample_corpus`` and ``NeuralLM.sample_corpus``
at fixed seeds.

Each model is fitted on a fixed corpus and sampled at a fixed seed; the
SHA-256 of the sampled id matrix and its row lengths is pinned for n-gram
orders 1-3 and for a small recurrent LM, with a fixed length and with an
EOS event, at temperatures 1 and 0.7. Any change to the random draws,
their order, the context lookup or the fitted counts moves these digests.
The recurrent LM's draws also go through float64 matrix products, so its
digests assume the same BLAS rounding as the machine that pinned them.
"""

import hashlib

import numpy as np
import pytest

import filtergen as fg

TOKENS = ("a", "b", "c", "d", "e")
FIXED_LENGTH = 5
N_SAMPLES = 3000

GOLDEN = {
    "order1/fixed/T1": "04cfa18be6d46424c2d57060597a1e085062fc83089e08d1c31ae153869cc479",
    "order1/fixed/T0.7": "8af52913c724b4fc0baceae3572279f7a26d0ac70c992bb980f463a9346520e8",
    "order1/eos/T1": "e8a0c7fa993bba194a735d54a1d60a6243ef23d80919b078798cc7c899231ad5",
    "order1/eos/T0.7": "a09c273e87da6cfd0ea55f92e312dcc40bbe9179a877ebafbe471145038aad3d",
    "order2/fixed/T1": "8ed2432be3c3b63161fb930598f9b4344466e2baf5559674a12515b53e306346",
    "order2/fixed/T0.7": "69b6cacdcf04ea6b9129070989deaff5f88d2780c76deb712ab47575e34bf52c",
    "order2/eos/T1": "54f2c309af104377928d50f752fb3abce0666b3355ec9348b1146b8edd7257dc",
    "order2/eos/T0.7": "6571d1c323bda0836051139e03a3cfcc357fd4687ec12edbfcd8919a14a1eb3b",
    "order3/fixed/T1": "00ea5d7d88dde9e3e914ea4a4bd499a1db74de8cdb8735f9ec09b63783a84b6f",
    "order3/fixed/T0.7": "bfca9be3404372abdc90ad02bfa39f74a7bf0d658cc890d0ca56080c7b722ecb",
    "order3/eos/T1": "c84868b311fe27d462b4d8e8c7006664494363787c73819697f34b62aca4554e",
    "order3/eos/T0.7": "c4972769cb3aa40320d8f38b40bdfb7d4e01335f39a281e9c786285f42148744",
}


NEURAL_GOLDEN = {
    "neural/fixed/T1": "934086bc10ef531f371b1a0c47f9e80f19dd1c972d45aa77e3f377225a49f54d",
    "neural/fixed/T0.7": "14b990d75c678b90205abdca0e4ddf1afd4fe69d8d55eb18226076becf1c10ec",
    "neural/eos/T1": "3589aac39ce95cc815e4617e4a1406361067c186da2cdd965a5d3b88d4433197",
    "neural/eos/T0.7": "effaca229af240beca36790dbdc6bb9c11858c19e2e4423fcc4f57e7f9623b0e",
}


def _train_corpus(fixed: bool) -> fg.Corpus:
    if fixed:
        rng = np.random.default_rng(12)
        k = len(TOKENS)
        source = fg.MarkovSource(TOKENS, rng.dirichlet(np.ones(k)),
                                 rng.dirichlet(np.ones(k), size=k), FIXED_LENGTH)
        return fg.synth_markov(source, 400, np.random.default_rng(13), "train")
    rng = np.random.default_rng(11)
    lines = [" ".join(TOKENS[i] for i in rng.integers(0, len(TOKENS), rng.integers(1, 8)))
             for _ in range(400)]
    return fg.encode_corpus(lines, fg.Vocab(TOKENS), "train")


def _fitted(order: int, fixed: bool) -> fg.NGramLM:
    corpus = _train_corpus(fixed)
    return fg.NGramLM(corpus.vocab, order, 0.01, FIXED_LENGTH if fixed else None).fit(corpus)


def _sha(corpus) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(corpus.ids, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(corpus.lengths, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "eos"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_ngram_sample_corpus_golden(order, fixed):
    model = _fitted(order, fixed)
    for temperature in (1.0, 0.7):
        seed = 1000 * order + 10 * fixed + int(temperature * 10)
        cfg = fg.SamplerConfig(temperature=temperature, max_len=8, seed=seed)
        corpus = model.sample_corpus(N_SAMPLES, cfg, np.random.default_rng(seed))
        key = f"order{order}/{'fixed' if fixed else 'eos'}/T{temperature:g}"
        assert _sha(corpus) == GOLDEN[key], key


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "eos"])
def test_neural_sample_corpus_golden(fixed):
    cfg = fg.NeuralConfig(embed_dim=6, hidden_dim=8, batch_size=50, max_epochs=2,
                          fixed_length=FIXED_LENGTH if fixed else None, seed=7)
    model = fg.train_mle(_train_corpus(fixed), None, cfg)
    step, stepped = model._step, []

    def recorded_step(ids, h):
        stepped.append(ids.copy())
        return step(ids, h)

    model._step = recorded_step
    for temperature in (1.0, 0.7):
        seed = 500 + 10 * fixed + int(temperature * 10)
        sampler = fg.SamplerConfig(temperature=temperature, max_len=8, seed=seed)
        stepped.clear()
        corpus = model.sample_corpus(N_SAMPLES // 3, sampler, np.random.default_rng(seed))
        key = f"neural/{'fixed' if fixed else 'eos'}/T{temperature:g}"
        assert _sha(corpus) == NEURAL_GOLDEN[key], key
        # step t takes the last ids of the rows still growing, the rows that
        # have not drawn EOS before it, and no step runs once every row ended
        lengths = corpus.lengths
        assert len(stepped) == min(lengths.max() + 1, fg.genmodel.length_cap(model, sampler))
        assert stepped[0].tolist() == [fg.BOS] * len(corpus)
        for t, ids in enumerate(stepped[1:], 1):
            assert ids.tolist() == corpus.ids[lengths >= t, t - 1].tolist()
        if not fixed:
            assert len(stepped[-1]) < len(corpus)
