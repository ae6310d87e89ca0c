"""A tour of the evaluation metrics on corpora with known structure.

Quality is read off BLEU against real references and the forward LM score;
diversity off self-BLEU and the reverse LM score; the Frechet embedding
distance condenses both into one number. Degenerate corpora make each
metric's failure mode visible.
"""

import numpy as np

import filtergen as fg
from filtergen import NGramConfig
from filtergen.metrics import (bleu, embed, fed, fit_ppmi_svd, lm_score,
                               reverse_lm_score, self_bleu)

source = fg.MarkovSource(
    ("a", "b", "c"), np.array([0.5, 0.3, 0.2]),
    np.array([[0.7, 0.2, 0.1], [0.15, 0.6, 0.25], [0.25, 0.15, 0.6]]), 6)
train = fg.synth_markov(source, 4000, np.random.default_rng(0), "train")
test = fg.synth_markov(source, 1500, np.random.default_rng(1), "test")

lm_cfg = NGramConfig(order=2, delta=0.01, fixed_length=6)
oracle_lm = fg.train_mle(train, None, lm_cfg)
embedding = fit_ppmi_svd(train, dim=16)
real_emb = embed(test, embedding)


def evaluate(tag, samples):
    row = {
        "bleu": bleu(samples, test),
        "self_bleu": self_bleu(samples),
        "lm": lm_score(oracle_lm, samples),
        "rlm": reverse_lm_score(samples, test, lm_cfg),
        "fed": fed(real_emb, embed(samples, embedding)),
    }
    print(f"{tag:<22}" + "".join(f"{k}={v:7.4f}  " for k, v in row.items()))


print("corpus                metrics (lower lm/rlm/fed and self_bleu = better;"
      " higher bleu = better)")
fresh = fg.synth_markov(source, 1500, np.random.default_rng(2), "fresh")
evaluate("true-source samples", fresh)

shuffled = fg.MarkovSource(source.tokens, np.full(3, 1 / 3), np.full((3, 3), 1 / 3), 6)
evaluate("structure destroyed", fg.synth_markov(shuffled, 1500,
                                                np.random.default_rng(3), "uniform"))

collapsed = train[[0] * 1500]
evaluate("mode collapsed", collapsed)
