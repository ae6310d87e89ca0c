"""Quality-diversity curves across softmax temperatures, three streams.

For each temperature the generator's next-token distributions are sharpened
or flattened (p^(1/T), renormalized), the acceptance boundary is
re-estimated (the proposal changes with temperature), and the baseline,
accepted, and rejected streams are scored by one MetricScorer: BLEU and
self-BLEU against the real test split, and the LM score under a bigram
fitted on the real train split. The accepted stream should trace a better
quality-diversity frontier than the baseline.
"""

import numpy as np

import filtergen as fg
from filtergen.metrics import MetricScorer, temperature_sweep

s2 = fg.build_scenario("s2")
cfg = fg.DiscConfig(lr=0.05, batch_size=256, max_epochs=120, patience=8, seed=31)
disc, _ = fg.train_discriminator(s2.train, s2.generator, cfg,
                                 np.random.default_rng(31))

scorer = MetricScorer(("bleu", "selfbleu", "lm"), real_train=s2.train,
                      real_test=s2.test, fixed_length=s2.length, seed=7)
report = temperature_sweep(
    s2.generator, scorer, temps=[0.9, 1.0, 1.1, 1.2],
    n_per_point=1500, disc=disc, c_values=(0.5,))

print(report.csv_text())
print("rows per temperature: baseline, accepted, rejected -- compare bleu5")
print("(quality, higher better) against self_bleu5 (diversity, lower better).")
