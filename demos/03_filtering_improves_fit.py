"""End-to-end filtering with a trained classifier instead of ideal scores.

An under-trained bigram generator misses the source chain badly. A
convolutional classifier trained to convergence on real-vs-generated data
steers the rejection filter; the accepted stream lands measurably closer
to the real distribution and the rejected stream measurably further, and a
freshly trained classifier finds the accepted stream harder to tell apart.
"""

import numpy as np

import filtergen as fg
from filtergen.data import synth_markov
from filtergen.oracle import empirical_distribution, exact_boundary, tv_distance

s3 = fg.build_scenario("s3")
print(f"scenario {s3.name}: baseline TV(generator, real) = {s3.tv_baseline:.4f}")

cfg = fg.DiscConfig(lr=0.05, batch_size=256, max_epochs=120, patience=8, seed=31)
disc, report = fg.train_discriminator(s3.train, s3.generator, cfg,
                                      np.random.default_rng(31))
print(f"classifier converged={report.converged} after {report.epochs} epochs, "
      f"validation accuracy {report.final_valid_accuracy:.3f}")

scores = disc.predict_corpus(s3.p_real.domain)
ratio = 0.5
sol = exact_boundary(s3.p_model, scores, ratio)
fgen = fg.FilteredGenerator(s3.generator, disc, fg.FilterParams(ratio, sol.boundary))
sampler = fg.SamplerConfig(max_len=s3.length, seed=77)

n = 100_000
base = s3.generator.sample_corpus(n, sampler, np.random.default_rng(101))
accepted, stats = fg.sample_filtered(fgen, n, sampler, np.random.default_rng(202))
rejected = stats.rejected_sequences

tv_base = tv_distance(empirical_distribution(base, s3.p_real), s3.p_real)
tv_acc = tv_distance(empirical_distribution(accepted, s3.p_real), s3.p_real)
tv_rej = tv_distance(empirical_distribution(rejected, s3.p_real), s3.p_real)
print(f"\nfiltering {stats.attempts} candidates at c={ratio} "
      f"(boundary {sol.boundary:.3f}, acceptance {stats.acceptance_rate:.3f}):")
print(f"  TV baseline  {tv_base:.4f}")
print(f"  TV accepted  {tv_acc:.4f}   <- closer to the real distribution")
print(f"  TV rejected  {tv_rej:.4f}   <- the filtered-out junk")

# a fresh classifier finds the accepted stream harder to tell from real
real_eval = synth_markov(s3.source, 20_000, np.random.default_rng(909), "eval")
fresh_cfg = fg.DiscConfig(lr=0.05, batch_size=256, max_epochs=120, patience=8, seed=55)
fresh_base, _ = fg.train_discriminator(s3.train, s3.generator, fresh_cfg,
                                       np.random.default_rng(55))
fresh_filt, _ = fg.train_discriminator(s3.train, fgen, fresh_cfg,
                                       np.random.default_rng(55))
e_base = fg.error_rate(fresh_base, real_eval,
                       s3.generator.sample_corpus(20_000, sampler,
                                                  np.random.default_rng(56)))
e_filt = fg.error_rate(fresh_filt, real_eval,
                       fgen.sample_corpus(20_000, sampler, np.random.default_rng(57)))
print(f"\nclassification error of a freshly trained classifier:")
print(f"  vs baseline stream  {e_base:.4f}")
print(f"  vs accepted stream  {e_filt:.4f}   <- harder, i.e. smaller discrepancy")
