"""The two-sequence scenario, fully worked in closed form.

A generator over two single-token sequences puts (0.8, 0.2) where the real
distribution is (0.5, 0.5). The ideal real-vs-generated scorer, the
acceptance boundary, and the filtered distribution are all computable
exactly; after filtering at acceptance ratio 0.4 the generator's output law
equals the real law.
"""

import numpy as np

import filtergen as fg
from filtergen.oracle import exact_boundary, exact_filtered_distribution

s1 = fg.build_scenario("s1")

print("real law:     ", s1.p_real.probs)
print("generator law:", s1.p_model.probs)
print("ideal scores: ", np.round(s1.ideal_scores, 6), " (p_r / (p_r + p_model))")
print("baseline TV:  ", fg.tv_distance(s1.p_model, s1.p_real))

ratio = 0.4
sol = exact_boundary(s1.p_model, s1.ideal_scores, ratio)
print(f"\ntarget acceptance ratio {ratio}:")
print(f"  smallest boundary attaining it exactly: {sol.boundary:.6f}"
      f" (just above the lower score {5 / 13:.6f})")

filtered, c_exact = exact_filtered_distribution(s1.p_model, s1.ideal_scores, ratio,
                                                sol.boundary)
print(f"  exact acceptance: {c_exact}")
print(f"  filtered law:     {filtered.probs}")
print(f"  TV after filter:  {fg.tv_distance(filtered, s1.p_real):.2e}")

# the same machinery as a sampler: 100k filtered draws match the real law
fgen = fg.FilteredGenerator(s1.generator, s1.exact_disc,
                            fg.FilterParams(ratio, sol.boundary))
cfg = fg.SamplerConfig(max_len=1, seed=0)
accepted, stats = fg.sample_filtered(fgen, 100_000, cfg, np.random.default_rng(0))
counts = np.bincount(accepted.ids[:, 0] - 4, minlength=2)
print(f"\nsampled 100k accepted sequences: empirical law {counts / counts.sum()}")
print(f"empirical acceptance rate: {stats.acceptance_rate:.4f}")
