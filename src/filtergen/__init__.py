"""Discriminator-guided rejection sampling for autoregressive sequence
generators, with exact brute-force verification on enumerable domains."""

from .data import (BOS, EOS, PAD, UNK, Corpus, MarkovSource, Vocab, build_vocab,
                   encode_corpus, load_corpus, save_corpus, split_tail, synth_markov)
from .disc import (DiscConfig, DiscTrainReport, TextCNN, error_rate,
                   train_discriminator, train_discriminator_corpora)
from .errors import (BudgetError, ConfigError, DegenerateError, FiltergenError,
                     InputError)
from .filtering import (BoundaryEstimateConfig, FilteredGenerator, FilterParams,
                        FilterStats, acceptance_probability,
                        estimate_boundary, sample_filtered)
from .genmodel import (MarkovModel, NeuralConfig, NeuralLM, NGramConfig, NGramLM,
                       SamplerConfig, perplexity, train_mle)
from .metrics import (BleuConfig, EmbeddingModel, MetricScorer, SweepReport, bleu,
                      embed, fed, fit_ppmi_svd, lm_score, reverse_lm_score,
                      self_bleu, temperature_sweep)
from .oracle import (BoundarySolution, ExactDiscriminator, ExactDistribution,
                     empirical_distribution, enumerate_distribution,
                     exact_boundary, exact_filtered_distribution,
                     js_divergence, optimal_discriminator, tv_distance)
from .scenarios import Scenario, build_scenario, bucket_lengths

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
