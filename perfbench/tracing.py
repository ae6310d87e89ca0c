"""In-memory spans around filtergen's public calls, and their self times.

Tracing lives entirely in the benchmark: ``Tracer.patch()`` swaps each
public function or method listed in ``TARGETS`` for a thin wrapper, in
every ``filtergen`` module namespace that holds the original (so
``filtergen.disc.corpus_to_arrays`` is traced as well as
``filtergen.data.corpus_to_arrays``), and puts the originals back on exit.
Nothing is wrapped while tracing is off, so untraced runs execute the
program unmodified. ``Sequence`` construction is never wrapped: it runs
hundreds of thousands of times per pass.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _first(args, kwargs, name, index):
    return kwargs[name] if name in kwargs else args[index]


# A target is (layer name, module, attribute, class or None, seqs probe).
# The probe maps (args, kwargs, result) to the number of sequences the call
# consumed or produced, or is None when the layer has no sequence count.
TARGETS = (
    ("genmodel.sample_corpus", "genmodel", "sample_corpus",
     ("NGramLM", "MarkovModel", "NeuralLM"), lambda a, k, r: len(r)),
    ("genmodel.seq_logprob", "genmodel", "seq_logprob",
     ("NGramLM", "MarkovModel", "NeuralLM"), None),
    ("genmodel.train_mle", "genmodel", "train_mle", None,
     lambda a, k, r: len(_first(a, k, "train", 0))),
    ("data.corpus_to_arrays", "data", "corpus_to_arrays", None,
     lambda a, k, r: len(r[1])),
    ("data.save_corpus", "data", "save_corpus", None,
     lambda a, k, r: len(_first(a, k, "corpus", 0))),
    ("data.load_corpus", "data", "load_corpus", None, lambda a, k, r: len(r)),
    ("disc.loss_and_grads", "disc", "loss_and_grads", ("TextCNN",),
     lambda a, k, r: len(_first(a, k, "labels", 2))),
    ("disc.predict_corpus", "disc", "predict_corpus", ("TextCNN",),
     lambda a, k, r: len(r)),
    ("disc.train_discriminator", "disc", "train_discriminator", None, None),
    ("filtering.sample_filtered", "filtering", "sample_filtered", None,
     lambda a, k, r: len(r[0])),
    ("filtering.estimate_boundary", "filtering", "estimate_boundary", None, None),
    ("metrics.bleu", "metrics", "bleu", None,
     lambda a, k, r: len(_first(a, k, "hypotheses", 0))),
    ("metrics.self_bleu", "metrics", "self_bleu", None,
     lambda a, k, r: len(_first(a, k, "samples", 0))),
    ("metrics.lm_score", "metrics", "lm_score", None,
     lambda a, k, r: len(_first(a, k, "samples", 1))),
    ("metrics.reverse_lm_score", "metrics", "reverse_lm_score", None,
     lambda a, k, r: len(_first(a, k, "samples", 0))),
    ("metrics.fit_ppmi_svd", "metrics", "fit_ppmi_svd", None,
     lambda a, k, r: len(_first(a, k, "corpus", 0))),
    ("metrics.embed", "metrics", "embed", None, lambda a, k, r: len(r)),
    ("metrics.fed", "metrics", "fed", None,
     lambda a, k, r: len(_first(a, k, "gen_emb", 1))),
    ("oracle.exact_boundary", "oracle", "exact_boundary", None, None),
    ("oracle.enumerate_distribution", "oracle", "enumerate_distribution", None,
     lambda a, k, r: len(r)),
    ("scenarios.build_scenario", "scenarios", "build_scenario", None, None),
    ("checkpoint.save_model", "checkpoint", "save_model", None, None),
    ("checkpoint.load_model", "checkpoint", "load_model", None, None),
)

LAYERS = tuple(t[0] for t in TARGETS)
SEQ_LAYERS = tuple(t[0] for t in TARGETS if t[4] is not None)


@dataclass
class Span:
    """One call; ``start`` and ``end`` are process CPU seconds."""

    name: str
    parent: int  # index of the enclosing span, -1 at the top level
    start: float
    end: float
    seqs: int | None = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so coverage is never counted twice.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    """Records spans and counters in memory while its patches are active."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, seqs_probe=None, on_result=None):
        """Wrapper recording one span per call of ``fn``."""
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1,
                        time.process_time(), 0.0)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                self._stack.pop()
            if seqs_probe is not None:
                span.seqs = seqs_probe(args, kwargs, result)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def patch(self):
        """Install a wrapper on every binding of every target; undo on exit."""
        for target in TARGETS:
            importlib.import_module(f"filtergen.{target[1]}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "filtergen" or key.startswith("filtergen."))]
        undo = []
        try:
            for name, mod_name, attr, classes, probe in TARGETS:
                module = sys.modules[f"filtergen.{mod_name}"]
                hook = _RESULT_HOOKS.get(name)
                if classes:
                    for cls_name in classes:
                        cls = getattr(module, cls_name)
                        original = cls.__dict__[attr]
                        setattr(cls, attr, self.wrap(name, original, probe, hook))
                        undo.append((cls, attr, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, probe, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def summary(self) -> dict:
        """Per-layer calls, sequences and self seconds, plus the counters."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            if layer in SEQ_LAYERS:
                out[f"{layer}.seqs"] = 0
            out[f"{layer}.self_s"] = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            out[f"{span.name}.calls"] += 1
            if span.seqs is not None:
                out[f"{span.name}.seqs"] += span.seqs
            out[f"{span.name}.self_s"] += own
        for counter in COUNTERS:
            out[counter] = self.counters.get(counter, 0)
        return out


def _count_filter_stats(tracer, args, kwargs, result):
    _, stats = result
    tracer.counters["filtering.attempts"] += stats.attempts
    tracer.counters["filtering.acceptances"] += stats.acceptances
    tracer.counters["filtering.rejected_kept"] += len(stats.rejected_sequences)


def _count_rounds(tracer, args, kwargs, result):
    tracer.counters["filtering.estimate_boundary.rounds"] += len(result[1])


def _count_epochs(tracer, args, kwargs, result):
    tracer.counters["disc.train.epochs"] += result[1].epochs


_RESULT_HOOKS = {
    "filtering.sample_filtered": _count_filter_stats,
    "filtering.estimate_boundary": _count_rounds,
    "disc.train_discriminator": _count_epochs,
}

COUNTERS = ("filtering.attempts", "filtering.acceptances", "filtering.rejected_kept",
            "filtering.estimate_boundary.rounds", "disc.train.epochs")
