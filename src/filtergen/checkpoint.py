"""Model persistence: one JSON document per checkpoint.

Layout: {"format_version": 1, "kind": "ngram" | "neural" | "markov" |
"textcnn", "vocab": {"tokens": [...]}, "params": {...}} where params maps
names to (nested) lists of 64-bit floats plus the scalars needed to
rebuild the model. Reserved tokens are implicit at ids 0..3.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .data import NUM_RESERVED, MarkovSource, Vocab, atomic_open
from .disc import DiscConfig, TextCNN
from .errors import InputError
from .genmodel import MarkovModel, NeuralConfig, NeuralLM, NGramLM

FORMAT_VERSION = 1


def save_model(model, path) -> None:
    kind = getattr(model, "kind", None)
    writer = _WRITERS.get(kind)
    if writer is None:
        raise InputError(f"cannot checkpoint a model of kind {kind!r}")
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "vocab": {"tokens": list(model.vocab.tokens[NUM_RESERVED:])},
        "params": writer(model),
    }
    # one json.dumps: it runs the C encoder, which json.dump never does
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc))


def load_model(path):
    """The model a checkpoint file holds.

    A file that is not UTF-8 JSON, or not a checkpoint of a known format
    and kind whose arrays fit its model, raises InputError naming ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return _read_model(doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise InputError(f"{path}: malformed checkpoint: missing key {exc}") from exc
    except (ValueError, TypeError, AttributeError, RecursionError) as exc:
        raise InputError(f"{path}: malformed checkpoint: {exc}") from exc


def _read_model(doc):
    if not isinstance(doc, dict):
        raise InputError("malformed checkpoint: not a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise InputError("unsupported checkpoint format")
    kind = doc.get("kind")
    reader = _READERS.get(kind)
    if reader is None:
        raise InputError(f"unknown model kind {kind!r}")
    if not isinstance(doc["vocab"]["tokens"], list):
        raise InputError("malformed checkpoint: vocab tokens are not a JSON list")
    return reader(Vocab(doc["vocab"]["tokens"]), doc["params"])


def _array(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` as a float64 array, which must have ``shape``."""
    arr = np.array(value, dtype=np.float64)
    if arr.shape != shape:
        raise InputError(f"malformed checkpoint: {name} has shape {arr.shape}, "
                         f"expected {shape}")
    return arr


# -- ngram ------------------------------------------------------------------


def _write_ngram(model: NGramLM) -> dict:
    contexts = sorted(model._row_of)
    return {
        "order": model.order,
        "delta": model.delta,
        "fixed_length": model.fixed_length,
        "contexts": [list(c) for c in contexts],
        "rows": [model._counts[model._row_of[c]].tolist() for c in contexts],
    }


def _read_ngram(vocab: Vocab, params: dict) -> NGramLM:
    model = NGramLM(vocab, params["order"], params["delta"], params["fixed_length"])
    shape = (len(model.support),)
    contexts, counts = {}, np.empty((len(params["rows"]),) + shape)
    for i, (ctx, row) in enumerate(zip(params["contexts"], params["rows"], strict=True)):
        ctx = tuple(int(t) for t in ctx)
        if len(ctx) != model.order - 1:
            raise InputError(f"malformed checkpoint: context {ctx} of an order-"
                             f"{model.order} model")
        if ctx in contexts:
            raise InputError(f"malformed checkpoint: context {ctx} is listed twice")
        contexts[ctx] = i
        counts[i] = _array(row, "a counts row", shape)
    if not ((counts >= 0) & (counts < np.inf)).all():  # NaN fails both
        raise InputError("malformed checkpoint: counts must be finite and non-negative")
    model._add_counts(list(contexts), counts)
    return model


# -- neural -----------------------------------------------------------------

_NEURAL_ARRAYS = ("embed", "w_xh", "w_hh", "b_h", "w_hy", "b_y")


def _write_neural(model: NeuralLM) -> dict:
    out = {name: model.params[name].tolist() for name in _NEURAL_ARRAYS}
    out["config"] = dataclasses.asdict(model.cfg)
    return out


def _read_neural(vocab: Vocab, params: dict) -> NeuralLM:
    cfg = NeuralConfig(**params["config"])
    model = NeuralLM(vocab, cfg)
    for name in _NEURAL_ARRAYS:
        model.params[name] = _array(params[name], name, model.params[name].shape)
    return model


# -- markov -----------------------------------------------------------------


def _write_markov(model: MarkovModel) -> dict:
    return {
        "initial": model.source.initial.tolist(),
        "transition": model.source.transition.tolist(),
        "length": model.source.length,
    }


def _read_markov(vocab: Vocab, params: dict) -> MarkovModel:
    try:
        source = MarkovSource(vocab.tokens[NUM_RESERVED:], np.array(params["initial"]),
                              np.array(params["transition"]), int(params["length"]))
    except InputError as exc:
        raise InputError(f"malformed checkpoint: {exc}") from exc
    return MarkovModel(source)


# -- textcnn ----------------------------------------------------------------


def _write_textcnn(model: TextCNN) -> dict:
    out = {name: arr.tolist() for name, arr in model.params.items()}
    # copied embeddings may be wider or narrower than cfg.embed_dim
    out["config"] = {**dataclasses.asdict(model.cfg),
                     "embed_dim": model.params["embed"].shape[1]}
    out["embed_frozen"] = model.embed_frozen
    return out


def _read_textcnn(vocab: Vocab, params: dict) -> TextCNN:
    cfg = DiscConfig(**params["config"])
    model = TextCNN(vocab, cfg)
    model.embed_frozen = bool(params.get("embed_frozen", False))
    for name in list(model.params):
        model.params[name] = _array(params[name], name, model.params[name].shape)
    return model


_WRITERS = {
    "ngram": _write_ngram,
    "neural": _write_neural,
    "markov": _write_markov,
    "textcnn": _write_textcnn,
}

_READERS = {
    "ngram": _read_ngram,
    "neural": _read_neural,
    "markov": _read_markov,
    "textcnn": _read_textcnn,
}
