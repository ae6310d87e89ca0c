"""Measurement loop, trace aggregation, provenance and the result line."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import filtergen as fg

from . import probe, tracing, workloads



def make_workload(name: str, seed: int, root: Path, trace: bool):
    if name == "filter-s3":
        return workloads.FilterS3(seed)
    if name == "disc-train-s3":
        return workloads.DiscTrainS3(seed)
    if name == "pipeline-s2":
        # a traced run times one pipeline per pass, so that its untraced and
        # traced passes fit in one run's time limit
        return workloads.PipelineS2(seed, root / ".perfbench_runs",
                                    runs_per_pass=1 if trace else 2)
    raise ValueError(f"unknown workload {name!r}")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, then run timed passes until ``seconds`` of wall time have elapsed.

    Untraced, setup is repeated ``workload.setup_repeats`` times and every
    pass runs unwrapped. Traced, one setup runs under the tracer and passes
    alternate untraced/traced (at least one of each), so the tracing
    overhead is measured within the same process and machine state.

    Set-up and pass times are CPU seconds of this process. The program
    runs on one thread (BLAS pinned to one), so on a machine of its own
    they equal wall seconds, and they leave out the time a shared host
    gives the CPU to others (steal). A busy neighbour on the same core
    still slows them, so each is divided by the slowdown the probe
    measured while it ran (see ``probe.py``). ``pass_s``, ``seqs_per_s``
    and ``setup_s`` are medians of these rescaled figures; the raw CPU and
    wall times and the slowdowns are printed before the result line.
    """
    tracer = tracing.Tracer()
    raw = {"setup": [], False: [], True: []}
    slow = {"setup": [], False: [], True: []}
    wall_times, seqs, setup_layers = [], [], {}
    attempted = failed = 0
    pass_layers, problems, last_spans = [], [], []
    reference = None
    with probe.Probe() as prb:
        for _ in range(1 if trace else workload.setup_repeats):
            with tracer.patch() if trace else contextlib.nullcontext():
                first, start = len(prb.samples), time.process_time()
                state = workload.setup()
                raw["setup"].append(time.process_time() - start)
                slow["setup"].append(prb.slowdown(first))
        if trace:
            setup_layers = tracer.summary()

        begin = time.perf_counter()
        try:
            while attempted < (2 if trace else 1) or time.perf_counter() - begin < seconds:
                traced = trace and attempted % 2 == 1
                attempted += 1
                tracer.reset()
                try:
                    with tracer.patch() if traced else contextlib.nullcontext():
                        first = len(prb.samples)
                        start, wall_start = time.process_time(), time.perf_counter()
                        output = workload.run_pass(state)
                        elapsed = time.process_time() - start
                        wall = time.perf_counter() - wall_start
                        slowdown = prb.slowdown(first)
                except (fg.FiltergenError, workloads.ExitError) as exc:
                    failed += 1
                    problems.append(f"pass {attempted}: {type(exc).__name__}: {exc}")
                    continue
                raw[traced].append(elapsed)
                slow[traced].append(slowdown)
                if not traced:
                    wall_times.append(wall)
                    seqs.append(workload.seqs(state, output))
                found, digest = workload.check(state, output)
                problems.extend(f"pass {attempted}: {p}" for p in found)
                if reference is None:
                    reference = digest
                elif digest != reference:
                    problems.append(f"pass {attempted}: output differs from the first pass")
                if traced:
                    layers = tracer.summary()
                    layers.update(workload.pass_layers(output))
                    layers["trace.spans"] = len(tracer.spans)
                    pass_layers.append(layers)
                    last_spans = tracer.spans
                # drop this pass's output before the next pass, so that peak RSS
                # is that of one pass however many passes a run makes
                del output
        finally:
            workload.cleanup()
        # a stretch too short to hold a probe sample takes the run's slowdown
        overall = prb.slowdown() or 1.0
    scaled = {key: [t / (s or overall) for t, s in zip(raw[key], slow[key])] for key in raw}

    if trace:
        metrics = _layer_metrics(setup_layers, pass_layers)
        metrics["trace.overhead_pct"] = (
            100.0 * (_median(scaled[True]) / _median(scaled[False]) - 1.0)
            if scaled[True] and scaled[False] else 0.0)
    else:
        metrics = {
            "setup_s": _median(scaled["setup"]),
            "pass_s": _median(scaled[False]),
            "seqs_per_s": _median([n / t for n, t in zip(seqs, scaled[False])]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": (attempted - failed) / attempted,
        }
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "timings": {
            "setup_cpu_s": raw["setup"], "setup_slowdown": slow["setup"],
            "pass_cpu_s": raw[False], "pass_slowdown": slow[False],
            "pass_wall_s": wall_times,
            "traced_pass_cpu_s": raw[True], "traced_pass_slowdown": slow[True],
        },
        "spans": last_spans,
    }


def _layer_metrics(setup_layers: dict, pass_layers: list) -> dict:
    """One traced setup plus the median traced pass, layer by layer."""
    keys = set(setup_layers)
    for layers in pass_layers:
        keys.update(layers)
    keys.update(f"cli.stage.{stage}.s" for stage in workloads.STAGES)
    out = {}
    for key in sorted(keys):
        values = [p.get(key, 0) for p in pass_layers] or [0]
        # counts repeat exactly from pass to pass; keep them whole numbers
        middle = (statistics.median_low(values) if all(isinstance(v, int) for v in values)
                  else statistics.median(values))
        out[key] = setup_layers.get(key, 0) + middle
    attempts = out["filtering.attempts"]
    out["filtering.accept_ratio"] = out["filtering.acceptances"] / attempts if attempts else 0.0
    return out


def provenance(root: Path, workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "filtergen").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(root).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "filtergen": fg.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "source_sha256": src.hexdigest(),
    }


def _cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _git_commit(root: Path):
    """HEAD's commit read from ``.git``; None outside a git checkout."""
    git = root / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def result_line(result: dict, spec: dict, trace: bool) -> str:
    """The final JSON line: every metric the spec lists for this mode, with units."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps([span.name, span.parent, span.start, span.end, span.seqs]))
            fh.write("\n")
