"""filtergen benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload filter-s3 --seed 1 --seconds 20 --trace 0

Builds nothing: it imports ``filtergen`` from ``src/`` next to this
directory and exits with code 2 if that source tree is missing. The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The lines before it give the
provenance and the raw timings. Exit code 1 means an output check failed
or a pass raised. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS threads are pinned before numpy loads so both sides of a comparison
# use the same count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "filtergen" / "__init__.py").is_file():
        print(f"error: no filtergen source tree at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import filtergen

    if Path(filtergen.__file__).resolve().parent != (src / "filtergen").resolve():
        print(f"error: imported filtergen from {filtergen.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench import harness

    workload = harness.make_workload(args.workload, args.seed, ROOT, bool(args.trace))
    result = harness.measure(workload, args.seconds, bool(args.trace))
    if args.trace:
        harness.write_spans(
            ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl",
            result["spans"])
    print(json.dumps({"provenance": harness.provenance(ROOT, args.workload, args.seed)}))
    print(json.dumps({"timings": result["timings"], "problems": result["problems"]}))
    print(harness.result_line(result, spec, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
