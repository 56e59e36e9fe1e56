"""copysum benchmark: training throughput and per-record decode latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md says why each exists):

* ``train-case-g``            the sweep's training (desk model, preset
  case-g, dropout 0.1, batch 16) on a synthetic corpus made from the seed;
* ``decode-beam``             beam search, k=5, no reranking;
* ``decode-best-first-sbwr``  best-first search, k=5, sbwr reranking.

The decode workloads read the fixed checkpoint, vocabulary and test records
in ``perfbench/fixtures``; the seed orders each pass over the records.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs whole rounds untraced and traced in turn, and prints
the per-layer metrics of the traced rounds and the tracing overhead
between the two. Both check every output against
results computed apart from the program. The last line of standard output
is one JSON object; a fuller record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

# One thread for the numeric library; must be set before numpy is loaded.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
_T_IMPORT = time.perf_counter()

WORKLOAD_NAMES = ("train-case-g", "decode-beam", "decode-best-first-sbwr")
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_p90": "ms",
}
# name: (unit, tracer key, kind); "item" is one training example or one
# decoded record; "setup" metrics are seconds spent once, before measuring.
PER_LAYER = {
    "model.forward_s": ("s/item", "model.forward", "time"),
    "model.forward_calls": ("count/item", "model.forward", "count"),
    "model.embed_s": ("s/item", "model.embed", "time"),
    "model.logits_s": ("s/item", "model.logits", "time"),
    "autodiff.matmul_s": ("s/item", "autodiff.matmul", "time"),
    "autodiff.softmax_s": ("s/item", "autodiff.softmax", "time"),
    "autodiff.layer_norm_s": ("s/item", "autodiff.layer_norm", "time"),
    "autodiff.gelu_s": ("s/item", "autodiff.gelu", "time"),
    "autodiff.cross_entropy_s": ("s/item", "autodiff.cross_entropy", "time"),
    "autodiff.backward_s": ("s/item", "autodiff.backward", "time"),
    "optim.step_s": ("s/item", "optim.step", "time"),
    "optim.steps": ("count/item", "optim.step", "count"),
    "training.sample_corrupt_s": ("s/item", "training.sample_corrupt", "time"),
    "training.compute_loss_s": ("s/item", "training.compute_loss", "time"),
    "training.selected_positions": ("count/item", "training.selected_positions", "count"),
    "decoding.scorer_calls": ("count/item", "decoding.scorer", "count"),
    "decoding.scorer_ms": ("ms/item", "decoding.scorer", "ms"),
    "decoding.search_self_s": ("s/item", "decoding.search_self", "time"),
    "decoding.expansions": ("count/item", "decoding.expansions", "count"),
    "decoding.overlong": ("count/item", "decoding.overlong", "count"),
    "decoding.completed_per_expansion": ("ratio", None, "ratio"),
    "decoding.predict_length_s": ("s/item", "decoding.predict_length", "time"),
    "decoding.rerank_s": ("s/item", "decoding.rerank", "time"),
    "bpe.encode_s": ("s/item", "bpe.encode", "time"),
    "metrics.evaluate_s": ("s/item", "metrics.evaluate", "evaluated"),
    "checkpoint.load_s": ("s", "checkpoint.load", "setup"),
    "data.synth_s": ("s", "data.synth", "setup"),
    "bpe.train_s": ("s", "bpe.train", "setup"),
    "trace.overhead_pct": ("%", None, "overhead"),
}


def seconds_since_process_start() -> float:
    """Wall time since this process was created, from the kernel's record."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T_IMPORT


def blas_threads() -> dict:
    """Thread count that each loaded OpenBLAS reports, by file name."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(work, seconds: float) -> tuple[dict, dict]:
    """Whole rounds until ``seconds`` have passed (at least ``work.min_rounds``)."""
    samples: list[float] = []
    round_s: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(round_s) < work.min_rounds or time.perf_counter() < deadline:
        round_s.append(work.round(samples))
    work.evaluate()
    items = len(round_s) * work.items_per_round
    values = {
        "items_per_s": items / sum(round_s),
        "op_ms_p50": statistics.median(samples),
        "op_ms_p90": p90(samples),
    }
    return values, {"rounds": len(round_s), "items": items, "round_s": round_s,
                    "op_ms": samples}


def measure_traced(work, seconds: float, setup_tracer) -> tuple[dict, dict]:
    """Untraced and traced rounds in turn, so drift in machine speed hits both."""
    from tracing import Tracer

    samples: list[float] = []
    tracer = Tracer()
    plain_s = traced_s = 0.0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < 1 or time.perf_counter() < deadline:
        plain_s += work.round(samples)
        with tracer:
            traced_s += work.round(samples)
        rounds += 1
    with tracer:
        evaluated = work.evaluate()
    items = rounds * work.items_per_round
    values = {}
    for name, (_, key, kind) in PER_LAYER.items():
        if kind == "count":
            values[name] = tracer.counts[key] / items
        elif kind == "time":
            values[name] = tracer.seconds[key] / items
        elif kind == "ms":
            values[name] = 1e3 * tracer.seconds[key] / items
        elif kind == "evaluated":
            values[name] = tracer.seconds[key] / evaluated if evaluated else 0.0
        elif kind == "setup":
            values[name] = setup_tracer.seconds[key]
        elif kind == "ratio":
            expansions = tracer.counts["decoding.expansions"]
            values[name] = tracer.counts["decoding.completed"] / expansions if expansions else 0.0
        else:
            values[name] = 100.0 * (traced_s / plain_s - 1.0)
    detail = {"rounds_each": rounds, "untraced_s": plain_s, "traced_s": traced_s,
              "items_per_round": work.items_per_round, "unwrapped": tracer.missing}
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="copysum benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "copysum" / "__init__.py").is_file():
        print(f"perfbench: no copysum source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from tracing import Tracer

    setup_tracer = Tracer()
    try:
        with setup_tracer if args.trace else contextlib.nullcontext():
            work = workloads.WORKLOADS[args.workload](args.seed)
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = seconds_since_process_start()

    if args.trace:
        values, detail = measure_traced(work, args.seconds, setup_tracer)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values, detail = measure(work, args.seconds)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    attempted, failed = work.operations()
    faults = work.check()
    for fault in faults[:20]:
        print(f"check failed: {fault}", file=sys.stderr)

    result = {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "item": work.item, "faults": faults[:20],
        "setup_s": setup_s, "thread_env": {name: os.environ[name] for name in THREAD_ENV},
        "blas_threads": blas_threads(), "python": sys.version.split()[0],
    })
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
