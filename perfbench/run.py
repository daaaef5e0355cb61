"""Run one workload of the cdsproxy benchmark and print its result.

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 10 --trace 0

BLAS and OpenMP pools are pinned to one thread before numpy is imported, so
the figures measure the program and not the scheduler of a small shared
machine. cdsproxy is imported from the checkout's src/ directory; without
it the run exits with code 1 and prints no result.

An untraced run (--trace 0) times the workload's set-up in batches of
repeats and reports the median batch mean, then repeats whole rounds of
operations until --seconds have passed and reports the wall time per
round, the latency percentiles over every operation and the peak resident
set. A traced run (--trace 1) does one set-up and one round with the tracer
installed and reports the per-layer metrics; the tracer times its own work
in every wrapper, and the traced wall time without that is the untraced
wall time its overhead is measured against. The reference checks run after
the timed phases in both. The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = HERE / "out"

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
if not (SOURCE / "cdsproxy" / "__init__.py").is_file():
    raise SystemExit(f"no cdsproxy package under {SOURCE}")
sys.path.insert(0, str(SOURCE))

import numpy as np  # noqa: E402

import cdsproxy  # noqa: E402

if not Path(cdsproxy.__file__).resolve().is_relative_to(SOURCE):
    raise SystemExit(f"cdsproxy was imported from {cdsproxy.__file__}, "
                     f"not from {SOURCE}")

import references as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

from cdsproxy import numerics  # noqa: E402

# holdout rows per large-panel model that the kNN and naive Bayes
# references recompute
REFERENCE_ROWS = 48
# setup_s is the median over SETUP_BATCHES batches; a batch repeats the
# set-up until SETUP_BATCH_S have passed and counts as its mean
SETUP_BATCHES = 5
SETUP_BATCH_S = 0.6


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the operation phase; a run "
                             "repeats whole rounds until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(workload) -> list[float]:
    """Mean set-up time of each batch of back-to-back set-ups."""
    means = []
    for _ in range(SETUP_BATCHES):
        count, start = 0, time.perf_counter()
        while not count or time.perf_counter() - start < SETUP_BATCH_S:
            workload.setup()
            count += 1
        means.append((time.perf_counter() - start) / count)
    return means


def run_untraced(workload, seconds: float) -> dict:
    setups = time_setup(workload)
    operations, rounds = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        operations += workload.run_round()
        rounds.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    peak = peak_rss_mb()
    latencies_ms = np.array([op.latency_s for op in operations]) * 1e3
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # the machine's speed drifts over seconds, so the whole phase is
        # averaged rather than its middle round taken
        "wall_s": (elapsed / len(rounds), "s"),
        "op_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(latencies_ms, 90)), "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return {"metrics": metrics, "operations": operations,
            "setups_s": setups, "rounds_s": rounds,
            "latencies_ms": [(str(op.key), ms) for op, ms in
                             zip(operations, latencies_ms.tolist())]}


def predict_peaks_mb(workload) -> dict[str, float]:
    """tracemalloc peak of one untimed holdout predict per label, for the
    labels whose models live in tracing.MEMORY_LAYERS."""
    peaks: dict[str, float] = dict.fromkeys(tracing.MEMORY_LAYERS, 0.0)
    seen = set()
    for outcome in workload.outcomes:
        layer = type(outcome.model).__module__.rsplit(".", 1)[-1]
        if layer not in peaks or outcome.label in seen:
            continue
        seen.add(outcome.label)
        _, x = _fold_data(workload, outcome)
        tracemalloc.start()
        try:
            outcome.model.classify_batch(x)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        peaks[layer] = max(peaks[layer], peak)
    return peaks


def run_traced(workload, trace_path) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        workload.setup()
        operations = workload.run_round()
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    untraced = traced - tracer.own_s
    metrics = tracing.layer_metrics(tracer.spans, untraced, traced)
    for layer, peak in predict_peaks_mb(workload).items():
        metrics[f"{layer}.predict_peak_mb"] = (peak, "MB")
    return {"metrics": metrics, "operations": operations,
            "untraced_s": untraced, "traced_s": traced,
            "spans": len(tracer.spans)}


# ------------------------------------------------------------------ checks


def _fold_data(workload, outcome):
    dataset = workload.datasets[outcome.selection]
    plan = workload.plans[outcome.selection]
    train = dataset.subset(plan.training_rows(outcome.fold))
    return train, dataset.x[plan.holdout_rows(outcome.fold)]


def check_folds(workload, sample_rows: int | None) -> list[str]:
    problems = []
    for outcome in workload.outcomes:
        train, x = _fold_data(workload, outcome)
        predicted = outcome.predicted
        if sample_rows is not None:
            x, predicted = x[:sample_rows], predicted[:sample_rows]
        what = f"{outcome.label} on {outcome.selection} fold {outcome.fold}"
        problems += ref.check_model(outcome.model, train.x, train.y, x,
                                    predicted, what)
    return problems


def check_paper_study(workload: wl.PaperStudy) -> tuple[list[str], dict]:
    problems = check_folds(workload, None)
    x = workload.datasets[workload.selections[0].value].x
    problems += ref.check_pca(numerics.pca_fit(x), workload.pca, x)
    for selection, histogram in workload.histograms.items():
        problems += ref.check_correlations(
            histogram, workload.datasets[selection].x, selection)
    problems += ref.check_ranking(workload.ranking, workload.cv_results)
    extra = {"ranking": [(r.label, r.mean_accuracy)
                         for r in workload.ranking.rows]}
    return problems, extra


def check_large_panel(workload: wl.LargePanel) -> tuple[list[str], dict]:
    problems = check_folds(workload, REFERENCE_ROWS)
    problems += ref.check_round_trip(workload.panel, workload.written)
    problems += ref.check_imputation(workload.panel, workload.imputed)
    problems += ref.check_curve_mapping(workload.records, workload.curve)
    problems += ref.check_cross_sectional(workload.cross_sectional,
                                          workload.records,
                                          workload.illiquid_categories)
    return problems, {"baseline_proxies": workload.baseline_proxies}


CHECKS = {"paper-study": check_paper_study, "large-panel": check_large_panel}


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workload = wl.WORKLOADS[args.workload](args.seed, OUT_DIR)
    workload.prepare()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run = run_traced(workload, OUT_DIR / f"{stem}.spans.jsonl")
    else:
        run = run_untraced(workload, args.seconds)
    operations = run.pop("operations")
    failures = [op for op in operations if op.error is not None]
    unexpected = [op for op in failures if not workload.expected_failure(op)]
    problems, extra = CHECKS[args.workload](workload)
    problems += [f"unexpected failure {op.key}: {op.error!r}" for op in unexpected]
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(operations),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.pop("metrics").items()},
    }
    detail = {**result, **run, **extra, "problems": problems,
              "failures": sorted({f"{op.key}: {op.error}" for op in failures})}
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump(detail, handle, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
