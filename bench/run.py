#!/usr/bin/env python3
"""Pipeline benchmark for the abnormality CLI.

    python3 bench/run.py --workload squad-dup --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark generates the workload's input
from the seed, then runs ``python -m abnormality.cli score``, ``sample`` and
``analyze`` from ``src/`` in child processes, one after the other (a closed
loop with one client), until ``--seconds`` have passed.  Each command's wall
time and its own peak RSS (``os.wait4``) are reported as medians over the
iterations.  Every output is checked: scores against an explicit-inverse
oracle, the selection against the full-sort reference in ``tests/oracles.py``
(global strategy) or its counts (bucketed), the report's n and moments, and
every artifact's hash against the first iteration.

With ``--trace 1`` the benchmark instead runs the pipeline three times
in-process through ``cli.main``: untraced, then with spans around the
package's public functions (see ``tracing.py``), then untraced again.  It
reports per-layer metrics from the spans; the tracing overhead is the traced
time minus the median of the two untraced times.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, Workload, shape, write_input

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
THREADS = 2
SETUP_FIRST = 3
# Every run must end within 180 s; children are killed once this is spent.
DEADLINE_S = 170.0
MODULES = ("corpus", "featurize", "mahalanobis", "sampler", "analyze", "hashing", "cli")
COMMANDS = ("score", "sample", "analyze")
# Per-layer times that are the summed duration of these functions' spans
# over all three commands.
SPAN_TIMES = {
    "corpus.ingest_s": ("corpus.ingest_file",),
    "corpus.write_subset_s": ("corpus.write_subset",),
    "featurize.fit_density_s": ("featurize.fit_density",),
    "featurize.build_matrix_s": ("featurize.build_matrix",),
    "mahalanobis.fit_moments_s": ("mahalanobis.fit_moments",),
    "mahalanobis.factorize_s": ("mahalanobis.regularized_factorize",),
    "mahalanobis.score_all_s": ("mahalanobis.score_all",),
    "mahalanobis.write_scores_s": ("mahalanobis.write_scores_csv",),
    "mahalanobis.read_scores_s": ("mahalanobis.read_scores_csv",),
    "mahalanobis.save_model_s": ("mahalanobis.save_model",),
    "sampler.select_s": ("sampler.select_global", "sampler.select_bucketed"),
    "sampler.write_selection_s": ("sampler.write_selection_csv",),
    "analyze.stats_s": ("analyze.moments_stats", "analyze.histogram", "analyze.pearson"),
    "analyze.emit_report_s": ("analyze.emit_report",),
    "hashing.sha256_file_s": ("hashing.sha256_file",),
}


@dataclasses.dataclass
class Op:
    """One CLI call: the command, its wall time, peak RSS, exit code and the files it wrote."""

    command: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    artifacts: dict[str, str] = dataclasses.field(default_factory=dict)


class Budget:
    def __init__(self) -> None:
        self.end = time.perf_counter() + DEADLINE_S

    def left(self) -> float:
        return max(1.0, self.end - time.perf_counter())


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(command: str, argv: list[str], budget: Budget) -> Op:
    """Run one CLI call; wall time covers process start to exit."""
    with open(WORK / "child.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "abnormality.cli", *argv],
                                cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(budget.left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"  {command} exited {proc.returncode}: "
              f"{(WORK / 'child.stderr').read_text('utf-8', 'replace').strip()[-500:]}", file=sys.stderr)
    return Op(command, wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode)


def hash_tree(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def command_args(w: Workload, input_path: Path, out: Path) -> list[tuple[str, list[str]]]:
    common = ["--input", str(input_path), "--format", w.format, "--out-dir", str(out),
              "--threads", str(THREADS)]
    scores = str(out / "scores.csv")
    return [
        ("score", ["score", *common]),
        ("sample", ["sample", "--scores", scores, *common, *w.sample_args]),
        ("analyze", ["analyze", "--scores", scores, *common, *w.analyze_args]),
    ]


def new_files(out: Path, seen: dict[str, str]) -> dict[str, str]:
    now = hash_tree(out) if out.is_dir() else {}
    fresh = {k: v for k, v in now.items() if seen.get(k) != v}
    seen.update(fresh)
    return fresh


def pipeline_once(w: Workload, input_path: Path, out: Path, budget: Budget) -> list[Op]:
    shutil.rmtree(out, ignore_errors=True)
    seen: dict[str, str] = {}
    ops = []
    for command, argv in command_args(w, input_path, out):
        op = run_child(command, argv, budget)
        op.artifacts = new_files(out, seen)
        ops.append(op)
    return ops


def keep_as_reference(out: Path, ref: Path) -> None:
    """Move the first iteration's outputs aside; the checks read them after the loop."""
    if out.is_dir():
        out.rename(ref)
    else:
        ref.mkdir()


def setup_call(budget: Budget) -> Op:
    """A no-op CLI call (``--help``): interpreter start plus package import."""
    return run_child("setup", ["--help"], budget)


def selection_k(w: Workload) -> tuple[tuple[int, int, int], str]:
    args = dict(zip(w.sample_args[::2], w.sample_args[1::2]))
    k = (int(args["--k-low"]), int(args["--k-high"]), int(args["--k-mean"]))
    return k, args.get("--strategy", "global")


def check_run(w: Workload, features: checks.Features, ref: Path) -> checks.Report:
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import reference_selection

    k, strategy = selection_k(w)
    try:
        return checks.check_outputs(ref, w.name, features, k, strategy, reference_selection)
    except (OSError, KeyError, ValueError) as e:
        rep = checks.Report()
        rep.fail("score", f"outputs unreadable: {e!r}")
        return rep


def count_failures(runs: list[list[Op]], report: checks.Report) -> dict[str, list[str]]:
    """Failed operations: non-zero exit, a failed check, or artifacts unlike run 0."""
    failed: dict[str, list[str]] = {}
    for i, ops in enumerate(runs):
        for op, first in zip(ops, runs[0]):
            why = []
            if op.exit_code != 0:
                why.append(f"exit code {op.exit_code}")
            why += report.failures.get(op.command, [])
            if op.artifacts != first.artifacts:
                changed = sorted(set(op.artifacts.items()) ^ set(first.artifacts.items()))
                why.append(f"artifacts differ from run 0: {sorted({k for k, _ in changed})}")
            if why:
                failed[f"{op.command}#{i}"] = why
    return failed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_metrics(metrics: dict[str, dict], samples: dict[str, list[float]] | None = None) -> None:
    for name, m in metrics.items():
        extra = ""
        if samples and name in samples:
            xs = samples[name]
            extra = f"  (median of {len(xs)}, min {min(xs):.4g}, max {max(xs):.4g})"
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{extra}")


def timed_run(w: Workload, seconds: float, budget: Budget, input_path: Path,
              features: checks.Features) -> tuple[dict, int, dict]:
    out = WORK / w.name / "out"
    ref = WORK / w.name / "ref"
    shutil.rmtree(ref, ignore_errors=True)
    setup_call(budget)  # warm the page cache and write the bytecode
    # Set-up calls are spread over the run, so that their median sees the
    # same machine as the pipelines do.
    setup = [setup_call(budget) for _ in range(SETUP_FIRST)]
    runs: list[list[Op]] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        setup.append(setup_call(budget))
        runs.append(pipeline_once(w, input_path, out, budget))
        if len(runs) == 1:
            keep_as_reference(out, ref)
        if budget.end - time.perf_counter() < 2 * sum(op.wall_s for op in runs[-1]):
            break
    report = check_run(w, features, ref)

    samples: dict[str, list[float]] = {"setup_s": [op.wall_s for op in setup]}
    for c in COMMANDS:
        samples[f"{c}_s"] = [op.wall_s for ops in runs for op in ops if op.command == c]
        samples[f"{c}_peak_rss_mb"] = [op.peak_rss_mb for ops in runs for op in ops if op.command == c]
    med = {k: statistics.median(v) for k, v in samples.items()}
    pipeline_s = med["score_s"] + med["sample_s"] + med["analyze_s"]
    metrics = {
        "setup_s": _metric(med["setup_s"], "s"),
        "score_s": _metric(med["score_s"], "s"),
        "sample_s": _metric(med["sample_s"], "s"),
        "analyze_s": _metric(med["analyze_s"], "s"),
        "pipeline_s": _metric(pipeline_s, "s"),
        "records_per_s": _metric(shape(w)["records"] / pipeline_s, "1/s"),
        "score_peak_rss_mb": _metric(med["score_peak_rss_mb"], "MB"),
        "sample_peak_rss_mb": _metric(med["sample_peak_rss_mb"], "MB"),
        "analyze_peak_rss_mb": _metric(med["analyze_peak_rss_mb"], "MB"),
    }
    failed = count_failures(runs, report)
    failed.update({f"setup#{i}": [f"exit code {op.exit_code}"]
                   for i, op in enumerate(setup) if op.exit_code != 0})
    attempted = len(setup) + sum(len(ops) for ops in runs)

    print(f"timed runs: {len(runs)} pipelines in {time.perf_counter() - start:.1f} s, "
          f"max score error vs oracle {report.score_error:.3g}")
    for i, ops in enumerate(runs):
        print(f"  iteration {i}: setup {setup[SETUP_FIRST + i].wall_s:.3f} s, "
              + ", ".join(f"{op.command} {op.wall_s:.3f} s" for op in ops))
    print(f"start-up share of sample_s: {med['setup_s'] / med['sample_s']:.0%}")
    print_metrics(metrics, samples)
    return metrics, attempted, {"failed": failed, "defects": report.defects}


def in_process_pipeline(w: Workload, input_path: Path, out: Path,
                        tracer: tracing.Tracer | None) -> list[Op]:
    """The same three commands through ``cli.main`` in this process, traced or not."""
    from abnormality import cli

    shutil.rmtree(out, ignore_errors=True)
    seen: dict[str, str] = {}
    ops = []
    instrumented = (tracing.instrument(tracer, "abnormality", MODULES) if tracer
                    else contextlib.nullcontext())
    with instrumented:
        for command, argv in command_args(w, input_path, out):
            if tracer:
                tracer.begin_run(command)
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except Exception:  # a crash in the program is a failed operation
                traceback.print_exc()
                code = -1
            ops.append(Op(command, time.perf_counter() - start, 0.0, code, new_files(out, seen)))
    return ops


def replay_score_all(tracer: tracing.Tracer, score_all) -> dict[int, tuple[float, np.ndarray]]:
    """Score the ``score`` command's model and matrix again at 1 and 2 threads."""
    calls = [s.captured for s in tracer.named("mahalanobis.score_all", "score") if s.captured]
    if not calls:
        return {}
    args, kwargs, _ = calls[0]
    out = {}
    for threads in (1, 2):
        start = time.perf_counter()
        scores = score_all(*args, **{**kwargs, "threads": threads}).scores
        out[threads] = (time.perf_counter() - start, scores)
    return out


def layer_metrics(w: Workload, tracer: tracing.Tracer, features: checks.Features, ref: Path,
                  input_path: Path, replayed: dict) -> tuple[dict[str, dict], dict[str, str]]:
    """Per-layer metrics, plus the reason for each one that is absent (reported as 0)."""

    def dur(*names: str) -> float:
        return sum((s.duration for n in names for s in tracer.named(n)), 0.0)

    def count(name: str) -> int:
        return sum(c.get(name, 0) for c in tracer.counts.values())

    st = shape(w)
    meta = json.loads((ref / "scores.meta.json").read_text("utf-8"))
    n, d, epsilon = int(meta["n"]), int(meta["d"]), float(meta["epsilon"] or 0.0)
    # Position of epsilon in the CLI's default schedule: 0, then
    # 1e-8 * trace(sigma) / d * 10^k for k = 0, 1, ...
    base = 1e-8 * float(np.trace(checks.covariance(features)[1])) / d
    attempts = 1 if epsilon == 0.0 else 2 + round(np.log10(epsilon / base))
    score_calls = [s.captured[0] for s in tracer.named("mahalanobis.score_all") if s.captured]
    gflop = sum(np.shape(getattr(a[1], "values", a[1]))[0] * d**2 for a in score_calls) / 1e9
    score_all_s = dur("mahalanobis.score_all")
    hashed = [s.captured[0][0] for s in tracer.named("hashing.sha256_file") if s.captured]
    with open(ref / "density.csv", encoding="utf-8") as fh:
        distinct = sum(1 for _ in fh) - 1
    by_id = {s.id: s for s in tracer.spans}

    def stage(s: tracing.Span | None) -> bool:
        return s is not None and s.name.split(".")[0] in ("featurize", "mahalanobis")

    # Outermost featurize and mahalanobis spans under cli.analyze: the
    # rescoring of other orders, plus reading scores.csv.
    rescore_s = sum((s.duration for s in tracer.spans if s.run == "analyze" and stage(s)
                     and not stage(by_id.get(s.parent))), 0.0)
    m = {name: _metric(dur(*spans), "s") for name, spans in SPAN_TIMES.items()}
    absent = {name: "no span of " + " or ".join(spans) for name, spans in SPAN_TIMES.items()
              if not any(tracer.named(n) for n in spans)}
    m.update({
        "corpus.ingest_calls": _metric(len(tracer.named("corpus.ingest_file")), "count"),
        "corpus.records": _metric(st["records"], "count"),
        "corpus.unique_contexts": _metric(st["unique_contexts"], "count"),
        "corpus.input_mb": _metric(input_path.stat().st_size / 1e6, "MB"),
        "featurize.tokenize_calls": _metric(count("featurize.tokenize"), "count"),
        "featurize.tokenize_calls_per_unique_context":
            _metric(count("featurize.tokenize") / st["unique_contexts"], "count"),
        "featurize.featurize_example_calls": _metric(count("featurize.featurize_example"), "count"),
        "featurize.L": _metric(d, "count"),
        "featurize.distinct_ngrams": _metric(distinct, "count"),
        "featurize.matrix_mb": _metric(n * d * 8 / 1e6, "MB"),
        "mahalanobis.factorize_attempts": _metric(attempts, "count"),
        "mahalanobis.epsilon": _metric(epsilon, "1"),
        "mahalanobis.score_all_gflop": _metric(gflop, "GFLOP"),
        "mahalanobis.score_all_gflops": _metric(gflop / score_all_s if score_all_s else 0.0, "GFLOP/s"),
        "mahalanobis.score_all_t1_s": _metric(replayed[1][0] if replayed else 0.0, "s"),
        "mahalanobis.score_all_t2_s": _metric(replayed[2][0] if replayed else 0.0, "s"),
        "mahalanobis.model_mb": _metric((ref / "model.bin").stat().st_size / 1e6, "MB"),
        "analyze.rescore_s": _metric(rescore_s, "s"),
        "hashing.bytes_hashed": _metric(sum(os.path.getsize(p) for p in hashed), "bytes"),
    })
    self_time = tracing.self_times(tracer.spans)
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = _metric(
            sum(self_time[s.id] for s in tracer.spans if s.run == c and s.name.startswith("cli.")), "s")

    if not replayed:
        absent["mahalanobis.score_all_t1_s"] = absent["mahalanobis.score_all_t2_s"] = \
            "the score command made no score_all call to replay"
    return m, absent


def traced_run(w: Workload, budget: Budget, input_path: Path,
               features: checks.Features) -> tuple[dict, int, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from abnormality import mahalanobis

    out = WORK / w.name / "out"
    ref = WORK / w.name / "ref"
    shutil.rmtree(ref, ignore_errors=True)
    before = in_process_pipeline(w, input_path, out, None)
    keep_as_reference(out, ref)
    tracer = tracing.Tracer(capture=frozenset({"mahalanobis.score_all", "hashing.sha256_file"}))
    traced = in_process_pipeline(w, input_path, out, tracer)
    after = in_process_pipeline(w, input_path, out, None)
    report = check_run(w, features, ref)
    failed = count_failures([before, traced, after], report)
    attempted = 3 * len(COMMANDS)

    replayed = replay_score_all(tracer, mahalanobis.score_all)
    if replayed:
        attempted += 1
        if replayed[1][1].tobytes() != replayed[2][1].tobytes():
            failed["score_all_t1_t2"] = ["score_all at 1 and 2 threads differ bitwise"]

    spans_path = WORK / w.name / "spans.json"
    spans_path.write_text(json.dumps({"spans": [s.to_dict() for s in tracer.spans],
                                      "counts": tracer.counts}) + "\n", encoding="utf-8")
    metrics, absent = layer_metrics(w, tracer, features, ref, input_path, replayed)
    plain_s = statistics.median(sum(op.wall_s for op in ops) for ops in (before, after))
    metrics["tracing_overhead_s"] = _metric(sum(op.wall_s for op in traced) - plain_s, "s")

    self_time = tracing.self_times(tracer.spans)
    by_module: dict[str, float] = {}
    for s in tracer.spans:
        module = s.name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + self_time[s.id]
    print("self time by module (traced, all three commands): "
          + ", ".join(f"{k} {v:.3f} s" for k, v in sorted(by_module.items(), key=lambda kv: -kv[1])))
    for label, ops in (("untraced", before), ("traced", traced), ("untraced", after)):
        print(f"{label + ' in-process:':<21}" + ", ".join(f"{op.command} {op.wall_s:.3f} s" for op in ops))
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    print_metrics(metrics)
    for name, reason in absent.items():
        print(f"  absent (reported as 0): {name}: {reason}")
    return metrics, attempted, {"failed": failed, "defects": report.defects}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/abnormality/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a checkout of the repository, missing {missing}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    budget = Budget()
    w = WORKLOADS[args.workload]
    (WORK / w.name).mkdir(parents=True, exist_ok=True)
    input_path = write_input(w, args.seed, WORK / w.name)
    features = checks.featurize(checks.read_contexts(input_path, w.format))

    print(f"workload {w.name} seed {args.seed}: {w.why}")
    print(f"  shape {shape(w)}; parameters {json.dumps(dataclasses.asdict(w))}")
    print(f"  nproc {os.cpu_count()}, CLI --threads {THREADS}, BLAS threads default "
          f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})")
    if args.trace:
        metrics, attempted, outcome = traced_run(w, budget, input_path, features)
    else:
        metrics, attempted, outcome = timed_run(w, args.seconds, budget, input_path, features)

    for op, why in outcome["failed"].items():
        print(f"FAILED {op}: {'; '.join(why)}")
    for defect in sorted(set(outcome["defects"])):
        print(f"KNOWN DEFECT {defect}")
    failed = len(outcome["failed"])
    print(f"error_rate {failed / attempted:.4g} ({failed} of {attempted} operations failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (WORK / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
