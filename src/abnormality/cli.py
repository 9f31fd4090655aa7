"""Command-line pipeline: score, sample, analyze.

Scoring is split from selection and reporting because it dominates runtime
and its artifacts are reusable across selection configs.  Every output is
accompanied by content hashes of its inputs.  Each command reads each input
once, and ``sample`` and ``analyze`` refuse an input unless the bytes they
parse have the hash recorded for it.

Featurization and scoring run once per distinct context and the scores are
broadcast to every record.  All pipeline outputs are deterministic;
``--threads`` is accepted for compatibility and never changes any byte of
any artifact.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analyze as analyze_mod
from . import corpus as corpus_mod
from . import featurize as feat_mod
from . import mahalanobis as maha_mod
from . import sampler as sampler_mod
from .artifacts import read_json, write_json
from .errors import (
    AbnormalityError,
    CapacityError,
    SchemaError,
    SingularityError,
    StaleScoresError,
    StatError,
)
from .hashing import sha256_bytes, sha256_file

__all__ = ["RunConfig", "cmd_score", "cmd_sample", "cmd_analyze", "main"]

META_SUFFIX = ".meta.json"

@dataclass
class RunConfig:
    """Pipeline settings, one field per flag: ``--l-cap`` sets ``l_cap``.

    Flags are the only source of settings; a flag not given keeps the default.
    """

    input: str | None = None
    format: str = "squad"
    ngram: int = 1
    l_cap: int | None = None
    epsilon_fixed: float | None = None
    k_low: int = 3500
    k_high: int = 3500
    k_mean: int = 3500
    strategy: str = "global"
    bucket_width: int = 250
    subset_format: str = "jsonl"
    orders: tuple[int, ...] = (1,)
    bins: int = 100
    out_dir: str = "out"
    threads: int = 0

    def validate(self) -> None:
        # A larger integer overflows NumPy's int64 and Python's float.
        for key, value in vars(self).items():
            if any(type(v) is int and not -(2**63) <= v < 2**63 for v in (value if key == "orders" else [value])):
                raise ValueError(f"{key} must lie in [-2**63, 2**63), got {value}")
        if self.format not in ("squad", "jsonl"):
            raise ValueError(f"format must be 'squad' or 'jsonl', got {self.format!r}")
        if self.ngram < 1:
            raise ValueError(f"ngram order must be >= 1, got {self.ngram}")
        if self.l_cap is not None and self.l_cap < 1:
            raise ValueError(f"l_cap must be >= 1, got {self.l_cap}")
        if self.epsilon_fixed is not None and not 0 <= self.epsilon_fixed < math.inf:
            raise ValueError(f"epsilon_fixed must be finite and >= 0, got {self.epsilon_fixed}")
        self.selection_spec()
        if self.subset_format not in ("jsonl", "squad"):
            raise ValueError(f"subset_format must be 'jsonl' or 'squad', got {self.subset_format!r}")
        if not self.orders or any(o < 1 for o in self.orders):
            raise ValueError(f"orders must be a nonempty list of integers >= 1, got {self.orders}")
        if not 1 <= self.bins < 2**63 - 1:
            raise ValueError(f"bins must be >= 1 with bins + 1 < 2**63, got {self.bins}")
        if self.threads < 0:
            raise ValueError(f"threads must be >= 0, got {self.threads}")

    def selection_spec(self) -> sampler_mod.SelectionSpec:
        return sampler_mod.SelectionSpec(
            k_low=self.k_low,
            k_high=self.k_high,
            k_mean=self.k_mean,
            strategy=self.strategy,
            bucket_width=self.bucket_width,
        )


# The settings that `score` records as the pipeline block: `sample` and
# `analyze` ingest and rescore under these, and under no other recorded
# setting.  The input is recorded on its own (path and hash).
_PIPELINE_FIELDS = ("format", "ngram", "l_cap", "epsilon_fixed")


@contextlib.contextmanager
def _writing(*paths: Path) -> typing.Iterator[None]:
    """Removes ``paths`` before the block and again if it raises, so none outlives a failed run."""

    def remove() -> None:
        for p in paths:
            # Not only a missing file: a directory in a file's place must not stop the cleanup.
            with contextlib.suppress(OSError):
                p.unlink()

    remove()
    try:
        yield
    except BaseException:
        remove()
        raise


def _ingest(cfg: RunConfig) -> corpus_mod.Corpus:
    if not cfg.input:
        raise ValueError("no input file given (use --input)")
    try:  # the path is recorded in scores.meta.json, which is UTF-8
        cfg.input.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"input path {cfg.input!r} is not valid UTF-8") from None
    path = Path(cfg.input)
    if not path.is_file():
        raise FileNotFoundError(f"input file not found: {path}")
    return corpus_mod.ingest_file(path, cfg.format)


def run_score_pipeline(
    corpus: corpus_mod.Corpus, cfg: RunConfig
) -> tuple[maha_mod.ScoreVector, maha_mod.MomentModel, feat_mod.DensityTable]:
    """ingest-free core: density fit, featurize, moments, factorize, score."""
    table = feat_mod.fit_density(corpus, cfg.ngram)
    matrix = feat_mod.build_matrix(table, l_cap=cfg.l_cap)
    # Sigma's buffer becomes the factor, so no covariance is held while scoring.
    model = maha_mod.regularized_factorize(maha_mod.fit_moments(matrix), cfg.epsilon_fixed)
    scores = maha_mod.score_all(model, matrix)
    return scores, model, table


def cmd_score(cfg: RunConfig) -> int:
    """ingest -> fit_density -> build_matrix -> moments -> factorize -> score_all."""
    cfg.validate()
    corpus = _ingest(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scores, model, table = run_score_pipeline(corpus, cfg)

    names = ("scores.csv", "density.csv", "density.json", "model.bin", "model.json")
    artifacts = [out / name for name in names]
    scores_path, density_csv, density_json, model_bin, model_json = artifacts
    meta_path = out / ("scores" + META_SUFFIX)
    with _writing(*artifacts, meta_path):
        maha_mod.write_scores_csv(scores, corpus, scores_path)
        feat_mod.save_density(table, density_csv, density_json)
        maha_mod.save_model(model, model_bin, model_json)

        meta = {
            "pipeline": {k: getattr(cfg, k) for k in _PIPELINE_FIELDS},
            "input": {"path": cfg.input, "hash": corpus.source_hash},
            "n": len(corpus),
            "d": model.d,
            "epsilon": model.epsilon,
            "source_descriptor": corpus.source_descriptor,
            "artifacts": {p.name: sha256_file(p) for p in artifacts},
        }
        write_json(meta_path, meta)

    print(f"scored {len(corpus)} examples (d={model.d}, epsilon={model.epsilon:g}) -> {out}")
    return 0


# Keys that `sample` and `analyze` read, with the types they must have.
_META_KEYS = (
    (("artifacts", "scores.csv"), str),
    (("input", "hash"), str),
    (("input", "path"), str),
    (("n",), int, 0),
    (("d",), int, 0),
    (("epsilon",), float, 0),
    (("pipeline",), dict),
    (("pipeline", "format"), str),
    (("pipeline", "ngram"), int),
    (("pipeline", "l_cap"), int | None),
    (("pipeline", "epsilon_fixed"), float | None),
)
_MANIFEST_KEYS = (
    (("inputs", "scores.csv"), str),
    (("artifacts", "selection.csv"), str),
    (("policy_echo",), dict),
)


def _check_hash(path: Path, found: str | None, recorded: str | None, where: str) -> None:
    """StaleScoresError unless ``found``, the hash of the bytes read from ``path``, is ``recorded``."""
    if found != recorded:
        raise StaleScoresError(f"{path} hash {found} does not match {recorded} recorded in {where}")


def _read_checked(path: Path, recorded: str | None, where: str) -> bytes:
    """The bytes of ``path``; StaleScoresError unless it is a file with the hash that ``where`` records."""
    data = path.read_bytes() if path.is_file() else None
    _check_hash(path, None if data is None else sha256_bytes(data), recorded, where)
    return data


def _load_scores_with_meta(cfg: RunConfig, scores_path: Path) -> tuple[
    RunConfig, corpus_mod.Corpus, np.ndarray, dict
]:
    """The scored config, corpus, scores and metadata behind ``scores_path``.

    The scored config holds the four settings that `score` recorded, and
    RunConfig's defaults for the rest: the scores are bound to the settings
    they were computed under, and only the input path may be overridden
    (e.g. a moved file with equal bytes).  Stale or damaged artifacts raise
    StaleScoresError or SchemaError.  A pipeline block that holds any other
    key is damaged; so is every block written before `score` recorded only
    these four.
    """
    if not scores_path.is_file():
        raise FileNotFoundError(f"scores file not found: {scores_path}")
    meta_path = scores_path.with_name(scores_path.stem + META_SUFFIX)
    if not meta_path.is_file():
        raise ValueError(f"missing metadata sidecar {meta_path.name}; rerun `score`")
    try:  # only `score` writes this file, so rerunning it mends any damage
        meta = read_json(meta_path, _META_KEYS)
    except SchemaError as e:
        raise SchemaError(f"{e}; rerun `score`", path=e.path) from e
    unknown = ", ".join(repr(f"pipeline.{k}") for k in sorted(set(meta["pipeline"]) - set(_PIPELINE_FIELDS)))
    if unknown:
        raise SchemaError(f"{meta_path.name}: unknown keys {unknown}; rerun `score`", path="pipeline")
    scored = RunConfig(input=cfg.input or meta["input"]["path"], **meta["pipeline"])
    try:
        scored.validate()
    except ValueError as e:
        raise SchemaError(f"{meta_path.name}: invalid pipeline config: {e}; rerun `score`", path="pipeline") from e
    data = _read_checked(scores_path, meta["artifacts"]["scores.csv"], meta_path.name)

    corpus = _ingest(scored)
    _check_hash(Path(scored.input), corpus.source_hash, meta["input"]["hash"], meta_path.name)
    if len(corpus) != meta["n"]:
        raise StaleScoresError(f"corpus has {len(corpus)} examples but scores were computed over {meta['n']}")
    return scored, corpus, maha_mod.read_scores_csv(data, corpus, scores_path.name), meta


def _load_selection(
    out: Path, corpus: corpus_mod.Corpus, scores: np.ndarray, scores_path: Path, scores_hash: str
) -> tuple[list[str], str | None]:
    """The per-example labels `sample` wrote into ``out``, checked against its manifest, and their hash.

    ``scores_hash`` is the verified hash of ``scores_path``.  Every example is
    unselected, and the hash is None, when ``out`` holds no selection
    manifest.  A manifest written for other scores, or a selection.csv whose
    hash it does not record, raises StaleScoresError.
    """
    manifest_path = out / "selection_manifest.json"
    if not manifest_path.is_file():
        return ["unselected"] * len(corpus), None
    manifest = read_json(manifest_path, _MANIFEST_KEYS)
    _check_hash(scores_path, scores_hash, manifest["inputs"]["scores.csv"], manifest_path.name)
    selection_hash = manifest["artifacts"]["selection.csv"]
    data = _read_checked(out / "selection.csv", selection_hash, manifest_path.name)
    return sampler_mod.read_selection_csv(data, corpus, scores), selection_hash


def cmd_sample(cfg: RunConfig, scores_path: str | Path) -> int:
    """Select low/mutual/high subsets from persisted scores and write them out."""
    cfg.validate()
    _, corpus, scores, meta = _load_scores_with_meta(cfg, Path(scores_path))
    spec = cfg.selection_spec()
    if spec.strategy == "bucketed":
        selection = sampler_mod.select_bucketed(scores, corpus.char_lengths(), spec)
    else:
        selection = sampler_mod.select_global(scores, spec)
    counts = collections.Counter(selection.labels)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    subset_path = out / ("subset.jsonl" if cfg.subset_format == "jsonl" else "subset.json")
    selection_csv = out / "selection.csv"
    manifest_path = out / "selection_manifest.json"
    # Both subset names, so a subset in the other format cannot outlive this run.
    with _writing(out / "subset.jsonl", out / "subset.json", selection_csv, manifest_path):
        with open(subset_path, "wb") as sink:
            written = corpus_mod.write_subset(corpus, selection.labels, sink, cfg.subset_format, scores=scores)
        sampler_mod.write_selection_csv(selection.labels, corpus, scores, selection_csv)

        manifest = {
            "policy_echo": selection.policy_echo,
            "epsilon": meta["epsilon"],
            "inputs": {
                "corpus": meta["input"]["hash"],
                "scores.csv": meta["artifacts"]["scores.csv"],
            },
            "counts": {
                "low": counts["low"],
                "high": counts["high"],
                "mean_proximal": counts["mutual"],
                "written": written,
            },
            "artifacts": {
                subset_path.name: sha256_file(subset_path),
                selection_csv.name: sha256_file(selection_csv),
            },
        }
        write_json(manifest_path, manifest)

    print(f"sampled {written} examples ({counts['low']} low / "
          f"{counts['mutual']} mutual / {counts['high']} high) -> {out}")
    return 0


def cmd_analyze(cfg: RunConfig, scores_path: str | Path) -> int:
    """Distribution stats, histogram, and per-order length correlation report."""
    cfg.validate()
    scores_path = Path(scores_path)
    scored, corpus, scores, meta = _load_scores_with_meta(cfg, scores_path)

    scores_hash = meta["artifacts"]["scores.csv"]  # checked by _load_scores_with_meta
    labels, selection_hash = _load_selection(Path(cfg.out_dir), corpus, scores, scores_path, scores_hash)
    stats = analyze_mod.moments_stats(scores)
    char_lengths = corpus.char_lengths().astype(np.float64)

    # The persisted scores cover the order they were computed at; other
    # requested orders are recomputed in memory under the scored settings.
    # A degenerate corpus (all contexts equal length) reports the
    # correlation as an undefined marker instead of failing.  A repeated
    # order is rescored once.
    pearson_by_order: dict[int, float | None] = {}
    for order in dict.fromkeys(cfg.orders):
        if order == scored.ngram:
            vector = scores
        else:
            vector = run_score_pipeline(corpus, dataclasses.replace(scored, ngram=order))[0].scores
        try:
            pearson_by_order[order] = analyze_mod.pearson(char_lengths, vector)
        except StatError:
            pearson_by_order[order] = None

    input_hashes = {"corpus": meta["input"]["hash"], "scores.csv": scores_hash}
    if selection_hash is not None:
        input_hashes["selection.csv"] = selection_hash
    report_dir = Path(cfg.out_dir) / "report"
    names = ("scores.csv", "histogram.csv", "summary.json", "manifest.json")
    with _writing(*(report_dir / name for name in names)):
        analyze_mod.emit_report(
            corpus,
            scores,
            labels,
            stats,
            pearson_by_order,
            report_dir,
            bins=cfg.bins,
            dimension=meta["d"],
            epsilon=meta["epsilon"],
            input_hashes=input_hashes,
        )

    kurt = stats.excess_kurtosis
    kurt_text = f"{kurt:.3f}" if kurt is not None else "undefined"
    print(f"analyzed {len(corpus)} scores (excess kurtosis {kurt_text}) -> {report_dir}")
    return 0


def _orders(text: str) -> tuple[int, ...]:
    """``--orders 1,3`` as ``(1, 3)``."""
    try:
        return tuple(int(o) for o in text.split(",") if o.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    """Each option's dest is the RunConfig field it sets."""
    parser = argparse.ArgumentParser(
        prog="abnormality",
        description="Score corpus examples by Mahalanobis abnormality of their "
        "positional n-gram densities, then prune and analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="corpus file path")
        p.add_argument("--format", choices=["squad", "jsonl"], help="corpus format")
        p.add_argument("--out-dir", help="output directory")
        p.add_argument("--threads", type=int, help="accepted for compatibility; never changes results")

    score_p = sub.add_parser("score", help="featurize and score every example")
    add_common(score_p)
    score_p.add_argument("--ngram", type=int, help="n-gram order (default 1)")
    score_p.add_argument("--l-cap", type=int, help="cap feature length (covariance is LxL)")
    score_p.add_argument("--epsilon-fixed", type=float, help="use exactly this shrinkage epsilon")

    sample_p = sub.add_parser("sample", help="select low/mutual/high subsets from scores")
    add_common(sample_p)
    sample_p.add_argument("--scores", required=True, help="scores.csv produced by `score`")
    sample_p.add_argument("--k-low", type=int, help="low-tail count (default 3500)")
    sample_p.add_argument("--k-high", type=int, help="high-tail count (default 3500)")
    sample_p.add_argument("--k-mean", type=int, help="mean-proximal count (default 3500)")
    sample_p.add_argument("--strategy", choices=["global", "bucketed"], help="selection strategy")
    sample_p.add_argument("--bucket-width", type=int, help="bucket width in characters (default 250)")
    sample_p.add_argument("--subset-format", choices=["jsonl", "squad"], help="subset output format")

    analyze_p = sub.add_parser("analyze", help="distribution stats and report bundle")
    add_common(analyze_p)
    analyze_p.add_argument("--scores", required=True, help="scores.csv produced by `score`")
    analyze_p.add_argument("--orders", type=_orders,
                           help="comma-separated n-gram orders for length correlation, e.g. 1,3")
    analyze_p.add_argument("--bins", type=int, help="histogram bin count (default 100)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig(**{k: v for k, v in vars(args).items() if k in fields and v is not None})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0

    try:
        cfg = _config_from_args(args)
        if args.command == "score":
            return cmd_score(cfg)
        if args.command == "sample":
            return cmd_sample(cfg, args.scores)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.scores)
        raise ValueError(f"unknown command {args.command!r}")
    except SingularityError as e:
        print(f"abnormality: numerical error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"abnormality: out of memory: {e}", file=sys.stderr)
        return 1
    except (CapacityError, ValueError, OSError) as e:
        print(f"abnormality: {e}", file=sys.stderr)
        return 1
    except AbnormalityError as e:
        print(f"abnormality: data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
