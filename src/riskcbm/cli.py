"""Command-line interface for the full annotation/training/evaluation pipeline.

Exit codes: 0 success, 1 usage error (bad flags or flag values, missing
input files), 2 data error (parse or validation failures), 3 numeric failure
(divergence, degenerate geometry).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataio
from .calibration import (
    DEFAULT_BUDGET,
    DEFAULT_RESOLUTION,
    ExchangeablePool,
    RiskBudget,
    calibrate,
    validate_guarantee,
)
from .cbm_trainer import TrainConfig, train
from .concept_sets import CRITERIA
from .core import DataError, NumericError, validate_dataset
from .dataset_builder import (
    AugmentationConfig,
    augment_dataset,
    build_vocabulary,
    label_sample,
)
from .evaluation import EvalConfig
from .pipeline import PipelineConfig, StageError, check_config, evaluate_sweep, run_pipeline
from .synth import SynthSpec, generate_synthetic, shift_distribution

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"{what} file not found: {path}")
    return p


def _add_budget_flags(parser, default_to_none: bool = False) -> None:
    # pipeline keeps None defaults so explicit flags can override a config file
    for key, alpha in DEFAULT_BUDGET.as_dict().items():
        default = None if default_to_none else alpha
        parser.add_argument(f"--alpha-{key}", type=float, default=default)


def _budget_from(args) -> RiskBudget:
    return RiskBudget(
        alpha_dis=args.alpha_dis, alpha_cov=args.alpha_cov, alpha_div=args.alpha_div
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="riskcbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classes", type=int, default=SynthSpec.classes)
    p.add_argument("--concepts-per-class", type=int, default=SynthSpec.concepts_per_class)
    p.add_argument("--samples-per-class", type=int, default=SynthSpec.samples_per_class)
    p.add_argument("--test-samples-per-class", type=int, default=20)
    p.add_argument("--dim", type=int, default=SynthSpec.embedding_dim)
    p.add_argument("--noise", type=float, default=SynthSpec.noise)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--no-pixels", action="store_true")

    p = sub.add_parser("validate", help="report dataset violations")
    p.add_argument("--dataset", required=True)
    p.add_argument("--catalog", required=True)

    p = sub.add_parser("calibrate", help="calibrate thresholds on a calibration set")
    p.add_argument("--dataset", required=True, help="calibration split (NDJSON)")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    _add_budget_flags(p)
    p.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION)
    p.add_argument("--exact", action="store_true", help="search loss breakpoints instead of the grid")

    p = sub.add_parser("build", help="build vocabulary and concept labels")
    p.add_argument("--dataset", required=True, help="training split (NDJSON)")
    p.add_argument("--catalog", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--out", required=True, help="labeled dataset (NDJSON)")
    p.add_argument("--vocab-out", required=True)

    p = sub.add_parser("augment", help="synthesize positives for sparse concepts")
    p.add_argument("--labeled", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=AugmentationConfig.min_count)
    p.add_argument("--max-attempts", type=int, default=AugmentationConfig.max_placement_attempts)
    p.add_argument("--seed", type=int, default=AugmentationConfig.rng_seed)

    p = sub.add_parser("train", help="train the concept-bottleneck classifier")
    p.add_argument("--labeled", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log-csv")
    p.add_argument("--gamma1", type=float, default=TrainConfig.gamma1)
    p.add_argument("--gamma2", type=float, default=TrainConfig.gamma2)
    p.add_argument("--beta", type=float, default=TrainConfig.beta)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=TrainConfig.rng_seed)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)

    p = sub.add_parser("evaluate", help="accuracy and concept-compliance report")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True, help="test split (NDJSON)")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nec", type=int, default=EvalConfig.nec)
    _add_budget_flags(p)
    p.add_argument("--per-sample-csv")
    p.add_argument("--cca-dat", help="write a compliance-vs-NEC table here")

    p = sub.add_parser("pipeline", help="run all stages end to end")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--train")
    p.add_argument("--test")
    p.add_argument("--catalog")
    p.add_argument("--out-dir")
    _add_budget_flags(p, default_to_none=True)
    p.add_argument("--train-fraction", type=float, default=None)
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--min-count", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="seed for augmentation and training")
    p.add_argument("--nec", type=int, default=None)

    p = sub.add_parser(
        "crc-check", help="Monte Carlo validation of the calibration guarantee"
    )
    _add_budget_flags(p)
    p.add_argument("--n-cal", type=int, default=100)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool", type=int, default=2000)
    p.add_argument("--classes", type=int, default=SynthSpec.classes)
    p.add_argument("--concepts-per-class", type=int, default=SynthSpec.concepts_per_class)
    p.add_argument("--dim", type=int, default=SynthSpec.embedding_dim)
    p.add_argument("--noise", type=float, default=SynthSpec.noise)
    p.add_argument("--slack", type=float, default=0.01)
    p.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION)
    p.add_argument("--shifted", action="store_true", help="draw targets from a shifted pool")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--dat", help="write per-criterion summary table here")
    return parser


def _cmd_synth(args) -> int:
    if args.samples_per_class < 1 or args.test_samples_per_class < 0:
        raise _UsageError(
            "--samples-per-class must be >= 1 and --test-samples-per-class >= 0, "
            f"got {args.samples_per_class} and {args.test_samples_per_class}"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Train and test come from one generation run so they share the same
    # prototypes, concept embeddings, and presence rates.
    spec = SynthSpec(
        classes=args.classes,
        concepts_per_class=args.concepts_per_class,
        samples_per_class=args.samples_per_class + args.test_samples_per_class,
        embedding_dim=args.dim,
        noise=args.noise,
        seed=args.seed,
        with_pixels=not args.no_pixels,
    )
    samples, catalog = generate_synthetic(spec)
    by_class: dict[int, list] = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s)
    train_samples, test_samples = [], []
    for label in sorted(by_class):
        train_samples.extend(by_class[label][: args.samples_per_class])
        test_samples.extend(by_class[label][args.samples_per_class :])
    dataio.save_catalog(out_dir / "catalog.json", catalog)
    dataio.save_dataset(out_dir / "train.ndjson", train_samples)
    dataio.save_dataset(out_dir / "test.ndjson", test_samples)
    print(
        f"wrote catalog.json, train.ndjson ({len(train_samples)}), "
        f"test.ndjson ({len(test_samples)}) to {out_dir}"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    catalog = dataio.load_catalog(_require_file(args.catalog, "catalog"))
    samples = dataio.load_dataset(
        _require_file(args.dataset, "dataset"), catalog, validate=False
    )
    problems = validate_dataset(samples, catalog)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} violation(s) in {len(samples)} sample(s)")
        return EXIT_DATA
    print(f"ok: {len(samples)} sample(s), no violations")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    catalog = dataio.load_catalog(_require_file(args.catalog, "catalog"))
    cal_set = dataio.load_dataset(_require_file(args.dataset, "dataset"), catalog)
    result = calibrate(
        _budget_from(args),
        cal_set,
        catalog,
        resolution=args.resolution,
        exact=args.exact,
    )
    dataio.save_calibration(args.out, result)
    print(
        f"lambda_dis={result.lambda_dis} lambda_cov={result.lambda_cov} "
        f"lambda_div={result.lambda_div} lambda_hat={result.lambda_hat} "
        f"(n_cal={result.n_cal}) -> {args.out}"
    )
    return EXIT_OK


def _cmd_build(args) -> int:
    catalog = dataio.load_catalog(_require_file(args.catalog, "catalog"))
    samples = dataio.load_dataset(_require_file(args.dataset, "dataset"), catalog)
    result = dataio.load_calibration(_require_file(args.calibration, "calibration"))
    vocab = build_vocabulary(samples, catalog, result.lambda_hat)
    labeled = [label_sample(s, vocab, result.lambda_hat) for s in samples]
    dataio.save_vocabulary(args.vocab_out, vocab)
    dataio.save_labeled_dataset(args.out, labeled)
    print(
        f"vocabulary of {len(vocab)} concepts -> {args.vocab_out}; "
        f"{len(labeled)} labeled samples -> {args.out}"
    )
    return EXIT_OK


def _cmd_augment(args) -> int:
    catalog = dataio.load_catalog(_require_file(args.catalog, "catalog"))
    labeled = dataio.load_labeled_dataset(_require_file(args.labeled, "labeled dataset"), catalog)
    vocab = dataio.load_vocabulary(_require_file(args.vocab, "vocabulary"))
    result = dataio.load_calibration(_require_file(args.calibration, "calibration"))
    config = AugmentationConfig(
        min_count=args.min_count,
        max_placement_attempts=args.max_attempts,
        rng_seed=args.seed,
    )
    augmented, report = augment_dataset(labeled, vocab, result.lambda_hat, config)
    dataio.save_labeled_dataset(args.out, augmented)
    added = len(augmented) - len(labeled)
    print(f"appended {added} augmented sample(s) across {len(report.outcomes)} sparse concept(s) -> {args.out}")
    for outcome in report.outcomes:
        print(
            f"  concept {outcome.concept.id} ('{outcome.concept.text}'): "
            f"{outcome.count_before} -> {outcome.count_after} [{outcome.status}]"
        )
    return EXIT_OK


def _cmd_train(args) -> int:
    catalog = dataio.load_catalog(_require_file(args.catalog, "catalog"))
    labeled = dataio.load_labeled_dataset(_require_file(args.labeled, "labeled dataset"), catalog)
    vocab = dataio.load_vocabulary(_require_file(args.vocab, "vocabulary"))
    config = TrainConfig(
        gamma1=args.gamma1,
        gamma2=args.gamma2,
        beta=args.beta,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        rng_seed=args.seed,
        momentum=args.momentum,
    )
    model, log = train(labeled, vocab, config, n_classes=catalog.num_classes)
    dataio.save_model(args.out, model, vocab, config)
    if args.log_csv:
        dataio.save_training_log(args.log_csv, log)
    print(
        f"trained {model.embedding_dim}->{model.num_concepts}->{model.num_classes} "
        f"model; final objective {log[-1].total:.6f} -> {args.out}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    catalog = dataio.load_catalog(_require_file(args.catalog, "catalog"))
    model, vocab, _config = dataio.load_model(_require_file(args.model, "model"))
    test_set = dataio.load_dataset(_require_file(args.dataset, "dataset"), catalog)
    report = evaluate_sweep(
        model, test_set, vocab, catalog, _budget_from(args), args.nec, args.cca_dat
    )
    dataio.save_eval_report(args.out, report)
    if args.per_sample_csv:
        dataio.save_per_sample_csv(args.per_sample_csv, report)
    print(
        f"overall={report.overall_accuracy:.4f} worst_class={report.worst_class_accuracy:.4f} "
        f"cca={report.cca:.4f} (nec={report.nec}, n={report.n_samples}) -> {args.out}"
    )
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    doc: dict = {}
    if args.config:
        config_path = _require_file(args.config, "config")
        try:
            doc = json.loads(config_path.read_text())
        except json.JSONDecodeError as exc:
            raise _UsageError(f"{config_path}: invalid JSON: {exc}") from None
        check_config(doc)
    # Flags override the config file key by key.
    for section, key, value in (
        ("paths", "train", args.train),
        ("paths", "test", args.test),
        ("paths", "catalog", args.catalog),
        ("paths", "output_dir", args.out_dir),
        ("budget", "alpha_dis", args.alpha_dis),
        ("budget", "alpha_cov", args.alpha_cov),
        ("budget", "alpha_div", args.alpha_div),
        ("split", "train_fraction", args.train_fraction),
        ("split", "seed", args.split_seed),
        ("augmentation", "min_count", args.min_count),
        ("augmentation", "rng_seed", args.seed),
        ("train", "rng_seed", args.seed),
        ("train", "epochs", args.epochs),
        ("eval", "nec", args.nec),
    ):
        if value is not None:
            doc.setdefault(section, {})[key] = value
    config = PipelineConfig.from_dict(doc)
    for what, path in (
        ("train", config.train_path), ("test", config.test_path), ("catalog", config.catalog_path)
    ):
        _require_file(path, what)
    result = run_pipeline(config)
    print(
        f"pipeline ok: lambda_hat={result.lambda_hat} "
        f"overall={result.overall_accuracy:.4f} cca={result.cca:.4f}"
    )
    print(f"artifacts in {config.output_dir}")
    return EXIT_OK


def _cmd_crc_check(args) -> int:
    budget = _budget_from(args)
    # SynthSpec rejects a class count below 1; do not divide by it first.
    per_class = max(1, args.pool // max(args.classes, 1))
    spec = SynthSpec(
        classes=args.classes,
        concepts_per_class=args.concepts_per_class,
        samples_per_class=per_class,
        embedding_dim=args.dim,
        noise=args.noise,
        seed=args.seed,
        with_pixels=False,
    )
    if per_class * spec.classes < args.n_cal + 1:
        raise _UsageError(
            f"--pool {args.pool} gives {per_class * spec.classes} samples, too few for "
            f"--n-cal {args.n_cal} plus a target"
        )
    samples, catalog = generate_synthetic(spec)
    targets = shift_distribution(samples, seed=args.seed) if args.shifted else None
    pool = ExchangeablePool(samples=samples, catalog=catalog, target_samples=targets)
    report = validate_guarantee(
        budget,
        pool,
        n_cal=args.n_cal,
        n_trials=args.trials,
        seed=args.seed,
        resolution=args.resolution,
        slack=args.slack,
    )
    if args.out:
        dataio.save_guarantee_report(args.out, report)
    if args.dat:
        dataio.write_dat(
            args.dat,
            ["criterion", "alpha", "mean_target_loss", "std_target_loss", "mc_stderr"],
            (
                [k, c.alpha, c.mean_target_loss, c.std_target_loss, c.mc_stderr]
                for k, c in report.per_criterion.items()
            ),
        )
    print(
        f"trials={report.n_trials} n_cal={report.n_cal} "
        f"mean_lambda_hat={report.mean_lambda_hat:.4f}"
    )
    for k in CRITERIA:
        c = report.per_criterion[k]
        print(
            f"  {k}: mean target loss {c.mean_target_loss:.4f} "
            f"vs alpha {c.alpha} (stderr {c.mc_stderr:.4f})"
        )
    for note in report.notes:
        print(f"  note: {note}")
    print(f"verdict: {report.verdict}")
    return EXIT_OK if report.verdict == "pass" else EXIT_NUMERIC


_COMMANDS = {
    "synth": _cmd_synth,
    "validate": _cmd_validate,
    "calibrate": _cmd_calibrate,
    "build": _cmd_build,
    "augment": _cmd_augment,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
    "crc-check": _cmd_crc_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.cause, NumericError):
            return EXIT_NUMERIC
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # a flag or config value out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
