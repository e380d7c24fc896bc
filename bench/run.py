"""Benchmark of riskcbm's two end-to-end uses: `riskcbm pipeline` and crc-check.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Run from the repository root; see bench/README.md for the workloads, the
metrics and how to read them. Each workload is a closed loop: one caller runs
one command at a time, in rounds of a fresh set-up and one repetition, until
the window ends. Successive rounds take turns over `INPUT_SETS` input sets
derived from the seed. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds to every round a traced run of the same command, with
span-recording wrappers around the module functions it calls, and reports
per-module metrics. Every round's outputs are checked by `checker.py`, which
takes no math from riskcbm. The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; one thread keeps the small
# matrix products of this package free of thread hand-off noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "riskcbm" / "__init__.py").is_file():
    sys.exit(f"error: riskcbm sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))


import checker  # noqa: E402
from riskcbm import calibration as rc_calibration  # noqa: E402
from riskcbm import cli, dataio  # noqa: E402
from riskcbm import pipeline as rc_pipeline  # noqa: E402
from riskcbm.calibration import ExchangeablePool, RiskBudget, empirical_risk  # noqa: E402
from riskcbm.cbm_trainer import gradients, make_batch, objective  # noqa: E402
from riskcbm.concept_sets import CRITERIA, build_concept_set, loss_function  # noqa: E402
from riskcbm.core import AnnotatedSample, Detection  # noqa: E402
from riskcbm.synth import SynthSpec, generate_synthetic  # noqa: E402

WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

# Rounds take turns over this many input sets, all derived from --seed. How
# much work an input set makes (lambda-hat, patched samples, set sizes)
# varies by about a tenth between seeds; a run's medians over several input
# sets vary far less with the seed than one input set's would.
INPUT_SETS = 8


def input_seeds(seed: int) -> list[int]:
    return [seed * INPUT_SETS + i for i in range(INPUT_SETS)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineWorkload:
    """Synthetic inputs for `riskcbm pipeline` plus its config file."""

    name: str
    classes: int
    concepts_per_class: int
    train_per_class: int
    test_per_class: int
    dim: int
    noise: float
    pixels: bool
    config: dict
    image_size: int = 64
    round_confidences: bool = False
    # Checks that fail on every seed because of a known program fault.
    known_faults: frozenset = frozenset()


@dataclass(frozen=True)
class CrcWorkload:
    """A pool for `calibration.validate_guarantee`, the crc-check engine."""

    name: str
    pool: int
    classes: int
    concepts_per_class: int
    dim: int
    noise: float
    n_cal: int
    trials: int
    budget: dict
    slack: float = 0.01


WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            name="pipeline",
            classes=4,
            concepts_per_class=8,
            train_per_class=48,
            test_per_class=6,
            dim=64,
            noise=0.1,
            pixels=True,
            image_size=32,
            round_confidences=True,
            config={
                "budget": {"alpha_dis": 0.95, "alpha_cov": 0.4, "alpha_div": 0.6},
                "split": {"train_fraction": 0.5},
                "calibration": {"exact": True},
                "augmentation": {"min_count": 16},
                "train": {"epochs": 200, "learning_rate": 0.5},
                "eval": {"nec": 8},
            },
            # calibration.build_loss_profiles places breakpoints at 1 - conf
            # without the inclusive BOUNDARY_GUARD, so on two-decimal
            # confidences its risk curves miss grid points where a
            # confidence sits exactly on the threshold.
            known_faults=frozenset({"curve.dis", "curve.cov", "curve.div"}),
        ),
        CrcWorkload(
            name="crc-check",
            pool=200,
            classes=4,
            concepts_per_class=6,
            dim=16,
            noise=0.1,
            n_cal=30,
            trials=2000,
            budget={"alpha_dis": 0.7, "alpha_cov": 0.2, "alpha_div": 0.2},
        ),
    )
}


# ---------------------------------------------------------------------------
# Tracing: spans recorded from outside the package, kept in memory
# ---------------------------------------------------------------------------


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request = 0
        self._stack: list[int] = []
        # Span name -> (args, kwargs, result) of its latest call, so per-call
        # costs can be measured afterwards on the inputs the program used.
        self.calls: dict[str, tuple] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append({"name": name, "parent": parent, "request": self.request})
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index].update(start=start, end=end)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls[name] = (args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace each (owner, attribute, span name) with a span-recording wrapper."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def totals(self, first: int) -> dict:
        """Summed duration per span name of spans[first:], plus the self time
        (duration minus direct children) of each top-level span."""
        spans = self.spans[first:]
        out: dict = {}
        child_time = [0.0] * len(spans)
        for s in spans:
            d = s["end"] - s["start"]
            out[s["name"]] = out.get(s["name"], 0.0) + d
            if s["parent"] is not None and s["parent"] >= first:
                child_time[s["parent"] - first] += d
        for i, s in enumerate(spans):
            if s["parent"] is None:
                key = s["name"] + ".self"
                out[key] = out.get(key, 0.0) + s["end"] - s["start"] - child_time[i]
        return out


# Module attributes `pipeline.run_pipeline` and `calibration.calibrate`
# look up at call time, with the span each call is recorded under.
PIPELINE_SPANS = (
    (rc_pipeline, "calibrate", "calibration.calibrate"),
    (rc_calibration, "calibrate_criterion", "calibration.search"),
    (rc_calibration, "build_loss_profiles", "calibration.profiles"),
    (rc_calibration.LossProfiles, "matrix_on_grid", "calibration.profiles"),
    (rc_pipeline, "build_vocabulary", "dataset_builder.build"),
    (rc_pipeline, "label_sample", "dataset_builder.build"),
    (rc_pipeline, "augment_dataset", "dataset_builder.augment"),
    (rc_pipeline, "train", "cbm_trainer.train"),
    (rc_pipeline, "accuracy_report", "evaluation.report"),
    (rc_pipeline, "cca_versus_nec", "evaluation.sweep"),
    (dataio, "load_catalog", "dataio.load"),
    (dataio, "load_dataset", "dataio.load"),
    *(
        (dataio, fn, "dataio.save")
        for fn in (
            "save_calibration",
            "write_dat",
            "save_vocabulary",
            "save_labeled_dataset",
            "save_model",
            "save_training_log",
            "save_eval_report",
            "save_per_sample_csv",
        )
    ),
)

# What `validate_guarantee` calls, plus the report write.
CRC_SPANS = (
    (rc_calibration, "validate_guarantee", "calibration.validate"),
    (rc_calibration, "build_loss_profiles", "calibration.profiles"),
    (rc_calibration.LossProfiles, "matrix_on_grid", "calibration.profiles"),
    (dataio, "save_guarantee_report", "dataio.save"),
)


def _per_call(fn, args_list) -> float:
    """Mean seconds per call of fn over the argument tuples."""
    start = perf_counter()
    for args in args_list:
        fn(*args)
    return (perf_counter() - start) / len(args_list)


def _loss_micro(samples, catalog, lambdas: dict) -> dict:
    """Per-call costs of set building, the three losses and empirical_risk."""
    lam = max(lambdas.values())
    sets = [build_concept_set(s, lam) for s in samples]
    out = {
        "concept_sets.build_set_us": 1e6
        * _per_call(build_concept_set, [(s, lam) for s in samples])
    }
    for k in CRITERIA:
        out[f"concept_sets.{k}_us"] = 1e6 * _per_call(
            loss_function(k), [(cs, s, catalog) for cs, s in zip(sets, samples)]
        )
    out["calibration.empirical_risk_ms"] = 1e3 * _per_call(
        empirical_risk, [(k, lambdas[k], samples, catalog) for k in CRITERIA]
    )
    return out


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------


def _digest(directory: Path) -> str:
    """Hash of every file under the directory, with its relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix().encode()
        h.update(rel + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _bytes_under(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


@contextlib.contextmanager
def _program_call(counter: list):
    """Record program warnings and keep the CLI's chatter off stdout."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            yield
    counter.append(len(caught))


def _rounded(sample: AnnotatedSample) -> AnnotatedSample:
    detections = tuple(
        Detection(box=d.box, confidence=round(d.confidence, 2), concept=d.concept)
        for d in sample.detections
    )
    return AnnotatedSample(
        sample_id=sample.sample_id,
        label=sample.label,
        image_embedding=sample.image_embedding,
        detections=detections,
        image_pixels=sample.image_pixels,
    )


class PipelineRunner:
    def __init__(self, w: PipelineWorkload, seed: int, work: Path, tracer: Tracer) -> None:
        self.w, self.seed, self.tr = w, seed, tracer
        self.inputs = work / "inputs"
        self.config_path = self.inputs / "config.json"
        doc = json.loads(json.dumps(w.config))
        doc.setdefault("split", {})["seed"] = seed
        doc.setdefault("augmentation", {})["rng_seed"] = seed
        doc.setdefault("train", {})["rng_seed"] = seed
        self.doc = doc

    def setup(self) -> None:
        """Synthetic generation plus writing the input files and config."""
        w = self.w
        self.inputs.mkdir(parents=True, exist_ok=True)
        with self.tr.span("synth.generate"):
            samples, catalog = generate_synthetic(
                SynthSpec(
                    classes=w.classes,
                    concepts_per_class=w.concepts_per_class,
                    samples_per_class=w.train_per_class + w.test_per_class,
                    embedding_dim=w.dim,
                    noise=w.noise,
                    seed=self.seed,
                    image_size=w.image_size,
                    with_pixels=w.pixels,
                )
            )
        if w.round_confidences:
            samples = [_rounded(s) for s in samples]
        train_rows, test_rows = [], []
        for label in range(w.classes):
            rows = [s for s in samples if s.label == label]
            train_rows += rows[: w.train_per_class]
            test_rows += rows[w.train_per_class :]
        dataio.save_catalog(self.inputs / "catalog.json", catalog)
        dataio.save_dataset(self.inputs / "train.ndjson", train_rows)
        dataio.save_dataset(self.inputs / "test.ndjson", test_rows)
        self.doc["paths"] = {
            "train": str(self.inputs / "train.ndjson"),
            "test": str(self.inputs / "test.ndjson"),
            "catalog": str(self.inputs / "catalog.json"),
        }
        self.config_path.write_text(json.dumps(self.doc, indent=2, sort_keys=True))

    def _call(self, out: Path) -> None:
        code = cli.main(
            ["pipeline", "--config", str(self.config_path), "--out-dir", str(out)]
        )
        if code != 0:
            raise RuntimeError(f"riskcbm pipeline exited with code {code}")

    def run(self, out: Path, warn: list) -> float:
        """One untraced `riskcbm pipeline --config ...` through cli.main."""
        with _program_call(warn):
            start = perf_counter()
            self._call(out)
            return perf_counter() - start

    def traced(self, out: Path, warn: list) -> dict:
        """The same command with spans around the module functions it calls."""
        tr = self.tr
        first = len(tr.spans)
        with _program_call(warn), tr.patched(PIPELINE_SPANS), tr.span("pipeline"):
            self._call(out)
        t = tr.totals(first)
        m = {
            name + "_s": t.get(name, 0.0)
            for name in (
                "dataio.load",
                "dataio.save",
                "calibration.calibrate",
                "calibration.search",
                "calibration.profiles",
                "dataset_builder.build",
                "dataset_builder.augment",
                "cbm_trainer.train",
                "evaluation.report",
                "evaluation.sweep",
            )
        }
        m["pipeline.other_s"] = t["pipeline.self"]
        m["traced_total_s"] = t["pipeline"]
        m["dataio.bytes_written"] = float(_bytes_under(out))

        # Per-call costs on the inputs the traced run used, measured after it
        # so that they stay out of its total.
        (_, cal_part, catalog), _, result = tr.calls["calibration.calibrate"]
        (labeled, _, _, _), _, (augmented, _) = tr.calls["dataset_builder.augment"]
        (_, _, config), _, (model, _) = tr.calls["cbm_trainer.train"]
        n_aug = len(augmented) - len(labeled)
        m["dataset_builder.augment_us_per_sample"] = (
            1e6 * m["dataset_builder.augment_s"] / n_aug if n_aug else 0.0
        )
        m["cbm_trainer.epoch_ms"] = 1e3 * m["cbm_trainer.train_s"] / config.epochs
        m.update(
            _loss_micro(cal_part, catalog, {k: result.lambda_for(k) for k in CRITERIA})
        )
        batch = make_batch(augmented[: config.batch_size])
        full = make_batch(augmented)
        m["cbm_trainer.gradients_us"] = 1e6 * _per_call(
            gradients, [(model, batch, config)] * 50
        )
        m["cbm_trainer.objective_ms"] = 1e3 * _per_call(
            objective, [(model, full, config)] * 5
        )
        tr.calls.clear()
        return m

    def check(self, out: Path) -> list:
        return checker.check_pipeline(
            self.inputs, out, self.doc, augmentation=self.w.pixels
        )

    def quality(self, out: Path) -> dict:
        report = checker.read_json(out / "eval_report.json")
        return {"accuracy": report["overall_accuracy"], "cca": report["cca"]}


class CrcRunner:
    def __init__(self, w: CrcWorkload, seed: int, work: Path, tracer: Tracer) -> None:
        self.w, self.seed, self.tr = w, seed, tracer
        self.budget = RiskBudget(**w.budget)

    def setup(self) -> None:
        """Pool generation."""
        w = self.w
        with self.tr.span("synth.generate"):
            samples, catalog = generate_synthetic(
                SynthSpec(
                    classes=w.classes,
                    concepts_per_class=w.concepts_per_class,
                    samples_per_class=max(1, w.pool // w.classes),
                    embedding_dim=w.dim,
                    noise=w.noise,
                    seed=self.seed,
                    with_pixels=False,
                )
            )
        self.pool = ExchangeablePool(samples=samples, catalog=catalog)

    def _call(self, out: Path) -> None:
        report = rc_calibration.validate_guarantee(
            self.budget,
            self.pool,
            n_cal=self.w.n_cal,
            n_trials=self.w.trials,
            seed=self.seed,
            slack=self.w.slack,
        )
        self.report = report
        dataio.save_guarantee_report(out / "crc.json", report)

    def run(self, out: Path, warn: list) -> float:
        out.mkdir(parents=True, exist_ok=True)
        with _program_call(warn):
            start = perf_counter()
            self._call(out)
            return perf_counter() - start

    def traced(self, out: Path, warn: list) -> dict:
        tr = self.tr
        out.mkdir(parents=True, exist_ok=True)
        first = len(tr.spans)
        with _program_call(warn), tr.patched(CRC_SPANS), tr.span("crc"):
            self._call(out)
        t = tr.totals(first)
        m = {
            "dataio.save_s": t["dataio.save"],
            "dataio.bytes_written": float(_bytes_under(out)),
            "calibration.profiles_s": t["calibration.profiles"],
            "pipeline.other_s": t["crc.self"],
            "traced_total_s": t["crc"],
        }
        # The trial loop is what validate_guarantee spends beyond its profiles.
        m["calibration.trial_us"] = (
            1e6 * (t["calibration.validate"] - t["calibration.profiles"]) / self.w.trials
        )
        cal = list(self.pool.samples[: self.w.n_cal])
        lam = round(self.report.mean_lambda_hat, 3)
        m.update(_loss_micro(cal, self.pool.catalog, {k: lam for k in CRITERIA}))
        tr.calls.clear()
        return m

    def check(self, out: Path) -> list:
        return checker.check_guarantee(out / "crc.json", self.w.slack)

    def quality(self, out: Path) -> dict:
        """Share of criteria within alpha + slack, and of those also never falling back."""
        doc = checker.read_json(out / "crc.json")
        per = [doc["per_criterion"][k] for k in CRITERIA]
        covered = [c["mean_target_loss"] <= c["alpha"] + self.w.slack for c in per]
        attained = [ok and c["fallback_rate"] == 0 for ok, c in zip(covered, per)]
        return {"accuracy": sum(covered) / 3, "cca": sum(attained) / 3}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "cca": "fraction",
}

PER_LAYER_UNITS = {
    "synth.generate_s": "s",
    "dataio.load_s": "s",
    "dataio.save_s": "s",
    "dataio.bytes_written": "bytes",
    "concept_sets.build_set_us": "us",
    "concept_sets.dis_us": "us",
    "concept_sets.cov_us": "us",
    "concept_sets.div_us": "us",
    "calibration.calibrate_s": "s",
    "calibration.search_s": "s",
    "calibration.profiles_s": "s",
    "calibration.empirical_risk_ms": "ms",
    "calibration.trial_us": "us",
    "dataset_builder.build_s": "s",
    "dataset_builder.augment_s": "s",
    "dataset_builder.augment_us_per_sample": "us",
    "cbm_trainer.train_s": "s",
    "cbm_trainer.epoch_ms": "ms",
    "cbm_trainer.gradients_us": "us",
    "cbm_trainer.objective_ms": "ms",
    "evaluation.report_s": "s",
    "evaluation.sweep_s": "s",
    "pipeline.other_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    workload: str
    rounds: int = 0
    checks: list = field(default_factory=list)
    warnings: int = 0
    metrics: dict = field(default_factory=dict)
    known_faults: frozenset = frozenset()

    @property
    def failed(self) -> list:
        return [c for c in self.checks if not c.ok]

    @property
    def correct(self) -> bool:
        return all(c.name in self.known_faults for c in self.failed)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    w = WORKLOADS[name]
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    runner_cls = CrcRunner if isinstance(w, CrcWorkload) else PipelineRunner
    # (runner, output directories: untraced, then traced) per input set.
    sets = []
    for i, set_seed in enumerate(input_seeds(seed)):
        set_dir = work / f"set{i}"
        outs = [set_dir / "out", set_dir / "traced"][: 1 + trace]
        sets.append((runner_cls(w, set_seed, set_dir, tracer), outs))
    outcome = Outcome(name, known_faults=getattr(w, "known_faults", frozenset()))
    try:
        # Each round sets up its input set afresh, so set-up is sampled across
        # the whole window like the runs are. A round writes over the files
        # its input set's previous round wrote: creating and deleting
        # hundreds of small files per round made the file system's own cost
        # swing far more than the program's.
        setup_times, run_times, layer_rows, identical, warns = [], [], [], [], []
        first_digests: dict = {}
        deadline = perf_counter() + seconds
        while True:
            index = outcome.rounds % len(sets)
            runner, outs = sets[index]
            outcome.rounds += 1
            tracer.request = outcome.rounds
            gc.collect()
            start = perf_counter()
            runner.setup()
            setup_times.append(perf_counter() - start)
            gc.collect()
            run_times.append(runner.run(outs[0], warns))
            if trace:
                gc.collect()
                layer_rows.append(runner.traced(outs[1], warns))
            digests = [_digest(o) for o in outs]
            first = first_digests.setdefault(index, digests[0])
            identical.append(all(d == first for d in digests))
            if perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Checks run after the timed window. They are a pure function of the
        # artifact bytes, and every round's digest (the traced run's too) must
        # equal the first of its input set's, so the last round of each input
        # set stands for all of that set's rounds.
        used = sets[: outcome.rounds]
        set_checks = [runner.check(outs[0]) for runner, outs in used]
        outcome.warnings = sum(warns)
        per_round = warns if not trace else [a + b for a, b in zip(warns[::2], warns[1::2])]
        for r in range(outcome.rounds):
            outcome.checks.append(
                checker.Check("warnings", per_round[r] == 0, f"{per_round[r]} raised")
            )
            outcome.checks.append(
                checker.Check(
                    "rerun_identical", identical[r], "digests vs the input set's first round"
                )
            )
            outcome.checks.extend(set_checks[r % len(sets)])

        if trace:
            m = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
            m["synth.generate_s"] = statistics.median(
                s["end"] - s["start"] for s in tracer.spans if s["name"] == "synth.generate"
            )
            m["trace.overhead_s"] = m["traced_total_s"] - statistics.median(run_times)
            outcome.metrics = {
                key: (float(m.get(key, 0.0)), unit) for key, unit in PER_LAYER_UNITS.items()
            }
            TRACE_DIR.mkdir(exist_ok=True)
            (TRACE_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps(tracer.spans))
        else:
            quality = [runner.quality(outs[0]) for runner, outs in used]
            values = {
                "setup_s": statistics.median(setup_times),
                "run_s": statistics.median(run_times),
                "peak_rss_mb": peak_rss_mb,
                **{k: statistics.median(q[k] for q in quality) for k in quality[0]},
            }
            outcome.metrics = {k: (float(values[k]), END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    return outcome


def _print_outcome(o: Outcome, seed: int) -> None:
    print(
        f"workload {o.workload}  seed {seed}  rounds {o.rounds}  "
        f"attempted {len(o.checks)}  failed {len(o.failed)}  "
        f"program warnings {o.warnings}  correct {str(o.correct).lower()}"
    )
    seen = set()
    for c in o.failed:
        if c.name not in seen:
            seen.add(c.name)
            known = " (known fault)" if c.name in o.known_faults else ""
            print(f"  FAILED {c.name}{known}: {c.detail}")
    for key, (value, unit) in o.metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}")


def _result(o_list: list) -> dict:
    return {
        "correct": all(o.correct for o in o_list),
        "attempted": sum(len(o.checks) for o in o_list),
        "failed": sum(len(o.failed) for o in o_list),
        "metrics": {
            key: {"value": value, "unit": unit}
            for o in o_list
            for key, (value, unit) in o.metrics.items()
        },
    }


def _run_all(args) -> dict:
    """Every workload in a child process of its own, one after the other, so
    that each reports its own peak resident set."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = _run_all(args)
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_outcome(outcome, args.seed)
        result = _result([outcome])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
