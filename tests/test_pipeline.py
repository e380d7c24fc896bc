"""Pipeline configuration and the artifacts of one end-to-end run."""

import json
import re
from dataclasses import asdict, fields
from typing import get_type_hints

import pytest

from conftest import BAD_KEYS, BAD_VALUES, PATHS
from riskcbm.calibration import DEFAULT_BUDGET, RiskBudget
from riskcbm.cbm_trainer import TrainConfig, train
from riskcbm.cli import main
from riskcbm.core import DataError
from riskcbm.dataset_builder import ConceptVocabulary, build_vocabulary, label_sample
from riskcbm.evaluation import EvalConfig
from riskcbm.pipeline import (
    CONFIG_KEYS,
    Paths,
    PipelineConfig,
    StageError,
    evaluate_sweep,
    run_pipeline,
)
from riskcbm.synth import SynthSpec, generate_synthetic


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    assert main([
        "synth", "--out-dir", str(out),
        "--classes", "3", "--concepts-per-class", "4",
        "--samples-per-class", "20", "--test-samples-per-class", "8",
        "--seed", "1",
    ]) == 0
    return out


@pytest.mark.parametrize(
    "test_flags, message",
    [
        (["--test-samples-per-class", "0"], "test set is empty"),
        (["--classes", "2", "--test-samples-per-class", "4"], "class 1 absent from test set"),
    ],
    ids=["empty", "class_missing"],
)
def test_a_test_set_that_cannot_be_evaluated_fails_before_any_write(
    tmp_path, test_flags, message
):
    """The test set is checked at the load stage: no stage runs and the output
    directory holds no file."""
    other = tmp_path / "other"
    assert main(
        ["synth", "--out-dir", str(other), "--samples-per-class", "6", "--seed", "2", *test_flags]
    ) == 0
    test_path = other / "test.ndjson"
    if test_flags[0] == "--classes":  # keep only class 0 of a two-class catalog
        rows = [r for r in test_path.read_text().splitlines() if json.loads(r)["label"] == 0]
        test_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    config = PipelineConfig(
        paths=Paths(
            train=str(other / "train.ndjson"),
            test=str(test_path),
            catalog=str(other / "catalog.json"),
            output_dir=str(out),
        ),
        train=TrainConfig(epochs=5),
    )
    with pytest.raises(StageError, match=message) as caught:
        run_pipeline(config)
    assert caught.value.stage == "load"
    assert not out.exists() or not [p for p in out.rglob("*") if p.is_file()]


def test_from_dict_parses_the_budget_and_nec():
    config = PipelineConfig.from_dict({
        "paths": {"train": "a", "test": "b", "catalog": "c", "output_dir": "d"},
        "budget": {"alpha_dis": 0.9, "alpha_cov": 0.3, "alpha_div": 0.4},
        "eval": {"nec": 4},
        "split": {"train_fraction": 0.5, "seed": 3},
        "calibration": {"resolution": 0.5, "exact": True},
    })
    assert config.budget == RiskBudget(0.9, 0.3, 0.4)
    assert config.eval.nec == 4
    assert (config.split.train_fraction, config.split.seed) == (0.5, 3)
    assert type(config.calibration.resolution) is float and config.calibration.resolution == 0.5
    assert config.calibration.exact is True


def test_from_dict_defaults_to_the_default_budget():
    config = PipelineConfig.from_dict(
        {"paths": {"train": "a", "test": "b", "catalog": "c", "output_dir": "d"}}
    )
    assert config.budget == DEFAULT_BUDGET
    assert config == PipelineConfig(Paths("a", "b", "c", "d"))


def test_nec_sweep_uses_the_run_budget(data_dir, tmp_path):
    """The sweep row at the configured NEC repeats the headline report's
    CCA, and the report checks compliance against the run's budget."""
    config = PipelineConfig(
        paths=Paths(
            train=str(data_dir / "train.ndjson"),
            test=str(data_dir / "test.ndjson"),
            catalog=str(data_dir / "catalog.json"),
            output_dir=str(tmp_path / "run"),
        ),
        budget=RiskBudget(0.99, 0.9, 0.9),
        train=TrainConfig(epochs=20),
        eval=EvalConfig(nec=3),
    )
    run_pipeline(config)
    out = tmp_path / "run"
    report = json.loads((out / "eval_report.json").read_text())
    rows = [
        line.split()
        for line in (out / "cca_vs_nec.dat").read_text().splitlines()
        if not line.startswith("#")
    ]
    by_nec = {int(row[0]): float(row[1]) for row in rows}
    assert report["nec"] == config.eval.nec
    assert report["budget"] == {"alpha_dis": 0.99, "alpha_cov": 0.9, "alpha_div": 0.9}
    assert by_nec[config.eval.nec] == report["cca"]


def test_evaluate_sweep_needs_the_budget_its_vocabulary_records(tmp_path):
    """A vocabulary loaded from a file that predates its `lambda_hat` and
    `budget` gives the sweep no budget to score compliance at."""
    samples, catalog = generate_synthetic(
        SynthSpec(classes=2, concepts_per_class=3, samples_per_class=6, seed=1,
                  with_pixels=False)
    )
    vocab = build_vocabulary(samples, catalog, 0.5, DEFAULT_BUDGET)
    labeled = [label_sample(s, vocab) for s in samples]
    model, _ = train(labeled, vocab, TrainConfig(epochs=1), n_classes=catalog.num_classes)
    dat = tmp_path / "cca.dat"
    assert evaluate_sweep(model, samples, vocab, catalog, 3).budget == DEFAULT_BUDGET
    bare = ConceptVocabulary(vocab.concepts)
    with pytest.raises(DataError, match="vocabulary records no lambda_hat and risk budget"):
        evaluate_sweep(model, samples, bare, catalog, 3, dat)
    assert not dat.exists()


@pytest.mark.parametrize("section", list(BAD_KEYS))
def test_from_dict_rejects_an_unknown_key_by_name(section):
    doc, key = BAD_KEYS[section]
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        PipelineConfig.from_dict({"paths": PATHS, **doc})


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_from_dict_rejects_a_bad_value_or_missing_path_by_name(case):
    doc, message = BAD_VALUES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig.from_dict({"paths": PATHS, **doc})


@pytest.mark.parametrize("doc", [[PATHS], {"paths": PATHS, "train": 5}])
def test_from_dict_rejects_a_part_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match="must be a JSON object"):
        PipelineConfig.from_dict(doc)


def test_from_dict_accepts_every_documented_key():
    config = PipelineConfig.from_dict({
        "paths": PATHS,
        "budget": {"alpha_dis": 0.9, "alpha_cov": 0.3, "alpha_div": 0.4},
        "split": {"train_fraction": 0.5, "seed": 2},
        "calibration": {"resolution": 0.01, "exact": True},
        "eval": {"nec": 4},
        "train": {"epochs": 5, "learning_rate": 0.5, "rng_seed": 1, "momentum": 0.5},
        "augmentation": {"min_count": 3, "max_placement_attempts": 7, "rng_seed": 1},
    })
    assert (config.split.seed, config.calibration.resolution, config.calibration.exact) == (
        2, 0.01, True
    )
    assert (config.train.epochs, config.train.momentum) == (5, 0.5)
    assert config.augmentation.max_placement_attempts == 7


# A config file that sets every documented key, each but the paths to a value
# other than its default.
EVERY_KEY = {
    "paths": PATHS,
    "budget": {"alpha_dis": 0.9, "alpha_cov": 0.3, "alpha_div": 0.4},
    "split": {"train_fraction": 0.5, "seed": 2},
    "calibration": {"resolution": 0.01, "exact": True},
    "eval": {"nec": 4},
    "train": {
        "gamma1": 0.5, "gamma2": 0.01, "beta": 0.25, "learning_rate": 0.5,
        "epochs": 5, "batch_size": 8, "rng_seed": 1, "momentum": 0.5,
    },
    "augmentation": {"min_count": 3, "max_placement_attempts": 7, "rng_seed": 1},
}


def test_the_config_mirrors_its_file():
    """Each section of the file is one field of the config, and each key one
    field of that section's dataclass."""
    keys = {name: list(section) for name, section in EVERY_KEY.items()}
    assert keys == {name: list(types) for name, types in CONFIG_KEYS.items()}
    sections = get_type_hints(PipelineConfig)
    for name, section in EVERY_KEY.items():
        if name != "paths":
            default = asdict(sections[name]())
            assert all(section[k] != default[k] for k in section), name
    assert asdict(PipelineConfig.from_dict(EVERY_KEY)) == EVERY_KEY


def test_a_section_left_out_is_its_dataclass_default():
    config = PipelineConfig.from_dict({"paths": PATHS})
    assert config.paths == Paths(**PATHS)
    sections = get_type_hints(PipelineConfig)
    for f in fields(config)[1:]:
        assert getattr(config, f.name) == sections[f.name](), f.name
