"""Pipeline configuration and the artifacts of one end-to-end run."""

import json

import pytest

from riskcbm.calibration import DEFAULT_BUDGET, RiskBudget
from riskcbm.cbm_trainer import TrainConfig
from riskcbm.cli import main
from riskcbm.evaluation import EvalConfig
from riskcbm.pipeline import PipelineConfig, run_pipeline


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


def test_from_dict_parses_the_budget_and_nec():
    config = PipelineConfig.from_dict({
        "paths": {"train": "a", "test": "b", "catalog": "c", "output_dir": "d"},
        "budget": {"alpha_dis": 0.9, "alpha_cov": 0.3, "alpha_div": 0.4},
        "eval": {"nec": 4},
    })
    assert config.budget == RiskBudget(0.9, 0.3, 0.4)
    assert config.nec == 4


def test_from_dict_defaults_to_the_default_budget():
    config = PipelineConfig.from_dict(
        {"paths": {"train": "a", "test": "b", "catalog": "c", "output_dir": "d"}}
    )
    assert config.budget == DEFAULT_BUDGET == EvalConfig().budget
    assert config.nec == 10


def test_nec_sweep_uses_the_run_budget(data_dir, tmp_path):
    """The sweep row at the configured NEC repeats the headline report's
    CCA, and the report checks compliance against the run's budget."""
    config = PipelineConfig(
        train_path=str(data_dir / "train.ndjson"),
        test_path=str(data_dir / "test.ndjson"),
        catalog_path=str(data_dir / "catalog.json"),
        output_dir=str(tmp_path / "run"),
        budget=RiskBudget(0.99, 0.9, 0.9),
        train=TrainConfig(epochs=20),
        nec=3,
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
    assert report["nec"] == config.nec
    assert report["budget"] == {"alpha_dis": 0.99, "alpha_cov": 0.9, "alpha_div": 0.9}
    assert by_nec[config.nec] == report["cca"]
