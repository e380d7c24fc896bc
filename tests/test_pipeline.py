"""Pipeline configuration and the artifacts of one end-to-end run."""

import json

import pytest

from riskcbm.calibration import RiskBudget
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


def test_from_dict_parses_one_budget_for_both_fields():
    config = PipelineConfig.from_dict({
        "paths": {"train": "a", "test": "b", "catalog": "c", "output_dir": "d"},
        "budget": {"alpha_dis": 0.9, "alpha_cov": 0.3, "alpha_div": 0.4},
        "eval": {"nec": 4},
    })
    assert config.budget == RiskBudget(0.9, 0.3, 0.4)
    assert config.eval.budget is config.budget
    assert config.eval.nec == 4


def test_nec_sweep_uses_the_evaluation_budget(data_dir, tmp_path):
    """The sweep row at the configured NEC repeats the headline report's CCA."""
    config = PipelineConfig(
        train_path=str(data_dir / "train.ndjson"),
        test_path=str(data_dir / "test.ndjson"),
        catalog_path=str(data_dir / "catalog.json"),
        output_dir=str(tmp_path / "run"),
        budget=RiskBudget(0.7, 0.2, 0.2),
        train=TrainConfig(epochs=20),
        eval=EvalConfig(nec=3, budget=RiskBudget(0.99, 0.9, 0.9)),
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
    assert by_nec[config.eval.nec] == report["cca"]
