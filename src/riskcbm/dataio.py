"""File formats: NDJSON datasets, JSON artifacts, and the binary pixel tensor.

All JSON is emitted with sorted keys and repr-exact floats, so every artifact
round-trips to identical values and reruns with identical seeds produce
byte-identical files. Pixel tensors use a tiny headered binary format instead
of an image codec to keep augmentation bit-exact.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .calibration import (
    CalibrationResult,
    CriterionCoverage,
    GuaranteeReport,
    RiskBudget,
    RiskCurve,
)
from .cbm_trainer import CbmModel, TrainConfig, TrainLogRow
from .core import (
    AnnotatedSample,
    BoundingBox,
    ConceptCatalog,
    ConceptId,
    DataError,
    Detection,
    validate_dataset,
)
from .dataset_builder import (
    ConceptLabeledSample,
    ConceptVocabulary,
    Provenance,
)
from .evaluation import EvalReport, SampleCompliance

__all__ = [
    "DataFormatError",
    "save_pixels",
    "load_pixels",
    "save_catalog",
    "load_catalog",
    "save_dataset",
    "load_dataset",
    "save_labeled_dataset",
    "load_labeled_dataset",
    "save_vocabulary",
    "load_vocabulary",
    "save_model",
    "load_model",
    "save_calibration",
    "load_calibration",
    "save_guarantee_report",
    "load_guarantee_report",
    "save_eval_report",
    "load_eval_report",
    "save_training_log",
    "save_per_sample_csv",
    "write_dat",
]

_PIXEL_MAGIC = b"ULT1"


class DataFormatError(DataError):
    """A file could not be parsed; the message names the offending location."""


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None


@contextmanager
def _parsing(where: "str | Path", what: str):
    """Report a fault met while building ``what`` from a parsed document,
    a missing key, a value of the wrong type or range, or a `DataError`
    from a constructor's checks, as a `DataFormatError` that names
    ``where``. A `DataFormatError` already names its location and passes
    through unchanged."""
    try:
        yield
    except DataFormatError:
        raise
    except (
        DataError, KeyError, TypeError, ValueError, OverflowError, AttributeError
    ) as exc:
        raise DataFormatError(f"{where}: malformed {what}: {exc!r}") from None


# ---------------------------------------------------------------------------
# Pixel tensors: 16-byte header (magic "ULT1", u32 H, u32 W, u32 C), then
# row-major little-endian float32 in [0,1].
# ---------------------------------------------------------------------------


def save_pixels(path: "str | Path", pixels: np.ndarray) -> None:
    path = Path(path)
    arr = np.ascontiguousarray(pixels, dtype="<f4")
    if arr.ndim != 3:
        raise DataError(f"pixels must be 3-D, got shape {arr.shape}")
    h, w, c = arr.shape
    with open(path, "wb") as fh:
        fh.write(_PIXEL_MAGIC + struct.pack("<III", h, w, c))
        fh.write(arr.tobytes())


def load_pixels(path: "str | Path") -> np.ndarray:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 16 or blob[:4] != _PIXEL_MAGIC:
        raise DataFormatError(f"{path}: bad pixel tensor magic")
    h, w, c = struct.unpack("<III", blob[4:16])
    expected = 16 + h * w * c * 4
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: truncated pixel tensor ({len(blob)} bytes, expected {expected})"
        )
    arr = np.frombuffer(blob, dtype="<f4", offset=16).reshape(h, w, c).copy()
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Concept catalog
# ---------------------------------------------------------------------------


def save_catalog(path: "str | Path", catalog: ConceptCatalog) -> None:
    classes = []
    for label in catalog.class_labels:
        classes.append(
            {
                "label": int(label),
                "concepts": [
                    {
                        "id": c.id,
                        "text": c.text,
                        "embedding": catalog.embedding_of(c).tolist(),
                    }
                    for c in catalog.concepts_for(label)
                ],
            }
        )
    _dump_json(Path(path), {"classes": classes})


def load_catalog(path: "str | Path") -> ConceptCatalog:
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "catalog"):
        per_class: dict[int, list[ConceptId]] = {}
        embeddings: dict[ConceptId, np.ndarray] = {}
        for entry in doc["classes"]:
            label = int(entry["label"])
            concepts = []
            for c in entry["concepts"]:
                concept = ConceptId(
                    id=int(c["id"]), text=str(c["text"]), class_of_origin=label
                )
                concepts.append(concept)
                embeddings[concept] = np.asarray(c["embedding"], dtype=np.float64)
            per_class[label] = concepts
        return ConceptCatalog(per_class=per_class, text_embeddings=embeddings)


# ---------------------------------------------------------------------------
# Annotated samples (NDJSON, one object per line)
# ---------------------------------------------------------------------------


def _box_to_list(box: BoundingBox) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


def _detections_to_json(detections) -> list[dict]:
    return [
        {
            "concept_id": det.concept.id,
            "confidence": det.confidence,
            "box": _box_to_list(det.box),
        }
        for det in detections
    ]


def _detections_from_json(entries, concept_by_id):
    out = []
    for entry in entries:
        cid = int(entry["concept_id"])
        concept = concept_by_id.get(cid)
        if concept is None:
            raise DataError(f"unknown concept id {cid}")
        x1, y1, x2, y2 = (float(v) for v in entry["box"])
        out.append(
            Detection(
                box=BoundingBox(x1, y1, x2, y2),
                confidence=float(entry["confidence"]),
                concept=concept,
            )
        )
    return tuple(out)


def _pixels_dir(path: Path) -> Path:
    return path.parent / f"{path.stem}.pixels"


def _save_samples(
    path: "str | Path", samples: Sequence, extra_fields: Callable[..., dict]
) -> None:
    """Write one NDJSON record per sample: the fields every sample file
    shares, plus ``extra_fields(sample)``. Pixel tensors go to a sibling
    directory."""
    path = Path(path)
    pixels_dir = _pixels_dir(path)
    lines = []
    for sample in samples:
        record = {
            "id": sample.sample_id,
            "label": int(sample.label),
            "embedding": sample.image_embedding.tolist(),
            "detections": _detections_to_json(sample.detections),
            **extra_fields(sample),
        }
        if sample.image_pixels is not None:
            pixels_dir.mkdir(parents=True, exist_ok=True)
            rel = f"{pixels_dir.name}/{sample.sample_id}.ult1"
            save_pixels(path.parent / rel, sample.image_pixels)
            record["pixels_path"] = rel
        lines.append(json.dumps(record, sort_keys=True))
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def _load_samples(
    path: Path,
    catalog: ConceptCatalog,
    build: Callable[..., object],
    validate: bool = True,
) -> list:
    """Parse an NDJSON sample file line by line and check it against the
    catalog with `core.validate_dataset`. The shared fields are parsed here
    and handed on as keyword arguments: ``build(record, common,
    concept_by_id)`` returns the sample. Any fault names the file, and a
    fault in one record also its line."""
    concept_by_id = {c.id: c for c in catalog.all_concepts()}
    samples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{where}: invalid JSON: {exc.msg}") from None
            with _parsing(where, "sample"):
                pixels = None
                if record.get("pixels_path"):
                    pixels_path = path.parent / record["pixels_path"]
                    try:
                        pixels = load_pixels(pixels_path)
                    except OSError as exc:
                        raise DataFormatError(
                            f"{where}: cannot read pixel tensor {pixels_path}: {exc.strerror}"
                        ) from None
                common = dict(
                    sample_id=str(record["id"]),
                    label=int(record["label"]),
                    image_embedding=np.asarray(record["embedding"], dtype=np.float64),
                    detections=_detections_from_json(
                        record.get("detections", ()), concept_by_id
                    ),
                    image_pixels=pixels,
                )
                samples.append(build(record, common, concept_by_id))
    if validate:
        problems = validate_dataset(samples, catalog)
        if problems:
            summary = "; ".join(problems[:5])
            raise DataError(
                f"{path}: {len(problems)} validation violation(s): {summary}"
            )
    return samples


def save_dataset(
    path: "str | Path", samples: Sequence[AnnotatedSample]
) -> None:
    """Write samples as NDJSON; pixel tensors go to a sibling directory."""
    _save_samples(path, samples, lambda sample: {})


def load_dataset(
    path: "str | Path", catalog: ConceptCatalog, *, validate: bool = True
) -> list[AnnotatedSample]:
    """Parse an NDJSON dataset, resolving concept ids against the catalog.

    With ``validate=True`` (the default) the parsed samples also pass through
    `core.validate_dataset` and any violation raises `DataError`.
    """
    return _load_samples(
        Path(path),
        catalog,
        lambda record, common, _: AnnotatedSample(**common),
        validate,
    )


# ---------------------------------------------------------------------------
# Concept-labeled samples (NDJSON): the annotated-sample record plus
# `concept_vector` and `provenance`
# ---------------------------------------------------------------------------


def _labeled_fields(sample: ConceptLabeledSample) -> dict:
    prov: dict = {"kind": sample.provenance.kind}
    if sample.provenance.kind == "augmented":
        prov["source_id"] = sample.provenance.source_id
        prov["inserted_concept_id"] = sample.provenance.inserted_concept.id
        if sample.provenance.placement is not None:
            prov["placement"] = _box_to_list(sample.provenance.placement)
    return {"concept_vector": sample.concept_vector.tolist(), "provenance": prov}


def _labeled_sample(record, common, concept_by_id) -> ConceptLabeledSample:
    prov_doc = record["provenance"]
    if prov_doc["kind"] == "augmented":
        placement = None
        if prov_doc.get("placement"):
            placement = BoundingBox(*(float(v) for v in prov_doc["placement"]))
        inserted = concept_by_id.get(int(prov_doc["inserted_concept_id"]))
        if inserted is None:
            raise DataError(
                f"unknown inserted concept id {prov_doc['inserted_concept_id']}"
            )
        provenance = Provenance(
            kind="augmented",
            source_id=str(prov_doc["source_id"]),
            inserted_concept=inserted,
            placement=placement,
        )
    else:
        provenance = Provenance(kind=prov_doc["kind"])
    return ConceptLabeledSample(
        **common,
        concept_vector=np.asarray(record["concept_vector"], dtype=np.uint8),
        provenance=provenance,
    )


def save_labeled_dataset(
    path: "str | Path", samples: Sequence[ConceptLabeledSample]
) -> None:
    _save_samples(path, samples, _labeled_fields)


def load_labeled_dataset(
    path: "str | Path", catalog: ConceptCatalog
) -> list[ConceptLabeledSample]:
    """Parse a labeled NDJSON dataset; it passes the same checks as
    `load_dataset`, and any violation raises `DataError`."""
    return _load_samples(Path(path), catalog, _labeled_sample)


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


def _vocab_to_json(vocab: ConceptVocabulary) -> list[dict]:
    return [
        {"id": c.id, "text": c.text, "class_of_origin": c.class_of_origin}
        for c in vocab.concepts
    ]


def _vocab_from_json(entries) -> ConceptVocabulary:
    concepts = tuple(
        ConceptId(
            id=int(e["id"]), text=str(e["text"]), class_of_origin=int(e["class_of_origin"])
        )
        for e in entries
    )
    return ConceptVocabulary(concepts=concepts)


def save_vocabulary(path: "str | Path", vocab: ConceptVocabulary) -> None:
    _dump_json(Path(path), {"concepts": _vocab_to_json(vocab)})


def load_vocabulary(path: "str | Path") -> ConceptVocabulary:
    doc = _load_json(Path(path))
    with _parsing(path, "vocabulary"):
        return _vocab_from_json(doc["concepts"])


# ---------------------------------------------------------------------------
# Model checkpoint
# ---------------------------------------------------------------------------


def save_model(
    path: "str | Path",
    model: CbmModel,
    vocab: ConceptVocabulary,
    config: TrainConfig,
) -> None:
    doc = {
        "embedding_dim": model.embedding_dim,
        "num_concepts": model.num_concepts,
        "num_classes": model.num_classes,
        "concept_weights": model.concept_weights.tolist(),
        "concept_bias": model.concept_bias.tolist(),
        "head_weights": model.head_weights.tolist(),
        "head_bias": model.head_bias.tolist(),
        "vocabulary": _vocab_to_json(vocab),
        "config": asdict(config),
    }
    _dump_json(Path(path), doc)


def load_model(path: "str | Path") -> tuple[CbmModel, ConceptVocabulary, TrainConfig]:
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "model checkpoint"):
        model = CbmModel(
            concept_weights=np.asarray(doc["concept_weights"], dtype=np.float64),
            concept_bias=np.asarray(doc["concept_bias"], dtype=np.float64),
            head_weights=np.asarray(doc["head_weights"], dtype=np.float64),
            head_bias=np.asarray(doc["head_bias"], dtype=np.float64),
        ).freeze()
        vocab = _vocab_from_json(doc["vocabulary"])
        # Earlier checkpoints record the removed `l1_proximal` option.
        config = TrainConfig(**{k: v for k, v in doc["config"].items() if k != "l1_proximal"})
    if model.num_concepts != len(vocab):
        raise DataError(
            f"{path}: checkpoint bottleneck width {model.num_concepts} "
            f"does not match vocabulary size {len(vocab)}"
        )
    return model, vocab, config


# ---------------------------------------------------------------------------
# Calibration result
# ---------------------------------------------------------------------------


def _budget_from_json(doc) -> RiskBudget:
    return RiskBudget(**{f.name: float(doc[f.name]) for f in fields(RiskBudget)})


def save_calibration(path: "str | Path", result: CalibrationResult) -> None:
    doc = {
        "lambda_dis": result.lambda_dis,
        "lambda_cov": result.lambda_cov,
        "lambda_div": result.lambda_div,
        "lambda_hat": result.lambda_hat,
        "n_cal": result.n_cal,
        "budget": asdict(result.budget),
        "curves": {
            k: {"grid": curve.grid.tolist(), "risks": curve.risks.tolist()}
            for k, curve in result.curves.items()
        },
    }
    _dump_json(Path(path), doc)


def load_calibration(path: "str | Path") -> CalibrationResult:
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "calibration result"):
        curves = {
            k: RiskCurve(
                criterion=k,
                grid=np.asarray(c["grid"], dtype=np.float64),
                risks=np.asarray(c["risks"], dtype=np.float64),
            )
            for k, c in doc["curves"].items()
        }
        return CalibrationResult(
            lambda_dis=float(doc["lambda_dis"]),
            lambda_cov=float(doc["lambda_cov"]),
            lambda_div=float(doc["lambda_div"]),
            lambda_hat=float(doc["lambda_hat"]),
            n_cal=int(doc["n_cal"]),
            budget=_budget_from_json(doc["budget"]),
            curves=curves,
        )


# ---------------------------------------------------------------------------
# Guarantee report
# ---------------------------------------------------------------------------


def save_guarantee_report(path: "str | Path", report: GuaranteeReport) -> None:
    doc = {
        "n_trials": report.n_trials,
        "n_cal": report.n_cal,
        "seed": report.seed,
        "slack": report.slack,
        "resolution": report.resolution,
        "exchangeable": report.exchangeable,
        "pool_size": report.pool_size,
        "budget": asdict(report.budget),
        "per_criterion": {
            k: {
                "alpha": c.alpha,
                "mean_target_loss": c.mean_target_loss,
                "std_target_loss": c.std_target_loss,
                "mc_stderr": c.mc_stderr,
                "fallback_rate": c.fallback_rate,
                "gap": c.gap,
            }
            for k, c in report.per_criterion.items()
        },
        "mean_lambda_hat": report.mean_lambda_hat,
        "verdict": report.verdict,
        "notes": report.notes,
    }
    _dump_json(Path(path), doc)


def load_guarantee_report(path: "str | Path") -> GuaranteeReport:
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "guarantee report"):
        per = {
            k: CriterionCoverage(
                criterion=k,
                alpha=float(c["alpha"]),
                mean_target_loss=float(c["mean_target_loss"]),
                std_target_loss=float(c["std_target_loss"]),
                mc_stderr=float(c["mc_stderr"]),
                fallback_rate=float(c["fallback_rate"]),
            )
            for k, c in doc["per_criterion"].items()
        }
        return GuaranteeReport(
            n_trials=int(doc["n_trials"]),
            n_cal=int(doc["n_cal"]),
            seed=int(doc["seed"]),
            slack=float(doc["slack"]),
            resolution=float(doc["resolution"]),
            exchangeable=bool(doc["exchangeable"]),
            pool_size=int(doc["pool_size"]),
            budget=_budget_from_json(doc["budget"]),
            per_criterion=per,
            mean_lambda_hat=float(doc["mean_lambda_hat"]),
            verdict=str(doc["verdict"]),
            notes=list(doc["notes"]),
        )


# ---------------------------------------------------------------------------
# Evaluation report
# ---------------------------------------------------------------------------


def save_eval_report(path: "str | Path", report: EvalReport) -> None:
    doc = {
        "overall_accuracy": report.overall_accuracy,
        "worst_class_accuracy": report.worst_class_accuracy,
        "cca": report.cca,
        "per_class_accuracy": report.per_class_accuracy.tolist(),
        "nec": report.nec,
        "budget": asdict(report.budget),
        "n_samples": report.n_samples,
        "per_sample": [
            {
                "id": s.sample_id,
                "correct": s.correct,
                "dis_ok": s.dis_ok,
                "cov_ok": s.cov_ok,
                "div_ok": s.div_ok,
            }
            for s in report.per_sample
        ],
    }
    _dump_json(Path(path), doc)


def load_eval_report(path: "str | Path") -> EvalReport:
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "eval report"):
        per_sample = [
            SampleCompliance(
                sample_id=str(s["id"]),
                correct=bool(s["correct"]),
                dis_ok=bool(s["dis_ok"]),
                cov_ok=bool(s["cov_ok"]),
                div_ok=bool(s["div_ok"]),
            )
            for s in doc["per_sample"]
        ]
        return EvalReport(
            overall_accuracy=float(doc["overall_accuracy"]),
            worst_class_accuracy=float(doc["worst_class_accuracy"]),
            cca=float(doc["cca"]),
            per_class_accuracy=np.asarray(doc["per_class_accuracy"], dtype=np.float64),
            per_sample=per_sample,
            nec=int(doc["nec"]),
            budget=_budget_from_json(doc["budget"]),
            n_samples=int(doc["n_samples"]),
        )


# ---------------------------------------------------------------------------
# Tabular outputs
# ---------------------------------------------------------------------------


def save_training_log(path: "str | Path", log: Sequence[TrainLogRow]) -> None:
    lines = ["epoch,loss_concept,loss_task,regularizer,total"]
    for row in log:
        lines.append(
            f"{row.epoch},{row.loss_concept!r},{row.loss_task!r},"
            f"{row.regularizer!r},{row.total!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def save_per_sample_csv(path: "str | Path", report: EvalReport) -> None:
    lines = ["id,correct,dis_ok,cov_ok,div_ok"]
    for s in report.per_sample:
        lines.append(
            f"{s.sample_id},{int(s.correct)},{int(s.dis_ok)},"
            f"{int(s.cov_ok)},{int(s.div_ok)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_dat(path: "str | Path", columns: Sequence[str], rows) -> None:
    """Gnuplot-style whitespace table with a '#' header line."""
    lines = ["# " + " ".join(columns)]
    for row in rows:
        lines.append(" ".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
