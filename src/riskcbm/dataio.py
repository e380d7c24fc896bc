"""File formats: NDJSON datasets, JSON artifacts, and the binary pixel tensor.

All JSON is emitted with sorted keys and repr-exact floats, so every artifact
round-trips to identical values and reruns with identical seeds produce
byte-identical files. Pixel tensors use a tiny headered binary format instead
of an image codec to keep augmentation bit-exact.

Every file is written through `_write`, which writes over an existing file in
place and then cuts it to length, instead of truncating it first.
"""

from __future__ import annotations

import functools
import json
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Callable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .calibration import CalibrationResult, GuaranteeReport
from .cbm_trainer import CbmModel, TrainConfig, TrainLogRow
from .core import (
    AnnotatedSample,
    BoundingBox,
    ConceptCatalog,
    ConceptId,
    DataError,
    Detection,
    sample_id_problems,
    validate_dataset,
)
from .dataset_builder import (
    ConceptLabeledSample,
    ConceptVocabulary,
    Provenance,
)
from .evaluation import EvalReport

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


def _write(path: "str | Path", data: "str | bytes") -> None:
    """Make ``path`` hold exactly ``data``, a `str` encoded as UTF-8.

    An existing file is written over in place and then cut to the bytes
    written: truncating it first makes the file system free its blocks only
    to allocate them again. The mode of a new file is that of
    ``open(path, "wb")``. If a write fails the file is still cut to the
    bytes written, so it never holds new bytes followed by the old tail."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    view = memoryview(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(view):
            written += os.write(fd, view[written:])
    finally:
        try:
            os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _dump_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8: {exc}") from None


def _load_json(path: Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None


def _is_a(value, kind: type) -> bool:
    """JSON typing: an int is also a float, a bool is neither."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _as(kind: type, value):
    """``value`` as a ``kind``; a TypeError if JSON typing says it is not one."""
    if not _is_a(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


def _as_array(kind: type, value, dtype: type = np.float64) -> np.ndarray:
    """A JSON list of ``kind`` items, or a list of such lists, as an array of
    ``dtype``; a TypeError if JSON typing says an item is not a ``kind``.
    The rule is `_is_a`'s, checked on the set of item types of each list, so
    a list costs a few calls, not one per item."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    types = set(map(type, value))
    if types == {list}:
        types = set().union(*(map(type, row) for row in value))
    wrong = types - ({int, float} if kind is float else {kind})
    if wrong:
        names = ", ".join(sorted(t.__name__ for t in wrong))
        raise TypeError(f"expected {kind.__name__} items, got {names}")
    return np.asarray(value, dtype=dtype)


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
    arr = np.ascontiguousarray(pixels, dtype="<f4")
    if arr.ndim != 3:
        raise DataError(f"pixels must be 3-D, got shape {arr.shape}")
    _write(path, _PIXEL_MAGIC + struct.pack("<III", *arr.shape) + arr.tobytes())


def load_pixels(path: "str | Path") -> np.ndarray:
    """Read a pixel tensor; a file whose header is not one is rejected
    before the rest of it is read."""
    path = Path(path)
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16 or header[:4] != _PIXEL_MAGIC:
            raise DataFormatError(f"{path}: bad pixel tensor magic")
        body = f.read()
    h, w, c = struct.unpack("<III", header[4:])
    expected = 16 + h * w * c * 4
    if 16 + len(body) != expected:
        raise DataFormatError(
            f"{path}: truncated pixel tensor ({16 + len(body)} bytes, expected {expected})"
        )
    arr = np.frombuffer(body, dtype="<f4").reshape(h, w, c).copy()
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
    """Parse a catalog file: each class listed once, with at least one
    concept. Its concepts may be listed in any order; the catalog holds them
    in id order."""
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "catalog"):
        rows: list[tuple[ConceptId, np.ndarray]] = []
        labels: set[int] = set()
        for entry in doc["classes"]:
            label = _as(int, entry["label"])
            if label in labels:
                raise DataError(f"class {label} listed twice")
            labels.add(label)
            if not entry["concepts"]:
                raise DataError(f"class {label} has no concepts")
            for c in entry["concepts"]:
                concept = ConceptId(
                    id=_as(int, c["id"]), text=_as(str, c["text"]), class_of_origin=label
                )
                rows.append((concept, _as_array(float, c["embedding"])))
        rows.sort(key=lambda row: row[0].id)
        return ConceptCatalog([c for c, _ in rows], [vec for _, vec in rows])


# ---------------------------------------------------------------------------
# Annotated samples (NDJSON, one object per line)
# ---------------------------------------------------------------------------


def _box_to_list(box: BoundingBox) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


def _box_from_json(value) -> BoundingBox:
    x1, y1, x2, y2 = (_as(float, v) for v in value)
    return BoundingBox(x1, y1, x2, y2)


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
        cid = _as(int, entry["concept_id"])
        concept = concept_by_id.get(cid)
        if concept is None:
            raise DataError(f"unknown concept id {cid}")
        out.append(
            Detection(
                box=_box_from_json(entry["box"]),
                confidence=_as(float, entry["confidence"]),
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
    directory, one file per sample id, and any other tensor there, which an
    earlier save of this file left, is removed. A repeated id, or one that
    is not a plain file name, raises `DataError` before anything is written."""
    path = Path(path)
    problems = sample_id_problems(sample.sample_id for sample in samples)
    if problems:
        raise DataError(f"{path}: {problems[0]}")
    pixels_dir = _pixels_dir(path)
    if any(sample.image_pixels is not None for sample in samples):
        pixels_dir.mkdir(parents=True, exist_ok=True)
    lines, tensors = [], set()
    for sample in samples:
        record = {
            "id": sample.sample_id,
            "label": int(sample.label),
            "embedding": sample.image_embedding.tolist(),
            "detections": _detections_to_json(sample.detections),
            **extra_fields(sample),
        }
        if sample.image_pixels is not None:
            name = f"{sample.sample_id}.ult1"
            save_pixels(pixels_dir / name, sample.image_pixels)
            record["pixels_path"] = f"{pixels_dir.name}/{name}"
            tensors.add(name)
        lines.append(json.dumps(record, sort_keys=True))
    _write(path, "\n".join(lines) + ("\n" if lines else ""))
    _remove_stale_tensors(pixels_dir, tensors)


def _remove_stale_tensors(pixels_dir: Path, keep: set) -> None:
    """Remove each `.ult1` file in ``pixels_dir`` whose name is not in
    ``keep``; every other file is left alone. With nothing to keep, the
    directory goes too if that leaves it empty, as a fresh save would have
    made none."""
    try:
        entries = os.scandir(pixels_dir)
    except FileNotFoundError:
        return
    with entries:
        for entry in entries:
            if entry.name.endswith(".ult1") and entry.name not in keep and entry.is_file():
                os.unlink(entry.path)
    if not keep:
        with suppress(OSError):
            pixels_dir.rmdir()


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
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
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
            if "pixels_path" in record:
                relative = Path(_as(str, record["pixels_path"]))
                if relative.is_absolute() or ".." in relative.parts:
                    raise DataFormatError(
                        f"{where}: pixels_path {record['pixels_path']!r} is not "
                        "relative to the dataset file, or has a '..' part"
                    )
                pixels_path = path.parent / relative
                try:
                    pixels = load_pixels(pixels_path)
                except OSError as exc:
                    raise DataFormatError(
                        f"{where}: cannot read pixel tensor {pixels_path}: {exc.strerror}"
                    ) from None
                except DataFormatError as exc:
                    raise DataFormatError(f"{where}: {exc}") from None
            common = dict(
                sample_id=_as(str, record["id"]),
                label=_as(int, record["label"]),
                image_embedding=_as_array(float, record["embedding"]),
                detections=_detections_from_json(
                    _as(list, record.get("detections", [])), concept_by_id
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
        prov["placement"] = _box_to_list(sample.provenance.placement)
    return {"concept_vector": sample.concept_vector.tolist(), "provenance": prov}


def _labeled_sample(record, common, concept_by_id) -> ConceptLabeledSample:
    prov_doc = record["provenance"]
    if prov_doc["kind"] == "augmented":
        inserted = concept_by_id.get(_as(int, prov_doc["inserted_concept_id"]))
        if inserted is None:
            raise DataError(
                f"unknown inserted concept id {prov_doc['inserted_concept_id']}"
            )
        provenance = Provenance(
            kind="augmented",
            source_id=_as(str, prov_doc["source_id"]),
            inserted_concept=inserted,
            placement=_box_from_json(prov_doc["placement"]),
        )
    else:
        provenance = Provenance(kind=prov_doc["kind"])
    return ConceptLabeledSample(
        **common,
        concept_vector=_as_array(int, record["concept_vector"], np.uint8),
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
# JSON artifacts: each file holds its dataclass's `init` fields, nested
# dataclasses as objects and arrays as lists. The `save_*`/`load_*` pairs
# state only where a file differs from its dataclass.
# ---------------------------------------------------------------------------


@functools.cache
def _init_fields(cls) -> tuple[tuple[str, object], ...]:
    """The name and resolved type of each `init` field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls) if f.init)


def _record(obj):
    """A dataclass as a dict of its `init` fields, recursing into nested
    dataclasses, dicts, lists and tuples; arrays become lists."""
    if isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _record(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_record(v) for v in obj]
    return {name: _record(getattr(obj, name)) for name, _ in _init_fields(type(obj))}


@functools.cache
def _reader(kind) -> Callable:
    """The function that builds a value of type ``kind`` from its record.
    Every field of a dataclass is required, and keys that name no field are
    ignored. A scalar or array item of another JSON type raises a
    TypeError."""
    if kind in (float, int, str, bool):
        return functools.partial(_as, kind)
    if kind is np.ndarray:
        return functools.partial(_as_array, float)
    if is_dataclass(kind):
        readers = [(name, _reader(hint)) for name, hint in _init_fields(kind)]
        return lambda value: kind(**{name: read(value[name]) for name, read in readers})
    origin, args = get_origin(kind), get_args(kind)
    if origin is dict:
        read_key, read_value = _reader(args[0]), _reader(args[1])
        return lambda value: {read_key(k): read_value(v) for k, v in value.items()}
    if origin in (list, tuple):
        read_item = _reader(args[0])
        return lambda value: origin(map(read_item, value))
    raise TypeError(f"no record form for {kind!r}")


def _from_record(kind, value):
    """The inverse of `_record`: a value of type ``kind`` from its record."""
    return _reader(kind)(value)


def _keyed(records: dict, key: str) -> None:
    """Put each entry's dict key back as its ``key`` field, which a file
    keyed by that field leaves out."""
    for name, record in records.items():
        record[key] = name


def save_vocabulary(path: "str | Path", vocab: ConceptVocabulary) -> None:
    _dump_json(Path(path), _record(vocab))


def load_vocabulary(path: "str | Path") -> ConceptVocabulary:
    doc = _load_json(Path(path))
    with _parsing(path, "vocabulary"):
        return _from_record(ConceptVocabulary, doc)


def save_model(
    path: "str | Path",
    model: CbmModel,
    vocab: ConceptVocabulary,
    config: TrainConfig,
) -> None:
    """One flat object: the parameters, their shapes, the vocabulary's
    concepts as `vocabulary` and its `lambda_hat` and `budget`, and the
    training config."""
    vocab_doc = _record(vocab)
    doc = {
        **_record(model),
        "embedding_dim": model.embedding_dim,
        "num_concepts": model.num_concepts,
        "num_classes": model.num_classes,
        "vocabulary": vocab_doc.pop("concepts"),
        **vocab_doc,
        "config": _record(config),
    }
    _dump_json(Path(path), doc)


def load_model(path: "str | Path") -> tuple[CbmModel, ConceptVocabulary, TrainConfig]:
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "model checkpoint"):
        model = _from_record(CbmModel, doc).freeze()
        vocab = _from_record(ConceptVocabulary, {**doc, "concepts": doc["vocabulary"]})
        config = _from_record(TrainConfig, doc["config"])
    if model.num_concepts != len(vocab):
        raise DataError(
            f"{path}: checkpoint bottleneck width {model.num_concepts} "
            f"does not match vocabulary size {len(vocab)}"
        )
    return model, vocab, config


def save_calibration(path: "str | Path", result: CalibrationResult) -> None:
    """`curves` is keyed by criterion."""
    doc = _record(result)
    for curve in doc["curves"].values():
        del curve["criterion"]
    _dump_json(Path(path), doc)


def load_calibration(path: "str | Path") -> CalibrationResult:
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "calibration result"):
        _keyed(doc["curves"], "criterion")
        return _from_record(CalibrationResult, doc)


def save_guarantee_report(path: "str | Path", report: GuaranteeReport) -> None:
    """`per_criterion` is keyed by criterion and adds each criterion's `gap`."""
    doc = _record(report)
    for k, entry in doc["per_criterion"].items():
        del entry["criterion"]
        entry["gap"] = report.per_criterion[k].gap
    _dump_json(Path(path), doc)


def load_guarantee_report(path: "str | Path") -> GuaranteeReport:
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "guarantee report"):
        _keyed(doc["per_criterion"], "criterion")
        return _from_record(GuaranteeReport, doc)


def save_eval_report(path: "str | Path", report: EvalReport) -> None:
    """Each `per_sample` record names its sample `id`."""
    doc = _record(report)
    for sample in doc["per_sample"]:
        sample["id"] = sample.pop("sample_id")
    _dump_json(Path(path), doc)


def load_eval_report(path: "str | Path") -> EvalReport:
    path = Path(path)
    doc = _load_json(path)
    with _parsing(path, "eval report"):
        for sample in doc["per_sample"]:
            sample["sample_id"] = sample.pop("id")
        return _from_record(EvalReport, doc)


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
    _write(path, "\n".join(lines) + "\n")


def _csv_field(text: str) -> str:
    """``text`` as one CSV field (RFC 4180): quoted, its quotes doubled, when
    it holds a comma, a quote or a line break. `csv.writer` leaves a lone
    carriage return unquoted when its line terminator is a newline."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def save_per_sample_csv(path: "str | Path", report: EvalReport) -> None:
    lines = ["id,correct,dis_ok,cov_ok,div_ok"]
    for s in report.per_sample:
        lines.append(
            f"{_csv_field(s.sample_id)},{int(s.correct)},{int(s.dis_ok)},"
            f"{int(s.cov_ok)},{int(s.div_ok)}"
        )
    _write(path, "\n".join(lines) + "\n")


def write_dat(path: "str | Path", columns: Sequence[str], rows) -> None:
    """Gnuplot-style whitespace table with a '#' header line."""
    lines = ["# " + " ".join(columns)]
    for row in rows:
        lines.append(" ".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _write(path, "\n".join(lines) + "\n")
