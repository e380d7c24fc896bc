"""Independent checks of riskcbm's written artifacts.

Everything here is recomputed from the files a run writes and from the
definitions in PAPER.md, with numpy and the standard library only: no math
is taken from `riskcbm`. Each check returns a `Check`; a check that raises
while reading its inputs fails with the error as its detail.

Membership of a detection in the concept set at threshold ``lam`` is
``confidence >= 1 - lam``, decided exactly:

- on the uniform calibration grid (``lam = k / steps``) the confidence is
  read as the decimal it is written as, so two-decimal confidences are
  compared in integer hundredths against integer thousandths;
- at an exact-calibration breakpoint ``lam = 1 - t`` (a float computed by
  the program) a detection enters iff ``1 - confidence <= lam`` in floating
  point, which admits ``t`` itself and keeps the order of confidences.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal
from pathlib import Path

import numpy as np

CRITERIA = ("dis", "cov", "div")

# Risk curves are means of float losses computed along different paths;
# a concept entering or leaving one set moves a mean by far more than this.
CURVE_TOL = 1e-9

_PIXEL_MAGIC = b"ULT1"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _run(name: str, fn) -> Check:
    try:
        ok, detail = fn()
    except Exception as exc:  # a missing or malformed artifact fails its check
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    return Check(name, bool(ok), detail)


def read_json(path):
    return json.loads(Path(path).read_text())


def read_ndjson(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_pixels(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != _PIXEL_MAGIC:
        raise ValueError(f"{path}: bad pixel magic")
    h, w, c = struct.unpack("<III", blob[4:16])
    return np.frombuffer(blob, dtype="<f4", offset=16).reshape(h, w, c)


# ---------------------------------------------------------------------------
# Concept geometry and the three losses
# ---------------------------------------------------------------------------


class Catalog:
    """Concept embeddings from catalog.json, rows ordered by concept id."""

    def __init__(self, doc: dict) -> None:
        entries = sorted(
            (int(c["id"]), int(cls["label"]), c["embedding"])
            for cls in doc["classes"]
            for c in cls["concepts"]
        )
        self.ids = [e[0] for e in entries]
        self.row = {cid: i for i, cid in enumerate(self.ids)}
        self.label_of = {e[0]: e[1] for e in entries}
        mat = np.array([e[2] for e in entries], dtype=np.float64)
        self.unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        self.n_classes = len(doc["classes"])
        self.class_rows = {
            label: np.array([i for i, e in enumerate(entries) if e[1] == label])
            for label in range(self.n_classes)
        }
        self.pair_total = {}
        for label, rows in self.class_rows.items():
            phi = self.phi(rows, rows)
            self.pair_total[label] = float(np.triu(phi, k=1).sum())

    @classmethod
    def load(cls, path) -> "Catalog":
        return cls(read_json(path))

    def phi(self, rows_a, rows_b) -> np.ndarray:
        """Pairwise dissimilarity (1 - cos) / 2."""
        cos = np.clip(self.unit[rows_a] @ self.unit[rows_b].T, -1.0, 1.0)
        return (1.0 - cos) / 2.0

    def _sims(self, embedding) -> np.ndarray:
        x = np.asarray(embedding, dtype=np.float64)
        return 1.0 + np.clip(self.unit @ (x / np.linalg.norm(x)), -1.0, 1.0)

    def prefix_losses(self, embedding, label: int, rows) -> np.ndarray:
        """(3, p+1) losses of the nested sets rows[:0], rows[:1], ..., rows[:p].

        dis: 1 - selected similarity mass / competing-class mass.
        cov: mean over the class pool of the distance to the nearest member.
        div: 1 - the set's pairwise dissimilarity / the pool's.
        Empty sets score 1 everywhere; sets of one concept score div 1.
        """
        rows = np.asarray(rows, dtype=np.intp)
        p = len(rows)
        out = np.ones((3, p + 1))
        if p == 0:
            return out
        sims = self._sims(embedding)
        pool = self.class_rows[label]
        competing = sims.sum() - sims[pool].sum()
        out[0, 1:] = 1.0 - np.cumsum(sims[rows]) / competing
        out[1, 1:] = np.minimum.accumulate(self.phi(pool, rows), axis=1).mean(axis=0)
        pair = np.triu(self.phi(rows, rows), k=1).sum(axis=0)
        out[2, 2:] = 1.0 - np.cumsum(pair)[1:] / self.pair_total[label]
        return out

    def set_losses(self, embedding, label: int, rows) -> np.ndarray:
        """The three losses of one set (order of rows does not matter)."""
        return self.prefix_losses(embedding, label, rows)[:, -1]


# ---------------------------------------------------------------------------
# Threshold membership
# ---------------------------------------------------------------------------


class GridRule:
    """Membership on the grid lam = k / steps; keys are integer grid indices."""

    def __init__(self, resolution: float) -> None:
        self.steps = int(round(1.0 / resolution))

    def entry_key(self, confidence: float) -> int:
        """Smallest k with confidence >= 1 - k/steps, in exact decimal arithmetic."""
        need = self.steps - self.steps * Decimal(repr(float(confidence)))
        return int(need.to_integral_value(rounding=ROUND_CEILING))

    def lam_key(self, lam: float) -> int:
        k = int(round(lam * self.steps))
        if abs(k / self.steps - lam) > 1e-9:
            raise ValueError(f"lambda {lam!r} is not on the 1/{self.steps} grid")
        return k


class BreakpointRule:
    """Membership at float breakpoints lam = 1 - t; keys are 1 - confidence."""

    @staticmethod
    def entry_key(confidence: float) -> float:
        return 1.0 - float(confidence)

    @staticmethod
    def lam_key(lam: float) -> float:
        return float(lam)


def entry_order(detections, rule, catalog: Catalog):
    """Concept rows sorted by the key at which they enter, and those keys."""
    best: dict[int, object] = {}
    for det in detections:
        key = rule.entry_key(det["confidence"])
        cid = int(det["concept_id"])
        if cid not in best or key < best[cid]:
            best[cid] = key
    order = sorted(best.items(), key=lambda kv: (kv[1], kv[0]))
    return [catalog.row[c] for c, _ in order], [k for _, k in order]


def admitted_ids(detections, rule, lam: float) -> set[int]:
    lam_key = rule.lam_key(lam)
    return {
        int(d["concept_id"]) for d in detections if rule.entry_key(d["confidence"]) <= lam_key
    }


class RiskProfile:
    """Per-sample losses along lambda for a calibration set, under one rule."""

    def __init__(self, samples, catalog: Catalog, rule) -> None:
        self.losses = []
        self.keys = []
        for s in samples:
            rows, keys = entry_order(s["detections"], rule, catalog)
            self.losses.append(catalog.prefix_losses(s["embedding"], int(s["label"]), rows))
            self.keys.append(keys)

    def risks(self, lam_keys) -> np.ndarray:
        """(3, len(lam_keys)) mean loss of each criterion at each key."""
        total = np.zeros((3, len(lam_keys)))
        for losses, keys in zip(self.losses, self.keys):
            states = np.searchsorted(np.asarray(keys), lam_keys, side="right")
            total += losses[:, states]
        return total / len(self.losses)


# ---------------------------------------------------------------------------
# Pipeline checks
# ---------------------------------------------------------------------------


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _budget(alpha: float, n_cal: int) -> float:
    return alpha - (1.0 - alpha) / n_cal


class PipelineArtifacts:
    """Inputs and outputs of one `riskcbm pipeline` run, read once."""

    def __init__(self, inputs: Path, out: Path, config: dict) -> None:
        self.out = Path(out)
        self.config = config
        self.catalog = Catalog.load(Path(inputs) / "catalog.json")
        self.train = read_ndjson(Path(inputs) / "train.ndjson")
        self.test = read_ndjson(Path(inputs) / "test.ndjson")
        self.calibration = read_json(self.out / "calibration.json")
        self.vocab = [int(c["id"]) for c in read_json(self.out / "vocabulary.json")["concepts"]]
        self.rows = read_ndjson(self.out / "dataset_aug.ndjson")
        self.originals = [r for r in self.rows if r["provenance"]["kind"] == "original"]
        self.augmented = [r for r in self.rows if r["provenance"]["kind"] == "augmented"]
        original_ids = {r["id"] for r in self.originals}
        self.cal = [s for s in self.train if s["id"] not in original_ids]
        calib = config.get("calibration", {})
        self.grid_rule = GridRule(float(calib.get("resolution", 1e-3)))
        self.rule = BreakpointRule() if calib.get("exact", False) else self.grid_rule
        self.lambda_hat = float(self.calibration["lambda_hat"])
        self.alphas = {k: float(config["budget"][f"alpha_{k}"]) for k in CRITERIA}

    def admitted(self, detections) -> set[int]:
        return admitted_ids(detections, self.rule, self.lambda_hat)


def check_calibration(a: PipelineArtifacts) -> list[Check]:
    """Each criterion's threshold is the leftmost candidate within its corrected budget."""
    n_cal = len(a.cal)
    profile = RiskProfile(a.cal, a.catalog, a.rule)
    if isinstance(a.rule, GridRule):
        candidates = np.arange(a.rule.steps + 1)
    else:
        points = {0.0, 1.0}
        for s in a.cal:
            points.update(
                1.0 - float(d["confidence"])
                for d in s["detections"]
                if 0.0 <= 1.0 - float(d["confidence"]) <= 1.0
            )
        candidates = np.array(sorted(points))
    risks = profile.risks(candidates)
    checks = []
    for j, k in enumerate(CRITERIA):
        def one(j=j, k=k):
            if int(a.calibration["n_cal"]) != n_cal:
                return False, f"n_cal {a.calibration['n_cal']} != calibration split {n_cal}"
            budget = _budget(a.alphas[k], n_cal)
            lam = float(a.calibration[f"lambda_{k}"])
            where = np.flatnonzero(candidates == a.rule.lam_key(lam))
            if where.size != 1:
                return False, f"lambda_{k}={lam!r} is not a candidate"
            i = int(where[0])
            floor = risks[j, -1]
            detail = f"lambda={lam!r} risk={risks[j, i]!r} budget={budget!r} floor={floor!r}"
            if floor > budget:
                return False, "budget unattained (fallback to lambda=1): " + detail
            if risks[j, i] > budget:
                return False, "risk over budget: " + detail
            if i > 0 and risks[j, i - 1] <= budget:
                return False, "preceding candidate already within budget: " + detail
            return True, detail
        checks.append(_run(f"calibration.{k}", one))

    def lam_max():
        lams = [float(a.calibration[f"lambda_{k}"]) for k in CRITERIA]
        return a.lambda_hat == max(lams), f"lambda_hat={a.lambda_hat!r} per-criterion={lams}"
    checks.append(_run("calibration.lambda_hat", lam_max))
    return checks


def check_curves(a: PipelineArtifacts) -> list[Check]:
    """calibration.json risk curves equal the exact risk at every grid point."""
    rule = a.grid_rule
    keys = np.arange(rule.steps + 1)
    exact = RiskProfile(a.cal, a.catalog, rule).risks(keys)
    checks = []
    for j, k in enumerate(CRITERIA):
        def one(j=j, k=k):
            curve = a.calibration["curves"][k]
            grid = np.asarray(curve["grid"])
            if grid.shape != keys.shape or np.max(np.abs(grid - keys / rule.steps)) > 1e-12:
                return False, "grid is not the uniform calibration grid"
            diff = np.abs(np.asarray(curve["risks"]) - exact[j])
            bad = np.flatnonzero(diff > CURVE_TOL)
            detail = f"{bad.size} of {keys.size} grid points disagree"
            if bad.size:
                detail += f", first at lambda={float(grid[bad[0]])!r} (|diff| {diff[bad[0]]:.3g})"
            return bad.size == 0, detail
        checks.append(_run(f"curve.{k}", one))
    return checks


def check_labels(a: PipelineArtifacts) -> list[Check]:
    def vocabulary():
        union = set()
        for r in a.originals:
            union |= a.admitted(r["detections"])
        model_vocab = [int(c["id"]) for c in read_json(a.out / "model.json")["vocabulary"]]
        ok = sorted(union) == a.vocab == model_vocab
        return ok, f"{len(union)} admitted concepts, vocabulary has {len(a.vocab)}"

    def concept_vectors():
        bad = 0
        for r in a.originals:
            members = a.admitted(r["detections"])
            want = [int(c in members) for c in a.vocab]
            bad += want != list(r["concept_vector"])
        return bad == 0, f"{bad} of {len(a.originals)} original rows differ"

    def min_count():
        need = int(a.config.get("augmentation", {}).get("min_count", 10))
        counts = np.sum([r["concept_vector"] for r in a.rows], axis=0)
        short = [c for c, n in zip(a.vocab, counts) if n < need]
        return not short, f"{len(short)} concepts below min_count={need}: {short[:5]}"

    return [
        _run("vocabulary", vocabulary),
        _run("concept_vectors", concept_vectors),
        _run("min_count", min_count),
    ]


def check_augmentation(a: PipelineArtifacts) -> list[Check]:
    """Every augmented row against its target and source original rows."""
    by_id = {r["id"]: r for r in a.originals}
    vocab_index = {c: i for i, c in enumerate(a.vocab)}

    def target_of(row):
        return by_id[row["id"].rsplit("-aug-", 1)[0]]

    def label():
        bad = 0
        for row in a.augmented:
            cid = int(row["provenance"]["inserted_concept_id"])
            target = target_of(row)
            want = list(target["concept_vector"])
            want[vocab_index[cid]] = 1
            bad += not (
                row["label"] == a.catalog.label_of[cid] == target["label"]
                and row["concept_vector"] == want
                and row["embedding"] == target["embedding"]
                and row["detections"] == target["detections"]
            )
        return bad == 0, f"{bad} of {len(a.augmented)} augmented rows"

    def source():
        bad = 0
        for row in a.augmented:
            prov = row["provenance"]
            src = by_id.get(prov["source_id"])
            cid = int(prov["inserted_concept_id"])
            bad += not (
                src is not None
                and src["id"] != target_of(row)["id"]
                and any(int(d["concept_id"]) == cid for d in src["detections"]
                        if a.admitted([d]))
            )
        return bad == 0, f"{bad} of {len(a.augmented)} augmented rows"

    def placement():
        bad = 0
        for row in a.augmented:
            target = target_of(row)
            h, w = read_pixels(a.out / row["pixels_path"]).shape[:2]
            x1, y1, x2, y2 = row["provenance"]["placement"]
            cid = int(row["provenance"]["inserted_concept_id"])
            inside = 0 <= x1 < x2 <= w and 0 <= y1 < y2 <= h
            blocked = [
                d["box"] for d in target["detections"]
                if int(d["concept_id"]) != cid and a.admitted([d])
            ]
            clear = not any(
                x1 < bx2 and bx1 < x2 and y1 < by2 and by1 < y2
                for bx1, by1, bx2, by2 in blocked
            )
            bad += not (inside and clear)
        return bad == 0, f"{bad} of {len(a.augmented)} augmented rows"

    def pixels():
        bad = 0
        for row in a.augmented:
            got = read_pixels(a.out / row["pixels_path"]).view("<u4")
            want = read_pixels(a.out / target_of(row)["pixels_path"]).view("<u4")
            x1, y1, x2, y2 = (int(round(v)) for v in row["provenance"]["placement"])
            outside = np.ones(want.shape[:2], dtype=bool)
            outside[y1:y2, x1:x2] = False
            bad += got.shape != want.shape or not np.array_equal(got[outside], want[outside])
        return bad == 0, f"{bad} of {len(a.augmented)} augmented rows"

    def made():
        return len(a.augmented) > 0, f"{len(a.augmented)} augmented rows"

    return [
        _run("augment.rows", made),
        _run("augment.label", label),
        _run("augment.source", source),
        _run("augment.placement", placement),
        _run("augment.pixels", pixels),
    ]


def evaluate(a: PipelineArtifacts) -> dict:
    """Accuracy, worst-class accuracy and CCA recomputed from model.json."""
    model = read_json(a.out / "model.json")
    W = np.asarray(model["concept_weights"])
    b = np.asarray(model["concept_bias"])
    H = np.asarray(model["head_weights"])
    c = np.asarray(model["head_bias"])
    vocab = [int(v["id"]) for v in model["vocabulary"]]
    vocab_class = np.array([a.catalog.label_of[v] for v in vocab])
    nec = int(a.config.get("eval", {}).get("nec", 10))
    correct = np.zeros(a.catalog.n_classes, dtype=np.int64)
    totals = np.zeros(a.catalog.n_classes, dtype=np.int64)
    compliant = 0
    for s in a.test:
        z = np.asarray(s["embedding"], dtype=np.float64)
        act = _sigmoid(W @ z + b)
        pred = int(np.argmax(H @ act + c))
        label = int(s["label"])
        totals[label] += 1
        correct[label] += pred == label
        if pred != label:
            continue
        members = sorted(np.flatnonzero(vocab_class == pred), key=lambda i: (-act[i], i))[:nec]
        rows = [a.catalog.row[vocab[i]] for i in members]
        losses = a.catalog.set_losses(z, label, rows)
        compliant += all(losses[j] <= a.alphas[k] for j, k in enumerate(CRITERIA))
    per_class = correct / totals
    return {
        "overall_accuracy": float(correct.sum()) / float(totals.sum()),
        "worst_class_accuracy": float(per_class.min()),
        "cca": compliant / len(a.test),
    }


def check_evaluation(a: PipelineArtifacts) -> list[Check]:
    report = read_json(a.out / "eval_report.json")
    mine = evaluate(a)
    checks = []
    for key, name in (
        ("overall_accuracy", "eval.accuracy"),
        ("worst_class_accuracy", "eval.worst_class"),
        ("cca", "eval.cca"),
    ):
        def one(key=key):
            return mine[key] == report[key], f"report {report[key]!r}, recomputed {mine[key]!r}"
        checks.append(_run(name, one))
    checks.append(_run("eval.cca_nonzero", lambda: (report["cca"] > 0, f"cca={report['cca']!r}")))
    return checks


def check_training(out: Path) -> Check:
    def converged():
        with open(Path(out) / "training_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        first, last = float(rows[0]["total"]), float(rows[-1]["total"])
        return last < first, f"objective {first!r} at epoch 0, {last!r} at epoch {rows[-1]['epoch']}"
    return _run("training.converged", converged)


def check_pipeline(inputs, out, config: dict, *, augmentation: bool) -> list[Check]:
    """All output checks of one pipeline run, in a fixed order."""
    try:
        a = PipelineArtifacts(Path(inputs), Path(out), config)
    except Exception as exc:
        return [Check("artifacts", False, f"{type(exc).__name__}: {exc}")]
    checks = check_calibration(a) + check_curves(a) + check_labels(a)
    if augmentation:
        checks += check_augmentation(a)
    return checks + check_evaluation(a) + [check_training(out)]


# ---------------------------------------------------------------------------
# crc-check
# ---------------------------------------------------------------------------


def check_guarantee(report_path, slack: float) -> list[Check]:
    """Verdict pass, each mean target loss within alpha + slack, no fallback."""
    doc = read_json(report_path)
    checks = [_run("crc.verdict", lambda: (doc["verdict"] == "pass", doc["verdict"]))]
    for k in CRITERIA:
        def one(k=k):
            c = doc["per_criterion"][k]
            ok = c["mean_target_loss"] <= c["alpha"] + slack and doc["slack"] == slack
            return ok, f"mean target loss {c['mean_target_loss']!r}, alpha {c['alpha']!r}"
        checks.append(_run(f"crc.target_loss.{k}", one))

    def fallback():
        rates = {k: doc["per_criterion"][k]["fallback_rate"] for k in CRITERIA}
        return all(r == 0 for r in rates.values()), f"fallback rates {rates}"
    checks.append(_run("crc.fallback", fallback))
    return checks
