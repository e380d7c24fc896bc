"""Domain type construction and dataset validation."""

import numpy as np
import pytest

from conftest import make_catalog, make_sample
from riskcbm.core import (
    AnnotatedSample,
    BoundingBox,
    ConceptCatalog,
    ConceptId,
    DataError,
    Detection,
    make_embedding,
    make_pixels,
    validate_dataset,
)


class TestConstruction:
    def test_embedding_is_frozen_float64(self):
        emb = make_embedding([1, 2, 3])
        assert emb.dtype == np.float64
        with pytest.raises(ValueError):
            emb[0] = 5.0

    def test_embedding_rejects_nonfinite(self):
        with pytest.raises(DataError):
            make_embedding([1.0, np.inf])
        with pytest.raises(DataError):
            make_embedding([[1.0, 2.0]])

    def test_pixels_shape_checked(self):
        with pytest.raises(DataError):
            make_pixels(np.zeros((4, 4)))
        arr = make_pixels(np.zeros((4, 4, 3)))
        assert arr.dtype == np.float32

    @pytest.mark.parametrize("make, dtype, shape", [
        (make_embedding, np.float64, (3,)),
        (make_pixels, np.float32, (2, 2, 3)),
    ])
    def test_only_a_frozen_array_owning_its_data_is_not_copied(self, make, dtype, shape):
        frozen = make(np.ones(shape, dtype=dtype))
        assert make(frozen) is frozen
        writable = np.ones(shape, dtype=dtype)
        view = np.ones((2, *shape), dtype=dtype)[0]
        view.setflags(write=False)
        other_dtype = np.ones(shape, dtype=np.float16)
        other_dtype.setflags(write=False)
        for values in (writable, view, other_dtype):
            arr = make(values)
            assert arr is not values and not np.shares_memory(arr, values)
            assert arr.dtype == dtype and not arr.flags.writeable

    def test_concept_text_nonempty(self):
        with pytest.raises(DataError):
            ConceptId(id=1, text="", class_of_origin=0)

    def test_box_geometry(self):
        box = BoundingBox(0, 0, 4, 4)
        assert box.width == 4 and box.height == 4 and box.area == 16
        assert box.overlaps(BoundingBox(3, 3, 6, 6))
        # touching edges is not overlap
        assert not box.overlaps(BoundingBox(4, 0, 8, 4))
        assert not box.overlaps(BoundingBox(0, 4, 4, 8))

    def test_catalog_requires_contiguous_classes(self):
        with pytest.raises(DataError, match="contiguous from 0, got \\[1\\]"):
            ConceptCatalog([ConceptId(0, "a", 1)], [np.ones(2)])

    def test_catalog_rejects_duplicate_ids(self):
        a = ConceptId(0, "a", 0)
        b = ConceptId(0, "b", 1)
        with pytest.raises(DataError, match="unique and increasing, got 0 after 0"):
            ConceptCatalog([a, b], np.ones((2, 2)))
        with pytest.raises(DataError, match="unique and increasing, got 0 after 1"):
            ConceptCatalog([ConceptId(1, "b", 0), ConceptId(0, "a", 0)], np.ones((2, 2)))

    def test_catalog_requires_embedding_for_every_concept(self):
        a = ConceptId(0, "a", 0)
        b = ConceptId(1, "b", 1)
        with pytest.raises(DataError, match="2 concepts but 1 embeddings"):
            ConceptCatalog([a, b], np.ones((1, 2)))

    def test_catalog_rejects_mixed_dimensions(self):
        a = ConceptId(0, "a", 0)
        b = ConceptId(1, "b", 1)
        with pytest.raises(DataError, match=r"concept 1 \('b'\): embedding dimension 3 != 2"):
            ConceptCatalog([a, b], [np.ones(2), np.ones(3)])

    @pytest.mark.parametrize(
        "row, problem", [([0.0, 0.0], "zero embedding"), ([1.0, np.nan], "non-finite")]
    )
    def test_catalog_rejects_an_unusable_embedding(self, row, problem):
        a = ConceptId(0, "a", 0)
        b = ConceptId(1, "b", 1)
        with pytest.raises(DataError, match=rf"concept 1 \('b'\): .*{problem}"):
            ConceptCatalog([a, b], [[1.0, 0.0], row])

    def test_catalog_is_one_read_only_table(self):
        catalog = make_catalog({0: [[1, 0], [0, 1]], 1: [[-1, 0]]})
        assert catalog.embeddings.shape == (3, 2)
        assert catalog.embedding_dim == 2
        assert not catalog.embeddings.flags.writeable
        for i, c in enumerate(catalog.concepts):
            assert c.id == i
            assert np.array_equal(catalog.embedding_of(c), catalog.embeddings[i])
            assert c in catalog.concepts_for(c.class_of_origin)
        assert catalog.all_concepts() == catalog.concepts
        assert catalog.rows_of(catalog.concepts_for(1)).tolist() == [2]

    def test_sample_freezes_payloads(self):
        s = AnnotatedSample("s", 0, [1.0, 0.0], (), np.zeros((4, 4, 3)))
        with pytest.raises(ValueError):
            s.image_pixels[0, 0, 0] = 1.0


class TestValidateDataset:
    def _catalog(self):
        return make_catalog({0: [[1, 0], [0, 1]], 1: [[-1, 0]]})

    def test_well_formed_dataset_is_clean(self):
        catalog = self._catalog()
        c0, c1 = catalog.concepts_for(0)
        samples = [
            make_sample("a", 0, [1.0, 0.0], [(c0, 0.9)]),
            make_sample("b", 0, [0.5, 0.5], [(c0, 0.4), (c1, 0.6)]),
            make_sample("c", 1, [-1.0, 0.2], [(catalog.concepts_for(1)[0], 0.7)]),
        ]
        assert validate_dataset(samples, catalog) == []

    def test_confidence_out_of_range(self):
        catalog = self._catalog()
        c0 = catalog.concepts_for(0)[0]
        sample = make_sample("a", 0, [1.0, 0.0], [(c0, 1.2)])
        report = validate_dataset([sample], catalog)
        assert len(report) == 1
        assert "confidence out of [0,1]" in report[0]

    def test_degenerate_box(self):
        catalog = self._catalog()
        c0 = catalog.concepts_for(0)[0]
        det = Detection(box=BoundingBox(5, 1, 5, 8), confidence=0.5, concept=c0)
        sample = AnnotatedSample("a", 0, [1.0, 0.0], [det])
        report = validate_dataset([sample], catalog)
        assert len(report) == 1
        assert "degenerate box" in report[0]

    def test_unknown_concept_and_wrong_class(self):
        catalog = self._catalog()
        stranger = ConceptId(99, "ghost", 0)
        c1 = catalog.concepts_for(1)[0]
        samples = [
            make_sample("a", 0, [1.0, 0.0], [(stranger, 0.5)]),
            make_sample("b", 0, [1.0, 0.0], [(c1, 0.5)]),
        ]
        report = validate_dataset(samples, catalog)
        assert any("unknown concept" in p for p in report)
        assert any("not in class 0 candidate set" in p for p in report)

    def test_unknown_label_and_dimension_mismatch(self):
        catalog = self._catalog()
        samples = [
            make_sample("a", 7, [1.0, 0.0], []),
            make_sample("b", 0, [1.0, 0.0, 0.0], []),
        ]
        report = validate_dataset(samples, catalog)
        assert any("unknown class label 7" in p for p in report)
        assert any("dimension mismatch" in p for p in report)

    def test_box_outside_pixels_and_pixel_range(self):
        catalog = self._catalog()
        c0 = catalog.concepts_for(0)[0]
        pixels = np.zeros((8, 8, 3), dtype=np.float32)
        det = Detection(box=BoundingBox(0, 0, 9, 4), confidence=0.5, concept=c0)
        sample = AnnotatedSample("a", 0, [1.0, 0.0], [det], pixels)
        report = validate_dataset([sample], catalog)
        assert any("box outside image bounds" in p for p in report)

        bad = np.full((4, 4, 3), 1.5, dtype=np.float32)
        sample2 = AnnotatedSample("b", 0, [1.0, 0.0], [], bad)
        report2 = validate_dataset([sample2], catalog)
        assert any("pixels outside [0,1]" in p for p in report2)

    def test_idempotent_and_side_effect_free(self):
        catalog = self._catalog()
        c0 = catalog.concepts_for(0)[0]
        sample = make_sample("a", 0, [1.0, 0.0], [(c0, 1.5)])
        first = validate_dataset([sample], catalog)
        second = validate_dataset([sample], catalog)
        assert first == second
        assert sample.detections[0].confidence == 1.5

    @pytest.mark.parametrize(
        "bad_id", ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b"],
        ids=["empty", "dot", "dotdot", "escaping", "slash", "backslash", "nul"],
    )
    def test_id_that_is_not_a_plain_file_name(self, bad_id):
        """Pixel tensors are written to files named by sample id."""
        catalog = self._catalog()
        samples = [make_sample("a", 0, [1.0, 0.0], []), make_sample(bad_id, 0, [1.0, 0.0], [])]
        assert validate_dataset(samples, catalog) == [
            f"sample {bad_id!r}: id is not a plain file name"
        ]

    def test_repeated_id(self):
        catalog = self._catalog()
        samples = [make_sample(i, 0, [1.0, 0.0], []) for i in ("c0-s0", "c0-s1", "c0-s0")]
        assert validate_dataset(samples, catalog) == ["sample 'c0-s0': repeated id"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("coordinate", ["x1", "y1", "x2", "y2"])
    def test_non_finite_box_coordinate(self, coordinate, value):
        """Without pixels no bounds check applies, and NaN fails no comparison."""
        catalog = self._catalog()
        c0 = catalog.concepts_for(0)[0]
        corners = {"x1": 1.0, "y1": 1.0, "x2": 4.0, "y2": 4.0, coordinate: value}
        det = Detection(box=BoundingBox(**corners), confidence=0.5, concept=c0)
        sample = AnnotatedSample("a", 0, [1.0, 0.0], [det])
        report = validate_dataset([sample], catalog)
        assert len(report) == 1, report
        assert report[0].startswith("sample a: detection 0 ('")
        assert "non-finite box coordinate" in report[0]
