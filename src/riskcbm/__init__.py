"""Risk-controlled concept annotation, augmentation, and bottleneck training.

The toolkit builds concept sets whose discriminability, coverage, and
diversity losses carry distribution-free risk guarantees, synthesizes
training positives for sparse reliable concepts, trains a linear
concept-bottleneck classifier, and evaluates it with concept-compliance
metrics.
"""

from .calibration import (
    CalibrationResult,
    ExchangeablePool,
    GuaranteeReport,
    RiskBudget,
    RiskCurve,
    calibrate,
    calibrate_criterion,
    empirical_risk,
    validate_guarantee,
)
from .cbm_trainer import (
    Batch,
    CbmModel,
    TrainConfig,
    TrainingDivergedError,
    forward,
    gradient_check,
    loss_concept,
    loss_task,
    make_batch,
    objective,
    regularizer,
    train,
)
from .concept_sets import (
    CRITERIA,
    ConceptSet,
    build_concept_set,
    coverage_loss,
    discriminability_loss,
    diversity_loss,
    set_size,
)
from .core import (
    AnnotatedSample,
    BoundingBox,
    ConceptCatalog,
    ConceptId,
    DataError,
    Detection,
    NumericError,
    make_embedding,
    make_pixels,
    validate_dataset,
)
from .dataset_builder import (
    AugmentationConfig,
    ConceptLabeledSample,
    ConceptVocabulary,
    Provenance,
    augment_dataset,
    build_vocabulary,
    composite_patch,
    find_sparse_concepts,
    label_sample,
    sample_placement,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    accuracy_report,
    effective_concept_set,
    predict,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline, split_train_cal
from .synth import SynthSpec, generate_synthetic

__version__ = "0.1.0"
