"""Batch-based recurrent activity classification for photo-stream day sequences."""

from .batching import BatchPlan, batch_plan, sliding_plan
from .datamodel import (
    Dataset,
    DayLabels,
    DaySequence,
    LabelSet,
    Manifest,
    SynthConfig,
    category_distribution,
    generate_synthetic,
    load_dataset,
    read_labels_file,
    read_manifest,
    read_sequence_file,
    write_labels_file,
    write_manifest,
    write_sequence_file,
)
from .errors import (
    ConfigError,
    DataError,
    EgoBatchError,
    FormatError,
    NumericError,
    PackingError,
    SequencingError,
    ShapeError,
)
from .evaluation import (
    MetricsReport,
    confusion_from_timelines,
    macro_report,
    normalize_confusion,
)
from .models import (
    LayerStack,
    PredictionTimeline,
    build_baseline,
    build_piggyback,
    build_sliding,
    build_stack,
    model_from_params,
    predict_baseline,
    predict_piggyback_sequence,
    predict_sequence,
    predict_sliding_sequence,
    read_timelines_json,
    write_timelines_json,
)
from .nnet import (
    DenseLayer,
    GradCheckReport,
    LstmLayer,
    LstmState,
    OptimizerState,
    backprop_window,
    grad_check,
    read_checkpoint,
    run_window,
    sgd_update,
    softmax,
    write_checkpoint,
)
from .splitter import Bin, SplitResult, bhattacharyya, combinations, ffd_pack, select_split
from .training import (
    TrainConfig,
    TrainReport,
    TrainResult,
    train_baseline,
    train_piggyback,
    train_sliding,
)

__version__ = "0.1.0"
