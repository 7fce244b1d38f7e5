"""Isolated-sign window classification and continuous-stream boundary
decoding over hand keypoints."""

from .errors import (
    ConfigError,
    DegenerateFrameError,
    HandCountError,
    KeypointParseError,
    NonFiniteGradientError,
    ShapeError,
    SignsegError,
    StreamTooShortError,
    WeightsFormatError,
    WeightsMagicError,
    WeightsTruncationError,
    WeightsVersionError,
)
from .gradients import backward, gradient_check, relative_error
from .keypoints import (
    ContinuousStream,
    IsolatedSample,
    build_streams,
    concat_isolated,
    load_isolated_dataset,
    load_stream_features,
    normalize_frame,
    parse_keypoint_file,
    resample_sequence,
)
from .model import (
    LayerWeights,
    ModelConfig,
    ModelWeights,
    attention_weights,
    encoder_forward,
    forward_probs,
    init_weights,
    softmax,
)
from .runconfig import RunConfig, load_config
from .segmentation import (
    DecodedLabel,
    SegmentReport,
    WindowProb,
    count_false,
    edit_distance,
    post_process,
    segment_report,
    slide,
    window_probs,
)
from .serialize import load_weights, load_weights_file, save_weights, save_weights_file
from .synthgen import (
    ClassPrototype,
    make_class_prototype,
    make_dataset,
    prototype_trajectory,
    sample_instance,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainHistory,
    ablate,
    ablation_to_csv,
    adam_step,
    carve_validation,
    evaluate_isolated,
    history_to_csv,
    lr_at_epoch,
    split_dataset,
    train,
)

__version__ = "0.1.0"
