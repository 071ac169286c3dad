"""EEG motor-imagery intention recognition from spatio-temporal representations.

The package covers the full pipeline: electrode-mesh transform and masked
normalization, 50%-overlap windowing, cascade and parallel convolutional-
recurrent architectures with four fusion strategies, CNN/RNN baselines, a
self-contained reverse-mode autodiff engine with Adam, and desk-scale
verification via finite-difference gradient checks and synthetic datasets.
"""

from .autodiff import Tensor, backward, softmax_cross_entropy
from .dataset import (
    DatasetManifest,
    PreparedDataset,
    Recording,
    load_prepared,
    prepare_dataset,
    save_prepared,
)
from .gradcheck import finite_diff_check, run_checks
from .layout import from_mesh, to_mesh, zscore_mesh
from .models import (
    ModelConfig,
    ModelParams,
    canonical_config,
    fuse,
    param_init,
)
from .optim import AdamState, adam_step, init_adam
from .synth import SynthSpec, default_spec, synth_dataset
from .training import Metrics, TrainConfig, evaluate, load_checkpoint, predict, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "DatasetManifest",
    "Metrics",
    "ModelConfig",
    "ModelParams",
    "PreparedDataset",
    "Recording",
    "SynthSpec",
    "Tensor",
    "TrainConfig",
    "adam_step",
    "backward",
    "canonical_config",
    "default_spec",
    "evaluate",
    "finite_diff_check",
    "from_mesh",
    "fuse",
    "init_adam",
    "load_checkpoint",
    "load_prepared",
    "param_init",
    "predict",
    "prepare_dataset",
    "run_checks",
    "save_checkpoint",
    "save_prepared",
    "softmax_cross_entropy",
    "synth_dataset",
    "to_mesh",
    "train",
    "zscore_mesh",
]
