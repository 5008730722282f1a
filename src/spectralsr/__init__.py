"""Spectral super-resolution toolkit.

Classical line-spectra estimators (periodogram, MUSIC, OMP),
complex-valued differentiable operators with a minimal reverse-mode
engine, shifted-window attention models for spectrum reconstruction, a
training loop, and Monte Carlo evaluation drivers.
"""

from .autodiff import Tensor, no_grad
from .classical import (
    OmpResult,
    music,
    omp,
    periodogram,
    sample_covariance,
)
from .cvops import CTensor, cv_layer_norm, cv_linear, cv_softmax, grad_check, wmsa
from .evaluate import ExperimentReport, psnr, resolution_decision
from .model import (
    ModelConfig,
    ParameterStore,
    default_config,
    init_model,
    load_checkpoint,
    micro_config,
    model_forward,
    param_count,
    save_checkpoint,
    toy_config,
)
from .signals import (
    FrequencyScene,
    SceneConfig,
    minmax_normalize,
    render_target,
    sample_scene,
    synthesize,
)
from .train import TrainConfig, adamw_step, make_batch, train

__version__ = "0.1.0"
