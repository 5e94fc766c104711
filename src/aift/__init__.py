"""Adversarial image-to-frequency transform for road-defect detection.

The package trains a bidirectional generator between pavement patches and
their frequency-domain encodings, using only normal (defect-free) data, and
scores defects by how badly a patch survives regeneration.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, conv2d, conv_transpose2d, dense, no_grad
from .data import (DatasetManifest, ManifestEntry, SynthConfig, extract_patches,
                   load_image, normalize_patch, read_pgm, synth_corpus,
                   write_pgm)
from .detection import (DetectionResult, detect, detect_full_image,
                        jeffrey_divergence)
from .errors import (AiftError, ConfigurationError, ContractError,
                     DimensionError, DomainError, InputError, IntegrityError,
                     MetricError)
from .metrics import MetricsReport, THRESHOLDS, aiu, auroc, evaluate, f_measure
from .model import (AiftParams, discriminate, generate, init_params,
                    load_checkpoint, save_checkpoint)
from .optim import Adam
from .spectral import dft2, spectrum_image
from .training import (EpochRecord, StepLosses, TrainConfig, TrainLog,
                       atcl_loss, recon_loss, total_loss, train, train_step)

__all__ = [name for name in dir() if not name.startswith("_")]
