"""Adversarial image-to-frequency transform for road-defect detection.

The package trains a bidirectional generator between pavement patches and
their frequency-domain encodings, using only normal (defect-free) data, and
scores defects by how badly a patch survives regeneration.

``import aift`` loads no submodule.  Each public name, and each public
submodule, is imported on first access and then kept in the package
namespace, so a process loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# each module -> the public names it defines
_EXPORTS = {
    "autodiff": ("Tensor", "conv2d", "conv_transpose2d", "dense", "no_grad"),
    "config": ("TrainConfig",),
    "data": ("DatasetManifest", "ManifestEntry", "SynthConfig", "load_image",
             "normalize_patch", "read_pgm", "synth_corpus", "write_pgm"),
    "detection": ("DetectionResult", "detect", "detect_full_image", "detect_images",
                  "jeffrey_divergence"),
    "errors": ("AiftError", "ConfigurationError", "ContractError", "DimensionError",
               "DomainError", "InputError", "IntegrityError", "MetricError"),
    "metrics": ("MetricsReport", "THRESHOLDS", "aiu", "auroc", "evaluate", "f_measure"),
    "model": ("AiftParams", "discriminate", "generate", "init_params", "load_checkpoint",
              "save_checkpoint"),
    "optim": ("Adam",),
    "spectral": ("dft2", "spectrum_image"),
    "training": ("EpochRecord", "StepLosses", "TrainLog", "atcl_loss", "recon_loss",
                 "total_loss", "train", "train_step"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The settings module is not listed: its one export, TrainConfig, is.
__all__ = sorted([*_MODULE_OF, *(module for module in _EXPORTS if module != "config")])


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
