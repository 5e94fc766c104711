"""The package namespace: its public names, each loaded from its module on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aift

# the defining module of each public name; the public API is pinned here
DEFINED_IN = {
    "autodiff": ["Tensor", "conv2d", "conv_transpose2d", "dense", "no_grad"],
    "config": ["TrainConfig"],
    "data": ["DatasetManifest", "ManifestEntry", "SynthConfig", "load_image",
             "normalize_patch", "read_pgm", "synth_corpus", "write_pgm"],
    "detection": ["DetectionResult", "detect", "detect_full_image", "detect_images",
                  "jeffrey_divergence"],
    "errors": ["AiftError", "ConfigurationError", "ContractError", "DimensionError",
               "DomainError", "InputError", "IntegrityError", "MetricError"],
    "metrics": ["MetricsReport", "THRESHOLDS", "aiu", "auroc", "evaluate", "f_measure"],
    "model": ["AiftParams", "discriminate", "generate", "init_params", "load_checkpoint",
              "save_checkpoint"],
    "optim": ["Adam"],
    "spectral": ["dft2", "spectrum_image"],
    "training": ["EpochRecord", "StepLosses", "TrainLog", "atcl_loss", "recon_loss",
                 "total_loss", "train", "train_step"],
}
SUBMODULES = ["autodiff", "data", "detection", "errors", "metrics", "model", "optim",
              "spectral", "training"]
PUBLIC = [
    "Adam", "AiftError", "AiftParams", "ConfigurationError", "ContractError",
    "DatasetManifest", "DetectionResult", "DimensionError", "DomainError", "EpochRecord",
    "InputError", "IntegrityError", "ManifestEntry", "MetricError", "MetricsReport",
    "StepLosses", "SynthConfig", "THRESHOLDS", "Tensor", "TrainConfig", "TrainLog", "aiu",
    "atcl_loss", "auroc", "autodiff", "conv2d", "conv_transpose2d", "data", "dense",
    "detect", "detect_full_image", "detect_images", "detection", "dft2", "discriminate",
    "errors", "evaluate", "f_measure", "generate", "init_params", "jeffrey_divergence",
    "load_checkpoint", "load_image", "metrics", "model", "no_grad", "normalize_patch",
    "optim", "read_pgm", "recon_loss", "save_checkpoint", "spectral", "spectrum_image",
    "synth_corpus", "total_loss", "train", "train_step", "training", "write_pgm",
]


def test_all_is_the_pinned_list():
    assert aift.__all__ == PUBLIC
    names = [name for names in DEFINED_IN.values() for name in names]
    assert sorted(names + SUBMODULES) == PUBLIC


def test_each_name_is_the_object_of_its_module():
    for module, names in DEFINED_IN.items():
        defining = importlib.import_module(f"aift.{module}")
        for name in names:
            assert getattr(aift, name) is getattr(defining, name), name
    for module in SUBMODULES:
        assert getattr(aift, module) is sys.modules[f"aift.{module}"]


def test_training_still_exports_its_settings():
    from aift.config import LOSS_MODES, TrainConfig
    from aift import training
    assert training.TrainConfig is TrainConfig
    assert training.LOSS_MODES is LOSS_MODES == ("re", "gan", "total")


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from aift import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(value is getattr(aift, name) for name, value in namespace.items())


def test_dir_lists_every_name():
    assert set(PUBLIC) | {"__version__"} <= set(dir(aift))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        aift.no_such_name  # noqa: B018
    assert not hasattr(aift, "no_such_name")


def test_names_resolve_on_first_use_in_a_fresh_interpreter():
    script = ("import json, sys\n"
              "import aift\n"
              "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'aift')\n"
              "steps = [loaded()]\n"
              "found = aift.spectrum_image is sys.modules['aift.spectral'].spectrum_image\n"
              "steps.append(loaded())\n"
              "cached = vars(aift)['spectrum_image'] is aift.spectral.spectrum_image\n"
              f"resolved = [getattr(aift, m) is sys.modules['aift.' + m] for m in {SUBMODULES!r}]\n"
              "print(json.dumps([steps, found, cached, resolved]))\n")
    env = dict(os.environ)
    src = str(Path(aift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps, found, cached, resolved = json.loads(proc.stdout)
    assert steps == [["aift"], ["aift", "aift.errors", "aift.spectral"]]
    assert found and cached
    assert all(resolved)
