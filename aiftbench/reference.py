"""Reference figures for the README, measured once and not a workload.

    PYTHONPATH=src python3 aiftbench/reference.py

Prints the machine details, the ``-X importtime`` split of ``import aift``
and the critic and generator phases of ``train_step`` at the paper defaults
(32 px, batch 64, base width 32, 10 critic iterations; median of 3 steps
after one warm-up step, traced).
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402


def importtime() -> dict[str, float]:
    """Cumulative import seconds of the heaviest modules under ``import aift``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import aift"],
                          capture_output=True, text=True, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines()[1:]:
        _, cum, name = line.split("|")
        cumulative[name.strip()] = int(cum) / 1e6
    keys = ("aift", "numpy", "scipy.ndimage", "scipy.stats", "aift.metrics")
    return {k: cumulative[k] for k in keys if k in cumulative}


def paper_default_phases(steps: int = 3) -> dict[str, float]:
    import aift
    import tracing
    tracer = tracing.Tracer().install()
    images = np.random.default_rng(0).uniform(0.0, 1.0, (64, 1, 32, 32))
    freqs = np.stack([aift.spectrum_image(p) for p in images[:, 0]])[:, None]
    cfg = aift.TrainConfig().validate()  # paper defaults: batch 64, base 32, critic 10
    params = aift.init_params(32, 0, cfg.base_channels)
    g_opt = aift.Adam(params.generator_tensors(), lr=cfg.lr, beta1=cfg.beta1)
    d_opt = aift.Adam(params.discriminator_tensors(), lr=cfg.lr, beta1=cfg.beta1)
    out = {"critic": [], "generator": [], "step": []}
    for i in range(steps + 1):
        tracer.round = i
        aift.training.train_step(params, (images, freqs), cfg, g_opt, d_opt)
        if i:
            m = tracing.layer_metrics([s for s in tracer.spans if s[tracing.ROUND] == i], 1)
            out["critic"].append(m["training.critic_phase_ms"]["value"])
            out["generator"].append(m["training.generator_phase_ms"]["value"])
            out["step"].append(m["training.step_total_ms"]["value"])
    return {k: statistics.median(v) for k, v in out.items()}


def main() -> None:
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"BLAS {blas['name']} {blas['version']}")
    for name, secs in importtime().items():
        print(f"import {name}: {secs:.3f} s")
    for name, ms in paper_default_phases().items():
        print(f"paper-default train_step {name}: {ms:.0f} ms")


if __name__ == "__main__":
    main()
