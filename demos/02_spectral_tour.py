"""Tour of the spectral path: transform, invert, and render a spectrum.

Run:  python3 demos/02_spectral_tour.py [--out demo-out]

Writes a texture and its displayable spectrum as PGM files.
"""

import argparse
from pathlib import Path

import numpy as np

from aift import dft2, spectrum_image, write_pgm


def make_texture(rng, size=64):
    """Band-limited random field, a stand-in for a pavement photo."""
    coarse = rng.uniform(0, 1, (size // 8, size // 8))
    img = np.kron(coarse, np.ones((8, 8)))
    for _ in range(3):  # cheap blur
        img = (img + np.roll(img, 1, 0) + np.roll(img, 1, 1)
               + np.roll(img, -1, 0) + np.roll(img, -1, 1)) / 5.0
    lo, hi = img.min(), img.max()
    return (img - lo) / (hi - lo)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo-out")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(7)
    img = make_texture(rng)

    print("== transform accuracy ==")
    spec = dft2(img)
    back = np.fft.ifft2(spec).real  # numpy as an independent inverse
    print(f"round-trip max error : {np.max(np.abs(back - img)):.3e}")

    spatial = np.sum(img ** 2)
    spectral = np.sum(np.abs(spec) ** 2) / img.size
    print(f"energy (spatial)     : {spatial:.9f}")
    print(f"energy (spectral)    : {spectral:.9f}")

    print()
    print("== what the model actually sees ==")
    panel = spectrum_image(img)
    print(f"spectrum panel range : [{panel.min():.3f}, {panel.max():.3f}]")
    cy, cx = panel.shape[0] // 2, panel.shape[1] // 2
    by, bx = (int(v) for v in np.unravel_index(panel.argmax(), panel.shape))
    print(f"brightest pixel      : ({by}, {bx}) (DC sits at ({cy}, {cx}))")

    write_pgm(out / "texture.pgm", img)
    write_pgm(out / "texture_spectrum.pgm", panel)
    print(f"wrote {out / 'texture.pgm'} and {out / 'texture_spectrum.pgm'}")

    print()
    print("== a sharp edge lights up one axis ==")
    edge = np.zeros((64, 64))
    edge[:, 32:] = 1.0
    edge_panel = spectrum_image(edge)
    print(f"energy along the horizontal frequency axis: {edge_panel[cy].sum():.2f}")
    print(f"energy along the vertical frequency axis  : {edge_panel[:, cx].sum():.2f}")
    write_pgm(out / "edge_spectrum.pgm", edge_panel)
    print(f"wrote {out / 'edge_spectrum.pgm'}")


if __name__ == "__main__":
    main()
