"""Tour of the autodiff engine: tapes, gradients, and a tiny Adam fit.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

import aift.autodiff as ad
from aift import Adam, Tensor, dense


def gradient_of_a_composite():
    print("== gradients of a composite expression ==")
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    y = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)

    out = ad.mean(ad.sigmoid(x * y + x))
    out.backward()
    print(f"value          : {out.item():+.6f}")
    print(f"dvalue/dx[0,0] : {x.grad[0, 0]:+.6f}")

    # nudge x[0,0] and measure the slope the slow way
    h = 1e-6
    x.data[0, 0] += h
    hi = ad.mean(ad.sigmoid(x * y + x)).item()
    x.data[0, 0] -= 2 * h
    lo = ad.mean(ad.sigmoid(x * y + x)).item()
    x.data[0, 0] += h
    print(f"finite diff    : {(hi - lo) / (2 * h):+.6f}")
    print()


def fit_a_line():
    print("== fitting y = 3x - 1 with Adam ==")
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1, 1, (64, 1))
    ys = 3.0 * xs - 1.0 + rng.normal(0, 0.05, (64, 1))

    w = Tensor(np.zeros((1, 1)), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    opt = Adam([w, b], lr=0.05)

    data = Tensor(xs)
    target = Tensor(ys)
    for step in range(1, 201):
        opt.zero_grad()
        pred = dense(data, w, b)
        diff = pred - target
        loss = ad.mean(diff * diff)
        loss.backward()
        opt.step()
        if step % 50 == 0:
            print(f"step {step:3d}: loss={loss.item():.5f} "
                  f"w={w.data[0, 0]:+.3f} b={b.data[0]:+.3f}")
    print("true parameters: w=+3.000 b=-1.000")
    print()


def no_grad_is_free():
    print("== no_grad skips the tape ==")
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        silent = ad.mean(ad.sigmoid(x))
    print(f"forward value inside no_grad: {silent.item():.6f}")
    print(f"requires_grad of the result : {silent.requires_grad}")


if __name__ == "__main__":
    gradient_of_a_composite()
    fit_a_line()
    no_grad_is_free()
