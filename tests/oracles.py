"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way (explicit
loops, pair counting, quadruple-loop DFT) so the fast implementations in
the package are checked against code that shares none of their structure.
"""

import cmath
import math

import numpy as np


# -- finite differences -------------------------------------------------------


def numeric_grad(fn, tensors, h=1e-5):
    """Central finite differences of a scalar-valued closure.

    ``fn`` re-runs the forward pass from the current tensor values; each
    element of each tensor is nudged in place by +-h.
    """
    grads = []
    for t in tensors:
        flat = t.data.ravel()
        out = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn().item()
            flat[i] = orig - h
            lo = fn().item()
            flat[i] = orig
            out[i] = (hi - lo) / (2.0 * h)
        grads.append(out.reshape(t.data.shape))
    return grads


def max_rel_err(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(fn, tensors, rtol=1e-4, h=1e-5):
    """Assert the engine's gradients match finite differences of ``fn``."""
    for t in tensors:
        t.grad = None
    out = fn()
    out.backward()
    analytic = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None
    numeric = numeric_grad(fn, tensors, h=h)
    worst = max(max_rel_err(a, n) for a, n in zip(analytic, numeric))
    assert worst < rtol, f"gradient mismatch: max relative error {worst:.3e}"
    return worst


# -- convolution by explicit loops ----------------------------------------------


def conv2d_loops(x, k, stride=1, padding=0):
    n, c, h, w = x.shape
    kk, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, kk, ho, wo))
    for b in range(n):
        for o in range(kk):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[b, ci, i * stride + u, j * stride + v] * k[o, ci, u, v]
                    out[b, o, i, j] = acc
    return out


def conv_transpose2d_loops(x, k, stride=1, padding=0):
    n, c, h, w = x.shape
    _, kk, kh, kw = k.shape
    fh = (h - 1) * stride + kh
    fw = (w - 1) * stride + kw
    full = np.zeros((n, kk, fh, fw))
    for b in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    for o in range(kk):
                        for u in range(kh):
                            for v in range(kw):
                                full[b, o, i * stride + u, j * stride + v] += \
                                    x[b, ci, i, j] * k[ci, o, u, v]
    return full[:, :, padding:fh - padding, padding:fw - padding]


def conv_transpose2d_tap_major(x, k, stride=1, padding=0):
    """Transposed convolution as one GEMM with tap-major (kh, kw, K) columns,
    added back tap by tap in row-major tap order; the vectorized engine sums
    the same products in the same order, so it must match bit for bit."""
    n, c, h, w = x.shape
    _, kk, kh, kw = k.shape
    x2 = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n * h * w, c)
    kperm = np.ascontiguousarray(k.transpose(0, 2, 3, 1)).reshape(c, kh * kw * kk)
    taps = (x2 @ kperm).reshape(n, h, w, kh, kw, kk)
    fh = (h - 1) * stride + kh
    fw = (w - 1) * stride + kw
    full = np.zeros((n, fh, fw, kk))
    for u in range(kh):
        for v in range(kw):
            full[:, u:u + h * stride:stride, v:v + w * stride:stride] += taps[:, :, :, u, v]
    return full[:, padding:fh - padding, padding:fw - padding].transpose(0, 3, 1, 2)


def conv2d_tap_major(x, k, stride=1, padding=0):
    """Convolution as one GEMM over tap-major (kh, kw, C) columns, each
    column cut from the padded input one tap at a time, and the kernel read
    in the same (kh, kw, C) order.

    The engine's forward pass sums the same products in the same order, so
    it must match bit for bit, whatever the kernel's memory layout.
    """
    n, c, h, w = x.shape
    kk, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols = np.empty((n * ho * wo, kh * kw * c), dtype=xp.dtype)
    for u in range(kh):
        for v in range(kw):
            for ci in range(c):
                taps = xp[:, ci, u:u + ho * stride:stride, v:v + wo * stride:stride]
                cols[:, (u * kw + v) * c + ci] = taps.reshape(-1)
    kmat = np.ascontiguousarray(k.transpose(0, 2, 3, 1)).reshape(kk, kh * kw * c)
    return (cols @ kmat.T).reshape(n, ho, wo, kk).transpose(0, 3, 1, 2)


def conv2d_kernel_grad_channel_major(x, g, kh, kw, stride=1, padding=0):
    """Kernel gradient of sum(conv2d(x, k) * g) as one GEMM over (C, kh, kw)
    columns, each column cut from the padded input one tap at a time.

    The engine builds tap-major columns instead; each kernel entry is still
    a dot product over the same output pixels, so on the model's layer
    shapes it must match bit for bit.
    """
    n, c, h, w = x.shape
    kk, ho, wo = g.shape[1:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n * ho * wo, c * kh * kw), dtype=xp.dtype)
    for ci in range(c):
        for u in range(kh):
            for v in range(kw):
                taps = xp[:, ci, u:u + ho * stride:stride, v:v + wo * stride:stride]
                cols[:, (ci * kh + u) * kw + v] = taps.reshape(-1)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, kk)
    return (g2.T @ cols).reshape(kk, c, kh, kw)


# -- LeakyReLU in the where form -------------------------------------------------


def leaky_relu_where(x, g, slope):
    """LeakyReLU of x and the gradient g passed back through it, written as
    selections: the output where(x > 0, x, slope * x) and the gradient
    where(x > 0, g, slope * g), so that NaN and every value at or below
    zero take the slope."""
    return np.where(x > 0.0, x, slope * x), np.where(x > 0.0, g, slope * g)


# -- DFT by quadruple loop ---------------------------------------------------


def dft2_loops(image):
    h, w = image.shape
    out = np.zeros((h, w), dtype=complex)
    for a in range(h):
        for b in range(w):
            acc = 0j
            for y in range(h):
                for x in range(w):
                    acc += image[y, x] * cmath.exp(-2j * cmath.pi * (a * y / h + b * x / w))
            out[a, b] = acc
    return out


def fft_pow2_recursive(x):
    """Textbook even/odd radix-2 recursion along the last axis (length a
    power of two); the loop FFT in the package must match it bit for bit."""
    n = x.shape[-1]
    if n == 1:
        return x.astype(np.complex128)
    even = fft_pow2_recursive(x[..., 0::2])
    odd = fft_pow2_recursive(x[..., 1::2])
    twiddle = np.exp(-2j * np.pi * np.arange(n // 2) / n)
    t = twiddle * odd
    return np.concatenate([even + t, even - t], axis=-1)


def idft2(spectrum):
    """Inverse 2-D DFT by the quadruple loop (through the conjugation
    identity idft(X) = conj(dft(conj(X))) / (H * W)); returns the real part."""
    return (np.conj(dft2_loops(np.conj(spectrum))) / spectrum.size).real


def conjugate_symmetry_error(spectrum_img):
    """Largest deviation of a real image's frequency encoding from the
    M[a, b] == M[-a mod H, -b mod W] symmetry (measured before centering)."""
    h, w = spectrum_img.shape
    unshifted = np.roll(spectrum_img, (-(h // 2), -(w // 2)), axis=(0, 1))
    mirrored = unshifted[(-np.arange(h)) % h][:, (-np.arange(w)) % w]
    return float(np.max(np.abs(unshifted - mirrored)))


# -- Adam scalar recurrence ---------------------------------------------------


def adam_scalar_reference(p0, grads, lr, beta1, beta2, eps):
    """Plain-arithmetic Adam trajectory for one scalar parameter."""
    p, m, v = p0, 0.0, 0.0
    history = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * mhat / (math.sqrt(vhat) + eps)
        history.append(p)
    return history


# -- tiling ----------------------------------------------------------------------


def tile_grid(shape, patch, stride):
    """(row, col) of every tile of the edge-aligned grid, row-major.

    On each axis the starts are 0, stride, 2 * stride, ..., each clamped to
    the last start that leaves a whole patch, until that last start is
    reached; so the far edge always has a tile and no start repeats.
    """
    axes = []
    for extent in shape:
        last = extent - patch
        starts = []
        k = 0
        while not starts or starts[-1] < last:
            starts.append(min(k * stride, last))
            k += 1
        axes.append(starts)
    return [(y, x) for y in axes[0] for x in axes[1]]


# -- divergence -----------------------------------------------------------------


def jeffrey_reference(x, y, eps=1e-7):
    """Elementwise Jeffrey divergence with plain math.log arithmetic."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for xv, yv in zip(x.ravel(), y.ravel()):
        xc = min(max(xv, eps), 1.0)
        yc = min(max(yv, eps), 1.0)
        m = 0.5 * (xc + yc)
        total += xc * math.log(xc / m) + yc * math.log(yc / m)
    return total


# -- segmentation metrics by explicit sweeps ----------------------------------


def _thresholds():
    return [i / 100.0 for i in range(1, 100)]


def iou_brute(pred_bin, gt):
    inter = 0
    union = 0
    for p, g in zip(np.asarray(pred_bin, dtype=bool).ravel(),
                    np.asarray(gt, dtype=bool).ravel()):
        inter += int(p and g)
        union += int(p or g)
    return 1.0 if union == 0 else inter / union


def aiu_brute(pred, gt):
    return sum(iou_brute(pred >= t, gt) for t in _thresholds()) / 99.0


def f_brute(pred_bin, gt):
    pred_bin = np.asarray(pred_bin, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    tp = int(np.logical_and(pred_bin, gt).sum())
    n_pred = int(pred_bin.sum())
    n_gt = int(gt.sum())
    precision = 1.0 if (n_pred == 0 and n_gt == 0) else (0.0 if n_pred == 0 else tp / n_pred)
    recall = 1.0 if (n_gt == 0 and n_pred == 0) else (0.0 if n_gt == 0 else tp / n_gt)
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def ods_brute(preds, gts):
    best_t, best_f = None, -1.0
    for t in _thresholds():
        mean_f = sum(f_brute(p >= t, g) for p, g in zip(preds, gts)) / len(preds)
        if mean_f > best_f:
            best_t, best_f = t, mean_f
    return best_t, best_f


def ois_brute(preds, gts):
    total = 0.0
    for p, g in zip(preds, gts):
        total += max(f_brute(p >= t, g) for t in _thresholds())
    return total / len(preds)


def match_counts_brute(pred_bin, gt, tol):
    """(n_pred, n_gt, matched_pred, matched_gt) under distance-``tol`` matching.

    A predicted pixel is matched when some GT pixel lies within Euclidean
    distance ``tol`` of it, and a GT pixel when some predicted pixel does;
    every pair of pixels is compared.
    """
    pred_pts = [tuple(p) for p in np.argwhere(pred_bin)]
    gt_pts = [tuple(g) for g in np.argwhere(gt)]

    def near(a, others):
        return any(math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) <= tol for b in others)

    matched_pred = sum(1 for p in pred_pts if near(p, gt_pts))
    matched_gt = sum(1 for g in gt_pts if near(g, pred_pts))
    return len(pred_pts), len(gt_pts), matched_pred, matched_gt


def prf_brute(n_pred, n_gt, matched_pred, matched_gt):
    """Precision, recall and F of match counts, with the empty-side conventions."""
    if n_pred == 0:
        precision = 1.0 if n_gt == 0 else 0.0
    else:
        precision = matched_pred / n_pred
    if n_gt == 0:
        recall = 1.0 if n_pred == 0 else 0.0
    else:
        recall = matched_gt / n_gt
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


def f_tolerance_brute(pred_bin, gt, tol):
    return prf_brute(*match_counts_brute(pred_bin, gt, tol))[2]


def ods_tolerance_brute(preds, gts, tol):
    best_t, best_f = None, -1.0
    for t in _thresholds():
        mean_f = sum(f_tolerance_brute(p >= t, g, tol) for p, g in zip(preds, gts)) / len(preds)
        if mean_f > best_f:
            best_t, best_f = t, mean_f
    return best_t, best_f


def ois_tolerance_brute(preds, gts, tol):
    total = 0.0
    for p, g in zip(preds, gts):
        total += max(f_tolerance_brute(p >= t, g, tol) for t in _thresholds())
    return total / len(preds)


def curve_tolerance_brute(preds, gts, tol):
    """(threshold, precision, recall, F) from match counts summed over images."""
    curve = []
    for t in _thresholds():
        counts = [match_counts_brute(p >= t, g, tol) for p, g in zip(preds, gts)]
        curve.append((t, *prf_brute(*(sum(column) for column in zip(*counts)))))
    return curve


# -- AUROC by pair counting --------------------------------------------------


def auroc_pairs(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# -- the training step as one backward pass per phase -------------------------


def train_step_joint(params, batch, config, g_opt, d_opt):
    """One ``train_step`` that back-propagates each phase's whole objective in
    one pass: the critic's atcl_loss, then the generator's objective over
    both directions, scored through a constant copy of the discriminator."""
    from dataclasses import replace

    import aift.autodiff as ad
    from aift import StepLosses, Tensor, atcl_loss, no_grad, recon_loss, total_loss
    from aift.model import F2I, I2F, MODEL_DTYPE, discriminate, generate
    from aift.training import LIKELIHOOD_EPS

    def mean_log(p):
        return ad.mean(ad.log(ad.clip(p, LIKELIHOOD_EPS, 1.0)))

    x_image = Tensor(np.asarray(batch[0], dtype=MODEL_DTYPE))
    x_freq = Tensor(np.asarray(batch[1], dtype=MODEL_DTYPE))
    mode = config.loss_mode
    d_image_loss = d_freq_loss = 0.0
    if mode != "re":
        with no_grad():
            fake_freq = generate(params, x_image, I2F)
            fake_image = generate(params, x_freq, F2I)
        for _ in range(config.critic_iters):
            d_opt.zero_grad()
            d_image_real = discriminate(params, x_image, "image")
            d_freq_real = discriminate(params, x_freq, "frequency")
            d_freq_fake = discriminate(params, fake_freq, "frequency")
            d_image_fake = discriminate(params, fake_image, "image")
            ad.neg(atcl_loss(d_image_real, d_freq_real, d_freq_fake, d_image_fake)).backward()
            d_opt.step()
        with no_grad():
            d_image_loss = (mean_log(d_image_real) + mean_log(1.0 - d_image_fake)).item()
            d_freq_loss = (mean_log(d_freq_real) + mean_log(1.0 - d_freq_fake)).item()

    g_opt.zero_grad()
    gen_freq = generate(params, x_image, I2F)
    gen_image = generate(params, x_freq, F2I)
    rec = recon_loss(x_image, x_freq, gen_freq, gen_image)
    objective = rec
    if mode != "re":
        critic = replace(params, tensors={
            k: Tensor(t.data) if k.startswith("disc.") else t for k, t in params.tensors.items()})
        adv = ad.neg(ad.add(mean_log(discriminate(critic, gen_freq, "frequency")),
                            mean_log(discriminate(critic, gen_image, "image"))))
        objective = adv if mode == "gan" else total_loss(adv, rec, config.lam)
    g_loss, recon = objective.item(), rec.item()
    objective.backward()
    g_opt.step()
    return StepLosses(g_loss, d_image_loss, d_freq_loss, recon)
