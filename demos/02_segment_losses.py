"""The training objective on segment sets, and a finite-difference sanity check.

Strokes are cut into fixed-length windows that overlap by one pose. The loss is
a symmetric Chamfer distance between predicted and reference segment sets plus
an attraction term that pulls segment begins toward other segments' ends.
"""

import numpy as np

from sprayseg import (
    LossWeights,
    decompose_segments,
    generate_object,
    downsample_strokes,
    total_loss,
)

record = generate_object("cuboids", seed=3)
strokes = downsample_strokes(record.strokes, 240)
target = decompose_segments(strokes, lam=4, overlap=1)
print(f"{len(strokes)} strokes -> {len(target)} segments of length {target.shape[1]}")

weights = LossWeights(alpha=0.5, orientation_weight=0.25)

# a perfect prediction gives zero Chamfer; the attraction term only vanishes
# where begins and ends actually meet (stroke interiors, not stroke tips)
report = total_loss(target, target, weights)
print(f"self loss: total={report.total:.6f} chamfer={report.y2s:.6f} "
      f"attraction={report.b2e:.6f}")

rng = np.random.default_rng(0)
noisy = target + rng.normal(scale=0.01, size=target.shape)
report = total_loss(noisy, target, weights)
print(f"noisy prediction: total={report.total:.6f}")

# analytic gradient vs central finite differences on a tiny instance
small = noisy[:5].copy()
report = total_loss(small, target[:6], weights)
h = 1e-6
numeric = np.zeros(small.size)
flat = small.ravel()
for i in range(flat.size):
    keep = flat[i]
    flat[i] = keep + h
    hi = total_loss(small, target[:6], weights).total
    flat[i] = keep - h
    lo = total_loss(small, target[:6], weights).total
    flat[i] = keep
    numeric[i] = (hi - lo) / (2 * h)
err = np.linalg.norm(report.gradient - numeric) / np.linalg.norm(numeric)
print(f"gradient relative error vs finite differences: {err:.2e}")
