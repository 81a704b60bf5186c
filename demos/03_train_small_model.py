"""Train a small model on a handful of cuboids and watch the loss fall.

The encoder is a per-point MLP pooled with a channel-wise max (permutation
invariant); the head decodes the latent into a fixed number of segment slots
with L2-normalized orientations. Everything trains with plain Adam.
"""

import numpy as np

from sprayseg import (
    LossWeights,
    ModelConfig,
    TrainConfig,
    TrainingSample,
    decompose_segments,
    downsample_strokes,
    generate_object,
    normalize,
    output_slot_count,
    pose_chamfer,
    predict,
    sample_point_cloud,
    train,
)

BUDGET, POINTS, LAM = 240, 256, 4

samples, clouds_raw = [], []
for i in range(10):
    rec = generate_object("cuboids", seed=100 + i)
    strokes = downsample_strokes(rec.strokes, BUDGET)
    cloud = sample_point_cloud(rec.mesh, POINTS, seed=i)
    ncloud, nstrokes, _ = normalize(cloud, strokes, scale=0.4)
    target = decompose_segments(nstrokes, LAM, 1)
    samples.append(TrainingSample(cloud=ncloud, target=target))

slots = output_slot_count(BUDGET, LAM, 1)
config = ModelConfig(input_points=POINTS, lam=LAM, slots=slots,
                     latent_dim=64, encoder_hidden=(32, 64), head_hidden=(128,))
print(f"model: {slots} slots x {LAM} poses")

params, history = train(samples[:8], config, TrainConfig(epochs=300, seed=0))
print(f"loss: {history[0, 0]:.4f} -> {history[-1, 0]:.4f} over {len(history)} epochs")

weights = LossWeights()
for name, sample in (("train", samples[0]), ("held-out", samples[8])):
    pred = predict(params, sample.cloud)
    pcd = pose_chamfer(pred.reshape(-1, 6), sample.target.reshape(-1, 6), weights)
    print(f"{name:9s} pose Chamfer distance (x1e4): {pcd * 1e4:8.1f}")
