"""Concatenate segments back into long strokes with the greedy linker.

Each segment may receive at most one incoming and one outgoing edge; candidate
links are committed in ascending score order while the score stays below tau.
Junctions merge the duplicated end/begin poses by averaging.
"""

import numpy as np

from sprayseg import (
    LinkConfig,
    LossWeights,
    concatenate,
    decompose_segments,
    downsample_strokes,
    generate_object,
    link_distances,
)

record = generate_object("cuboids", seed=11)
strokes = downsample_strokes(record.strokes, 480)
segments = decompose_segments(strokes, lam=4, overlap=1)
print(f"{len(strokes)} strokes decomposed into {len(segments)} segments")

weights = LossWeights()
scores = link_distances(segments, weights)
consecutive = [scores[i, i + 1] for i in range(25)]
print(f"consecutive-segment link scores: median {np.median(consecutive):.2e}")

for tau in (0.0, 1e-4, 1e-2):
    linked = concatenate(segments, LinkConfig(tau=tau, weights=weights))
    total = sum(len(s) for s in linked)
    print(f"tau={tau:7.4f}: {len(linked):3d} output strokes, {total} poses")

# with a generous tau the six rasters come back as exactly six long strokes,
# reproducing each stroke's covered prefix pose for pose
linked = concatenate(segments, LinkConfig(tau=1e-2, weights=weights))
match = all(np.array_equal(out, src[: len(out)])
            for out, src in zip(linked, strokes))
print("round trip reproduces the originals:", match)
