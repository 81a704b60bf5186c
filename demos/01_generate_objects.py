"""Generate one synthetic object per category and look at what comes out.

Each sample pairs a triangle mesh with a set of expert spray strokes hovering
at a stand-off distance, orientations facing the surface.
"""

import numpy as np

from sprayseg import generate_object, sample_point_cloud, save_sample

for category in ("cuboids", "windows", "shelves", "containers"):
    record = generate_object(category, seed=7)
    sizes = [len(s) for s in record.strokes]
    span = record.mesh.vertices.max(0) - record.mesh.vertices.min(0)
    print(f"{category:10s}: {len(record.mesh.vertices):4d} vertices, "
          f"{len(record.mesh.faces):4d} faces, strokes {sizes}, "
          f"bbox {np.round(span, 3)}")

    # orientations are unit vectors pointing at the surface
    ori = np.concatenate([s[:, 3:] for s in record.strokes])
    print(f"{'':12s}orientation norm range: "
          f"[{np.linalg.norm(ori, axis=1).min():.9f}, "
          f"{np.linalg.norm(ori, axis=1).max():.9f}]")

# a point cloud sampled evenly over the surface is the model input
record = generate_object("cuboids", seed=7)
cloud = sample_point_cloud(record.mesh, 512, seed=0)
print("\ncloud:", cloud.shape, "mean |xyz|:", np.abs(cloud).mean().round(4))

save_sample(record, "out_demo01_cuboid")
print("sample written to out_demo01_cuboid/ (mesh.txt, strokes.txt, meta.txt)")
