"""Learning unstructured multi-path spray-painting trajectories from point clouds.

The pipeline: procedurally generate (mesh, expert strokes) pairs, decompose
strokes into fixed-length overlapping segments, train a point-cloud model to
predict a segment set with Chamfer + attraction losses, greedily concatenate
predicted segments into long strokes, and score the result with a pose-wise
Chamfer distance and simulated paint coverage.
"""

import os

# One BLAS thread, set before numpy loads, so that trained weights do not depend on
# the shell's BLAS setting; `parallel.spread` supplies the parallelism instead.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

from .geometry import (
    MeshError,
    NormalizationTransform,
    TriMesh,
    denormalize,
    face_areas,
    load_mesh,
    load_point_cloud,
    normalize,
    sample_point_cloud,
    save_mesh,
    save_point_cloud,
)
from .learner import (
    AdamState,
    ModelConfig,
    ModelParams,
    TrainConfig,
    TrainingSample,
    adam_step,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .linker import LinkConfig, LinkGraph, build_link_graph, concatenate, link_distances
from .objective import (
    LossReport,
    LossWeights,
    attraction_loss,
    chamfer_segments,
    total_loss,
)
from .spraysim import (
    CoverageReport,
    SprayGunModel,
    coverage_threshold,
    deposit,
    paint_coverage,
    pose_chamfer,
)
from .synthdata import (
    CATEGORIES,
    SampleRecord,
    decompose_segments,
    downsample_strokes,
    generate_object,
    load_strokes,
    output_slot_count,
    save_sample,
    save_strokes,
    split_dataset,
)

__version__ = "0.1.0"
