"""anchorpose: 6DoF object-pose geometry toolkit.

Residual anchor coding of object coordinates, crop-aware camera handling,
dense 2D-3D / 3D-3D correspondences, classical pose solvers, the ADD-family
evaluation stack, and a deterministic synthetic scene generator.
"""

from .geom import (
    CropAffine,
    Intrinsics,
    NotARotation,
    PointBehindCamera,
    Pose,
    project,
)
from .mesh import ObjectModel, diameter, fps, load_ply
from .codec import (
    AnchorSet,
    build_anchor_set,
    decode_points,
    encode_points,
)
from .camera_crop import (
    DepthImage,
    GridMaps,
    Roi,
    adjust_intrinsics,
    crop_affine,
    make_grid_maps,
)
from .correspondence import (
    DenseMaps,
    NoiseSpec,
    corrupt,
    ground_truth_maps,
    loss_coarse,
    loss_fine,
    loss_mask,
    loss_total,
)
from .solver import (
    CorrSet,
    SolveReport,
    extract_correspondences,
    pose_error,
    ransac,
    solve_2d3d,
    solve_3d3d,
    solve_fused,
)
from .metrics import (
    EvalRecord,
    add_01d,
    add_auc,
    add_metric,
    adds_metric,
    deg_cm,
    evaluate_batch,
)
from .synth import (
    SceneConfig,
    SceneSample,
    make_benchmark,
    make_model,
    render,
    tight_roi,
)

__version__ = "0.1.0"
