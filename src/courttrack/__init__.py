"""Tracking-by-detection engine for single-camera basketball video."""

from .geometry import (
    BBox,
    FrameDims,
    Homography,
    Line2,
    Point2,
    apply_homography,
    iou,
    normalized_centroid_distance,
    transform_bbox,
)
from .imaging import (
    BinaryMask,
    FrameRaster,
    PatchWindow,
    patch_mean_abs_diff,
    read_pgm,
    read_ppm,
    write_pgm,
    write_ppm,
)
from .court import (
    CourtRegion,
    HsvFilter,
    LineSegment,
    LineVote,
    Orientation,
    classify_orientation,
    converge_boundaries_nba,
    point_in_court,
    select_boundary_european,
    vote_dominant_lines,
)
from .detect import (
    Detection,
    DetectorContract,
    Keypoint,
    ScalePlan,
    SourceStage,
    coarse_pass,
    detect_frame,
    filter_by_court,
    merge_detections,
    refine_pass,
    skeleton_bbox,
    sliding_pass,
)
from .cost import (
    CostWeights,
    ObservedBox,
    cost_content,
    cost_distance,
    cost_iou,
    similarity_cost,
)
from .track import (
    CostMatrix,
    FrameObservations,
    GroundTruthBox,
    MatchConfig,
    match_frame,
    run_tracker,
    solve_assignment,
)
from .metrics import (
    DetectionReport,
    MotReport,
    eval_detections,
    eval_mot_records,
)
from .synth import (
    ScenarioSpec,
    SyntheticSequence,
    brute_force_assignment,
    generate,
)

__version__ = "0.1.0"
