"""Frame-to-frame motion prior estimation for vehicle-mounted camera rigs.

Robustly minimizes epipolar error over a single-track motion manifold,
for one or many rigidly mounted cameras without overlapping fields of view.
"""

from .estimator import (EstimateResult, EstimatorOptions, GridSpec,
                        Landscape, LandscapeGrid, NoMatches,
                        classify_inliers, energy_landscape, estimate,
                        internal_gradient)
from .evaluation import EvalReport, TrajectoryTooShort, evaluate
from .geometry import (BehindCamera, DegenerateTranslation, GenericCamera,
                       GeometryError, OutOfDomain, PinholeCamera,
                       PinholeIntrinsics, Pose, forward_camera_extrinsic,
                       skew)
from .io_formats import (CalibrationInvalid, FramePairRecord,
                         NonMonotoneFrames, NoRecords, ParseError, Scenario,
                         TrajectoryRecord, load_matches, load_rig,
                         load_scale, load_scenario, load_trajectory,
                         write_matches, write_rig, write_scale,
                         write_trajectory)
from .manifold import (CameraRig, DimensionMismatch, MotionParams, RigCamera,
                       multi_camera_energy, pack_free, pose_from_params,
                       unpack_free)
from .metrics import (MatchSet, MetricKind, NonFiniteMatch, RigFrame,
                      RobustLoss, angleplane_residuals, geoline_residuals)
from .pipeline import (FixedScale, FrameOutcome, FreeInCurves,
                       match_sets_from_record, run_sequence,
                       simulate_sequence)
from .simulate import (NoiseSpec, NoVisiblePoints, SceneSpec,
                       generate_matches, generate_scene, grid_search_oracle)

__version__ = "0.1.0"
