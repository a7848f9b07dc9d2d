"""UAV search-and-detect mission simulator with an online POMDP planner.

A camera-equipped quadrotor sweeps or explores a survey rectangle looking
for victims under detection uncertainty: per-frame detector noise, partial
occlusion, a person-lookalike distractor and wind dropouts. Three flight
modes (waypoint survey, pure planner, survey-with-inspections) run against
the same simulated world, and a batch harness scores runs by true/false
positive rates and elapsed time.
"""

from .coverage import CoverageMap, Rect
from .geometry import (CameraIntrinsics, EnuPoint, Footprint, footprint_corners_world,
                       footprint_extent, point_in_footprint)
from .metrics import Metrics, compute_metrics, export_heatmap
from .missions import RunRecord, build_setup, execute_run, lawnmower_waypoints
from .model import (ActionCmd, GenerativeModel, ModelConfig, Observation, PomdpState,
                    RewardParams, initial_belief, reward, transition)
from .solver import (BeliefNode, ParticleBelief, SolverConfig, advance_belief, bootstrap,
                     plan_step)
from .world import (DetectorProfile, GroundTruth, OccupancyGrid, Scenario,
                    WindProcess, load_scenario, sense, thermal_profile)

__version__ = "0.1.0"
