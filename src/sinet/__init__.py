"""Structure inference detector on synthetic contextual scenes.

A toy two-stage detector whose second stage is a detection graph: one node per
proposal plus a whole-scene node, scalar edges gated by spatial and appearance
cues, and GRU memory cells that fold scene context and neighbor messages into
every node state over a few inference steps. Trains end to end with
hand-derived gradients; ships with metrics, gradient checking, and a
four-arm ablation harness.
"""

from .geometry import apply_deltas, centers_to_corners, clip_box, encode_deltas, iou
from .memory_cell import GruParams, gru_backward, gru_forward, gru_init, gru_params
from .inputs import FileError
from .numerics import (Param, ParamStack, ParamStore, ShapeError, derive_seed, grad_check,
                       init_param, load_checkpoint, save_checkpoint, seed_for)
from .structure_inference import (SinParams, relation_report, sin_backward, sin_infer_tapes,
                                  sin_init, sin_params, sin_step_tape)
from .synth_data import (GT_DTYPE, Category, CooccurRule, SceneSample,
                         WorldSpec, default_world, generate, load_dataset,
                         save_dataset, scene_sampler, world_hash)
from .detector import (ARMS, DETECTION_DTYPE, DetectorParams, TrainConfig,
                       TrainingDiverged, assign_targets, create_detector_params,
                       detect, detect_scenes, multi_task_loss, train)
from .evaluation import EvalResult, evaluate_detections, run_ablation
from .harness import EvalConfig, RunConfig, main, run_gradcheck

__version__ = "0.1.0"

__all__ = [
    "ARMS", "Category", "CooccurRule",
    "DETECTION_DTYPE", "DetectorParams", "EvalConfig", "EvalResult", "FileError",
    "GT_DTYPE", "GruParams", "Param", "ParamStack", "ParamStore", "RunConfig",
    "SceneSample", "ShapeError", "SinParams", "TrainConfig", "TrainingDiverged", "WorldSpec",
    "apply_deltas", "assign_targets", "centers_to_corners", "clip_box", "create_detector_params",
    "default_world", "derive_seed", "detect", "detect_scenes", "encode_deltas",
    "evaluate_detections", "generate",
    "grad_check", "gru_backward", "gru_forward", "gru_init", "gru_params", "init_param", "iou",
    "load_checkpoint", "load_dataset", "main", "multi_task_loss",
    "relation_report", "run_ablation", "run_gradcheck",
    "save_checkpoint", "save_dataset", "scene_sampler", "seed_for", "sin_backward",
    "sin_infer_tapes", "sin_init", "sin_params", "sin_step_tape", "train", "world_hash",
]
