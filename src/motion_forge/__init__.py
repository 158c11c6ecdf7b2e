"""motion-forge: robot-native motion features, metrics, and schedulers.

Library surface, one module per concern:

- rotations: 6D rotation codec, quaternion helpers, yaw decomposition
- motion: skeleton configuration, motion sequences, mirroring
- features: the 262-D per-frame descriptor, contacts, normalization
- metrics: plausibility (penetration/floating/skating) and tracking errors
- rewards: tracker reward engine and observation/command assembly
- curriculum: adaptive sampling, freeze-and-drop, level scheduling
- kernels: the shared softmax, log-sum-exp, activations and MLP
- router: MoE gating, soft top-k routing, routing losses, expert growth
- generation: TP-MoE parameter mixing, diffusion sampling, CFG, ASFO
- prefix_loop: the generate/simulate/select receding-horizon loop
- motion_io / config / cli: file formats, configuration, command line
"""

from .features import (
    FEATURE_DIM,
    NormStats,
    canonicalize_heading,
    decode_root_trajectory,
    denormalize_features,
    detect_contacts,
    encode_features,
    fit_norm_stats,
    mirror_features,
    normalize_features,
)
from .metrics import GroundModel, MetricReport, evaluate, mpjae, mpjpe, mpjve, success
from .motion import (
    MotionSequence,
    Skeleton,
    default_skeleton,
    mirror_sequence,
)
from .rotations import rot_to_6d, sixd_to_rot

__version__ = "0.1.0"

__all__ = [
    "FEATURE_DIM",
    "GroundModel",
    "MetricReport",
    "MotionSequence",
    "NormStats",
    "Skeleton",
    "canonicalize_heading",
    "decode_root_trajectory",
    "default_skeleton",
    "denormalize_features",
    "detect_contacts",
    "encode_features",
    "evaluate",
    "fit_norm_stats",
    "mirror_features",
    "mirror_sequence",
    "mpjae",
    "mpjpe",
    "mpjve",
    "normalize_features",
    "rot_to_6d",
    "sixd_to_rot",
    "success",
    "__version__",
]
