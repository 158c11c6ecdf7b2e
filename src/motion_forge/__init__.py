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
- generation: TP-MoE parameter mixing, diffusion sampling, CFG, ASFO and its settings
- prefix_loop: the generate/simulate/select receding-horizon loop, the
  reference generator and tracker and their settings
- motion_io: file formats
- cli: the command line and its config file
"""

__version__ = "0.1.0"
