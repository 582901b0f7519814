"""Agent-layer adaptation for a toy dual encoder.

Scaling/shifting agent layers attach after frozen LayerNorm and linear
layers of paired text/image transformers, optionally coupled across
modalities through bottleneck bridge functions, and fold back into the
frozen weights exactly at export time.
"""

from .agents import (
    CoupledAgentSite,
    CouplingMode,
    SiteKey,
    bridge_norm,
    build_sites,
    fuse_model,
)
from .autodiff import NonFiniteError, Tape, Tensor
from .config import ConfigError, RunConfig, parse_config
from .encoder import DualEncoder, EncoderConfig, image_forward, init_dual_encoder, text_forward
from .training import (
    Episode,
    SyntheticDataset,
    TrainingConfig,
    adamw_step,
    ce_loss,
    evaluate,
    gen_synthetic,
    reg_losses,
    sample_few_shot,
    total_loss,
    train,
)
from .verify import CheckReport, check_fusion_equivalence, check_identity_at_init, count_trainable_params

__version__ = "0.1.0"
