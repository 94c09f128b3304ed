"""Window-masked autoencoder pretraining with a hierarchical windowed-attention
backbone, plus segmentation transfer — desk scale, numpy only."""

from .tensor import Tensor, Tape, ParamStore, backward, grad_check
from .patches import PatchSpec, TokenGrid
from .masking import MaskPlan, build_mask_plan, expand_sparse_index
from .model import ModelSpec, SwinMae, desk_spec
from .segmentation import SwinUnet, SwinUnetSpec, build_swin_unet_from_checkpoint

__all__ = [
    "Tensor", "Tape", "ParamStore", "backward", "grad_check",
    "PatchSpec", "TokenGrid", "MaskPlan", "build_mask_plan",
    "expand_sparse_index", "ModelSpec", "SwinMae", "desk_spec",
    "SwinUnet", "SwinUnetSpec", "build_swin_unet_from_checkpoint",
]
