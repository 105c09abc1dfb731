"""Split cloud/device generation with a gated ladder side network."""

from .checkpoint import load_checkpoint, save_checkpoint, save_model
from .decoding import DecodeConfig, decode_monolithic
from .latency import LatencyProfile, build_comparison_table, t_net, t_on_devices, t_total
from .metrics import perplexity, rouge_l, usage_percentage
from .model import ModelConfig, SpaModel, cate_estimate, token_loss
from .tokenizer import ByteTokenizer
from .training import TrainConfig, pretrain_base, run_lr_grid, train_side_and_gate

__version__ = "0.1.0"

__all__ = [
    "ByteTokenizer",
    "DecodeConfig",
    "LatencyProfile",
    "ModelConfig",
    "SpaModel",
    "TrainConfig",
    "build_comparison_table",
    "cate_estimate",
    "decode_monolithic",
    "load_checkpoint",
    "perplexity",
    "pretrain_base",
    "rouge_l",
    "run_lr_grid",
    "save_checkpoint",
    "save_model",
    "t_net",
    "t_on_devices",
    "t_total",
    "token_loss",
    "train_side_and_gate",
    "usage_percentage",
]
