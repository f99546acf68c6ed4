"""Desk-scale bimodal emotion recognition: discretized speech and text tokens
through two bidirectional transformer encoders, fused by CLS concatenation or
co-attention."""

from .encoder import EncoderConfig, EncoderOutput, EncoderState, forward, mask_corrupt, masked_lm_loss, param_count
from .errors import ConfigError, EmofuseError, InputError, NumericError, ShapeError, UsageError
from .fusion import CoAttentionBlock, FusionModel, FusionOutput, LinearHead, co_attend, fuse
from .speech import Codebook, FrameFeaturizerConfig, discretize, featurize, train_codebook
from .tensor import Tensor, backward
from .text import Vocabulary, build_vocab, decode, encode
from .tokens import CLS, MASK, N_SPECIALS, PAD, SEP, UNK, TokenSequence
from .training import AdamState, TrainConfig, adam_step, lr_at, run_finetune, run_pretraining

__version__ = "0.1.0"
