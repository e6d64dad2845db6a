"""Network assembly: frozen multi-scale encoder, wavelet-augmented skip
connections, cross-attention fusion, and a convolutional decoder.

The encoder is four frozen strided conv stages over a 1-channel image
(strides 4/8/16/32 by default, seeded once, never trained); it stands in
for a large pretrained backbone and is a pure function of the image.
Decoding walks levels 3, 2, 1: the deepest stage is bilinearly upsampled
once to become the initial decoder state, then each level fuses the
decoder state with that stage's (augmented) features and runs a concat +
conv + transposed-conv block that doubles resolution.  Augmented features
feed the fusion block; the raw encoder features feed the concat skip.

Checkpoints are a directory of DAUG tensors plus a JSON manifest; a
reload reproduces eval-mode forward passes bit-exactly.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, field

import numpy as np

from . import daug
from .autodiff import (
    Tensor,
    bilinear_resize,
    conv2d,
    conv_transpose2d,
    gelu,
    relu,
)
from .errors import (ContractError, InputError, NumericDomainError,
                     check_seed, is_int)
from .fusion import FusionParams, cg_fuse
from .schema import check_keys, check_section, read_json
# wt_aug is unused here, but perfbench's tracer wraps augseg.model.wt_aug
from .wavelet import WtAugConfig, wt_aug  # noqa: F401

CHECKPOINT_MANIFEST = "checkpoint.json"


def _positive_ints(values, count, name) -> tuple:
    """``values`` as a tuple of ``count`` ints, each at least 1; otherwise
    a ``ContractError`` naming ``name``."""
    values = tuple(values)
    if len(values) != count or not all(is_int(v) and v >= 1 for v in values):
        raise ContractError(
            f"{name} must be {count} integers >= 1, got {list(values)!r}")
    return tuple(int(v) for v in values)


@dataclass
class EncoderSpec:
    channels: tuple = (24, 32, 48, 64)
    strides: tuple = (4, 8, 16, 32)
    seed: int = 0

    def __post_init__(self):
        self.channels = _positive_ints(self.channels, 4, "encoder.channels")
        self.strides = _positive_ints(self.strides, 4, "encoder.strides")
        # each decoder level doubles resolution, from stage 3's grid up to
        # twice stage 1's, which the seg head must not exceed
        s1, s2, s3, s4 = self.strides
        if s1 < 2 or s2 != 2 * s1 or s3 != 2 * s2 or s4 % s3:
            raise ContractError(
                "encoder.strides must be s, 2s, 4s and a multiple of 4s "
                f"with s >= 2, got {list(self.strides)!r}")
        check_seed(self.seed, "encoder seed")


@dataclass
class NetworkConfig:
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    num_classes: int = 3
    image_size: int = 64
    decoder_channels: tuple | None = None   # (D3, D2, D1); default stage widths
    head_count: int = 4
    ff_mult: int = 4
    wt_aug: tuple[WtAugConfig, ...] = (WtAugConfig(),) * 4
    use_cg_fuse: bool = True
    param_seed: int = 0

    def __post_init__(self):
        if isinstance(self.encoder, dict):
            self.encoder = EncoderSpec(**self.encoder)
        self.wt_aug = tuple(
            WtAugConfig(**w) if isinstance(w, dict) else w for w in self.wt_aug)
        if len(self.wt_aug) != 4:
            raise ContractError("one WtAugConfig per encoder stage")
        if self.num_classes < 2:
            raise ContractError("need background plus at least one class")
        check_seed(self.param_seed, "param_seed")
        deepest = self.encoder.strides[-1]
        if not (is_int(self.image_size) and self.image_size >= 1) or \
                self.image_size % deepest != 0:
            raise ContractError(
                f"image_size must be a positive multiple of the deepest "
                f"stride {deepest}, got {self.image_size!r}")
        if self.decoder_channels is None:
            c = self.encoder.channels
            self.decoder_channels = (c[2], c[1], c[0])
        self.decoder_channels = _positive_ints(
            self.decoder_channels, 3, "decoder_channels")
        if not (is_int(self.ff_mult) and self.ff_mult >= 1):
            raise ContractError(
                f"ff_mult must be an integer >= 1, got {self.ff_mult!r}")


@dataclass
class CcuParams:
    conv_w: Tensor
    conv_b: Tensor
    up_w: Tensor
    up_b: Tensor

    def named_tensors(self):
        return {"conv.weight": self.conv_w, "conv.bias": self.conv_b,
                "up.weight": self.up_w, "up.bias": self.up_b}


@dataclass
class HeadParams:
    conv_w: Tensor
    conv_b: Tensor
    out_w: Tensor
    out_b: Tensor

    def named_tensors(self):
        return {"conv.weight": self.conv_w, "conv.bias": self.conv_b,
                "out.weight": self.out_w, "out.bias": self.out_b}


def ccu(fused: Tensor, skip: Tensor, params: CcuParams) -> Tensor:
    """3x3 conv + relu over the channel join of ``fused`` and ``skip``,
    then a 2x2, stride-2 transposed conv (doubles H, W): one GEMM and a
    depth-to-space reshape, since its output windows do not overlap.

    The conv reads both maps as channel blocks, so no concat op is taped
    and no input gradient is formed for the frozen skip.
    """
    if fused.shape[2:] != skip.shape[2:]:
        raise ContractError(
            f"ccu spatial mismatch: {fused.shape[2:]} vs {skip.shape[2:]}")
    x = relu(conv2d([fused, skip], params.conv_w, params.conv_b, stride=1,
                    padding=1))
    return conv_transpose2d(x, params.up_w, params.up_b)


def seg_head(feat: Tensor, params: HeadParams, target_hw) -> Tensor:
    """3x3 conv + relu, 1x1 conv to class logits, bilinear resize."""
    if target_hw[0] < feat.shape[2] or target_hw[1] < feat.shape[3]:
        raise ContractError("seg_head target size must be >= feature size")
    x = relu(conv2d(feat, params.conv_w, params.conv_b, stride=1, padding=1))
    x = conv2d(x, params.out_w, params.out_b)
    return bilinear_resize(x, target_hw)


class Network:
    """Parameter container plus forward pass for the whole pipeline."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.param_seed)
        enc = config.encoder
        self._encoder_params = []
        enc_rng = np.random.default_rng(enc.seed)
        c_prev = 1
        for i, c_out in enumerate(enc.channels):
            k = 7 if i == 0 else 3
            w = Tensor((enc_rng.normal(size=(c_out, c_prev, k, k))
                        * np.sqrt(2.0 / (c_prev * k * k))).astype(np.float32))
            b = Tensor(enc_rng.normal(size=(c_out,)).astype(np.float32) * 0.1)
            self._encoder_params.append((w, b))
            c_prev = c_out

        c1, c2, c3, c4 = enc.channels
        d3, d2, d1 = config.decoder_channels
        dec_in = (c4, d3, d2)         # decoder-state channels entering each level
        enc_at = (c3, c2, c1)         # encoder-stage channels at levels 3, 2, 1
        self.fusion = {}
        self.ccu_params = {}
        for level, c_dec, c_enc, d_out in zip((3, 2, 1), dec_in, enc_at,
                                              (d3, d2, d1)):
            self.fusion[level] = FusionParams.create(
                c_dec, c_enc, rng, head_count=config.head_count,
                ff_mult=config.ff_mult)
            cin = c_dec + c_enc
            self.ccu_params[level] = CcuParams(
                conv_w=self._init(rng, (d_out, cin, 3, 3), cin * 9),
                conv_b=Tensor.zeros((d_out,), requires_grad=True),
                up_w=self._init(rng, (d_out, d_out, 2, 2), d_out * 4),
                up_b=Tensor.zeros((d_out,), requires_grad=True),
            )
        self.head = HeadParams(
            conv_w=self._init(rng, (d1, d1, 3, 3), d1 * 9),
            conv_b=Tensor.zeros((d1,), requires_grad=True),
            out_w=self._init(rng, (config.num_classes, d1, 1, 1), d1),
            out_b=Tensor.zeros((config.num_classes,), requires_grad=True),
        )

    @staticmethod
    def _init(rng, shape, fan_in):
        scale = np.sqrt(2.0 / fan_in)
        return Tensor((rng.normal(size=shape) * scale).astype(np.float32),
                      requires_grad=True)

    # ------------------------------------------------------------------
    # parameter registry
    # ------------------------------------------------------------------
    def parameters(self) -> dict:
        """Stable name -> Tensor map over every parameter, frozen included."""
        params = {}
        for i, (w, b) in enumerate(self._encoder_params, start=1):
            params[f"encoder.stage{i}.weight"] = w
            params[f"encoder.stage{i}.bias"] = b
        for level in (3, 2, 1):
            for name, t in self.fusion[level].named_tensors().items():
                params[f"fusion.level{level}.{name}"] = t
            for name, t in self.ccu_params[level].named_tensors().items():
                params[f"ccu.level{level}.{name}"] = t
        for name, t in self.head.named_tensors().items():
            params[f"head.{name}"] = t
        return params

    def trainable_parameters(self) -> dict:
        """The parameters training updates, in ``parameters()`` order;
        with CG-Fuse off the fusion blocks are unused and left out."""
        return {k: v for k, v in self.parameters().items() if v.requires_grad
                and (self.config.use_cg_fuse or not k.startswith("fusion."))}

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def encode(self, image: Tensor) -> list:
        """Four frozen stage feature maps at the configured strides.

        A pure function of the image: encoding a stacked batch gives the
        per-sample encodings stacked, bit for bit.
        """
        enc = self.config.encoder
        n, c, h, w = image.shape
        if h % enc.strides[-1] or w % enc.strides[-1]:
            raise ContractError(
                f"input {h}x{w} not divisible by deepest stride "
                f"{enc.strides[-1]}")
        if not np.all(np.isfinite(image.numpy())):
            raise NumericDomainError("input image has non-finite pixels")
        if c != 1:
            raise ContractError(
                f"input channels {c} != 1: the encoder reads grayscale images")
        stages = []
        x = image
        for i, (wgt, b) in enumerate(self._encoder_params):
            stride = enc.strides[0] if i == 0 else \
                enc.strides[i] // enc.strides[i - 1]
            pad = 3 if i == 0 else 1
            x = gelu(conv2d(x, wgt, b, stride=stride, padding=pad))
            stages.append(x)
        return stages

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(self, image: Tensor, mode: str = "eval", feature_aug=None,
                stages=None) -> Tensor:
        """Logits [N, num_classes, H, W].

        ``mode='train'`` augments the stage features with
        ``feature_aug(stage_array, stage_index)``, which returns an array
        of the same shape, when one is given; with none, and in eval mode,
        no augmentation is applied.
        ``stages``, when given, must be ``self.encode(image)``; callers
        that see the same images repeatedly pass it to skip the encoder.
        """
        if mode not in ("train", "eval"):
            raise ContractError(f"unknown mode {mode!r}")
        cfg = self.config
        if image.shape[2] != cfg.image_size or image.shape[3] != cfg.image_size:
            raise ContractError(
                f"input spatial {image.shape[2:]} != configured "
                f"{cfg.image_size}")
        if stages is None:
            stages = self.encode(image)
        if mode == "train" and feature_aug is not None:
            aug = [Tensor(feature_aug(f.data, i))
                   for i, f in enumerate(stages)]
        else:
            aug = stages
        f1, f2, f3, _ = stages
        a1, a2, a3, a4 = aug
        dec = bilinear_resize(a4, (f3.shape[2], f3.shape[3]))
        for level, enc_aug, enc_raw in ((3, a3, f3), (2, a2, f2), (1, a1, f1)):
            fused = cg_fuse(dec, enc_aug, self.fusion[level]) \
                if cfg.use_cg_fuse else dec
            dec = ccu(fused, enc_raw, self.ccu_params[level])
        return seg_head(dec, self.head, (cfg.image_size, cfg.image_size))


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
def save_checkpoint(out_dir, network: Network, epoch: int, seed: int,
                    extra=None):
    """Write every parameter as a DAUG tensor plus a JSON manifest.

    Only what ``load_checkpoint`` reads is written: no optimizer state,
    since nothing resumes training.

    The files are written to a sibling directory that then takes the
    place of ``out_dir``, so an interrupted save never leaves a manifest
    that does not match its tensors: an earlier checkpoint there stays
    whole until the new one is complete.
    """
    parent, name = os.path.split(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    partial = os.path.join(parent, f".{name}.partial-{os.getpid()}")
    old = os.path.join(parent, f".{name}.old-{os.getpid()}")
    shutil.rmtree(partial, ignore_errors=True)
    os.mkdir(partial)
    try:
        _write_checkpoint(partial, network, epoch, seed, extra)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if os.path.isdir(out_dir):
        shutil.rmtree(old, ignore_errors=True)
        os.replace(out_dir, old)
    os.replace(partial, out_dir)
    shutil.rmtree(old, ignore_errors=True)


def _write_checkpoint(out_dir, network, epoch, seed, extra):
    params = network.parameters()
    for name, tensor in params.items():
        daug.write_tensor(os.path.join(out_dir, name + ".daug"), tensor.numpy())
    manifest = {
        "format": "augseg-checkpoint",
        "epoch": epoch,
        "seed": seed,
        "config": asdict(network.config),
        "parameters": sorted(params),
        "extra": extra or {},
    }
    with open(os.path.join(out_dir, CHECKPOINT_MANIFEST), "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_checkpoint(ckpt_dir):
    """Rebuild the network (and manifest) from a checkpoint directory."""
    path = os.path.join(ckpt_dir, CHECKPOINT_MANIFEST)
    manifest = read_json(path, "checkpoint manifest")
    check_keys(path, "the manifest", manifest, (
        "format", "epoch", "seed", "config", "parameters", "extra"))
    for key in ("config", "parameters"):
        if key not in manifest:
            raise InputError(f"{path}: missing key {key!r}")
    check_section(path, "config", manifest["config"], NetworkConfig)
    network = Network(NetworkConfig(**manifest["config"]))
    params = network.parameters()
    if sorted(params) != manifest["parameters"]:
        raise InputError("checkpoint parameter names do not match the config")
    for name, tensor in params.items():
        arr = daug.read_tensor(os.path.join(ckpt_dir, name + ".daug"))
        if arr.shape != tensor.shape:
            raise InputError(
                f"checkpoint tensor {name} shape {arr.shape} != {tensor.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericDomainError(
                f"checkpoint tensor {name} has non-finite values")
        tensor.assign(arr)
    return network, manifest
