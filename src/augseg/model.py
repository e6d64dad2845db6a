"""Network assembly: frozen multi-scale encoder, wavelet-augmented skip
connections, cross-attention fusion, and a convolutional decoder.

The encoder is pluggable: a "toy" variant (four frozen strided conv
stages at strides 4/8/16/32, seeded once, never trained) stands in for a
large pretrained backbone, and a "file" variant loads per-stage feature
tensors verbatim.  Decoding walks levels 3, 2, 1: the deepest stage is
bilinearly upsampled once to become the initial decoder state, then each
level fuses the decoder state with that stage's (augmented) features and
runs a concat + conv + transposed-conv block that doubles resolution.
Augmented features feed the fusion block; the raw encoder features feed
the concat skip (switchable via ``ccu_skip_augmented``).

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
    concat,
    conv2d,
    conv_transpose2d,
    gelu,
    relu,
)
from .errors import ContractError, InputError, NumericDomainError
from .fusion import FusionParams, cg_fuse
from .wavelet import WtAugConfig, wt_aug

CHECKPOINT_MANIFEST = "checkpoint.json"


@dataclass
class EncoderSpec:
    kind: str = "toy"                      # "toy" | "file"
    channels: tuple = (24, 32, 48, 64)
    strides: tuple = (4, 8, 16, 32)
    in_channels: int = 1
    seed: int = 0
    path_template: str | None = None       # file encoder: "...stage{stage}.daug"

    def __post_init__(self):
        self.channels = tuple(self.channels)
        self.strides = tuple(self.strides)
        if self.kind not in ("toy", "file"):
            raise ContractError(f"unknown encoder kind {self.kind!r}")
        if len(self.channels) != 4 or len(self.strides) != 4:
            raise ContractError("encoder has exactly 4 stages")
        if list(self.strides) != sorted(self.strides):
            raise ContractError("strides must be nondecreasing")
        if self.kind == "file" and not self.path_template:
            raise ContractError("file encoder needs a path template")


@dataclass
class NetworkConfig:
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    num_classes: int = 3
    image_size: int = 64
    decoder_channels: tuple | None = None   # (D3, D2, D1); default stage widths
    head_count: int = 4
    ff_mult: int = 4
    wt_aug: tuple = (WtAugConfig(), WtAugConfig(), WtAugConfig(), WtAugConfig())
    use_cg_fuse: bool = True
    ccu_skip_augmented: bool = False
    param_seed: int = 0

    def __post_init__(self):
        if isinstance(self.encoder, dict):
            self.encoder = EncoderSpec(**self.encoder)
        if isinstance(self.wt_aug, WtAugConfig):
            self.wt_aug = (self.wt_aug,) * 4
        self.wt_aug = tuple(
            WtAugConfig(**w) if isinstance(w, dict) else w for w in self.wt_aug)
        if len(self.wt_aug) != 4:
            raise ContractError("one WtAugConfig per encoder stage")
        if self.num_classes < 2:
            raise ContractError("need background plus at least one class")
        if self.image_size % self.encoder.strides[-1] != 0:
            raise ContractError(
                f"image size {self.image_size} not divisible by deepest "
                f"stride {self.encoder.strides[-1]}")
        if self.decoder_channels is None:
            c = self.encoder.channels
            self.decoder_channels = (c[2], c[1], c[0])
        self.decoder_channels = tuple(self.decoder_channels)

    def to_json(self) -> str:
        blob = asdict(self)
        for cfg in blob["wt_aug"]:
            cfg["keep_prob"] = list(cfg["keep_prob"])
        return json.dumps(blob, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        blob = json.loads(text)
        blob["wt_aug"] = tuple(
            WtAugConfig(keep_prob=tuple(w["keep_prob"]), seed=w["seed"],
                        channel_shared=w["channel_shared"])
            for w in blob["wt_aug"])
        blob["encoder"] = EncoderSpec(**blob["encoder"])
        for key in ("channels", "strides"):
            setattr(blob["encoder"], key, tuple(getattr(blob["encoder"], key)))
        return cls(**blob)


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
    """Concatenate, 3x3 conv + relu, stride-2 transposed conv (doubles H, W)."""
    if fused.shape[2:] != skip.shape[2:]:
        raise ContractError(
            f"ccu spatial mismatch: {fused.shape[2:]} vs {skip.shape[2:]}")
    x = concat([fused, skip], axis=1)
    x = relu(conv2d(x, params.conv_w, params.conv_b, stride=1, padding=1))
    return conv_transpose2d(x, params.up_w, params.up_b, stride=2)


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
        if enc.kind == "toy":
            enc_rng = np.random.default_rng(enc.seed)
            c_prev = enc.in_channels
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
        return {k: v for k, v in self.parameters().items() if v.requires_grad}

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
        if enc.kind == "file":
            return self._encode_from_files(image)
        if c != enc.in_channels:
            raise ContractError(
                f"input channels {c} != encoder in_channels {enc.in_channels}")
        stages = []
        x = image
        for i, (wgt, b) in enumerate(self._encoder_params):
            stride = enc.strides[0] if i == 0 else \
                enc.strides[i] // enc.strides[i - 1]
            pad = 3 if i == 0 else 1
            x = gelu(conv2d(x, wgt, b, stride=stride, padding=pad))
            stages.append(x)
        return stages

    def _encode_from_files(self, image: Tensor) -> list:
        enc = self.config.encoder
        n, _, h, w = image.shape
        stages = []
        for i in range(1, 5):
            path = enc.path_template.format(stage=i)
            if not os.path.exists(path):
                raise InputError(f"stage {i} feature file missing: {path}")
            arr = daug.read_tensor(path)
            want = (n, enc.channels[i - 1],
                    h // enc.strides[i - 1], w // enc.strides[i - 1])
            if arr.shape != want:
                raise InputError(
                    f"stage {i} feature shape {arr.shape} != expected {want}")
            if not np.all(np.isfinite(arr)):
                raise NumericDomainError(
                    f"stage {i} features have non-finite values: {path}")
            stages.append(Tensor(arr.astype(np.float32)))
        return stages

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(self, image: Tensor, mode: str = "eval", rng=None,
                feature_aug=None, stages=None) -> Tensor:
        """Logits [N, num_classes, H, W].

        ``mode='train'`` augments the stage features (wavelet masking by
        default, or ``feature_aug(stage_tensor, stage_index)`` when
        given); eval mode is deterministic and applies no augmentation.
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
        if mode == "train":
            if feature_aug is None:
                if rng is None:
                    rng = np.random.default_rng(cfg.wt_aug[0].seed)
                aug = [wt_aug(f, cfg.wt_aug[i], rng=rng)
                       for i, f in enumerate(stages)]
            else:
                aug = [feature_aug(f, i) for i, f in enumerate(stages)]
        else:
            aug = stages
        f1, f2, f3, _ = stages
        a1, a2, a3, a4 = aug
        dec = bilinear_resize(a4, (f3.shape[2], f3.shape[3]))
        for level, enc_aug, enc_raw in ((3, a3, f3), (2, a2, f2), (1, a1, f1)):
            fused = cg_fuse(dec, enc_aug, self.fusion[level]) \
                if cfg.use_cg_fuse else dec
            skip = enc_aug if cfg.ccu_skip_augmented else enc_raw
            dec = ccu(fused, skip, self.ccu_params[level])
        return seg_head(dec, self.head, (cfg.image_size, cfg.image_size))


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
def save_checkpoint(out_dir, network: Network, epoch: int, seed: int,
                    optimizer_state=None, extra=None):
    """Write every parameter as a DAUG tensor plus a JSON manifest.

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
        _write_checkpoint(partial, network, epoch, seed, optimizer_state,
                          extra)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if os.path.isdir(out_dir):
        shutil.rmtree(old, ignore_errors=True)
        os.replace(out_dir, old)
    os.replace(partial, out_dir)
    shutil.rmtree(old, ignore_errors=True)


def _write_checkpoint(out_dir, network, epoch, seed, optimizer_state, extra):
    params = network.parameters()
    for name, tensor in params.items():
        daug.write_tensor(os.path.join(out_dir, name + ".daug"), tensor.numpy())
    manifest = {
        "format": "augseg-checkpoint",
        "epoch": epoch,
        "seed": seed,
        "config": json.loads(network.config.to_json()),
        "parameters": sorted(params),
        "extra": extra or {},
    }
    if optimizer_state is not None:
        manifest["optimizer"] = {"step": optimizer_state.step}
        for name, m in optimizer_state.m.items():
            daug.write_tensor(os.path.join(out_dir, f"opt.m.{name}.daug"), m)
        for name, v in optimizer_state.v.items():
            daug.write_tensor(os.path.join(out_dir, f"opt.v.{name}.daug"), v)
    with open(os.path.join(out_dir, CHECKPOINT_MANIFEST), "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_checkpoint(ckpt_dir):
    """Rebuild the network (and manifest) from a checkpoint directory."""
    path = os.path.join(ckpt_dir, CHECKPOINT_MANIFEST)
    if not os.path.exists(path):
        raise InputError(f"checkpoint manifest missing: {path}")
    with open(path) as fh:
        manifest = json.load(fh)
    config = NetworkConfig.from_json(json.dumps(manifest["config"]))
    network = Network(config)
    params = network.parameters()
    if sorted(params) != manifest["parameters"]:
        raise InputError("checkpoint parameter names do not match the config")
    for name, tensor in params.items():
        arr = daug.read_tensor(os.path.join(ckpt_dir, name + ".daug"))
        if arr.shape != tensor.shape:
            raise InputError(
                f"checkpoint tensor {name} shape {arr.shape} != {tensor.shape}")
        tensor.assign(arr)
    return network, manifest
