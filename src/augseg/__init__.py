"""Few-shot segmentation toolkit: wavelet feature augmentation, cross-attention
fusion, a small autodiff tensor core, synthetic data, and a training harness."""

from .autodiff import GradTape, Tensor, finite_diff_check, use_tape
from .errors import (
    AugsegError,
    ContractError,
    DimensionError,
    FormatError,
    InputError,
    InvariantError,
    NumericDomainError,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "GradTape",
    "finite_diff_check",
    "use_tape",
    "AugsegError",
    "ContractError",
    "DimensionError",
    "FormatError",
    "InputError",
    "InvariantError",
    "NumericDomainError",
    "__version__",
]
