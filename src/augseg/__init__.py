"""Few-shot segmentation toolkit: wavelet feature augmentation, cross-attention
fusion, a small autodiff tensor core, synthetic data, and a training harness."""

import os

# One BLAS thread, whatever the shell says: a multi-threaded GEMM splits
# its sums by the thread count, so seeded outputs would depend on the
# host's cores.  This acts only if numpy has not been imported yet.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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
