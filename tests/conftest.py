# The package pins BLAS to one thread, but only before numpy is first
# imported; test modules import numpy before augseg, so import the
# package here, ahead of them.
import augseg  # noqa: F401
