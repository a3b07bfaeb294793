"""Composite quantum resource theories: build global theories from
heterogeneous local constraints, compute resource divergences with
certificates, check the universal transformation laws, and certify
resources remotely."""

__version__ = "0.1.0"

from .qcore import DensityOperator, TensorStructure  # noqa: F401
from .channels import KrausChannel, LfoccProtocol  # noqa: F401
from .divergences import DivergenceResult  # noqa: F401
