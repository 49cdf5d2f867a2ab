"""Reverse-mode numpy engine: tensors, a define-by-run tape, and ops."""

from .tensor import Parameter, Tape, Tensor, active_tape, as_tensor
from . import ops, parallel
from .gradcheck import (check_model_gradients, grad_check, op_suite_cases,
                        relative_error, run_op_suite)
from .ops import ShapeError

__all__ = [
    "Parameter", "Tape", "Tensor", "active_tape", "as_tensor", "ops",
    "parallel",    "ShapeError", "grad_check", "relative_error", "run_op_suite",
    "op_suite_cases", "check_model_gradients",
]
