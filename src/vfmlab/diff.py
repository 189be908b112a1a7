"""Analytic gradient of the MAP objective, exposed as one public op.

Gradients are hand-derived and implemented alongside the forward kernels;
this module wraps them with input checking and diagnostics.  Agreement with
central finite differences (1e-5 relative / 1e-8 absolute on smooth regions)
is enforced by the test suite, not at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_columns
from .errors import GradientError
from .models import (ModelSpec, build_plan, plan_loss_grad, plan_predict, scale_inputs,
                     task_columns)
from .optim import LossSpec, PriorMode, prior_loss_and_grad


@dataclass(frozen=True)
class GradientVector:
    """Objective value and its gradient in parameter order."""

    loss: float
    grad: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        if self.grad.shape != (len(self.names),):
            raise ValueError("gradient/name length mismatch")

    def by_name(self, name: str) -> float:
        return float(self.grad[self.names.index(name)])


def loss_gradient(m: ModelSpec, batch, loss: LossSpec) -> GradientVector:
    """d(MAP loss)/d(theta) over a batch of observations.

    The batch may be a WellDataset or a sequence of Observation.  A non-finite
    forward value raises GradientError carrying the index of the first
    offending observation within the batch.
    """
    plan = build_plan(m)
    _, X, y, well = as_columns(batch)
    if X.shape[0] == 0:
        return GradientVector(
            *prior_loss_and_grad(m.params, m.params.values, loss.prior_mode),
            names=m.params.names)
    X = np.ascontiguousarray(X)
    Xs = scale_inputs(plan, X)
    wells = task_columns(m, well)

    yhat = plan_predict(plan, m.params.values, X, Xs, wells)
    bad = ~np.isfinite(yhat)
    if np.any(bad):
        raise GradientError(int(np.argmax(bad)))

    inv_var = 1.0 / (loss.noise_std * loss.noise_std)
    sse, grad = plan_loss_grad(plan, m.params.values, X, Xs,
                               np.ascontiguousarray(y), inv_var, wells)
    ploss, pgrad = prior_loss_and_grad(m.params, m.params.values, loss.prior_mode)
    total = grad + pgrad
    if not np.all(np.isfinite(total)):
        raise GradientError(0, "non-finite gradient component")
    return GradientVector(sse + ploss, total, m.params.names)


__all__ = ["GradientVector", "loss_gradient", "LossSpec", "PriorMode"]
