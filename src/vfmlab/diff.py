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
from .models import ModelSpec, plan_predict, scale_inputs, task_columns
from .optim import LossSpec, PriorMode, TrainingStep, prior_loss_and_grad


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
    step = TrainingStep(m, loss.noise_std, loss.prior_mode)
    plan = step.plan
    _, X, y, well = as_columns(batch)
    if X.shape[0] == 0:
        return GradientVector(
            *prior_loss_and_grad(m.params, m.params.values, loss.prior_mode),
            names=m.params.names)
    X = np.ascontiguousarray(X)
    Xs = scale_inputs(plan, X)
    wells = task_columns(m, well)

    theta = m.params.values
    yhat = plan_predict(plan, theta, X, Xs, wells)
    bad = ~np.isfinite(yhat)
    if np.any(bad):
        raise GradientError(int(np.argmax(bad)))

    y = step.targets(y)
    total = step.grad(theta, X, Xs, y, wells)
    if not np.all(np.isfinite(total)):
        raise GradientError(0, "non-finite gradient component")
    return GradientVector(step.loss(theta, X, Xs, y, wells), total, m.params.names)


__all__ = ["GradientVector", "loss_gradient", "LossSpec", "PriorMode"]
