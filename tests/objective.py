"""The MAP objective computed without ``optim.TrainingStep``, as an oracle.

``map_objective`` takes predictions from ``models.predict`` in raw units and
sums the data term and the prior term by hand, one row and one parameter at a
time.  ``step_loss_grad`` evaluates a ``TrainingStep``'s loss, and the
gradient a fit's step takes (the kind's gradient kernel plus the prior's), on
every row of a dataset, as ``fit_map`` does on a batch, so tests can hold the
library's loss and gradient to the hand-summed objective.
"""

import numpy as np

from vfmlab import ModelKind, PriorMode, predict
from vfmlab.models import plan_loss_grad, scale_inputs, task_columns
from vfmlab.optim import TrainingStep


def map_objective(m, ds, loss) -> float:
    """sum_i ((y_i - yhat_i)/sigma)^2 + sum_{j in prior} ((theta_j - mu_j)/s_j)^2."""
    yhat = predict(m, ds.X, ds.well if m.kind is ModelKind.MTL else None)
    data = 0.0
    for y_i, yhat_i in zip(ds.y, yhat):
        data += ((y_i - yhat_i) / loss.noise_std) ** 2
    p = m.params
    prior = 0.0
    for j in range(len(p)):
        if loss.prior_mode is PriorMode.FULL or (
                loss.prior_mode is PriorMode.PHYSICAL_ONLY and p.is_physical[j]):
            prior += ((p.values[j] - p.prior_mean[j]) / p.prior_std[j]) ** 2
    return float(data + prior)


def step_loss_grad(m, ds, loss) -> tuple[float, np.ndarray]:
    """TrainingStep.loss, and plan_loss_grad's gradient plus the prior's, of
    the model on all rows of ds."""
    step = TrainingStep(m, loss.noise_std, loss.prior_mode)
    X = np.ascontiguousarray(ds.X)
    Xs = scale_inputs(step.plan, X)
    y = step.targets(ds.y)
    wells = task_columns(m, ds.well)
    theta = m.params.values
    _, grad = plan_loss_grad(step.plan, theta, X, Xs, y, step.inv_var, wells)
    step.prior.add_grad(theta, grad)
    return step.loss(theta, X, Xs, y, wells), grad
