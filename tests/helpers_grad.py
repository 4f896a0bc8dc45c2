"""Finite-difference gradient oracle shared by unit and acceptance tests."""

import numpy as np

from vecdrive.planner import PlannerModel, _bind, _pack, _run_forward, imitation_loss


def fd_gradients(model: PlannerModel, scenario, command, gt, eps=1e-5):
    """Central finite differences of the imitation loss w.r.t. every parameter.

    The scenario is packed and the parameters bound once, and each loss
    runs ``_run_forward``, as the public ``forward`` does. The bound
    arrays are the model's own, so every perturbation below reaches it.
    """
    bound = _bind(model.params)
    packed = _pack(scenario, command)

    def loss():
        pred, _ = _run_forward(bound, model.config, packed)
        return imitation_loss(pred.tolist(), gt)

    grads = {}
    for name, arr in model.params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            hi = loss()
            flat[i] = original - eps
            lo = loss()
            flat[i] = original
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric, loss, eps=1e-5):
    """max over components of |a - b| / max(|a|, |b|, floor).

    The difference quotient carries round-off noise of a few tens of
    ULPs of the loss divided by 2*eps (about 1e-9 absolute at loss ~50),
    so components near zero cannot be compared relatively. The floor is
    that noise bound divided by the 1e-4 target, keeping pure-noise
    discrepancies at ~1e-5 relative while leaving every component large
    enough to carry signal on the true relative scale.
    """
    floor = 5e4 * np.finfo(float).eps * max(1.0, abs(loss)) / eps
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        b = numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        err = np.abs(a - b) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
