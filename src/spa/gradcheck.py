"""Finite-difference verification of backward rules.

Central differences with step `H` compare against the tape's analytic
gradients. Relative error uses `FLOOR` in the denominator so that
elements whose true gradient is ~0 are judged on an absolute scale
instead of amplifying rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .numcore import Tape, Tensor, no_grad

H = 1e-5  # central-difference step
FLOOR = 1e-3  # least denominator of a relative error


@dataclass
class TensorCheck:
    index: int
    analytic: np.ndarray
    numeric: np.ndarray
    max_rel_err: float


@dataclass
class GradCheckReport:
    checks: list[TensorCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    def passed(self, tol: float) -> bool:
        return self.max_rel_err < tol

    def summary(self) -> str:
        return f"grad_check: {len(self.checks)} tensors, max rel err {self.max_rel_err:.3e}"


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), FLOOR)
    return np.abs(analytic - numeric) / denom


def grad_check(f, tensors) -> GradCheckReport:
    """Compare analytic gradients of scalar-valued f(*tensors) to central differences.

    f must be deterministic and must route every computation through numcore
    ops so the analytic side comes off the tape.
    """
    if isinstance(tensors, Tensor):
        tensors = [tensors]
    tensors = list(tensors)
    for t in tensors:
        t.requires_grad = True
        t.grad = None

    with Tape() as tape:
        loss = f(*tensors)
    if loss.data.size != 1:
        raise ContractError(f"grad_check needs a scalar-valued f, got shape {loss.shape}")
    tape.backward(loss)

    report = GradCheckReport()
    for i, t in enumerate(tensors):
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        with no_grad():
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + H
                up = float(f(*tensors).data.reshape(()))
                flat[j] = orig - H
                down = float(f(*tensors).data.reshape(()))
                flat[j] = orig
                num_flat[j] = (up - down) / (2.0 * H)
        err = _rel_err(analytic, numeric)
        report.checks.append(
            TensorCheck(
                index=i,
                analytic=analytic,
                numeric=numeric,
                max_rel_err=float(err.max()) if err.size else 0.0,
            )
        )
    return report
