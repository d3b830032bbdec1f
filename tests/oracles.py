"""Scalar closed forms of the bandit, the reference for its vector forms.

A prompt here is its feature row psi = [1, s] and its label.  The
policy picks action 1 with probability sigma(theta . psi); the correct
action is 0 for an easy prompt and 1 for a hard one.  Each function is
the one-prompt form of `bandit.success_probs` or
`bandit.grad_success_probs`, computed with the same `bandit.expit`.
"""

import numpy as np

from passklab import SuccessProfile, pass_at_k, success_probs
from passklab.bandit import EASY, expit, sigmoid_slope


def action_prob(theta, psi, action: int) -> float:
    """Probability the logistic policy picks `action` on the prompt psi."""
    p1 = float(expit(np.asarray(theta, dtype=float) @ np.asarray(psi, dtype=float)))
    return p1 if action == 1 else 1.0 - p1


def success_prob(theta, psi, label: str) -> float:
    """Probability of picking the correct action for the prompt."""
    return action_prob(theta, psi, 0 if label == EASY else 1)


def grad_success_prob(theta, psi, label: str) -> np.ndarray:
    """Gradient of success_prob in theta: -z*psi for easy, +z*psi for hard."""
    psi = np.asarray(psi, dtype=float)
    z = float(sigmoid_slope(theta, psi))
    sign = -1.0 if label == EASY else 1.0
    return sign * z * psi


def batch_objective(theta, batch, k: int) -> float:
    """Mass-uniform k-attempt objective over the batch (exact closed form)."""
    return pass_at_k(SuccessProfile.uniform(success_probs(theta, batch)), k)
