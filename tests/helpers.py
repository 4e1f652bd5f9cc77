"""Test-only helpers.

Two closed forms the program does not use, the misalignment-fading
density and the half-power pointing-error thresholds: its misdetection
probability is ``0.5 ** gamma^2`` in ``channel.derive_link_budget``, the
same threshold written another way.  And a stand-in for the SCA
surrogate that logs every value it gives.
"""

import math

from risthz.channel import LinkBudget
from risthz.optimizer import surrogate_objective

# exp(-2 eps_th^2 / w_eq^2) = 1/2  at  eps_th = sqrt(ln(sqrt(2))) * w_eq
_EPS_TH_FACTOR = math.sqrt(math.log(math.sqrt(2.0)))


def misalignment_pdf(x: float, A: float, gamma_ma: float) -> float:
    """Density of the misalignment fading value at x, for peak fraction A
    and shape parameter gamma_ma:  (g^2 / A^{g^2}) x^{g^2 - 1}."""
    if not 0.0 <= x <= A:
        raise ValueError(f"fading value {x} outside [0, {A}]")
    g2 = gamma_ma * gamma_ma
    return (g2 / A**g2) * x ** (g2 - 1.0)


def epsilon_threshold(budget: LinkBudget) -> tuple[float, float]:
    """Half-power pointing-error thresholds (eps_th_d, eps_th_r) [m]."""
    return _EPS_TH_FACTOR * budget.w_eq_d, _EPS_TH_FACTOR * budget.w_eq_r


def logged_surrogate(values):
    """``surrogate_objective`` that appends every surrogate value to values."""
    def staged(*args):
        at = surrogate_objective(*args)

        def at_x(x):
            fy, *bounds = at(x)

            def logged(y):
                values.append(fy(y))
                return values[-1]

            return logged, *bounds

        return at_x

    return staged
