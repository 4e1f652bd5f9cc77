"""Link-budget derivation and stochastic channel sampling.

Covers the deterministic quantities of the two-path (direct + RIS)
geometry: free-space/absorption path gains, Gaussian-beam widths,
collected-power fractions, misalignment-fading distribution parameters,
the per-path misdetection probabilities and the power gains at the
half-power fading threshold, plus the fading and channel-gain kernel
applied to sampled blockage states and pointing errors (floats or
per-slot arrays).

The error function is evaluated via ``math.erf`` (C library erf,
correctly rounded to double precision).  numpy is imported only inside
the array kernels, so link budgets cost no numpy start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SPEED_OF_LIGHT, SystemConfig


@dataclass(frozen=True)
class LinkBudget:
    eta_d: float        # direct-path amplitude gain coefficient
    eta_r: float        # RIS-path amplitude gain coefficient
    w_d: float          # direct-beam radius at UE [m]
    a_U: float          # UE effective aperture radius [m]
    a_RIS: float        # RIS effective aperture radius [m]
    A_d: float          # peak collected fraction, direct path
    A_r: float          # peak collected fraction, RIS->UE hop
    A_RIS: float        # fraction of BS beam collected by the RIS
    w_eq_d: float       # equivalent beamwidth, direct [m]
    w_eq_r: float       # equivalent beamwidth, reflected [m]
    gamma_ma_d: float   # misalignment shape parameter, direct
    gamma_ma_r: float   # misalignment shape parameter, reflected
    q_md: float         # misdetection probability, direct
    q_mr: float         # misdetection probability, reflected
    rho_th_d: float     # half-power fading threshold A_d/2
    rho_th_r: float     # half-power fading threshold A_RIS*A_r/2
    c_d: float          # direct power gain at the threshold, eta_d^2 rho_th_d
    c_r: float          # RIS power gain at the threshold, eta_r^2 rho_th_r
    G_R: float          # RIS reflected-beam gain, linear
    sigma_n2: float     # noise power N0*B [W]


def collection_fraction(a: float, w: float) -> tuple[float, float]:
    """Peak collected power fraction A = erf(v)^2 for aperture radius a
    and beam radius w; returns (A, v)."""
    v = math.sqrt(math.pi) * a / (math.sqrt(2.0) * w)
    e = math.erf(v)
    return e * e, v


def equivalent_width_sq(w: float, v: float) -> float:
    """Squared equivalent beamwidth w_eq^2 = w^2 * sqrt(pi) erf(v) / (2 v e^{-v^2}).

    ``math.inf``, the formula's limit, where e^{-v^2} underflows to 0
    (v > 27.3, beams far narrower than the aperture).
    """
    tail = math.exp(-v * v)
    if tail == 0.0:
        return math.inf
    return w * w * math.sqrt(math.pi) * math.erf(v) / (2.0 * v * tail)


def ris_gain(d_RU: float, w_r: float) -> float:
    """Gain-beamwidth relation G = 8 d^2 / w^2 for a Gaussian beam."""
    return 8.0 * d_RU * d_RU / (w_r * w_r)


def derive_link_budget(cfg: SystemConfig) -> LinkBudget:
    """Compute all deterministic link-budget quantities for a config.

    Pure function: identical configs yield identical budgets.
    """
    c = SPEED_OF_LIGHT
    lam = c / cfg.f
    G_R = ris_gain(cfg.d_RU, cfg.w_r)

    eta_d = (
        math.sqrt(cfg.G_B * cfg.G_U) * c / (4.0 * math.pi * cfg.f * cfg.d_BU)
        * math.exp(-0.5 * cfg.k_a * cfg.d_BU)
    )
    eta_r = (
        math.sqrt(cfg.G_B * G_R * cfg.G_U) * c
        / (4.0 * math.pi * cfg.f * cfg.d_BR * cfg.d_RU)
        * math.exp(-0.5 * cfg.k_a * (cfg.d_BR + cfg.d_RU))
    )

    w_d = math.sqrt(8.0) * cfg.d_BU / math.sqrt(cfg.G_B)
    a_U = c * math.sqrt(cfg.G_U) / (2.0 * math.pi * cfg.f)
    a_RIS = (lam / 4.0) * math.sqrt(cfg.N_R)
    w_at_RIS = math.sqrt(8.0) * cfg.d_BR / math.sqrt(cfg.G_B)

    A_d, v_d = collection_fraction(a_U, w_d)
    A_RIS, _ = collection_fraction(a_RIS, w_at_RIS)
    A_r, v_r = collection_fraction(a_U, cfg.w_r)

    w_eq_d = math.sqrt(equivalent_width_sq(w_d, v_d))
    w_eq_r = math.sqrt(equivalent_width_sq(cfg.w_r, v_r))

    gamma_ma_d = w_eq_d / (2.0 * cfg.sigma_md)
    gamma_ma_r = w_eq_r / (2.0 * cfg.sigma_mr)
    q_md = 0.5 ** (gamma_ma_d * gamma_ma_d)
    q_mr = 0.5 ** (gamma_ma_r * gamma_ma_r)
    rho_th_d, rho_th_r = A_d / 2.0, A_RIS * A_r / 2.0

    return LinkBudget(
        eta_d=eta_d,
        eta_r=eta_r,
        w_d=w_d,
        a_U=a_U,
        a_RIS=a_RIS,
        A_d=A_d,
        A_r=A_r,
        A_RIS=A_RIS,
        w_eq_d=w_eq_d,
        w_eq_r=w_eq_r,
        gamma_ma_d=gamma_ma_d,
        gamma_ma_r=gamma_ma_r,
        q_md=q_md,
        q_mr=q_mr,
        rho_th_d=rho_th_d,
        rho_th_r=rho_th_r,
        c_d=eta_d**2 * rho_th_d,
        c_r=eta_r**2 * rho_th_r,
        G_R=G_R,
        sigma_n2=cfg.N0 * cfg.B,
    )


def misalignment_pdf(x: float, A: float, gamma_ma: float) -> float:
    """Density of the misalignment fading value at x, for peak fraction A
    and shape parameter gamma_ma:  (g^2 / A^{g^2}) x^{g^2 - 1}."""
    if not 0.0 <= x <= A:
        raise ValueError(f"fading value {x} outside [0, {A}]")
    g2 = gamma_ma * gamma_ma
    return (g2 / A**g2) * x ** (g2 - 1.0)


def misalignment_cdf(x: float, A: float, gamma_ma: float) -> float:
    """CDF of the misalignment fading value: (x / A)^{g^2}."""
    if not 0.0 <= x <= A:
        raise ValueError(f"fading value {x} outside [0, {A}]")
    return (x / A) ** (gamma_ma * gamma_ma)


def fading_coefficient(eps, A_peak: float, w_eq: float, out=None):
    """Collected-power fraction rho = A_peak * exp(-2 eps^2 / w_eq^2) at
    radial pointing error ``eps`` (float or array), written into the array
    ``out`` if one is given, else into fresh storage.

    For the RIS path the caller passes A_peak = A_RIS * A_r.
    """
    import numpy as np

    rho = np.square(eps, out=out)
    rho = np.multiply(-2.0, rho, out=out)
    rho = np.divide(rho, w_eq**2, out=out)
    return np.multiply(A_peak, np.exp(rho, out=out), out=out)


def channel_gains(budget: LinkBudget, beta_d, beta_r, eps_d, eps_r, out=None):
    """Squared channel magnitudes (|h|^2, |g|^2) at blockage indicators
    ``beta_*`` (1 = path available) and pointing errors ``eps_*``, elementwise
    over floats or per-slot arrays.

    ``out`` is None or three float arrays of the slots' shape: |h|^2 and
    |g|^2 are written into the first two, and the third holds each path's
    fading coefficient on the way.  The inputs are left unchanged."""
    import numpy as np

    h2, g2, rho = (None, None, None) if out is None else out
    rho_d = fading_coefficient(eps_d, budget.A_d, budget.w_eq_d, out=rho)
    h2 = np.multiply(np.multiply(beta_d, budget.eta_d**2, out=h2), rho_d, out=h2)
    rho_r = fading_coefficient(eps_r, budget.A_RIS * budget.A_r, budget.w_eq_r, out=rho)
    g2 = np.multiply(np.multiply(beta_r, budget.eta_r**2, out=g2), rho_r, out=g2)
    return h2, g2
