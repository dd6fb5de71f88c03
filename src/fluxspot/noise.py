"""Noise spectral density and decoherence rates.

The bath model combines 1/f flux noise and thermal dielectric loss,

    S(omega) = a_f^2 |2 pi / omega| + kappa(omega, T) a_d (omega / 2 pi)^2,
    kappa    = |coth(omega / (2 kB T / hbar)) + 1| / 2,

with an infrared clamp and a hard ultraviolet cutoff.  Filter weights convert
S into a pure-dephasing rate and the two relaxation rates; the singular k = 0
piece of the 1/f dephasing enters through a dedicated first-order term whose
logarithmic prefactor is a documented convention (see ``NoiseModel``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import InvalidParameterError, check_finite
from .units import GHZ_TO_RAD_PER_US, KB_OVER_HBAR_RAD_PER_US_PER_K, TWO_PI

__all__ = ["NoiseModel", "RateReport", "spectral_density", "decoherence_rates"]


@dataclass(frozen=True)
class NoiseModel:
    """Bath parameters in the internal rad/us unit system.

    ``a_f`` and ``a_d`` are the composite 1/f and dielectric amplitudes
    (matrix elements already folded in); ``temperature`` is in kelvin.

    ``dephasing_log_factor`` is the slow-logarithm ``|ln(omega_ir t_m)|`` of
    the first-order 1/f dephasing term, entering linearly as
    ``sqrt(2) * dephasing_log_factor``; the default 4.0 corresponds to a
    measurement window some seven decades above the infrared cutoff.
    ``dephasing_scale`` (default 4.0) multiplies the whole dephasing rate.
    It was fitted to the benchmark coherence times of the reference device
    (see ``fluxspot.reference``), which were computed with this same model:
    a calibrated rule of thumb, not a derived constant.  Every field must be
    finite, and the amplitudes and the two dephasing factors non-negative.
    """

    a_f: float
    a_d: float
    temperature: float = 0.015
    omega_ir: float = TWO_PI * 1.0e-6
    omega_uv: float = 3.0 * GHZ_TO_RAD_PER_US
    dephasing_log_factor: float = 4.0
    dephasing_scale: float = 4.0

    def __post_init__(self) -> None:
        check_finite(**asdict(self))
        if self.a_f < 0.0 or self.a_d < 0.0:
            raise InvalidParameterError("noise amplitudes must be >= 0")
        # a negative factor would turn dephasing into a gain
        for name in ("dephasing_log_factor", "dephasing_scale"):
            if getattr(self, name) < 0.0:
                raise InvalidParameterError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.temperature <= 0.0:
            raise InvalidParameterError("temperature must be positive")
        if not 0.0 < self.omega_ir < self.omega_uv:
            raise InvalidParameterError("need 0 < omega_ir < omega_uv")

    @classmethod
    def from_loss_params(
        cls,
        delta_f: float,
        tan_delta_c: float,
        e_l: float,
        e_c: float,
        phi_ge: float,
        **kwargs,
    ) -> "NoiseModel":
        """Build the composite amplitudes from material loss parameters.

        ``delta_f`` is the dimensionless 1/f flux-noise amplitude (units of
        the flux quantum), ``tan_delta_c`` the dielectric loss tangent;
        ``e_l``/``e_c`` in rad/us and ``phi_ge`` from the circuit reduction.
        The two loss parameters must be finite.
        """
        check_finite(delta_f=delta_f, tan_delta_c=tan_delta_c)
        a_f = TWO_PI * delta_f * e_l * abs(phi_ge)
        a_d = np.pi**2 * tan_delta_c * phi_ge**2 / e_c
        return cls(a_f=a_f, a_d=a_d, **kwargs)

    @property
    def thermal_frequency(self) -> float:
        """k_B T / hbar in rad/us."""
        return KB_OVER_HBAR_RAD_PER_US_PER_K * self.temperature


@dataclass(frozen=True)
class RateReport:
    """Decoherence rates (1/us); ``gamma_1`` and the coherence times ``t1`` and
    ``t_phi`` (us) are derived, a time inf where its rate is not positive."""

    gamma_z: float
    gamma_plus: float
    gamma_minus: float

    @property
    def gamma_1(self) -> float:
        return self.gamma_plus + self.gamma_minus

    @property
    def t1(self) -> float:
        return 1.0 / self.gamma_1 if self.gamma_1 > 0.0 else np.inf

    @property
    def t_phi(self) -> float:
        return 1.0 / self.gamma_z if self.gamma_z > 0.0 else np.inf


def spectral_density(noise: NoiseModel, omega):
    """Noise spectral density S(omega) in rad/us; scalar or array ``omega``.

    Frequencies inside the infrared window are clamped to
    ``sign(omega) * omega_ir`` (zero counts as positive); anything beyond the
    ultraviolet cutoff returns exactly 0.
    """
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    om = np.atleast_1d(om)
    sign = np.where(om >= 0.0, 1.0, -1.0)
    clamped = np.where(np.abs(om) < noise.omega_ir, sign * noise.omega_ir, om)
    kappa = 0.5 * np.abs(1.0 / np.tanh(clamped / (2.0 * noise.thermal_frequency)) + 1.0)
    s = noise.a_f**2 * np.abs(TWO_PI / clamped)
    s = s + kappa * noise.a_d * (clamped / TWO_PI) ** 2
    s = np.where(np.abs(om) > noise.omega_uv, 0.0, s)
    return float(s[0]) if scalar else s


def decoherence_rates(g_z, g_plus, omega_gap, omega_d, noise: NoiseModel):
    """Dephasing and relaxation rates ``(gamma_z, gamma_plus, gamma_minus)``,
    each ``(rows,)``, of stacked filter weights ``(rows, 2 k_max + 1)`` at
    gaps and drive frequencies ``(rows,)``; each row's sums run over that
    row alone.

    gamma_z carries the first-order 1/f term from the central weight plus the
    quadratic contributions of the k != 0 harmonics sampled at ``k omega_d``;
    gamma_plus/gamma_minus sample the spectrum at ``k omega_d -/+ omega_gap``
    with ``g_plus`` and ``g_minus[k] = conj(g_plus[-k])``, summed over all k.
    """
    center = (g_z.shape[-1] - 1) // 2
    k_omega = np.arange(-center, center + 1) * omega_d[:, None]
    gap = omega_gap[:, None]
    s_deph, s_up, s_down = spectral_density(
        noise, np.stack((k_omega, k_omega - gap, k_omega + gap))
    )
    first_order = (
        0.5
        * np.abs(g_z[:, center])
        * noise.a_f
        * np.sqrt(2.0)
        * noise.dephasing_log_factor
    )
    quad = np.abs(g_z) ** 2 * s_deph
    quad[:, center] = 0.0
    gamma_z = noise.dephasing_scale * (first_order + 0.25 * np.sum(quad, axis=-1))
    gamma_plus = np.sum(np.abs(g_plus) ** 2 * s_up, axis=-1)
    gamma_minus = np.sum(np.abs(g_plus[..., ::-1].conj()) ** 2 * s_down, axis=-1)
    return gamma_z, gamma_plus, gamma_minus
