"""Unit conventions.

All energies and frequencies inside the library are angular frequencies in
rad/us (hbar = 1), so decoherence rates come out in 1/us and coherence times
in us without further conversion.  The gate-design module works in rad/ns and
converts on entry.
"""

import math

TWO_PI = 2.0 * math.pi

#: multiply a linear frequency in GHz by this to get rad/us
GHZ_TO_RAD_PER_US = TWO_PI * 1.0e3

#: Boltzmann constant in J/K, exact in the 2019 SI
_K_B = 1.380649e-23

#: reduced Planck constant in J s: h / (2 pi) with h = 6.62607015e-34 J s
#: exact in the 2019 SI, so this is a derived value (the nearest double)
_HBAR = 1.0545718176461565e-34

#: k_B / hbar expressed in rad/us per kelvin
KB_OVER_HBAR_RAD_PER_US_PER_K = _K_B / _HBAR * 1.0e-6

#: rad/us -> rad/ns
RAD_PER_US_TO_RAD_PER_NS = 1.0e-3


def ghz(value: float) -> float:
    """Angular frequency in rad/us for a linear frequency in GHz."""
    return value * GHZ_TO_RAD_PER_US
