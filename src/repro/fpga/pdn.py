"""Power delivery network: the regulated rail.

Two physical regimes matter for the paper's argument:

* **Unstabilized shared PDN** (what prior crafted-circuit attacks
  exploit): a victim's current step produces a transient voltage drop
  ``V_drop = I*R + L*dI/dt`` (paper Eq. 1) that a co-resident sensor
  circuit can observe.
* **Stabilized rail** (what modern boards ship): a point-of-load
  regulator holds the rail inside a narrow band (0.825-0.876 V on Zynq
  UltraScale+), leaving only a millivolt-scale load-line droop plus
  ripple.  Voltage leakage nearly vanishes — but since ``P = V * I``
  with V pinned, the *current* tracks the victim's power one-for-one,
  which is exactly the channel AmpereBleed reads through the INA226s.

:class:`VoltageRegulator` implements the stabilized rail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class VoltageRegulator:
    """Point-of-load regulator with load-line droop, clamped to a band.

    The output voltage under load ``I`` is::

        V(I) = v_set - r_loadline * I - k_quadratic * I^2

    clamped into ``band``.  The quadratic term models the mild
    nonlinearity of real multi-phase regulators near their current
    limit; it is what keeps the RO baseline's correlation with victim
    activity slightly below a perfect -1 (paper: -0.996) even before
    noise.

    Attributes:
        v_set: regulation setpoint in volts (defaults to mid-band of the
            Zynq UltraScale+ range).
        band: allowed (min, max) output voltage.
        r_loadline: linear droop in ohms.  The default 0.45 mOhm gives
            ~3 mV of droop over the power-virus sweep's ~6.4 A dynamic
            range — inside the 51 mV stabilizer band, as measured on
            the real board.
        k_quadratic: second-order droop coefficient in V/A^2.
    """

    v_set: float = 0.8505
    band: Tuple[float, float] = (0.825, 0.876)
    r_loadline: float = 0.45e-3
    k_quadratic: float = 6.0e-6

    def __post_init__(self):
        require_positive(self.v_set, "v_set")
        low, high = self.band
        if not (0 < low <= high):
            raise ValueError(f"invalid regulation band {self.band}")
        if not (low <= self.v_set <= high):
            raise ValueError(
                f"setpoint {self.v_set} outside regulation band {self.band}"
            )
        require_non_negative(self.r_loadline, "r_loadline")
        require_non_negative(self.k_quadratic, "k_quadratic")

    def voltage(self, current: np.ndarray, ripple: np.ndarray = 0.0) -> np.ndarray:
        """Rail voltage under load ``current`` (amps), plus ``ripple``.

        ``ripple`` is additive noise in volts (regulator switching
        ripple, already drawn by the caller from its own stream).  The
        result is clamped into the regulation band — the stabilizer
        never lets the rail leave it.
        """
        current = np.asarray(current, dtype=np.float64)
        if np.any(current < 0):
            raise ValueError("rail current must be >= 0")
        droop = self.r_loadline * current + self.k_quadratic * current**2
        volts = self.v_set - droop + np.asarray(ripple, dtype=np.float64)
        low, high = self.band
        return np.clip(volts, low, high)

    def droop_at(self, current: float) -> float:
        """Total (linear + quadratic) droop in volts at ``current`` amps."""
        require_non_negative(current, "current")
        return self.r_loadline * current + self.k_quadratic * current**2
