"""Reference values the benchmark checks the CLI against.

Nothing here imports flatring: coordinates come from scipy's Jacobi
functions and distances from the point pair itself.
"""

from __future__ import annotations

import math

from scipy.special import ellipj, ellipk

# Relative resolution of the distance oracle; min_digits is capped at -log10 of it.
DISTANCE_RESOLUTION = 1e-15


def quarter_periods(k: float) -> tuple[float, float]:
    """(K, K') at modulus k; scipy's ellipk takes the parameter m = k**2."""
    m = k * k
    return float(ellipk(m)), float(ellipk(1.0 - m))


def flatring_point(s: float, t: float, phi: float, k: float) -> tuple[float, float, float]:
    """Cartesian point of flat-ring coordinates (s, t, phi) in the (-2K, 2K) x (0, K') chart.

    R = 1/T, z = k sn(s) sc(t, k') R with T = (dn(s) dc(t, k') + k cn(s) nc(t, k')) / k'.
    """
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    sn, cn, dn, _ = ellipj(s, k * k)
    sn_p, cn_p, dn_p, _ = ellipj(t, kp * kp)
    big_t = (dn * dn_p / cn_p + k * cn / cn_p) / kp
    r = 1.0 / big_t
    z = k * sn * (sn_p / cn_p) * r
    return float(r * math.cos(phi)), float(r * math.sin(phi)), float(z)


def toroidal_point(tau: float, psi: float, phi: float) -> tuple[float, float, float]:
    """Cartesian point of toroidal coordinates with unit focal radius."""
    d = math.cosh(tau) - math.cos(psi)
    r = math.sinh(tau) / d
    return r * math.cos(phi), r * math.sin(phi), math.sin(psi) / d


def inverse_distance(a, b) -> float:
    return 1.0 / math.dist(a, b)
