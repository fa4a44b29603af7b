"""Steady-state Joule heating of the actuator loop and the resulting
free thermal elongation of each arm.

The current path (hot arm + link + cold arm) is treated as one straight
resistive fin of length ``path_length`` with both ends clamped at the
anchor temperature.  An energy balance on a slice gives

    k w h T'' + j^2 rho w h = 2 (h + w) beta (T - T_ambient)

whose solution is a plateau at the source temperature minus a pair of
exponential boundary layers, or a parabola when there is no side-surface
heat loss.  Everything downstream needs only the pointwise rise and its
running integral, so both are exposed in closed form; the frame solution
takes its two arm elongations and its peak as three floats from one
flat scalar pass that writes the same expressions out, with no helper
call, and a test ties the two routes together bit for bit.

Numerical care: the textbook form 1 - cosh(m x') / cosh(m L/2) overflows
for long or strongly cooled beams and cancels catastrophically for short
ones.  Both rise and integral are therefore evaluated through expm1 with
every exponent kept non-positive, which is exact at the clamped ends and
overflow-free for any decay length.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import ActuatorSpec

# Below this value of (decay parameter x path length) the boundary
# layers overlap completely and the convective solution is replaced by
# its conduction-only limit, a parabola.  The switch is continuous to
# well under 1e-9 relative.
PLATEAU_THRESHOLD = 1.0e-6


# The last floats whose square and cube round below the float max; the
# next ones' powers raise OverflowError.
_SQUARE_MAX = float.fromhex("0x1.fffffffffffffp+511")
_CUBE_MAX = float.fromhex("0x1.428a2f98d728ap+341")


class ThermalSystemError(ArithmeticError):
    """The thermal stage cannot be solved in floating point.  The fin's
    closed form refuses a divisor of its current density or decay
    parameter that underflows and a conduction-only coordinate whose
    cube overflows; the finite-difference oracle a divisor of its current
    density, side loss or coupling out of the float range and a system
    that is not finite or is singular."""


@dataclass(frozen=True)
class TemperatureProfile:
    """Closed-form steady temperature field along the current path.

    path_length      m, hot arm + gap + cold arm
    decay_parameter  1/m, reciprocal boundary-layer thickness
    source_plateau   C rise the mid-span approaches (inf when beta = 0)
    ambient          C
    heating_rate     W/m^3, volumetric Joule source j^2 rho of the
                     current density j = V / (rho path_length)
    conductivity     W/(m C)
    regime           "convective" or "conduction-only"
    """

    path_length: float
    decay_parameter: float
    source_plateau: float
    ambient: float
    heating_rate: float
    conductivity: float
    regime: str


@dataclass(frozen=True)
class ThermalLoad:
    """Free elongations (m) of the two arms under a temperature profile."""

    hot_elongation: float
    cold_elongation: float


def _constants(spec: ActuatorSpec):
    """What every point of ``spec`` shares: rho, w, h, the side loss
    2 (h + w) beta, the conduction term k w h, k, alpha, ambient, the
    axial rigidity E w h and the extension.  w and h become floats
    first, so no sum or product can raise, even on int fields."""
    geo, mat = spec.geometry, spec.material
    w, h, k = geo.beam_width + 0.0, geo.beam_thickness + 0.0, mat.thermal_conductivity
    return (mat.resistivity, w, h, 2.0 * (h + w) * spec.environment.convection_coefficient,
            k * w * h, k, mat.expansion_coefficient, spec.environment.ambient_temperature,
            mat.young_modulus * (w * h), geo.extension_length)


def solve_temperature_profile(spec: ActuatorSpec) -> TemperatureProfile:
    """Solve the fin equation for ``spec`` and return the closed form.
    ThermalSystemError refuses, in this order, a rho times path length
    and a k w h that underflow to zero, the divisors of j and of m
    squared."""
    rho, w, h, loss, kwh, conductivity, alpha, ambient, rigidity, ext = _constants(spec)
    geo = spec.geometry
    path = (geo.hot_arm_length + geo.gap) + geo.cold_arm_length
    rho_path = rho * path
    if rho_path == 0.0:
        raise ThermalSystemError("fin resistivity times path length underflows")
    j = spec.drive.voltage / rho_path
    q = j * j * rho
    if kwh == 0.0:
        raise ThermalSystemError("fin conduction term k w h underflows")
    m = math.sqrt(loss / kwh)
    return TemperatureProfile(
        path_length=path, decay_parameter=m,
        source_plateau=q * w * h / loss if loss > 0.0 else math.inf, ambient=ambient,
        heating_rate=q, conductivity=conductivity,
        regime="convective" if m * path >= PLATEAU_THRESHOLD else "conduction-only")


def _prepare(profile, x):
    """The profile's shape, path coordinate(s) x checked against [0,
    path_length] and the expm1 that evaluates them: a plain number stays
    a float and takes ``math.expm1``, anything else becomes an ndarray
    and takes ``numpy.expm1``, so only array arguments import numpy."""
    if isinstance(x, (int, float)):
        coords, expm1 = float(x), math.expm1
        inside = 0.0 <= coords <= profile.path_length
    else:
        import numpy as np
        coords, expm1 = np.asarray(x, dtype=float), np.expm1
        inside = np.all((coords >= 0.0) & (coords <= profile.path_length))
    if not inside:
        raise ValueError("path coordinate outside [0, path_length]")
    return _shape(profile, expm1), coords, expm1


def _result(value):
    """A float for a scalar or 0-d result, the array itself otherwise."""
    return value if getattr(value, "ndim", 0) else float(value)


def _anti(v, b, expm1):
    # antiderivative of the shape factor's cosh deficit
    return expm1(v - b) - expm1(-v - b)


def _shape(profile, expm1):
    """The constants the rise and its integral share: path length, m,
    plateau, then q / (2 k), None, None, None when conduction-only, or
    None, b = m L / 2, 1 + exp(-2b) and anti(-b) when convective."""
    path, m, plateau = profile.path_length, profile.decay_parameter, profile.source_plateau
    if profile.regime != "convective":
        half = profile.heating_rate / (2.0 * profile.conductivity)
        return path, m, plateau, half, None, None, None
    b = m * (0.5 * path)
    return path, m, plateau, None, b, 1.0 + math.exp(-2.0 * b), _anti(-b, b, expm1)


def _rise(shape, x, expm1):
    """Rise above ambient at checked coordinate(s) x.  The convective
    1 - cosh(u)/cosh(b) = -expm1(u-b) * -expm1(-u-b) / (1 + exp(-2b)),
    with u = m x - b, keeps every exponent <= 0: the value is exact
    (0.0) at both ends and finite for arbitrarily large b."""
    path, m, plateau, half, b, scale, _ = shape
    if half is not None:
        return half * x * (path - x)
    u = m * x - b
    return plateau * (expm1(u - b) * expm1(-u - b) / scale)


def _integral(shape, x, expm1):
    """Integral of the rise from the anchor to checked coordinate(s) x.
    ThermalSystemError refuses a conduction-only float x whose cube
    leaves the float range; an array's cube overflows to inf."""
    path, m, plateau, half, b, scale, anchor = shape
    if half is not None:
        if isinstance(x, float) and x > _CUBE_MAX:
            raise ThermalSystemError("fin path coordinate cubed overflows")
        return half * (path * x * x / 2.0 - x ** 3 / 3.0)
    return plateau * (x - (_anti(m * x - b, b, expm1) - anchor) / (m * scale))


def temperature_at(profile: TemperatureProfile, x) -> float:
    """Temperature (C) at path coordinate x in [0, path_length].

    A plain number gives a float from the stdlib alone; an array gives
    an ndarray from the same expressions evaluated by numpy, imported on
    first use (a 0-d array gives a float).  The two can differ in the
    last bits, where math and numpy round expm1, or the cube in
    ``rise_integral``, differently.  Out-of-range coordinates raise
    ValueError.
    """
    shape, coords, expm1 = _prepare(profile, x)
    return _result(profile.ambient + _rise(shape, coords, expm1))


def rise_integral(profile: TemperatureProfile, upto) -> float:
    """Integral of the rise from the anchor at 0 to path coordinate
    ``upto``, in C m.

    Closed form in both regimes; plain numbers and arrays are taken and
    returned as by ``temperature_at``.  A conduction-only plain number
    whose cube leaves the float range raises ThermalSystemError.  This is
    the quantity the arm elongations and equivalent thermal loads are
    built from: measuring the hot arm from one anchor and the cold arm
    from the other makes the two arm integrals the same function of arm
    length, so equal arms yield an exactly zero differential.
    """
    shape, xi, expm1 = _prepare(profile, upto)
    return _result(_integral(shape, xi, expm1))


def _load_and_peak(c, hot, cold, gap, volts):
    """The hot and cold arm elongations (m) and the mid-span (peak)
    temperature (C) of the spec with ``_constants`` ``c`` at these arms,
    gap and volts, as three floats from one flat scalar pass with no
    helper call and no profile record.  The fin constants, the regime
    switch, both arm integrals and the mid-path rise are the public
    route's expressions, written out with the same association, so the
    results are the bits of ``alpha * rise_integral(profile, L)`` at each
    arm length L and of ``temperature_at`` at mid-path, and the refusals
    are that route's, in its order: ThermalSystemError for a rho times
    path length, then a k w h, that underflows to zero, then for a
    conduction-only hot arm, then cold arm, whose cube overflows.
    ``tools/derive_frame.py`` checks each branch against the fin
    equation."""
    rho, w, h, loss, kwh, conductivity, alpha, ambient, rigidity, ext = c
    path = (hot + gap) + cold
    rho_path = rho * path
    if rho_path == 0.0:
        raise ThermalSystemError("fin resistivity times path length underflows")
    j = volts / rho_path
    q = j * j * rho
    if kwh == 0.0:
        raise ThermalSystemError("fin conduction term k w h underflows")
    m = math.sqrt(loss / kwh)
    hot, cold, mid = float(hot), float(cold), path / 2.0
    if m * path >= PLATEAU_THRESHOLD:
        # _shape, then _integral at each arm and _rise at mid-path, with
        # _anti(v, b) = expm1(v - b) - expm1(-v - b) written out.
        plateau, expm1, b = q * w * h / loss, math.expm1, m * (0.5 * path)
        scale = 1.0 + math.exp(-2.0 * b)
        anchor, ms = expm1(-b - b) - expm1(b - b), m * scale
        u, v, t = m * hot - b, m * cold - b, m * mid - b
        return (alpha * (plateau * (hot - (expm1(u - b) - expm1(-u - b) - anchor) / ms)),
                alpha * (plateau * (cold - (expm1(v - b) - expm1(-v - b) - anchor) / ms)),
                ambient + plateau * (expm1(t - b) * expm1(-t - b) / scale))
    if hot > _CUBE_MAX or cold > _CUBE_MAX:
        raise ThermalSystemError("fin path coordinate cubed overflows")
    half = q / (2.0 * conductivity)
    return (alpha * (half * (path * hot * hot / 2.0 - hot ** 3 / 3.0)),
            alpha * (half * (path * cold * cold / 2.0 - cold ** 3 / 3.0)),
            ambient + half * mid * (path - mid))


def _lapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, which
    both oracles call directly.  It is the module ``scipy.linalg.lapack``
    re-exports, loaded here from the ``scipy.linalg`` directory without
    running that package's ``__init__``, whose imports cost several
    times the wrappers.  A later ``import scipy.linalg`` reuses it."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    import importlib.util
    import os
    from importlib.machinery import PathFinder

    import scipy
    spec = PathFinder.find_spec(name, [os.path.join(p, "linalg") for p in scipy.__path__])
    if spec is None:
        raise ImportError(f"cannot find {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def fd_temperature_oracle(spec: ActuatorSpec, nodes: int = 4097):
    """Independent finite-difference solution of the fin equation.

    Central differences on ``nodes`` equally spaced points including
    both clamped ends, solved as a tridiagonal system by LAPACK's
    ``gtsv``, called directly.  Returns (positions, temperatures) as
    ndarrays.  Second-order accurate, and exact for the conduction-only
    parabola.  Used by the test suite and the ``validate`` command to
    cross-check the closed form; the simulation pipeline never calls it.
    A current density, side loss or coupling k / dx^2 whose divisor (rho
    path, w h or dx^2) leaves the float range raises ThermalSystemError
    before it is formed, and so do a system whose coefficients or
    right-hand side overflow (an extreme conductivity or Joule source)
    before the solve and, from the solve, a singular one (k / dx^2
    underflowing to zero with no side loss).  It imports numpy on its
    first call, and scipy's top-level package with its compiled LAPACK
    wrappers (``_lapack``) on its first solve, but never the
    ``scipy.linalg`` package, so the closed form runs on the stdlib alone.
    """
    import numpy as np

    if nodes < 3:
        raise ValueError("need at least 3 nodes")
    geo, mat, env = spec.geometry, spec.material, spec.environment
    w, h = geo.beam_width, geo.beam_thickness
    path = (geo.hot_arm_length + geo.gap) + geo.cold_arm_length
    rho_path = mat.resistivity * path
    if rho_path == 0.0:
        raise ThermalSystemError("finite-difference resistivity times path length underflows")
    j = spec.drive.voltage / rho_path
    q = j * j * mat.resistivity
    k = mat.thermal_conductivity
    section = w * h
    if section == 0.0:
        raise ThermalSystemError("finite-difference cross-section w h underflows")
    loss = 2.0 * (h + w) * env.convection_coefficient / section

    x = np.linspace(0.0, path, nodes)
    dx = path / (nodes - 1)
    n = nodes - 2  # interior unknowns, theta = T - ambient

    square = dx ** 2 if dx <= _SQUARE_MAX else math.inf
    if not 0.0 < square < math.inf:
        raise ThermalSystemError(
            "finite-difference node spacing squared leaves the float range")
    off = k / square                      # sub- and super-diagonal
    diagonal = -2.0 * k / square - loss
    if not (math.isfinite(off) and math.isfinite(diagonal) and math.isfinite(q)):
        raise ThermalSystemError("finite-difference thermal system is not finite")
    # The wrapper wants an off-diagonal entry even for one unknown,
    # which LAPACK then never reads.
    sides = max(n - 1, 1)
    *_, theta, info = _lapack().dgtsv(np.full(sides, off), np.full(n, diagonal),
                                      np.full(sides, off), np.full(n, -q),
                                      overwrite_dl=1, overwrite_d=1,
                                      overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise ThermalSystemError("finite-difference thermal system is singular")

    temps = np.empty(nodes)
    temps[0] = temps[-1] = env.ambient_temperature
    temps[1:-1] = env.ambient_temperature + theta
    return x, temps
