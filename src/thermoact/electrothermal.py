"""Steady-state Joule heating of the actuator loop and the resulting
free thermal elongation of each arm.

The current path (hot arm + link + cold arm) is treated as one straight
resistive fin of length ``path_length`` with both ends clamped at the
anchor temperature.  An energy balance on a slice gives

    k w h T'' + j^2 rho w h = 2 (h + w) beta (T - T_ambient)

whose solution is a plateau at the source temperature minus a pair of
exponential boundary layers, or a parabola when there is no side-surface
heat loss.  Everything downstream needs only the pointwise rise and its
running integral, so both are exposed in closed form, as
``temperature_at`` and ``rise_integral``; the frame solution takes its
two arm elongations and its peak as three floats from one flat scalar
pass that writes those two functions' expressions out, and a test ties
the two routes together bit for bit.

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

from .model import ActuatorSpec, _record

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


@_record
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


def _coordinates(profile, x):
    """Path coordinate(s) x checked against [0, path_length], the expm1
    that evaluates them and the type of the result.  A plain number
    becomes a float and takes ``math.expm1``; anything else becomes an
    ndarray and takes ``numpy.expm1``, so only array arguments import
    numpy.  A plain number or a 0-d array gives a float, any other array
    an ndarray."""
    if isinstance(x, (int, float)):
        x, expm1, result = float(x), math.expm1, float
        inside = 0.0 <= x <= profile.path_length
    else:
        import numpy as np
        x, expm1 = np.asarray(x, dtype=float), np.expm1
        result = np.asarray if x.ndim else float
        inside = not x.size or (x.min() >= 0.0 and x.max() <= profile.path_length)
    if not inside:
        raise ValueError("path coordinate outside [0, path_length]")
    return x, expm1, result


def temperature_at(profile: TemperatureProfile, x) -> float:
    """Temperature (C) at path coordinate x in [0, path_length].

    The convective rise 1 - cosh(u)/cosh(b) = -expm1(u-b) * -expm1(-u-b)
    / (1 + exp(-2b)), with b = m L / 2 and u = m x - b, keeps every
    exponent <= 0: the value is exact (ambient) at both ends and finite
    for arbitrarily large b.  Conduction-only, the rise is the parabola
    q x (L - x) / (2 k).

    A plain number gives a float from the stdlib alone; an array gives
    an ndarray from the same expressions evaluated by numpy, imported on
    first use (a 0-d array gives a float).  Both run one sequence of
    augmented assignments, which numpy applies in place, so an array
    call here or in ``rise_integral`` forms a new array only for an
    expm1, a negation or an operand it must keep.  The two can differ
    in the last bits, where math and numpy round expm1, or the cube in
    ``rise_integral``, differently.  Out-of-range coordinates raise
    ValueError.
    """
    x, expm1, result = _coordinates(profile, x)
    path = profile.path_length
    if profile.regime != "convective":
        rise = profile.heating_rate / (2.0 * profile.conductivity) * x
        rise *= path - x
    else:
        m = profile.decay_parameter
        b = m * (0.5 * path)
        u = m * x
        u -= b
        rise = expm1(u - b)
        u = -u
        u -= b
        rise *= expm1(u)
        rise /= 1.0 + math.exp(-2.0 * b)
        rise *= profile.source_plateau
    rise += profile.ambient
    return result(rise)


def rise_integral(profile: TemperatureProfile, upto) -> float:
    """Integral of the rise from the anchor at 0 to path coordinate
    ``upto``, in C m.

    Closed form in both regimes: convective, the antiderivative
    expm1(v - b) - expm1(-v - b) of the cosh deficit, with v = m x - b,
    less its value at the anchor; conduction-only, q (L x^2 / 2 - x^3 /
    3) / (2 k).  Plain numbers and arrays are taken and returned as by
    ``temperature_at``.  Conduction-only, a coordinate whose cube leaves
    the float range, a plain number or any entry of an array, raises
    ThermalSystemError after the range check and before any arithmetic;
    an empty array still gives an empty array.  Then a zero q / (2 k)
    gives a zero integral, 0.0 everywhere, also where L x^2 overflows.
    This is the quantity the arm elongations and equivalent thermal loads
    are built from: measuring the hot arm from one anchor and the cold arm
    from the other makes the two arm integrals the same function of arm
    length, so equal arms yield an exactly zero differential.
    """
    x, expm1, result = _coordinates(profile, upto)
    path = profile.path_length
    if profile.regime != "convective":
        if (x if isinstance(x, float) else x.max(initial=0.0)) > _CUBE_MAX:
            raise ThermalSystemError("fin path coordinate cubed overflows")
        half = profile.heating_rate / (2.0 * profile.conductivity)
        if half == 0.0:   # zeros shaped as x, +0.0 also at x = -0.0
            return result(x - x)
        integral = path * x
        integral *= x
        integral /= 2.0
        cube = x ** 3
        cube /= 3.0
        integral -= cube
        integral *= half
        return result(integral)
    m = profile.decay_parameter
    b = m * (0.5 * path)
    scale = 1.0 + math.exp(-2.0 * b)
    anchor = expm1(-b - b) - expm1(b - b)
    v = m * x
    v -= b
    anti = expm1(v - b)
    v = -v
    v -= b
    anti -= expm1(v)
    anti -= anchor
    anti /= m * scale
    integral = x - anti
    integral *= profile.source_plateau
    return result(integral)


def _load_and_peak(c, hot, cold, gap, volts):
    """The hot and cold arm elongations (m) and the mid-span (peak)
    temperature (C) of the spec with ``_constants`` ``c`` at these arms,
    gap and volts, as three floats from one flat scalar pass with no
    profile record.  The fin constants, the regime switch, both arm
    integrals and the mid-path rise are the expressions of
    ``solve_temperature_profile``, ``rise_integral`` and
    ``temperature_at``, written out with the same association, so the
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
        # rise_integral at each arm and temperature_at at mid-path, with
        # the constants they share formed once.
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
    if half == 0.0:   # the bits below wherever L x^2 is finite
        return 0.0, 0.0, ambient + 0.0
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
    both clamped ends, negated into a symmetric positive-definite
    tridiagonal system and solved by LAPACK's ``ptsv`` (LDL^T without
    pivoting), called directly.  Returns (positions, temperatures) as
    ndarrays.  Second-order accurate, and exact for the conduction-only
    parabola.  Used by the test suite and the ``validate`` command to
    cross-check the closed form; the simulation pipeline never calls it.
    A current density, side loss or coupling k / dx^2 whose divisor (rho
    path, w h or dx^2) leaves the float range raises ThermalSystemError
    before it is formed, and so do a system whose coefficients or
    right-hand side overflow (an extreme conductivity or Joule source)
    before the solve and, from the solve, a singular one (k / dx^2
    underflowing to zero, or to a subnormal whose pivots round to zero,
    with no side loss).  It imports numpy on its first call, and scipy's
    top-level package with its compiled LAPACK wrappers (``_lapack``) on
    its first solve, but never the ``scipy.linalg`` package, so the
    closed form runs on the stdlib alone.
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

    # np.linspace(0.0, path, nodes)'s own arithmetic, on path as a
    # float64, for a step that is not zero; a zero step fails the spacing
    # check below.
    x = np.arange(nodes, dtype=float)
    x *= float(path) / (nodes - 1)
    x[-1] = path
    dx = path / (nodes - 1)
    n = nodes - 2  # interior unknowns, theta = T - ambient

    square = dx ** 2 if dx <= _SQUARE_MAX else math.inf
    if not 0.0 < square < math.inf:
        raise ThermalSystemError(
            "finite-difference node spacing squared leaves the float range")
    # The negated system: (2 k / dx^2 + loss) on the diagonal, -k / dx^2
    # off it and q on the right, symmetric positive definite.
    off = -k / square
    diagonal = 2.0 * k / square + loss
    if not (math.isfinite(off) and math.isfinite(diagonal) and math.isfinite(q)):
        raise ThermalSystemError("finite-difference thermal system is not finite")
    # The wrapper wants an off-diagonal entry even for one unknown,
    # which LAPACK then never reads.  The right-hand side is solved in
    # the interior of the returned temperatures.
    temps = np.full(nodes, q)
    interior = temps[1:-1]
    *_, theta, info = _lapack().dptsv(np.full(n, diagonal), np.full(max(n - 1, 1), off),
                                      interior, overwrite_d=1, overwrite_e=1,
                                      overwrite_b=1)
    if info > 0:
        raise ThermalSystemError("finite-difference thermal system is singular")

    np.add(theta, env.ambient_temperature, out=interior)
    temps[0] = temps[-1] = env.ambient_temperature
    return x, temps
