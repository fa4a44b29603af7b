"""Frame mechanics: from differential arm elongation to jaw-tip sweep.

The U-frame is statically indeterminate to the third degree.  The main
pipeline releases the cold-arm anchor D, whose three unit redundant
actions induce fields on the release path AB, BC, CD that are linear in
the arm lengths and the gap.  Their 3x3 compatibility system is linear
in the thermal differential, so it is solved once, symbolically: the
redundants and the junction motion are ratios of polynomials in the
frame's length ratios, all of whose terms are non-negative, evaluated in
plain floats.  The rigid extension carries the junction motion to the
jaw tip.

A completely independent direct-stiffness solution on a refined beam
mesh of the heated members (``stiffness_oracle``) serves as
cross-check; it builds its own nodes and section properties and shares
no code with the closed form beyond the thermal stage.

Geometry convention: the hot arm runs along +x from its anchor A at the
origin to the junction B; the link drops across the gap to C; the cold
arm runs back to its anchor D; the extension continues from B to the
jaw tip J.  Lateral deflections are reported positive toward the cold
arm, the direction the jaw sweeps when driven.
"""

from __future__ import annotations

import functools
import math
import sys

from .electrothermal import (_CUBE_MAX, ThermalLoad, _constants, _lapack,
                             _load_and_peak, rise_integral,
                             solve_temperature_profile)
from .model import ActuatorSpec, _record

# Rotations beyond this invalidate the linear kinematics of the tip
# lever arm, so the solution refuses to report one.
SMALL_ANGLE_LIMIT = 0.1
# The smallest normal float: below it, a ratio has lost digits.
_NORMAL, _INF = sys.float_info.min, math.inf


class FrameSingularError(ArithmeticError):
    """The frame cannot be solved in floating point: its thermal load, a
    ratio or response of its closed form, or a quantity of the stiffness
    oracle leaves the float range, or the oracle's system does not solve."""


class SmallAngleError(RuntimeError):
    """Junction rotation too large for the small-angle tip kinematics."""


@_record
class FrameSolution:
    """The outputs of ``simulate`` at one operating point.

    Displacements in metres, rotation in radians, temperatures in C,
    deflections positive toward the cold arm.  ``redundants`` is the
    3-tuple of anchor actions at the released cold-arm support: force
    along the arm (N), transverse force (N), couple (N m), in closed form
    over the same denominator as the junction motion.  The internal
    moments follow from them by statics: gap x0 + (L1 - L2) x1 + x2 at
    the hot anchor A, gap x0 - L2 x1 + x2 at the junction B and
    x2 - L2 x1 at C.
    """

    thermal_load: ThermalLoad
    redundants: tuple[float, float, float]
    junction_deflection: float
    junction_rotation: float
    tip_deflection: float
    peak_temperature: float


@_record
class StiffnessResult:
    """Outputs of the direct-stiffness cross-check, same sign convention
    as FrameSolution.  The mesh numbers its nodes in A->D order along
    the three heated members, with half-bandwidth 5, and
    ``elements_per_member`` counts the elements on each of them.  The
    extension is not meshed: ``tip_deflection`` is B's rigid lever,
    junction deflection plus extension length times junction rotation.
    ``reaction_cold_anchor`` is (fx, fy, moment), K u - f at the fixed
    degrees of freedom of anchor D."""

    junction_deflection: float
    junction_rotation: float
    tip_deflection: float
    reaction_cold_anchor: tuple[float, float, float]
    elements_per_member: int


def _solve_point(c, length1, length2, gap, volts):
    """One operating point of the spec with ``electrothermal._constants``
    ``c`` at hot arm ``length1``, cold arm ``length2``, ``gap`` and
    ``volts``, as a flat tuple of floats: tip, junction deflection and
    rotation, hot and cold elongation and peak temperature (a sweep
    record's order), then the redundants x0, x1 and x2.

    Compatibility at the released anchor D is F x = (delta, 0, 0), delta
    the hot minus the cold arm's free elongation.  Unit redundant i at D
    induces, along AB, BC, CD, the moments (g, g), (g, 0), (0, 0) and
    axial forces 1, 0, -1 for the pull (i = 0); (L1 - L2, -L2),
    (-L2, -L2), (-L2, 0) and 0, -1, 0 for the transverse force (i = 1);
    and a unit moment for the couple (i = 2).  F, the virtual-work
    product of these fields, is solved by its adjugate in the ratios
    r = L2 / L1, y = g / L1 and k = EI / (EA L1^2) = s s / 12 with
    s = w / L1 (tools/derive_frame.py re-derives each polynomial).  Over
    one denominator Q, the junction deflection is 3 delta y D / (2 Q),
    the rotation 3 delta y R / (2 Q L1) and, with
    F0 = 3 k EA delta / (L1 Q), the redundants are F0 N0,
    3 F0 y (r - 1) (r y + 2 r + y) and -F0 g N2.  The rigid extension
    carries the junction motion to the tip.

    Every term of Q, D, R, N0 and N2 is non-negative for 0 < r <= 1, so
    each output carries a few ulp of relative error, however
    ill-conditioned F is, unless something underflows.  Powers are
    products, so an overflow gives inf, not an exception.  In this
    order, FrameSingularError refuses a delta that is not finite; a
    frame under no load (delta == 0) is at rest, whatever its ratios,
    with the signed zeros the formulas give where they solve (x1 is -0.0
    unless the arms are equal, x2 is -0.0); FrameSingularError refuses a
    gap ratio or polynomial that is not a finite normal float (the frame
    gain) and a junction response below the normal range;
    SmallAngleError a finite rotation past the small-angle limit and
    FrameSingularError an infinite one; FrameSingularError redundants
    that are not finite.  For 0 < r <= 1, D is at most R term by term,
    so the deflection is at most L1 times the rotation, and finite
    whenever the rotation is within the limit.
    """
    rho, w, h, loss, kwh, conductivity, alpha, ambient, rigidity, ext = c
    hot, cold, peak = _load_and_peak(c, length1, length2, gap, volts)
    delta = hot - cold
    if not math.isfinite(delta):
        raise FrameSingularError("thermal load is not finite")
    if delta == 0.0:
        return (0.0, 0.0, 0.0, hot, cold, peak,
                0.0, -0.0 if length2 < length1 else 0.0, -0.0)

    r, y, s = length2 / length1, gap / length1, w / length1
    k = s * s / 12.0
    r2, y2 = r * r, y * y
    r3, ry = r2 * r, r * y
    r4, y3 = r2 * r2, y2 * y
    ky, one_r, centred = k * y, 1.0 - r, r - 0.75
    d = r4 + 2.0 * (r3 * y + r2 * y) + r2 + 12.0 * ky * r + 6.0 * ky * y
    rr = (2.0 * r4 + 4.0 * r3 * y + 3.0 * r2 * y + 2.0 * r + y
          + 24.0 * ky * r + 12.0 * ky * y)
    q = (36.0 * k * ky * (r2 + ry + 2.0 * r + y + 1.0)
         + 3.0 * k * (1.0 + r) * ((1.0 + r2) * (1.0 + r2) + 4.0 * r * one_r * one_r)
         + 12.0 * k * (y * (r4 + r3 + r + 1.0) + y3 * (ry + 3.0 * r + y))
         + 3.0 * ky * y2 * y2
         + y2 * (r4 * y + 3.0 * r4 + r3 * y2 + 4.0 * r3 * y + 3.0 * r2 * y
                 + 4.0 * ry + 3.0 * r + y2 + y))
    n0 = (12.0 * ky * (r + y + 1.0) + 1.0 + 4.0 * r * (centred * centred + 0.4375)
          + r4 + 4.0 * r3 * y + 4.0 * y)
    n2 = (6.0 * ky * y + 12.0 * ky + y * (2.0 + r * (3.0 - r2)) + 1.0
          + r2 * (3.0 - 2.0 * r))
    if not (_NORMAL <= y < _INF and _NORMAL <= q < _INF and _NORMAL <= d < _INF
            and _NORMAL <= rr < _INF and _NORMAL <= n0 < _INF and _NORMAL <= n2 < _INF):
        raise FrameSingularError("frame gain is out of the float range")

    half = 1.5 * delta
    deflection = half * (y * d / q)
    rotation = half / length1 * (y * rr / q)
    if not (abs(deflection) >= _NORMAL and abs(rotation) >= _NORMAL):
        raise FrameSingularError("junction response underflows")
    if not abs(rotation) < SMALL_ANGLE_LIMIT:
        if abs(rotation) == _INF:
            raise FrameSingularError("junction rotation overflows")
        raise SmallAngleError(
            f"junction rotation {rotation:.4f} rad exceeds the "
            f"small-angle limit {SMALL_ANGLE_LIMIT}")

    axial = rigidity * (3.0 * delta / length1)
    x0 = axial * (k * n0 / q)
    x1 = 3.0 * axial * (ky * (r - 1.0) * (ry + 2.0 * r + y) / q)
    x2 = -axial * gap * (k * n2 / q)
    if not (-_INF < x0 < _INF and -_INF < x1 < _INF and -_INF < x2 < _INF):
        raise FrameSingularError("redundants are not finite")
    return (deflection + ext * rotation, deflection,
            rotation, hot, cold, peak, x0, x1, x2)


def simulate(spec: ActuatorSpec) -> FrameSolution:
    """Full pipeline: the thermal load and the peak temperature from one
    scalar pass over the fin's closed form, then redundants and tip
    sweep, as ``_solve_point`` computes and refuses them, in records."""
    g = spec.geometry
    tip, deflection, rotation, hot, cold, peak, x0, x1, x2 = _solve_point(
        _constants(spec), g.hot_arm_length, g.cold_arm_length, g.gap, spec.drive.voltage)
    return FrameSolution(ThermalLoad(hot, cold), (x0, x1, x2), deflection, rotation,
                         tip, peak)


@functools.cache
def _member_patterns():
    """The stiffness oracle's one cached array, the same for every mesh
    size: a read-only (2, 3, 5, 18) array of 0 and +-1 that takes an
    element's five coefficients EA/L, 12EI/L^3, 6EI/L^2, 4EI/L, 2EI/L,
    by a matrix product, to its end half ([0]) and its start half ([1])
    in LAPACK's upper band storage, for each heated member AB, BC, CD.
    Element e joins nodes e and e + 1, and the band column of DOF c of
    node n holds the rows c - 2 .. c + 3 past node n - 1's first DOF
    (half-bandwidth 5).  A half is the element's share of the three band
    columns of its end node, or of its start node, where it reaches that
    node's own rows alone.  The members run along +x, -y and -x, so
    every rotation is a signed permutation, and every entry of a rotated
    element block is exactly plus or minus one coefficient, or zero."""
    import numpy as np

    # The local block with each entry coded 0, or +-(k + 1) for +- the
    # k-th coefficient of EA/L, 12EI/L^3, 6EI/L^2, 4EI/L, 2EI/L.  Each
    # member's 0/+-1 rotation, from its direction cosine and sine, moves
    # the codes about and flips their signs in exact integer arithmetic.
    local = np.array([[1, 0, 0, -1, 0, 0], [0, 2, 3, 0, -2, 3], [0, 3, 4, 0, -3, 5],
                      [-1, 0, 0, 1, 0, 0], [0, -2, -3, 0, 2, -3], [0, 3, 5, 0, -3, 4]])
    dof = np.arange(3)[:, None]
    row = dof + np.arange(6) - 2
    patterns = np.empty((2, 3, 5, 3, 6))
    for member, (cos, sin) in enumerate(((1, 0), (0, -1), (-1, 0))):
        rot = np.kron(np.eye(2, dtype=int), [[cos, sin, 0], [-sin, cos, 0], [0, 0, 1]])
        code = rot.T @ local @ rot
        halves = np.array([np.where(row >= 0, code[row, dof + 3], 0),
                           np.where(row >= 3, code[row - 3, dof], 0)])[:, None]
        patterns[:, member] = np.sign(halves) * (np.abs(halves)
                                                 == np.arange(1, 6)[:, None, None])
    patterns = patterns.reshape(2, 3, 5, 18)
    patterns.flags.writeable = False
    return patterns


def stiffness_oracle(spec: ActuatorSpec, elements_per_member: int = 64) -> StiffnessResult:
    """Displacement-method solution on a refined mesh of beam elements.

    Meshes the three heated members AB, BC and CD with
    ``elements_per_member`` 6-DOF Euler-Bernoulli frame elements each,
    applies each element's mean temperature rise as an equivalent axial
    load pair, clamps both anchors and solves the banded system of the
    free degrees of freedom by LAPACK's band Cholesky ``pbsv``.  The
    unloaded extension adds no stiffness at B, so it is not meshed: the
    tip is B's rigid lever, the junction deflection plus the extension
    length times the junction rotation, formed in float64 from the
    solution.  Each call forms the element lengths and the five stiffness
    coefficients of each element, takes them to the band by
    ``_member_patterns``' exact 0 and +-1 selections, and forms the load
    vector; nothing from a spec or a mesh size is cached.  The reaction at
    D is K u - f over D's three rows alone.  A beam width whose cube
    overflows raises FrameSingularError before the rigidity EI is formed,
    and a mesh whose nodes coincide in floating point (an element length
    along its member that is not finite and positive) before any division.
    So, before the solve, do an element stiffness coefficient that is not
    finite and positive, a heated element whose path span is not positive
    and an equivalent thermal load that is not finite (a Joule source so
    large that the fin integral overflows; ``rise_integral`` itself
    refuses a conduction-only path whose cube overflows, by
    ThermalSystemError), and, under a load, a band
    entry whose two element entries sum past the float range
    (FrameSingularError("stiffness band entry overflows")).  A
    non-positive Cholesky pivot (a frame too ill-conditioned for the
    band solve to carry) or a solution that is not finite raises
    FrameSingularError("stiffness system did not solve"), and a tip past
    the float range (a long extension on a frame that turns far past the
    small-angle limit) is refused by name.  A frame under no load is at
    rest, and its system is not factored.  Independent of the closed-form
    frame by construction; used for cross-validation and never by the
    studies.  With its pattern helper it is the only user of numpy in
    this module, and the only user of scipy.  It imports numpy on its
    first call, and scipy's top-level package with its compiled LAPACK
    wrappers (``_lapack``) on its first solve, but never the
    ``scipy.linalg`` package.
    """
    import numpy as np

    if elements_per_member < 1:
        raise ValueError("elements_per_member must be at least 1")
    geo, mat = spec.geometry, spec.material
    nel = elements_per_member
    patterns = _member_patterns()
    profile = solve_temperature_profile(spec)

    if not geo.beam_width <= _CUBE_MAX:
        raise FrameSingularError("stiffness beam width cubed overflows")
    second_moment = geo.beam_thickness * geo.beam_width ** 3 / 12.0
    area = geo.beam_width * geo.beam_thickness
    ei = mat.young_modulus * second_moment
    ea = mat.young_modulus * area

    # Member k's nodes, corners included, as coordinates along its own
    # direction (+x, -y, -x for AB, BC, CD): negation is exact, so each
    # difference is the element's delta times its direction cosine.  The
    # interior nodes lie at np.linspace(0.0, 1.0, nel + 1)'s fractions,
    # i * (1 / nel).  The lengths are not positive for nodes that
    # coincide in floating point (a member far shorter than the frame),
    # which leave no element to divide by, or for nodes out of order,
    # against the member direction that the patterns take.
    length1 = geo.hot_arm_length
    starts = np.array([0.0, 0.0, -length1])
    stops = np.array([length1, geo.gap, geo.cold_arm_length - length1])
    count = np.arange(1.0, nel + 1.0)
    along = np.empty((3, nel + 1))
    along[:, 0], along[:, -1] = starts, stops
    along[:, 1:-1] = starts[:, None] + count[:-1] * (1.0 / nel) * (stops - starts)[:, None]
    lengths = (along[:, 1:] - along[:, :-1]).ravel()
    if not (lengths.min() > 0.0 and lengths.max() < np.inf):
        raise FrameSingularError(
            "stiffness mesh has an element length that is not finite and positive")

    # numpy's floating-point warnings are off from here to the solution:
    # each stage's checks refuse by name what overflows or is invalid.
    with np.errstate(all="ignore"):
        coefficients = np.empty((5, lengths.size))
        axial, shear, couple, near, far = coefficients
        np.divide(ea, lengths, out=axial)
        np.divide(12.0 * ei, np.power(lengths, 3, out=shear), out=shear)
        np.divide(6.0 * ei, np.square(lengths, out=couple), out=couple)
        np.divide(4.0 * ei, lengths, out=near)
        np.divide(2.0 * ei, lengths, out=far)
        if not (coefficients.min() > 0.0 and coefficients.max() < np.inf):
            raise FrameSingularError(
                "stiffness element has a coefficient that is not finite and positive")

        # Equivalent loads: the elements tile the path coordinate
        # [0, path_length] in order.  Member k's nodes lie i * (length / nel)
        # past its start, its end exact: np.linspace's arithmetic whenever
        # the step is not zero.  A zero step, which np.linspace treats apart,
        # needs a member shorter than nel / 2 of the smallest subnormal,
        # whose nodes coincide, so the length check above has refused it.
        path = np.array((length1, geo.gap, geo.cold_arm_length))
        spans = np.zeros(3 * nel + 1)
        members = spans[1:].reshape(3, nel)
        np.multiply((path / nel)[:, None], count, out=members)
        members[:, -1] = path
        members += ((0.0,), (length1,), (length1 + geo.gap,))
        widths = spans[1:] - spans[:-1]     # zero for a member below one ulp of the path
        if not (widths > 0.0).all():
            raise FrameSingularError("heated element has a path span that is not positive")
        integrals = rise_integral(profile, spans)
        mean_rise = (integrals[1:] - integrals[:-1]) / widths
        axial_force = ea * mat.expansion_coefficient * mean_rise
        if not np.isfinite(axial_force).all():
            raise FrameSingularError("equivalent thermal load is not finite")
        # Each element pushes its end nodes apart along its member's axis,
        # +x, -y or -x.  Each entry of an element's band halves is one of its
        # coefficients times 1, -1 or 0, which is exact.  A free node's band
        # columns are the end half of the element before it plus the start
        # half of the element after it, so no band entry, and no load, sums
        # more than two element entries.  A band entry whose sum of two
        # overflows is refused before the solve, which would factor the inf
        # without complaint.  The band storage's upper-left corner, which
        # LAPACK does not read, takes A's rows of the first element.
        force, push = axial_force.reshape(3, nel), np.zeros((3 * nel, 3))
        push[:nel, 0], push[nel:2 * nel, 1], push[2 * nel:, 0] = force[0], -force[1], -force[2]
        load = np.zeros((3 * nel + 1, 3))
        end_halves, start_halves = (coefficients.reshape(5, 3, nel).transpose(1, 2, 0)
                                    @ patterns).reshape(2, -1, 18)
        load[:-1] -= push
        load[1:] += push
        band = end_halves[:-1] + start_halves[1:]

        # The band, one row per column, is LAPACK's (6, n) upper storage
        # transposed; a non-positive pivot leaves info > 0.  A frame
        # under no load stays at rest without a factorisation, which an
        # ill-conditioned frame might not survive.  The solve may overwrite
        # the free loads; only D's are read after it.
        solution, free = np.zeros(load.size), load[1:-1].ravel()
        if free.any():
            if not np.isfinite(band).all():
                raise FrameSingularError("stiffness band entry overflows")
            _, solution[3:-3], info = _lapack().dpbsv(
                band.reshape(-1, 6).T, free, overwrite_ab=1, overwrite_b=1)
            if info > 0 or not np.isfinite(solution).all():
                raise FrameSingularError("stiffness system did not solve")

        # K u at D's rows.  K is symmetric, so D's row r is D's band column
        # r, the last element's end half, whose entry k is at the DOF r + k
        # of the last eight; D's own DOFs are at rest.  Each row is summed in
        # DOF order from 0.0, which keeps the signed zeros.
        column, u = end_halves[-1].tolist(), solution[-8:].tolist()
        reaction = []
        for r, at_d in enumerate(load[-1].tolist()):
            total = 0.0
            for k in range(6):
                total += column[6 * r + k] * u[r + k]
            reaction.append(total - at_d)
        deflection, rotation = -solution.item(3 * nel + 1), -solution.item(3 * nel + 2)
    tip = deflection + float(geo.extension_length) * rotation
    if not -np.inf < tip < np.inf:
        raise FrameSingularError("stiffness tip deflection overflows")
    return StiffnessResult(
        junction_deflection=deflection,
        junction_rotation=rotation,
        tip_deflection=tip,
        reaction_cold_anchor=tuple(reaction),
        elements_per_member=nel,
    )
