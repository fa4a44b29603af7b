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
from dataclasses import dataclass

from .electrothermal import (_CUBE_MAX, ThermalLoad, _constants, _lapack,
                             _load_and_peak, rise_integral,
                             solve_temperature_profile)
from .model import ActuatorSpec

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@functools.lru_cache(maxsize=4)
def _oracle_mesh(nel: int):
    """The stiffness oracle's read-only arrays that depend on the mesh
    size ``nel`` alone.  The heated members AB, BC and CD are one chain
    of nodes A=0 .. B=nel .. C=2nel .. D=3nel, element e joining nodes e
    and e + 1; the unloaded extension is not meshed.  The members run
    along +x (AB), -y (BC) and -x (CD), so every rotation is a signed
    permutation, and every entry of a rotated element block is exactly
    plus or minus one of the element's five coefficients, or zero.  Each
    nonzero entry is cached as its coefficient's flat index in the
    (5, 3nel) coefficient array and its sign.  The clamped system, the
    chain without A's and D's DOFs, is laid out as LAPACK's upper band
    storage in node order, whose half-bandwidth ``kd`` is 5 for every
    mesh size: no element joins nodes more than one place apart."""
    from types import SimpleNamespace

    import numpy as np

    n_el, kd = 3 * nel, 5
    dofs = 3 * np.arange(n_el)[:, None] + np.arange(6)
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()

    # The local block with each entry coded 0, or +-(k + 1) for +- the
    # k-th coefficient of EA/L, 12EI/L^3, 6EI/L^2, 4EI/L, 2EI/L.  Each
    # member's 0/+-1 rotation, from its direction cosine and sine, moves
    # the codes about and flips their signs in exact integer arithmetic.
    local = np.array([[1, 0, 0, -1, 0, 0], [0, 2, 3, 0, -2, 3], [0, 3, 4, 0, -3, 5],
                      [-1, 0, 0, 1, 0, 0], [0, -2, -3, 0, 2, -3], [0, 3, 5, 0, -3, 4]])
    cos, sin = np.array([1, 0, -1]), np.array([0, -1, 0])
    rot = np.zeros((3, 6, 6), dtype=np.int64)
    for block in (0, 3):
        rot[:, block, block] = rot[:, block + 1, block + 1] = cos
        rot[:, block, block + 1], rot[:, block + 1, block] = sin, -sin
        rot[:, block + 2, block + 2] = 1
    code = np.repeat(rot.transpose(0, 2, 1) @ local @ rot, nel, axis=0).ravel()
    nonzero = code != 0

    # Kept are the nonzero entries on and above the diagonal of the
    # clamped system, whose place is the DOF less A's three.  A kept
    # entry's slot is its flat index in the (kd + 1, n) upper band
    # storage in column-major order; entries that share a slot are
    # summed by the caller's bincount in element order.
    row, col = rows - 3, cols - 3
    kept = np.flatnonzero((row >= 0) & (row <= col) & (col < 3 * n_el - 3) & nonzero)
    row, col = row[kept], col[kept]

    # Each entry's flat index in the (5, 3nel) coefficients, by its code
    # and its element, and its sign; D's rows take their nonzero entries.
    index = (np.abs(code) - 1) * n_el + np.arange(code.size) // 36
    sign = np.sign(code).astype(float)
    anchor_d = 3 * n_el
    at_d = np.flatnonzero((rows >= anchor_d) & nonzero)

    # Each element pushes its end nodes apart along its axis, x or y:
    # the DOF and the sign of each of its two load terms.
    near = dofs[:, 0] + np.repeat(np.abs(sin), nel)
    sense = np.repeat(cos + sin, nel).astype(float)
    arrays = dict(
        fractions=np.linspace(0.0, 1.0, nel + 1)[1:-1],
        slot=col * (kd + 1) + kd + row - col, index=index[kept], sign=sign[kept],
        d_rows=rows[at_d] - anchor_d, d_cols=cols[at_d], d_index=index[at_d],
        d_sign=sign[at_d], load_sign=np.stack([-sense, sense]),
        load_dofs=np.concatenate([near, near + 3]))
    for array in arrays.values():
        array.flags.writeable = False
    return SimpleNamespace(kd=kd, **arrays)


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
    solution.  What depends on the mesh size alone is built once per
    size and kept in a small bounded cache of read-only arrays: gather
    tables that the exact 0 and +-1 member rotations give, for the band
    of the nodes in A->D order (half-bandwidth 5): for each nonzero
    upper-triangle element entry its slot in the upper band storage, its
    coefficient and its sign, the same for the entries of D's rows, and
    the DOF and sign of each load term.  Nothing from a spec is cached.
    Each call forms the element lengths and the five stiffness
    coefficients of each element, fills the band by one bincount of the
    signed coefficients that sums each slot's entries in their element
    order, and the load vector by another.  The reaction at D is K u - f
    over the element entries of D's three rows alone.  A beam width
    whose cube overflows raises FrameSingularError before the rigidity
    EI is formed, and a mesh whose nodes coincide in floating point (an
    element length along its member that is not finite and positive)
    before any division.  So, before the solve, do an element stiffness
    coefficient that is not finite and positive, a heated element whose
    path span is not positive and an equivalent thermal load that is not
    finite (a Joule source so large that the fin integral overflows).  A
    non-positive Cholesky pivot (a frame too ill-conditioned for the
    band solve to carry) or a solution that is not finite raises
    FrameSingularError("stiffness system did not solve"), and a tip past
    the float range (a long extension on a frame that turns far past the
    small-angle limit) is refused by name.  A frame under no load is at
    rest, and its system is not factored.  Independent of
    the closed-form frame by construction; used for cross-validation and
    never by the studies.  With its mesh helper it is the only user of
    numpy in this module, and the only user of scipy.  It imports numpy
    on its first call, and scipy's top-level package with its compiled
    LAPACK wrappers (``_lapack``) on its first solve, but never the
    ``scipy.linalg`` package.
    """
    import numpy as np

    if elements_per_member < 1:
        raise ValueError("elements_per_member must be at least 1")
    geo, mat = spec.geometry, spec.material
    nel = elements_per_member
    mesh = _oracle_mesh(nel)
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
    # lengths are not positive for nodes that coincide in floating point
    # (a member far shorter than the frame), which leave no element to
    # divide by, or for nodes out of order, which the cached gather
    # tables would not fit.
    length1 = geo.hot_arm_length
    starts = np.array([0.0, 0.0, -length1])
    stops = np.array([length1, geo.gap, geo.cold_arm_length - length1])
    along = np.empty((3, nel + 1))
    along[:, 0], along[:, -1] = starts, stops
    along[:, 1:-1] = starts[:, None] + mesh.fractions * (stops - starts)[:, None]
    lengths = (along[:, 1:] - along[:, :-1]).ravel()
    if not np.all((lengths > 0.0) & (lengths < np.inf)):
        raise FrameSingularError(
            "stiffness mesh has an element length that is not finite and positive")

    with np.errstate(all="ignore"):
        coefficients = np.array((ea / lengths, 12.0 * ei / lengths ** 3,
                                 6.0 * ei / lengths ** 2, 4.0 * ei / lengths,
                                 2.0 * ei / lengths)).ravel()
    if not (coefficients.min() > 0.0 and coefficients.max() < np.inf):
        raise FrameSingularError(
            "stiffness element has a coefficient that is not finite and positive")
    ndof = 3 * (3 * nel + 1)
    band = np.bincount(mesh.slot, weights=coefficients[mesh.index] * mesh.sign,
                       minlength=(mesh.kd + 1) * (ndof - 6))

    # Equivalent loads: the elements tile the path coordinate
    # [0, path_length] in order.  Member k's nodes lie i * (length / nel)
    # past its start, its end exact: np.linspace's arithmetic whenever
    # the step is not zero.  A zero step, which np.linspace treats apart,
    # needs a member shorter than nel / 2 of the smallest subnormal,
    # whose nodes coincide, so the length check above has refused it.
    path = np.array((length1, geo.gap, geo.cold_arm_length))
    spans = np.arange(1.0, nel + 1.0)[:, None] * (path / nel)
    spans[-1] = path
    spans += (0.0, length1, length1 + geo.gap)
    spans = np.concatenate(([0.0], spans.T.ravel()))
    widths = np.diff(spans)     # zero for a member below one ulp of the path
    if not np.all(widths > 0.0):
        raise FrameSingularError("heated element has a path span that is not positive")
    with np.errstate(all="ignore"):
        integrals = rise_integral(profile, spans)
        mean_rise = np.diff(integrals) / widths
        axial_force = ea * mat.expansion_coefficient * mean_rise
    if not np.all(np.isfinite(axial_force)):
        raise FrameSingularError("equivalent thermal load is not finite")
    # No DOF takes more than two load terms, so their order cannot matter.
    load = np.bincount(mesh.load_dofs, weights=(axial_force * mesh.load_sign).ravel(),
                       minlength=ndof)

    # The band, filled column by column, is LAPACK's (kd + 1, n) upper
    # storage as it stands; a non-positive pivot leaves info > 0.  A
    # frame under no load stays at rest without a factorisation, which
    # an ill-conditioned frame might not survive.  The solve may
    # overwrite the free loads; only D's are read after it.
    solution, free = np.zeros(ndof), load[3:-3]
    if free.any():
        _, solution[3:-3], info = _lapack().dpbsv(
            band.reshape(-1, mesh.kd + 1).T, free, overwrite_ab=1, overwrite_b=1)
        if info > 0 or not np.all(np.isfinite(solution)):
            raise FrameSingularError("stiffness system did not solve")

    # K u at D's rows, summed entry by entry in element order.
    reaction = np.bincount(
        mesh.d_rows, minlength=3,
        weights=coefficients[mesh.d_index] * mesh.d_sign * solution[mesh.d_cols],
    ) - load[-3:]
    deflection, rotation = -solution[3 * nel + 1], -solution[3 * nel + 2]
    with np.errstate(over="ignore"):
        tip = deflection + geo.extension_length * rotation
    if not np.isfinite(tip):
        raise FrameSingularError("stiffness tip deflection overflows")
    return StiffnessResult(
        junction_deflection=float(deflection),
        junction_rotation=float(rotation),
        tip_deflection=float(tip),
        reaction_cold_anchor=(float(reaction[0]), float(reaction[1]),
                              float(reaction[2])),
        elements_per_member=nel,
    )
