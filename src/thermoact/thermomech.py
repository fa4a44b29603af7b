"""Frame mechanics: from differential arm elongation to jaw-tip sweep.

The U-frame is statically indeterminate to the third degree.  The main
pipeline releases the cold-arm anchor D, whose three unit redundant
actions induce fields on the release path AB, BC, CD that are linear in
the arm lengths and the gap.  So the 3x3 flexibility has six closed-form
entries, symmetric by construction, and so do the internal actions once
the compatibility system gives the redundants.  Virtual work on the hot
arm, one closed product rule, recovers the junction deflection and
rotation; the rigid extension carries them to the jaw tip.

A completely independent direct-stiffness solution on a refined beam
mesh (``stiffness_oracle``) serves as cross-check; it builds its own
nodes and section properties and shares no code with the flexibility
route beyond the thermal closed form.

Geometry convention: the hot arm runs along +x from its anchor A at the
origin to the junction B; the link drops across the gap to C; the cold
arm runs back to its anchor D; the extension continues from B to the
jaw tip J.  Lateral deflections are reported positive toward the cold
arm, the direction the jaw sweeps when driven.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .electrothermal import (ThermalLoad, _load_and_peak, rise_integral,
                             solve_temperature_profile)
from .model import ActuatorSpec, Geometry, Material

# Rotations beyond this invalidate the linear kinematics of the tip
# lever arm, so the solution refuses to report one.
SMALL_ANGLE_LIMIT = 0.1


class FrameSingularError(ArithmeticError):
    """The flexibility system is not positive definite or failed to solve."""


class SmallAngleError(RuntimeError):
    """Junction rotation too large for the small-angle tip kinematics."""


@dataclass(frozen=True)
class FrameSolution:
    """Everything the studies need from one operating point.

    Displacements in metres, rotation in radians, temperatures in C,
    deflections positive toward the cold arm.  ``redundants`` is the
    3-tuple of anchor actions at the released cold-arm support: force
    along the arm (N), transverse force (N), couple (N m).  ``moments``
    is a 3x3 tuple of tuples of the superposed internal actions on the
    release path, rows AB, BC, CD and columns moment at the start,
    moment at the end (N m), axial force (N); the extension BJ carries
    no load and has no row.
    """

    thermal_load: ThermalLoad
    redundants: tuple[float, float, float]
    moments: tuple[tuple[float, float, float], ...]
    junction_deflection: float
    junction_rotation: float
    tip_deflection: float
    peak_temperature: float


@dataclass(frozen=True)
class StiffnessResult:
    """Outputs of the direct-stiffness cross-check, same sign convention
    as FrameSolution.  ``reaction_cold_anchor`` is (fx, fy, moment),
    K u - f at the fixed degrees of freedom of anchor D."""

    junction_deflection: float
    junction_rotation: float
    tip_deflection: float
    reaction_cold_anchor: tuple[float, float, float]
    elements_per_member: int


def _rigidities(geometry: Geometry, material: Material):
    """Bending (N m^2) and axial (N) rigidity of the shared section."""
    second_moment = geometry.beam_thickness * geometry.beam_width ** 3 / 12.0
    area = geometry.beam_width * geometry.beam_thickness
    return material.young_modulus * second_moment, material.young_modulus * area


def _product_integral(length, a_start, a_end, b_start, b_end):
    """Exact integral over a member of the product of two linear fields,
    grouped so that swapping the fields repeats every rounding step."""
    return length * (2.0 * (a_start * b_start + a_end * b_end)
                     + (a_start * b_end + a_end * b_start)) / 6.0


def _flexibility(length1, length2, gap, ei, ea):
    """The six distinct flexibility entries f00, f11, f22, f01, f02, f12.

    Unit redundant i at D induces, along AB, BC, CD, the moments
    (g, g), (g, 0), (0, 0) and axial forces 1, 0, -1 for the pull
    (i = 0); (L1 - L2, -L2), (-L2, -L2), (-L2, 0) and 0, -1, 0 for the
    transverse force (i = 1); and a unit moment with no axial force for
    the couple (i = 2).  Each entry is the virtual-work integral of two
    of these fields, reduced by hand; powers are written as products so
    that an overflow gives inf, not an exception.
    """
    lever = length1 - 2.0 * length2
    d = length1 - length2
    return (
        gap * gap * (length1 + gap / 3.0) / ei + (length1 + length2) / ea,
        (length1 * (d * d - d * length2 + length2 * length2)
         + length2 * length2 * (3.0 * gap + length2)) / (3.0 * ei) + gap / ea,
        (length1 + gap + length2) / ei,
        gap * (length1 * lever - gap * length2) / (2.0 * ei),
        gap * (length1 + gap / 2.0) / ei,
        (length1 * lever - length2 * (2.0 * gap + length2)) / (2.0 * ei),
    )


def _pivot_root(pivot: float) -> float:
    if not pivot > 0.0:
        raise FrameSingularError("flexibility matrix is not positive definite")
    return math.sqrt(pivot)


def solve_redundants(flex, rhs: float) -> tuple[float, float, float]:
    """Solve compatibility at the released anchor for the redundants.

    The right-hand side ``rhs`` is the hot minus the cold arm's free
    elongation along the release direction (m); transverse and rotational
    compatibility carry no thermal term.  The matrix mixes units
    (m/N, 1/N, 1/(N m)) and is raw-conditioned around 1e11, so it is
    symmetrically equilibrated to unit diagonal (condition ~1e1) before
    a Cholesky solve plus two steps of iterative refinement.  The
    factor is a hand-written 3x3 lower Cholesky in plain floats; a
    pivot that is not positive means the matrix is not positive
    definite.  The residual is verified in the equilibrated norm, the
    scale-invariant measure; the raw-norm residual is floor-limited
    near 1e-10 by the float64 representation of the solution itself.
    A non-finite ``rhs`` is refused.  Internal to ``_solve_point``,
    which passes ``_flexibility``'s six entries (f00, f11, f22, f01,
    f02, f12) as ``flex``.  Returns the anchor force along the arm (N),
    transverse force (N) and couple (N m) as a 3-tuple of floats.
    """
    f00, f11, f22, f01, f02, f12 = flex
    if not all(map(math.isfinite, flex)):
        raise FrameSingularError("flexibility matrix is not a finite 3x3")
    if not (f00 > 0.0 and f11 > 0.0 and f22 > 0.0):
        raise FrameSingularError("flexibility matrix has a non-positive diagonal")
    s0, s1, s2 = 1.0 / math.sqrt(f00), 1.0 / math.sqrt(f11), 1.0 / math.sqrt(f22)

    # L L^T = S F S with S = diag(s): entry (i, j) of S F S is f_ij s_i s_j.
    l00 = _pivot_root(f00 * s0 * s0)
    l10 = f01 * s1 * s0 / l00
    l20 = f02 * s2 * s0 / l00
    l11 = _pivot_root(f11 * s1 * s1 - l10 * l10)
    l21 = (f12 * s2 * s1 - l20 * l10) / l11
    l22 = _pivot_root(f22 * s2 * s2 - l20 * l20 - l21 * l21)

    if not math.isfinite(rhs):
        raise FrameSingularError("thermal load is not finite")
    x0 = x1 = x2 = 0.0
    r0, r1, r2 = rhs, 0.0, 0.0
    for _ in range(3):
        # x += S (S F S)^-1 S r, then r = (rhs, 0, 0) - F x
        z0 = s0 * r0 / l00
        z1 = (s1 * r1 - l10 * z0) / l11
        z2 = (s2 * r2 - l20 * z0 - l21 * z1) / l22
        y2 = z2 / l22
        y1 = (z1 - l21 * y2) / l11
        y0 = (z0 - l10 * y1 - l20 * y2) / l00
        x0, x1, x2 = x0 + s0 * y0, x1 + s1 * y1, x2 + s2 * y2
        r0 = rhs - (f00 * x0 + f01 * x1 + f02 * x2)
        r1 = -(f01 * x0 + f11 * x1 + f12 * x2)
        r2 = -(f02 * x0 + f12 * x1 + f22 * x2)

    rhs_norm = abs(s0 * rhs)
    if rhs_norm > 0.0:
        residual = math.hypot(s0 * r0, s1 * r1, s2 * r2) / rhs_norm
        if not residual <= 1.0e-12:
            raise FrameSingularError(
                f"compatibility solve residual {residual:.3e} exceeds 1e-12")
    return x0, x1, x2


def _solve_point(spec: ActuatorSpec, length1, length2, gap, volts):
    """One operating point of ``spec`` at hot arm ``length1``, cold arm
    ``length2``, ``gap`` and ``volts``, as a flat tuple of floats: tip,
    junction deflection and rotation, hot and cold elongation and peak
    temperature (a sweep record's order), then the redundants x0, x1, x2
    and the moments at A, B and C.

    The redundants x, solved from ``_flexibility``'s six entries as
    they are, give the moment g x0 + (L1 - L2) x1 + x2 at A,
    g x0 - L2 x1 + x2 at B, x2 - L2 x1 at C and x2 at D, and the axial
    forces x0, -x1, -x0 on AB, BC, CD.  Unit-load virtual work on the
    hot arm then gives the junction deflection and rotation: both
    virtual systems load the primary cantilever at B, so a unit
    transverse force gives a field falling linearly from the anchored
    end to zero at B and a unit couple a constant one.  The rigid-lever
    extension carries the junction motion out to the jaw tip, which is
    refused when the rotation leaves the small-angle regime.
    """
    geometry = spec.geometry
    hot, cold, peak = _load_and_peak(spec, length1, length2, gap, volts)
    ei, ea = _rigidities(geometry, spec.material)
    x0, x1, x2 = solve_redundants(
        _flexibility(length1, length2, gap, ei, ea), hot - cold)

    at_a = gap * x0 + (length1 - length2) * x1 + x2
    at_b = gap * x0 - length2 * x1 + x2
    at_c = x2 - length2 * x1
    deflection = _product_integral(length1, at_a, at_b, length1, 0.0) / ei
    rotation = _product_integral(length1, at_a, at_b, 1.0, 1.0) / ei
    if not abs(rotation) < SMALL_ANGLE_LIMIT:
        raise SmallAngleError(
            f"junction rotation {rotation:.4f} rad exceeds the "
            f"small-angle limit {SMALL_ANGLE_LIMIT}")
    return (deflection + geometry.extension_length * rotation, deflection,
            rotation, hot, cold, peak, x0, x1, x2, at_a, at_b, at_c)


def simulate(spec: ActuatorSpec) -> FrameSolution:
    """Full pipeline: the thermal load and the peak temperature from one
    scalar pass over the fin's closed form, then redundants and tip
    sweep, as ``_solve_point`` computes and refuses them, in records."""
    g = spec.geometry
    tip, deflection, rotation, hot, cold, peak, x0, x1, x2, at_a, at_b, at_c = _solve_point(
        spec, g.hot_arm_length, g.cold_arm_length, g.gap, spec.drive.voltage)
    return FrameSolution(
        thermal_load=ThermalLoad(hot, cold),
        redundants=(x0, x1, x2),
        moments=((at_a, at_b, x0), (at_b, at_c, -x1), (at_c, x2, -x0)),
        junction_deflection=deflection,
        junction_rotation=rotation,
        tip_deflection=tip,
        peak_temperature=peak,
    )


@functools.lru_cache(maxsize=4)
def _oracle_mesh(nel: int):
    """The stiffness oracle's read-only arrays that depend on the mesh
    size ``nel`` alone.  Nodes are chained A=0 .. B=nel .. C=2nel ..
    D=3nel, then the extension leaves B and runs to J=4nel.  The members
    run along +x (AB), -y (BC), -x (CD) and +x (BJ), so every rotation
    is a signed permutation, and every entry of a rotated element block
    is exactly plus or minus one of the element's five coefficients, or
    zero.  Each nonzero entry is cached as its coefficient's flat index
    in the (5, 4nel) coefficient array and its sign.  The clamped system
    is laid out as LAPACK's upper band storage in its own node order,
    whose half-bandwidth ``kd`` is 8 for every mesh size."""
    from types import SimpleNamespace

    import numpy as np

    n_el, ndof = 4 * nel, 3 * (4 * nel + 1)
    ends = np.array([[0, nel], [nel, 2 * nel], [2 * nel, 3 * nel], [nel, 4 * nel]])
    chain = np.empty((4, nel + 1), dtype=np.int64)
    chain[:, 0], chain[:, -1] = ends[:, 0], ends[:, 1]
    chain[:, 1:-1] = nel * np.arange(4)[:, None] + np.arange(1, nel)
    node1, node2 = chain[:, :-1].ravel(), chain[:, 1:].ravel()

    dofs = np.empty((n_el, 6), dtype=np.int64)
    dofs[:, 0:3] = 3 * node1[:, None] + np.arange(3)
    dofs[:, 3:6] = 3 * node2[:, None] + np.arange(3)
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()

    # The local block with each entry coded 0, or +-(k + 1) for +- the
    # k-th coefficient of EA/L, 12EI/L^3, 6EI/L^2, 4EI/L, 2EI/L.  Each
    # member's 0/+-1 rotation, from its direction cosine and sine, moves
    # the codes about and flips their signs in exact integer arithmetic.
    local = np.array([[1, 0, 0, -1, 0, 0], [0, 2, 3, 0, -2, 3], [0, 3, 4, 0, -3, 5],
                      [-1, 0, 0, 1, 0, 0], [0, -2, -3, 0, 2, -3], [0, 3, 5, 0, -3, 4]])
    cos, sin = np.array([1, 0, -1, 1]), np.array([0, -1, 0, 0])
    rot = np.zeros((4, 6, 6), dtype=np.int64)
    for block in (0, 3):
        rot[:, block, block] = rot[:, block + 1, block + 1] = cos
        rot[:, block, block + 1], rot[:, block + 1, block] = sin, -sin
        rot[:, block + 2, block + 2] = 1
    code = np.repeat(rot.transpose(0, 2, 1) @ local @ rot, nel, axis=0).ravel()
    nonzero = code != 0

    # Band order: the A chain up to B, then the link and the extension
    # interleaved node by node (C and J last), then the cold arm up to D.
    # No element joins nodes more than two places apart in it.  Dropping
    # A's and D's DOFs, first and last, leaves ``order``: the global DOF
    # at each place of the clamped system, to gather loads and scatter
    # the solution.
    nodes = np.concatenate([
        np.arange(nel + 1),
        np.stack([chain[1, 1:], chain[3, 1:]], axis=1).ravel(),
        chain[2, 1:]])
    order = (3 * nodes[:, None] + np.arange(3)).ravel()[3:-3]
    place = np.full(ndof, -1)
    place[order] = np.arange(order.size)

    # The band spans every entry on and above the diagonal of the clamped
    # system, zeros included (a mesh of one element per member has no
    # nonzero entry 8 places out); kept are the nonzero ones.  A kept
    # entry's slot is its flat index in the (kd + 1, n) upper band
    # storage in column-major order; entries that share a slot are
    # summed by the caller's bincount in element order.
    row, col = place[rows], place[cols]
    upper = (row >= 0) & (row <= col)
    kd = int((col - row)[upper].max())
    kept = np.flatnonzero(upper & nonzero)
    row, col = row[kept], col[kept]

    # Each entry's flat index in the (5, 4nel) coefficients, by its code
    # and its element, and its sign; D's rows take their nonzero entries.
    index = (np.abs(code) - 1) * n_el + np.arange(code.size) // 36
    sign = np.sign(code).astype(float)
    anchor_d = 3 * 3 * nel
    at_d = np.flatnonzero((rows >= anchor_d) & (rows < anchor_d + 3) & nonzero)

    # Each heated element pushes its end nodes apart along its axis, x
    # or y: the DOF and the sign of each of its two load terms.
    heated, axis = np.arange(3 * nel), np.repeat(np.abs(sin[:3]), nel)
    sense = np.repeat(cos[:3] + sin[:3], nel).astype(float)
    arrays = dict(
        fractions=np.linspace(0.0, 1.0, nel + 1)[1:-1], order=order,
        slot=col * (kd + 1) + kd + row - col, index=index[kept], sign=sign[kept],
        d_rows=rows[at_d] - anchor_d, d_cols=cols[at_d], d_index=index[at_d],
        d_sign=sign[at_d], load_sign=np.stack([-sense, sense]),
        load_dofs=np.concatenate([dofs[heated, axis], dofs[heated, 3 + axis]]))
    for array in arrays.values():
        array.flags.writeable = False
    return SimpleNamespace(kd=kd, **arrays)


def stiffness_oracle(spec: ActuatorSpec, elements_per_member: int = 64) -> StiffnessResult:
    """Displacement-method solution on a refined mesh of beam elements.

    Meshes all four members with ``elements_per_member`` 6-DOF
    Euler-Bernoulli frame elements, applies each heated element's mean
    temperature rise as an equivalent axial load pair, clamps both
    anchors and solves the banded system of the free degrees of freedom
    by LAPACK's band Cholesky ``pbsv``.  What depends on the mesh size
    alone is built once per size and kept in a small bounded cache of
    read-only arrays: the band layout of the clamped system (a node
    order of half-bandwidth 8 and the free DOFs in that order), and
    gather tables that the exact 0 and +-1 member rotations give: for
    each nonzero upper-triangle element entry its slot in the upper band
    storage, its coefficient and its sign, the same for the entries of
    D's rows, and the DOF and sign of each load term.  Nothing from a
    spec is cached.  Each call forms the element lengths and the five
    stiffness coefficients of each element, fills the band by one
    bincount of the signed coefficients that sums each slot's entries in
    their element order, and the load vector by another.  The reaction
    at D is K u - f over the element entries of D's three rows alone.
    A mesh whose nodes coincide in floating point (an element length
    along its member that is not finite and positive) raises
    FrameSingularError before any division.  So, before the solve, do an
    element stiffness coefficient that is not finite and positive, a
    heated element whose path span is not positive and an equivalent
    thermal load that is not finite (a Joule source so large that the
    fin integral overflows).  A non-positive Cholesky pivot (a frame too
    ill-conditioned for the band solve to carry) or a solution that is
    not finite raises FrameSingularError("stiffness system did not
    solve").  A frame under no load is at rest, and its system is not
    factored.  Independent of the flexibility route by construction;
    used for cross-validation and never by the studies.  With its mesh
    helper it is the only user of numpy in this module, and the only
    user of scipy; it imports both on its first call.
    """
    import numpy as np
    from scipy.linalg.lapack import dpbsv

    if elements_per_member < 1:
        raise ValueError("elements_per_member must be at least 1")
    geo, mat = spec.geometry, spec.material
    nel = elements_per_member
    mesh = _oracle_mesh(nel)
    profile = solve_temperature_profile(spec)

    second_moment = geo.beam_thickness * geo.beam_width ** 3 / 12.0
    area = geo.beam_width * geo.beam_thickness
    ei = mat.young_modulus * second_moment
    ea = mat.young_modulus * area

    # Member k's nodes, corners included, as coordinates along its own
    # direction (+x, -y, -x, +x for AB, BC, CD, BJ): negation is exact,
    # so each difference is the element's delta times its direction
    # cosine.  The lengths are not positive for nodes that coincide in
    # floating point (a member far shorter than the frame), which leave
    # no element to divide by, or for nodes out of order, which the
    # cached gather tables would not fit.
    length1 = geo.hot_arm_length
    starts = np.array([0.0, 0.0, -length1, length1])
    stops = np.array([length1, geo.gap, geo.cold_arm_length - length1,
                      length1 + geo.extension_length])
    along = np.empty((4, nel + 1))
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
    band = np.bincount(mesh.slot, weights=coefficients[mesh.index] * mesh.sign,
                       minlength=(mesh.kd + 1) * mesh.order.size)

    # Equivalent loads: heated members are the release path AB, BC, CD,
    # whose elements tile the path coordinate [0, path_length] in order.
    # Member k's nodes lie i * (length / nel) past its start, its end
    # exact: np.linspace's arithmetic whenever the step is not zero.  A
    # zero step, which np.linspace treats apart, needs a member shorter
    # than nel / 2 of the smallest subnormal, whose nodes coincide, so
    # the length check above has refused it.
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
    ndof = 3 * (4 * nel + 1)
    load = np.bincount(mesh.load_dofs, weights=(axial_force * mesh.load_sign).ravel(),
                       minlength=ndof)

    # The band, filled column by column, is LAPACK's (kd + 1, n) upper
    # storage as it stands; a non-positive pivot leaves info > 0.  A
    # frame under no load stays at rest without a factorisation, which
    # an ill-conditioned frame might not survive.
    solution = np.zeros(ndof)
    rhs = load[mesh.order]
    if rhs.any():
        _, solution[mesh.order], info = dpbsv(band.reshape(-1, mesh.kd + 1).T, rhs,
                                              overwrite_ab=1, overwrite_b=1)
        if info > 0 or not np.all(np.isfinite(solution)):
            raise FrameSingularError("stiffness system did not solve")

    # K u at D's rows, summed entry by entry in element order.
    anchor_d = 3 * 3 * nel
    reaction = np.bincount(
        mesh.d_rows, minlength=3,
        weights=coefficients[mesh.d_index] * mesh.d_sign * solution[mesh.d_cols],
    ) - load[anchor_d:anchor_d + 3]
    return StiffnessResult(
        junction_deflection=float(-solution[3 * nel + 1]),
        junction_rotation=float(-solution[3 * nel + 2]),
        tip_deflection=float(-solution[3 * 4 * nel + 1]),
        reaction_cold_anchor=(float(reaction[0]), float(reaction[1]),
                              float(reaction[2])),
        elements_per_member=nel,
    )
