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

import math
from dataclasses import dataclass

from .electrothermal import (ThermalLoad, arm_elongations, rise_integral,
                             solve_temperature_profile, temperature_at)
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


def flexibility_matrix(geometry: Geometry, material: Material):
    """3x3 flexibility of the released structure at the cold anchor.

    Entry (i, j) is the virtual-work integral of unit fields i and j
    over the release path AB, BC, CD, bending plus axial, in the closed
    form ``simulate`` uses.  The six distinct entries are mirrored, so
    the matrix is symmetric by construction; acceptance criterion 9
    still checks that it is positive definite on 1000 random frames.
    Returns an ndarray, importing numpy on first use.
    """
    import numpy as np

    f00, f11, f22, f01, f02, f12 = _flexibility(
        geometry.hot_arm_length, geometry.cold_arm_length, geometry.gap,
        *_rigidities(geometry, material))
    return np.array([[f00, f01, f02], [f01, f11, f12], [f02, f12, f22]])


def _pivot_root(pivot: float) -> float:
    if not pivot > 0.0:
        raise FrameSingularError("flexibility matrix is not positive definite")
    return math.sqrt(pivot)


def solve_redundants(flex, load: ThermalLoad) -> tuple[float, float, float]:
    """Solve compatibility at the released anchor for the redundants.

    The right-hand side is the differential free elongation of the two
    arms along the release direction; transverse and rotational
    compatibility carry no thermal term.  The matrix mixes units
    (m/N, 1/N, 1/(N m)) and is raw-conditioned around 1e11, so it is
    symmetrically equilibrated to unit diagonal (condition ~1e1) before
    a Cholesky solve plus two steps of iterative refinement.  The
    factor is a hand-written 3x3 lower Cholesky in plain floats that
    reads only the lower triangle; a pivot that is not positive means
    the matrix is not positive definite.  The residual is verified in
    the equilibrated norm, the scale-invariant measure; the raw-norm
    residual is floor-limited near 1e-10 by the float64 representation
    of the solution itself.  A non-finite thermal load is refused.
    ``flex`` is any 3x3 nested sequence of numbers, an ndarray
    included.  Returns the anchor force along the arm (N), transverse
    force (N) and couple (N m) as a 3-tuple of floats.
    """
    rows = [[float(entry) for entry in row] for row in flex]
    if len(rows) != 3 or any(len(row) != 3 for row in rows) \
            or not all(math.isfinite(entry) for row in rows for entry in row):
        raise FrameSingularError("flexibility matrix is not a finite 3x3")
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = rows
    if not (f00 > 0.0 and f11 > 0.0 and f22 > 0.0):
        raise FrameSingularError("flexibility matrix has a non-positive diagonal")
    s0, s1, s2 = 1.0 / math.sqrt(f00), 1.0 / math.sqrt(f11), 1.0 / math.sqrt(f22)

    # L L^T = S F S with S = diag(s): entry (i, j) of S F S is f_ij s_i s_j.
    l00 = _pivot_root(f00 * s0 * s0)
    l10 = f10 * s1 * s0 / l00
    l20 = f20 * s2 * s0 / l00
    l11 = _pivot_root(f11 * s1 * s1 - l10 * l10)
    l21 = (f21 * s2 * s1 - l20 * l10) / l11
    l22 = _pivot_root(f22 * s2 * s2 - l20 * l20 - l21 * l21)

    rhs = load.hot_elongation - load.cold_elongation
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
        r1 = -(f10 * x0 + f11 * x1 + f12 * x2)
        r2 = -(f20 * x0 + f21 * x1 + f22 * x2)

    rhs_norm = abs(s0 * rhs)
    if rhs_norm > 0.0:
        residual = math.hypot(s0 * r0, s1 * r1, s2 * r2) / rhs_norm
        if not residual <= 1.0e-12:
            raise FrameSingularError(
                f"compatibility solve residual {residual:.3e} exceeds 1e-12")
    return x0, x1, x2


def simulate(spec: ActuatorSpec) -> FrameSolution:
    """Full pipeline: temperatures, elongations, redundants, tip sweep.

    The redundants x give the moment g x0 + (L1 - L2) x1 + x2 at A,
    g x0 - L2 x1 + x2 at B, x2 - L2 x1 at C and x2 at D, and the axial
    forces x0, -x1, -x0 on AB, BC, CD.  Unit-load virtual work on the
    hot arm then gives the junction deflection and rotation: both
    virtual systems load the primary cantilever at B, so a unit
    transverse force gives a field falling linearly from the anchored
    end to zero at B and a unit couple a constant one.  The rigid-lever
    extension carries the junction motion out to the jaw tip, which is
    refused when the rotation leaves the small-angle regime.
    """
    geometry, material = spec.geometry, spec.material
    profile = solve_temperature_profile(spec)
    load = arm_elongations(profile, geometry, material)
    length1, length2, gap = (geometry.hot_arm_length, geometry.cold_arm_length,
                             geometry.gap)
    ei, ea = _rigidities(geometry, material)
    f00, f11, f22, f01, f02, f12 = _flexibility(length1, length2, gap, ei, ea)
    x0, x1, x2 = redundants = solve_redundants(
        ((f00, f01, f02), (f01, f11, f12), (f02, f12, f22)), load)

    at_a = gap * x0 + (length1 - length2) * x1 + x2
    at_b = gap * x0 - length2 * x1 + x2
    at_c = x2 - length2 * x1
    deflection = _product_integral(length1, at_a, at_b, length1, 0.0) / ei
    rotation = _product_integral(length1, at_a, at_b, 1.0, 1.0) / ei
    if not abs(rotation) < SMALL_ANGLE_LIMIT:
        raise SmallAngleError(
            f"junction rotation {rotation:.4f} rad exceeds the "
            f"small-angle limit {SMALL_ANGLE_LIMIT}")

    return FrameSolution(
        thermal_load=load,
        redundants=redundants,
        moments=((at_a, at_b, x0), (at_b, at_c, -x1), (at_c, x2, -x0)),
        junction_deflection=deflection,
        junction_rotation=rotation,
        tip_deflection=deflection + geometry.extension_length * rotation,
        peak_temperature=temperature_at(profile, profile.path_length / 2.0),
    )


def _local_stiffness(lengths, ei, ea):
    """(n, 6, 6) local frame-element stiffness blocks for an array of
    element lengths.  The coefficients are formed with floating-point
    errors silent, then one that is not finite and positive (a power of
    the length left the float range) raises FrameSingularError."""
    import numpy as np

    n = lengths.shape[0]
    k = np.zeros((n, 6, 6))
    with np.errstate(all="ignore"):
        ax = ea / lengths
        b12 = 12.0 * ei / lengths ** 3
        b6 = 6.0 * ei / lengths ** 2
        b4 = 4.0 * ei / lengths
        b2 = 2.0 * ei / lengths
    coefficients = np.array((ax, b12, b6, b4, b2))
    if not (coefficients.min() > 0.0 and coefficients.max() < np.inf):
        raise FrameSingularError(
            "stiffness element has a coefficient that is not finite and positive")
    k[:, 0, 0] = k[:, 3, 3] = ax
    k[:, 0, 3] = k[:, 3, 0] = -ax
    k[:, 1, 1] = k[:, 4, 4] = b12
    k[:, 1, 4] = k[:, 4, 1] = -b12
    k[:, 1, 2] = k[:, 2, 1] = k[:, 1, 5] = k[:, 5, 1] = b6
    k[:, 2, 4] = k[:, 4, 2] = k[:, 4, 5] = k[:, 5, 4] = -b6
    k[:, 2, 2] = k[:, 5, 5] = b4
    k[:, 2, 5] = k[:, 5, 2] = b2
    return k


def stiffness_oracle(spec: ActuatorSpec, elements_per_member: int = 64) -> StiffnessResult:
    """Displacement-method solution on a refined mesh of beam elements.

    Meshes all four members with ``elements_per_member`` 6-DOF
    Euler-Bernoulli frame elements, applies each heated element's mean
    temperature rise as an equivalent axial load pair, clamps both
    anchors and solves the sparse system of the free degrees of freedom.
    The element blocks are rotated to global axes by one batched matmul;
    every rotation entry of the rectilinear frame is exactly 0 or +-1, so
    the rotation rounds nothing.  The clamped system is assembled
    directly: each global DOF has a monotone reduced index, the six
    DOFs of anchors A and D have none, and element entries in a clamped
    row or column are dropped before the one COO-to-CSR conversion,
    which sums the rest in their element order.  The reaction at D is
    K u - f over the element entries of D's three rows alone.  A mesh
    whose nodes coincide in floating point (an element length that is
    not finite and positive) raises FrameSingularError before any
    division.  So, before the solve, do an element stiffness coefficient
    that is not finite and positive and a heated element whose path span
    is not positive.  Independent of the flexibility route by
    construction; used for cross-validation and never by the studies.  With
    ``flexibility_matrix`` it is the only user of numpy in this module,
    and the only user of scipy; it imports both on its first call.
    """
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    if elements_per_member < 1:
        raise ValueError("elements_per_member must be at least 1")
    geo, mat = spec.geometry, spec.material
    nel = elements_per_member
    profile = solve_temperature_profile(spec)

    second_moment = geo.beam_thickness * geo.beam_width ** 3 / 12.0
    area = geo.beam_width * geo.beam_thickness
    ei = mat.young_modulus * second_moment
    ea = mat.young_modulus * area

    length1, gap = geo.hot_arm_length, geo.gap
    coords_of = {"A": (0.0, 0.0), "B": (length1, 0.0), "C": (length1, -gap),
                 "D": (length1 - geo.cold_arm_length, -gap),
                 "J": (length1 + geo.extension_length, 0.0)}
    # Chain node numbering: A=0 .. B=nel .. C=2nel .. D=3nel, then the
    # extension reuses B and runs to J=4nel.
    idx = {"A": 0, "B": nel, "C": 2 * nel, "D": 3 * nel, "J": 4 * nel}
    n_nodes = 4 * nel + 1
    coords = np.zeros((n_nodes, 2))
    chains = (("A", "B", 0), ("B", "C", nel), ("C", "D", 2 * nel),
              ("B", "J", 3 * nel))
    ends1 = []
    ends2 = []
    for a, b, base in chains:
        pa = np.array(coords_of[a])
        pb = np.array(coords_of[b])
        ts = np.linspace(0.0, 1.0, nel + 1)[:, None]
        pts = pa + ts * (pb - pa)
        ids = np.empty(nel + 1, dtype=np.int64)
        ids[0] = idx[a]
        ids[-1] = idx[b]
        if nel > 1:
            ids[1:-1] = base + 1 + np.arange(nel - 1)
            coords[ids[1:-1]] = pts[1:-1]
        coords[idx[a]] = pa
        coords[idx[b]] = pb
        ends1.append(ids[:-1])
        ends2.append(ids[1:])
    node1 = np.concatenate(ends1)
    node2 = np.concatenate(ends2)

    delta = coords[node2] - coords[node1]
    lengths = np.hypot(delta[:, 0], delta[:, 1])
    # Nodes that coincide in floating point (a member far shorter than
    # the frame) give a zero length and no element to divide by.
    if not np.all((lengths > 0.0) & (lengths < np.inf)):
        raise FrameSingularError(
            "stiffness mesh has an element length that is not finite and positive")
    cos = delta[:, 0] / lengths
    sin = delta[:, 1] / lengths

    local = _local_stiffness(lengths, ei, ea)
    rot = np.zeros((node1.shape[0], 6, 6))
    for block in (0, 3):
        rot[:, block, block] = cos
        rot[:, block, block + 1] = sin
        rot[:, block + 1, block] = -sin
        rot[:, block + 1, block + 1] = cos
        rot[:, block + 2, block + 2] = 1.0
    kg = rot.transpose(0, 2, 1) @ local @ rot

    dofs = np.empty((node1.shape[0], 6), dtype=np.int64)
    dofs[:, 0:3] = 3 * node1[:, None] + np.arange(3)
    dofs[:, 3:6] = 3 * node2[:, None] + np.arange(3)
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    values = kg.ravel()

    # Entries in a clamped row or column are dropped; the free DOFs are
    # renumbered in their global order.
    ndof = 3 * n_nodes
    anchor_a, anchor_d = 3 * idx["A"], 3 * idx["D"]
    free = np.ones(ndof, dtype=bool)
    free[anchor_a:anchor_a + 3] = free[anchor_d:anchor_d + 3] = False
    kept = free[rows] & free[cols]
    reduced = np.cumsum(free) - 1
    n_free = ndof - 6
    stiffness = coo_matrix(
        (values[kept], (reduced[rows[kept]], reduced[cols[kept]])),
        shape=(n_free, n_free)).tocsr()

    # Equivalent loads: heated members are the release path AB, BC, CD,
    # whose elements tile the path coordinate [0, path_length] in order.
    heated = 3 * nel
    spans = np.concatenate([
        np.linspace(0.0, geo.hot_arm_length, nel + 1),
        geo.hot_arm_length + np.linspace(0.0, geo.gap, nel + 1)[1:],
        (geo.hot_arm_length + geo.gap)
        + np.linspace(0.0, geo.cold_arm_length, nel + 1)[1:],
    ])
    widths = np.diff(spans)     # zero for a member below one ulp of the path
    if not np.all(widths > 0.0):
        raise FrameSingularError("heated element has a path span that is not positive")
    integrals = rise_integral(profile, spans)
    mean_rise = np.diff(integrals) / widths
    axial_force = ea * mat.expansion_coefficient * mean_rise

    load = np.zeros(ndof)
    hcos, hsin = cos[:heated], sin[:heated]
    np.add.at(load, dofs[:heated, 0], -axial_force * hcos)
    np.add.at(load, dofs[:heated, 1], -axial_force * hsin)
    np.add.at(load, dofs[:heated, 3], axial_force * hcos)
    np.add.at(load, dofs[:heated, 4], axial_force * hsin)

    solution = np.zeros(ndof)
    solution[free] = spsolve(stiffness, load[free])
    if not np.all(np.isfinite(solution)):
        raise FrameSingularError("stiffness system did not solve")

    # K u at D's rows, summed entry by entry in COO order.
    at_d = (rows >= anchor_d) & (rows < anchor_d + 3)
    reaction = np.bincount(rows[at_d] - anchor_d,
                           weights=values[at_d] * solution[cols[at_d]],
                           minlength=3) - load[anchor_d:anchor_d + 3]
    return StiffnessResult(
        junction_deflection=float(-solution[3 * idx["B"] + 1]),
        junction_rotation=float(-solution[3 * idx["B"] + 2]),
        tip_deflection=float(-solution[3 * idx["J"] + 1]),
        reaction_cold_anchor=(float(reaction[0]), float(reaction[1]),
                              float(reaction[2])),
        elements_per_member=nel,
    )
