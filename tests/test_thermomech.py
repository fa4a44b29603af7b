import dataclasses
import functools
import inspect
import math
import random
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg.lapack import dpbsv

from thermoact import thermomech
from thermoact.electrothermal import (ThermalSystemError, fd_temperature_oracle,
                                      rise_integral, solve_temperature_profile,
                                      temperature_at)
from thermoact.model import (ActuatorSpec, Drive, Environment, Geometry,
                             Material, default_spec)
from thermoact.thermomech import (FrameSingularError, SmallAngleError,
                                  ThermalLoad, _oracle_mesh, simulate,
                                  stiffness_oracle)

from test_bits import EDGES, _domain, _extreme

W, T, E = 2.8e-6, 2.0e-6, 158.0e9
EI = E * (T * W ** 3 / 12.0)
EA = E * (W * T)


def unit_fields(geometry):
    """Reference statics table of the release path, independent of the
    closed form in production.

    Returns ``(fields, lengths)``.  ``fields[i][k]`` is
    ``(moment_start, moment_end, axial)`` on member k (AB, BC, CD) under
    unit redundant i (0: force along x at D, 1: force along y at D,
    2: couple at D), from statics of the cut segment on the anchor-D
    side, with the moments taken about the member's nodes.  ``lengths``
    are the three member lengths.
    """
    length1, length2, gap = (geometry.hot_arm_length, geometry.cold_arm_length,
                             geometry.gap)
    nodes = ((0.0, 0.0), (length1, 0.0), (length1, -gap), (length1 - length2, -gap))
    lengths = (length1, gap, length2)
    anchor_x, anchor_y = nodes[3]
    fields = tuple(
        tuple(((anchor_x - sx) * fy - (anchor_y - sy) * fx + couple,
               (anchor_x - ex) * fy - (anchor_y - ey) * fx + couple,
               fx * ((ex - sx) / length) + fy * ((ey - sy) / length))
              for (sx, sy), (ex, ey), length in zip(nodes, nodes[1:], lengths))
        for fx, fy, couple in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    return fields, lengths


def _public_load(spec):
    """The free arm elongations by the public route: alpha times the rise
    integral over each arm, measured from its own anchor."""
    profile = solve_temperature_profile(spec)
    alpha, geometry = spec.material.expansion_coefficient, spec.geometry
    return ThermalLoad(alpha * rise_integral(profile, geometry.hot_arm_length),
                       alpha * rise_integral(profile, geometry.cold_arm_length))


def _simpson(length, a_start, a_end, b_start, b_end):
    """Simpson's rule, exact for the product of two linear fields."""
    middle = (a_start + a_end) * (b_start + b_end) / 4.0
    return length * (a_start * b_start + 4.0 * middle + a_end * b_end) / 6.0


def _flexibility_matrix(spec):
    """The frame's 3x3 flexibility from the statics table: each of the
    nine entries by Simpson's rule on its own, none mirrored."""
    geometry, material = spec.geometry, spec.material
    ei = material.young_modulus * (geometry.beam_thickness
                                   * geometry.beam_width ** 3 / 12.0)
    ea = material.young_modulus * geometry.beam_width * geometry.beam_thickness
    fields, lengths = unit_fields(geometry)
    return np.array([[sum(_simpson(length, a_start, a_end, b_start, b_end) / ei
                          + length * a_axial * b_axial / ea
                          for (a_start, a_end, a_axial), (b_start, b_end, b_axial),
                          length in zip(field_a, field_b, lengths))
                      for field_b in fields] for field_a in fields])


def _table_route(spec):
    """The frame solved from the statics table: its flexibility matrix
    by LU, the superposed moment on the hot arm and virtual work there.
    Returns the flexibility matrix, the redundants and the tip, junction
    deflection and rotation."""
    geometry = spec.geometry
    ei = spec.material.young_modulus * (geometry.beam_thickness
                                        * geometry.beam_width ** 3 / 12.0)
    fields, lengths = unit_fields(geometry)
    flex = _flexibility_matrix(spec)
    load = _public_load(spec)
    redundants = np.linalg.solve(
        flex, [load.hot_elongation - load.cold_elongation, 0.0, 0.0]).tolist()
    start = sum(x * field[0][0] for x, field in zip(redundants, fields))
    end = sum(x * field[0][1] for x, field in zip(redundants, fields))
    deflection = _simpson(lengths[0], start, end, lengths[0], 0.0) / ei
    rotation = _simpson(lengths[0], start, end, 1.0, 1.0) / ei
    tip = deflection + geometry.extension_length * rotation
    return flex, redundants, (tip, deflection, rotation)


@pytest.fixture(scope="module")
def table():
    return unit_fields(default_spec().geometry)


@pytest.fixture(scope="module")
def flex():
    return _flexibility_matrix(default_spec())


@pytest.fixture(scope="module")
def solution():
    return simulate(default_spec())


def _spec(hot_um, ratio, gap_um, volts=8.0):
    geometry = Geometry(hot_arm_length=hot_um * 1.0e-6,
                        cold_arm_length=ratio * hot_um * 1.0e-6,
                        gap=gap_um * 1.0e-6)
    return ActuatorSpec(geometry=geometry, drive=Drive(voltage=volts))


def test_frame_nodes_and_member_lengths(table):
    """Member lengths come straight from the geometry, and the members
    run A -> B along +x, B -> C along -y and C -> D along -x, so a unit
    force along either axis has an exact unit or zero axial share."""
    fields, lengths = table
    assert lengths == (750.0e-6, 5.0e-6, 345.0e-6)
    pull, shear, couple = fields
    assert [axial for _, _, axial in pull] == [1.0, 0.0, -1.0]
    assert [axial for _, _, axial in shear] == [0.0, -1.0, 0.0]
    assert [axial for _, _, axial in couple] == [0.0, 0.0, 0.0]


def test_section_properties(flex):
    """The rigidities of the w x t section enter the flexibility: the
    couple-couple entry is pure bending, and the axial compliance adds
    (L1 + L2) / EA to the pull entry and g / EA to the shear entry."""
    l1, l2, g = 750.0e-6, 345.0e-6, 5.0e-6
    assert flex[2, 2] == pytest.approx((l1 + g + l2) / EI, rel=1.0e-14)
    f11_bending = (g * g * l1 + g ** 3 / 3.0) / EI
    f22_bending = (((l1 - l2) ** 3 + l2 ** 3) / 3.0 + l2 * l2 * g
                   + l2 ** 3 / 3.0) / EI
    assert flex[0, 0] - f11_bending == pytest.approx((l1 + l2) / EA, rel=1.0e-10)
    assert flex[1, 1] - f22_bending == pytest.approx(g / EA, rel=1.0e-6)


def test_unit_action_fields_match_statics_by_hand(table):
    length1, length2, gap = 750.0e-6, 345.0e-6, 5.0e-6
    (pull_ab, pull_bc, pull_cd), (shear_ab, _, shear_cd), couple = table[0]
    assert pull_ab[0] == pytest.approx(gap, rel=1.0e-14)
    assert pull_ab[1] == pytest.approx(gap, rel=1.0e-14)
    assert pull_bc[0] == pytest.approx(gap, rel=1.0e-14)
    assert pull_bc[1] == 0.0
    assert pull_cd[0] == 0.0
    assert pull_cd[1] == 0.0

    assert shear_ab[0] == pytest.approx(length1 - length2, rel=1.0e-14)
    assert shear_ab[1] == pytest.approx(-length2, rel=1.0e-14)
    assert shear_cd[0] == pytest.approx(-length2, rel=1.0e-14)
    assert shear_cd[1] == 0.0

    assert couple == ((1.0, 1.0, 0.0),) * 3


def test_flexibility_entries_against_closed_integrals(flex):
    """Every entry reduced by hand from the linear moment fields."""
    l1, l2, g = 750.0e-6, 345.0e-6, 5.0e-6
    f11 = (g * g * l1 + g ** 3 / 3.0) / EI + (l1 + l2) / EA
    f22 = (((l1 - l2) ** 3 + l2 ** 3) / 3.0 + l2 * l2 * g + l2 ** 3 / 3.0) / EI \
        + g / EA
    f33 = (l1 + g + l2) / EI
    f12 = (g * l1 * (l1 / 2.0 - l2) - l2 * g * g / 2.0) / EI
    f13 = (g * l1 + g * g / 2.0) / EI
    f23 = (l1 * (l1 / 2.0 - l2) - l2 * g - l2 * l2 / 2.0) / EI
    expect = np.array([[f11, f12, f13], [f12, f22, f23], [f13, f23, f33]])
    np.testing.assert_allclose(flex, expect, rtol=1.0e-12)


def test_flexibility_against_midpoint_quadrature(table, flex):
    """Brute-force the virtual-work integrals with 200 000 midpoint
    slices per member; the statics table by Simpson must agree to 1e-9 on
    each entry."""
    fields, lengths = table
    slices = 200_000
    t = (np.arange(slices) + 0.5) / slices
    reference = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            total = 0.0
            for (si, ei, ai), (sj, ej, aj), length in zip(fields[i], fields[j],
                                                          lengths):
                mi = si + (ei - si) * t
                mj = sj + (ej - sj) * t
                total += length * np.mean(mi * mj) / EI
                total += length * ai * aj / EA
            reference[i, j] = total
    np.testing.assert_allclose(flex, reference, rtol=1.0e-9)


def test_flexibility_is_symmetric_and_positive_definite(flex):
    scale = np.abs(flex).max()
    assert np.abs(flex - flex.T).max() <= 1.0e-12 * scale
    assert np.all(np.linalg.eigvalsh(flex) > 0.0)


def _random_frames():
    """The 1000 seeded frames of acceptance criterion 9, as specs."""
    rng = np.random.default_rng(20260824)
    for _ in range(1000):
        hot = rng.uniform(50.0, 2000.0) * 1.0e-6
        geometry = Geometry(
            hot_arm_length=hot,
            cold_arm_length=rng.uniform(0.05, 1.0) * hot,
            gap=rng.uniform(1.0, 50.0) * 1.0e-6,
            beam_width=rng.uniform(1.0, 10.0) * 1.0e-6,
            beam_thickness=rng.uniform(0.5, 5.0) * 1.0e-6,
            extension_length=rng.uniform(5.0, 100.0) * 1.0e-6,
        )
        material = Material(young_modulus=rng.uniform(50.0, 300.0) * 1.0e9)
        yield ActuatorSpec(geometry=geometry, material=material)


def _solved_random_frames():
    """The criterion 9 frames that ``simulate`` solves, with their
    solutions: the few that turn past the small-angle limit at the
    default drive are left out."""
    for spec in _random_frames():
        try:
            yield spec, simulate(spec)
        except SmallAngleError:
            continue


def _equilibrated_error(flex, got, expected):
    """|S^-1 (got - expected)| / |S^-1 expected| with S = diag(flex)^-1/2."""
    root = np.sqrt(np.diag(flex))
    return float(np.linalg.norm((np.asarray(got) - expected) * root)
                 / np.linalg.norm(np.asarray(expected) * root))


def test_flexibility_is_reciprocal_to_the_bit():
    """The closed form solves a symmetric system, which assumes
    reciprocity.  The statics table forms all nine entries on its own,
    and on the criterion 9 frames F_ij and F_ji come out as one float."""
    asymmetric = sum(not np.array_equal(reference, reference.T)
                     for reference in map(_flexibility_matrix, _random_frames()))
    assert asymmetric == 0


def test_closed_form_matches_the_statics_table_route():
    """``simulate`` against the route through the statics table, on the
    criterion 9 frames and the 1278-point acceptance grid: the tip,
    junction deflection and rotation agree to 1e-12 relative, and the
    thermal results, which the two routes share, to the bit."""
    worst_frame = 0.0
    grid = [_spec(hot_um, ratio, gap_um) for hot_um in (500.0, 600.0, 750.0)
            for ratio in np.linspace(0.1, 0.8, 71).tolist()
            for gap_um in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)]
    for spec, ours in [*_solved_random_frames(), *((spec, simulate(spec)) for spec in grid)]:
        _, _, expected = _table_route(spec)
        got = (ours.tip_deflection, ours.junction_deflection, ours.junction_rotation)
        worst_frame = max(worst_frame, *(abs(a - b) / abs(b)
                                         for a, b in zip(got, expected)))
        profile = solve_temperature_profile(spec)
        assert ours.thermal_load == _public_load(spec)
        assert ours.peak_temperature == temperature_at(
            profile, profile.path_length / 2.0)
    assert worst_frame <= 1.0e-12


def test_redundants_close_the_compatibility_system(flex, solution):
    """Backward-error check: the reported redundants satisfy each scalar
    equation of the statics table's system to within a tiny multiple of
    that equation's own terms."""
    load = solution.thermal_load
    x = np.array(solution.redundants)
    rhs = np.array([load.hot_elongation - load.cold_elongation, 0.0, 0.0])
    residual = np.abs(rhs - flex @ x)
    scale = np.abs(flex) @ np.abs(x) + np.abs(rhs)
    assert np.all(residual <= 1.0e-12 * scale)


def test_redundant_magnitudes_are_sane(solution):
    x1, x2, x3 = solution.redundants
    assert x1 > 0.0              # the hot arm drags the anchor inward
    assert abs(x2) < x1          # transverse correction is much smaller
    assert abs(x3) < 1.0e-6      # and the couple is tiny (N m)


@pytest.mark.parametrize("hot,cold", [(np.inf, 0.0), (np.inf, np.inf),
                                      (np.nan, 0.0)])
def test_a_non_finite_load_is_refused(monkeypatch, hot, cold):
    """Whatever the thermal stage hands over, a differential that is not
    finite is refused by name before the frame is solved."""
    monkeypatch.setattr(thermomech, "_load_and_peak", lambda *point: (hot, cold, 0.0))
    with pytest.raises(FrameSingularError, match="^thermal load is not finite$"):
        simulate(default_spec())


def test_a_zero_load_gives_exactly_zero_redundants():
    """Equal arms elongate alike, so the frame carries no load at all."""
    still = simulate(ActuatorSpec(geometry=Geometry(hot_arm_length=500.0e-6,
                                                    cold_arm_length=500.0e-6)))
    assert still.thermal_load.hot_elongation == still.thermal_load.cold_elongation
    assert still.redundants == (0.0, 0.0, 0.0)


def test_solver_agrees_with_a_general_solve_on_random_frames():
    """The frames of acceptance criterion 9: ``simulate``'s redundants
    match an LU solve of the statics table's system to 1e-12, measured
    in the equilibrated variables S^-1 x with S = diag(flex)^-1/2."""
    worst = 0.0
    for spec, ours in _solved_random_frames():
        flex, reference, _ = _table_route(spec)
        worst = max(worst, _equilibrated_error(flex, ours.redundants, reference))
    assert worst <= 1.0e-12


def _exact_frame(spec, delta):
    """The frame solved in rational arithmetic from the float inputs:
    L1, L2, g, the extension, w, t, E and the thermal differential
    ``delta``.  The fields are ``unit_fields``' statics table written
    out exactly (that helper works in floats).  The flexibility is the
    exact virtual-work integral of each pair of them, solved by
    cofactors, and the superposed moment on the hot arm with unit-load
    virtual work there gives the junction response.  Returns the tip,
    junction deflection, rotation and the three redundants, as
    Fractions."""
    geometry = spec.geometry
    length1, length2, gap, extension, width, thickness, modulus = map(Fraction, (
        geometry.hot_arm_length, geometry.cold_arm_length, geometry.gap,
        geometry.extension_length, geometry.beam_width, geometry.beam_thickness,
        spec.material.young_modulus))
    ei = modulus * thickness * width ** 3 / 12
    ea = modulus * width * thickness
    lengths = (length1, gap, length2)
    fields = (((gap, gap, 1), (gap, 0, 0), (0, 0, -1)),
              ((length1 - length2, -length2, 0), (-length2, -length2, -1),
               (-length2, 0, 0)),
              ((1, 1, 0),) * 3)

    def product(length, a_start, a_end, b_start, b_end):
        return length * (2 * (a_start * b_start + a_end * b_end)
                         + a_start * b_end + a_end * b_start) / 6

    (a, d, e), (_, b, f), (_, _, c) = (
        [sum(product(length, a0, a1, b0, b1) / ei + length * na * nb / ea
             for (a0, a1, na), (b0, b1, nb), length in zip(fa, fb, lengths))
         for fb in fields] for fa in fields)
    cofactors = (b * c - f * f, e * f - d * c, d * f - b * e)
    det = a * cofactors[0] + d * cofactors[1] + e * cofactors[2]
    x0, x1, x2 = (Fraction(delta) * cofactor / det for cofactor in cofactors)
    at_a = gap * x0 + (length1 - length2) * x1 + x2
    at_b = gap * x0 - length2 * x1 + x2
    deflection = product(length1, at_a, at_b, length1, 0) / ei
    rotation = product(length1, at_a, at_b, 1, 1) / ei
    return deflection + extension * rotation, deflection, rotation, x0, x1, x2


def _delta(solution):
    load = solution.thermal_load
    return load.hot_elongation - load.cold_elongation


def test_solver_agrees_with_an_exact_solve_on_random_frames():
    """The frames of acceptance criterion 9 against the rational solve of
    their float inputs and ``simulate``'s own float load: the forward
    error of the redundants is within 1e-14 relative in the equilibrated
    variables S^-1 x."""
    worst = 0.0
    for spec, ours in _solved_random_frames():
        exact = [float(x) for x in _exact_frame(spec, _delta(ours))[3:]]
        worst = max(worst, _equilibrated_error(_flexibility_matrix(spec),
                                               ours.redundants, exact))
    assert worst <= 1.0e-14


def test_closed_form_is_within_a_few_ulp_of_the_exact_frame():
    """Seeded draws of the benchmark's single-point domain against the
    rational solve: the tip, junction deflection and rotation are within
    8 ulp (units of 2^-52, relative) of the exact frame, and the three
    redundants within 16.  A solve that loses digits to the conditioning
    of the flexibility matrix, as an equilibrated Cholesky does, reaches
    about 100 ulp on the tip."""
    rng = random.Random(8301)
    worst = [0.0] * 6
    for _ in range(1500):
        spec = _domain(rng)
        try:
            solution = simulate(spec)
        except SmallAngleError:
            continue
        if _delta(solution) == 0.0:
            continue
        got = (solution.tip_deflection, solution.junction_deflection,
               solution.junction_rotation, *solution.redundants)
        for i, (value, exact) in enumerate(zip(got, _exact_frame(spec, _delta(solution)))):
            worst[i] = max(worst[i], float(abs(Fraction(value) - exact) / abs(exact))
                           / 2.0 ** -52)
    assert max(worst[:3]) <= 8.0, worst
    assert max(worst[3:]) <= 16.0, worst


def test_no_kept_tip_on_an_extreme_frame_is_wrong():
    """Draws over many decades of every spec field: whatever frame
    ``simulate`` does not refuse has a tip within 1e-2 of the rational
    solve of its float inputs, and finite redundants.  An equilibrated
    Cholesky solve keeps about one tip in ten here that is off by more."""
    rng = random.Random(4243)
    kept = 0
    for i in range(2500):
        build = _extreme(rng, i)
        try:
            solution = simulate(build())
        except (ArithmeticError, ValueError, RuntimeError):
            continue
        kept += 1
        spec = build()
        exact = _exact_frame(spec, _delta(solution))[0]
        tip = Fraction(solution.tip_deflection)
        assert abs(tip - exact) <= abs(exact) / 100, spec
        assert all(map(math.isfinite, solution.redundants)), spec
    assert kept >= 1000


def test_virtual_response_matches_the_closed_integral(solution):
    """Unit-load virtual work on the hot arm, over the moments at A and
    B that statics gives from ``simulate``'s redundants."""
    x0, x1, x2 = solution.redundants
    length, cold, gap = 750.0e-6, 345.0e-6, 5.0e-6
    start = gap * x0 + (length - cold) * x1 + x2
    end = gap * x0 - cold * x1 + x2
    assert solution.junction_deflection == pytest.approx(
        length ** 2 * (2.0 * start + end) / (6.0 * EI), rel=1.0e-12)
    assert solution.junction_rotation == pytest.approx(
        length * (start + end) / (2.0 * EI), rel=1.0e-12)


def test_tip_is_junction_plus_lever(solution):
    spec = default_spec()
    assert solution.tip_deflection == solution.junction_deflection \
        + spec.geometry.extension_length * solution.junction_rotation


def test_rotation_guard_trips_on_overdrive():
    spec = dataclasses.replace(default_spec(), drive=Drive(voltage=16.0))
    with pytest.raises(SmallAngleError, match="exceeds the small-angle limit 0.1"):
        simulate(spec)


def test_simulation_agrees_with_the_stiffness_oracle(solution):
    oracle = stiffness_oracle(default_spec(), elements_per_member=64)
    assert solution.tip_deflection == pytest.approx(
        oracle.tip_deflection, rel=5.0e-3)
    assert solution.junction_deflection == pytest.approx(
        oracle.junction_deflection, rel=5.0e-3)
    assert solution.junction_rotation == pytest.approx(
        oracle.junction_rotation, rel=5.0e-3)


def test_anchor_reaction_balances_the_redundants(solution):
    oracle = stiffness_oracle(default_spec(), elements_per_member=64)
    reaction = np.array(oracle.reaction_cold_anchor)
    np.testing.assert_allclose(reaction, [-x for x in solution.redundants],
                               rtol=2.0e-2)


def test_oracle_is_mesh_converged(solution):
    coarse = stiffness_oracle(default_spec(), elements_per_member=16)
    fine = stiffness_oracle(default_spec(), elements_per_member=64)
    drift = abs(coarse.tip_deflection - fine.tip_deflection) \
        / abs(fine.tip_deflection)
    assert drift < 1.0e-5


def test_oracle_rejects_an_empty_mesh():
    with pytest.raises(ValueError):
        stiffness_oracle(default_spec(), elements_per_member=0)


def test_oracle_refuses_a_collapsed_element_before_dividing():
    """An extension far shorter than one ulp of the hot arm puts J on B
    in floating point: the oracle refuses the zero-length elements
    before any warning from a division."""
    spec = dataclasses.replace(default_spec(), geometry=dataclasses.replace(
        default_spec().geometry, extension_length=1.0e-200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrameSingularError, match="element length"):
            stiffness_oracle(spec, elements_per_member=4)


@pytest.mark.parametrize("voltage", [1.0e150, 1.0e160, 1.0e200])
def test_oracle_refuses_a_non_finite_thermal_load_by_name(voltage):
    """A Joule source so large that the fin integral is not finite gives
    an equivalent load that is not finite: the oracle names it before
    the solve, with no warning from the arithmetic that formed it."""
    with pytest.raises(FrameSingularError, match="equivalent thermal load"):
        stiffness_oracle(ActuatorSpec(drive=Drive(voltage=voltage)))


def test_oracles_share_no_code_with_the_closed_form():
    """The FD oracle reads no module global but ``math`` and its error.
    The stiffness oracle and its mesh helpers read their own names and
    the closed-form thermal field alone: none of the frame solution's
    flexibility, rigidity, solve or load helpers."""
    assert inspect.getclosurevars(fd_temperature_oracle).globals == {
        "math": math, "ThermalSystemError": ThermalSystemError}
    allowed = {"FrameSingularError", "StiffnessResult", "_oracle_mesh",
               "solve_temperature_profile", "rise_integral"}
    for func in (stiffness_oracle, _oracle_mesh.__wrapped__):
        assert set(inspect.getclosurevars(func).globals) <= allowed, func.__name__


_CONDUCTION_ONLY = dataclasses.replace(
    default_spec(), environment=Environment(convection_coefficient=0.0))

# float.hex of every StiffnessResult field: junction deflection,
# junction rotation, tip deflection and the reaction at D.  The
# rectilinear frame's exact 0 and +-1 rotations make every global
# element entry plus or minus one element coefficient, or zero, each
# band slot sums its entries in element order, and LAPACK's band
# Cholesky factors the clamped system in the cached node order, so a
# rewrite of the oracle's kernels that keeps the node order, the
# summation order and the solver keeps these bits.  Another solver or node order moves
# the last digits; test_oracle_tip_is_the_exact_one_element_tip bounds
# how far.
_PINNED_ORACLE = [
    (default_spec(), 1,
     ("0x1.65de39c6d83c4p-17", "0x1.c9a60f4f11139p-5", "0x1.b0d966f71b429p-17",
      "-0x1.1f3e292b25a50p-15", "0x1.6b2492b556f28p-23", "0x1.0ea6edf4c7c6fp-33")),
    (default_spec(), 16,
     ("0x1.65de39ca97a4fp-17", "0x1.c9a60f4fb9e14p-5", "0x1.b0d966faec38cp-17",
      "-0x1.1f3e292ed0a04p-15", "0x1.6b2492d779500p-23", "0x1.0ea6edfb2f946p-33")),
    (default_spec(), 64,
     ("0x1.65de436a6ea1ap-17", "0x1.c9a61295c35b9p-5", "0x1.b0d9712c4eee1p-17",
      "-0x1.1f3e1c1c10fdep-15", "0x1.6b24e0e5d7000p-23", "0x1.0ea6fd4c83e50p-33")),
    (_CONDUCTION_ONLY, 64,
     ("0x1.c3be8cf9d9ae2p-17", "0x1.20d9676efb41bp-4", "0x1.11327d8c2cdd6p-16",
      "-0x1.6a9771437cc6dp-15", "0x1.ca671d6979400p-23", "0x1.55a6385e6e3e2p-33")),
    (default_spec(), 2,
     ("0x1.65de39c43e365p-17", "0x1.c9a60f4e57095p-5", "0x1.b0d966f462c0ap-17",
      "-0x1.1f3e292e36e54p-15", "0x1.6b24929f25b10p-23", "0x1.0ea6edf082c6bp-33")),
    # An unpowered device: the signs of the zeros are pinned too.
    (dataclasses.replace(default_spec(), drive=Drive(voltage=0.0)), 64,
     ("-0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    (dataclasses.replace(default_spec(),
                         environment=Environment(convection_coefficient=5000.0)), 64,
     ("0x1.ddba5b8cd4d19p-22", "0x1.3179041798825p-9", "0x1.20e9a22350914p-21",
      "-0x1.7f7621cb5bec3p-20", "0x1.e4ccb06cae400p-28", "0x1.695071f70ea92p-38")),
]
_ORACLE_IDS = ["default-1", "default-16", "default-64", "conduction-only-64",
               "default-2", "unpowered-64", "convection-5000-64"]


def _oracle_hex(spec, elements):
    result = stiffness_oracle(spec, elements_per_member=elements)
    fields = (result.junction_deflection, result.junction_rotation,
              result.tip_deflection, *result.reaction_cold_anchor)
    assert all(type(value) is float for value in fields)
    assert result.elements_per_member == elements
    return tuple(value.hex() for value in fields)


@pytest.mark.parametrize("spec,elements,expected", _PINNED_ORACLE, ids=_ORACLE_IDS)
def test_oracle_keeps_its_pinned_bits(spec, elements, expected):
    assert _oracle_hex(spec, elements) == expected


def test_oracle_mesh_cache_keeps_the_bits_and_is_read_only():
    """The per-size mesh cache holds topology alone: interleaving mesh
    sizes and specs, forwards then backwards, gives the pinned bits
    every time, and no cached array can be written."""
    pins = dict(zip(_ORACLE_IDS, _PINNED_ORACLE))
    order = ["default-64", "default-16", "conduction-only-64",
             "convection-5000-64", "default-16", "default-64"]
    for name in order + order[::-1]:
        spec, elements, expected = pins[name]
        assert _oracle_hex(spec, elements) == expected
    assert _oracle_mesh(64) is _oracle_mesh(64)
    for elements in (16, 64):
        cached = vars(_oracle_mesh(elements)).copy()
        assert type(cached.pop("kd")) is int
        for array in cached.values():
            assert not array.flags.writeable


@pytest.mark.parametrize("elements", [1, 2, 16, 64])
def test_oracle_band_has_half_bandwidth_eight(elements):
    """The cached node order keeps every element within two nodes, so the
    band is 8 wide above the diagonal for every mesh size, and every
    slot lies inside the (kd + 1, n) upper band storage."""
    mesh = _oracle_mesh(elements)
    assert mesh.kd == 8
    clamped = {0, 1, 2, 9 * elements, 9 * elements + 1, 9 * elements + 2}
    assert sorted(mesh.order) == sorted(set(range(3 * (4 * elements + 1))) - clamped)
    assert 0 <= mesh.slot.min() and mesh.slot.max() < 9 * mesh.order.size


@functools.lru_cache(maxsize=None)
def _rotated_mesh(nel):
    """The mesh arrays of the oracle's earlier route, which rotated full
    6x6 element blocks: node chains, DOF table, the 0 and +-1 rotations,
    every upper-triangle entry of the clamped system (zeros included)
    with its band slot, and every entry of D's rows."""
    n_el, ndof = 4 * nel, 3 * (4 * nel + 1)
    ends = np.array([[0, nel], [nel, 2 * nel], [2 * nel, 3 * nel], [nel, 4 * nel]])
    chain = np.empty((4, nel + 1), dtype=np.int64)
    chain[:, 0], chain[:, -1] = ends[:, 0], ends[:, 1]
    chain[:, 1:-1] = nel * np.arange(4)[:, None] + np.arange(1, nel)
    node1, node2 = chain[:, :-1].ravel(), chain[:, 1:].ravel()
    direction = np.repeat([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [1.0, 0.0]],
                          nel, axis=0)
    cos, sin = direction[:, 0], direction[:, 1]
    rot = np.zeros((n_el, 6, 6))
    for block in (0, 3):
        rot[:, block, block] = rot[:, block + 1, block + 1] = cos
        rot[:, block, block + 1], rot[:, block + 1, block] = sin, -sin
        rot[:, block + 2, block + 2] = 1.0
    dofs = np.empty((n_el, 6), dtype=np.int64)
    dofs[:, 0:3] = 3 * node1[:, None] + np.arange(3)
    dofs[:, 3:6] = 3 * node2[:, None] + np.arange(3)
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    nodes = np.concatenate([np.arange(nel + 1),
                            np.stack([chain[1, 1:], chain[3, 1:]], axis=1).ravel(),
                            chain[2, 1:]])
    order = (3 * nodes[:, None] + np.arange(3)).ravel()[3:-3]
    place = np.full(ndof, -1)
    place[order] = np.arange(order.size)
    row, col = place[rows], place[cols]
    kept = np.flatnonzero((row >= 0) & (row <= col))
    row, col = row[kept], col[kept]
    kd = int((col - row).max())
    at_d = np.flatnonzero((rows >= 9 * nel) & (rows < 9 * nel + 3))
    return SimpleNamespace(
        kd=kd, order=order, node1=node1, node2=node2, direction=direction, rot=rot,
        dofs=dofs, kept=kept, slot=col * (kd + 1) + kd + row - col, at_d=at_d,
        d_rows=rows[at_d] - 9 * nel, d_cols=cols[at_d])


def _rotated_blocks(mesh, coefficients):
    """rot^T K rot of each element's 6x6 block, flattened, from the
    (5, n_el) coefficients EA/L, 12EI/L^3, 6EI/L^2, 4EI/L, 2EI/L."""
    ax, b12, b6, b4, b2 = coefficients
    k = np.zeros((coefficients.shape[1], 6, 6))
    k[:, 0, 0] = k[:, 3, 3] = ax
    k[:, 0, 3] = k[:, 3, 0] = -ax
    k[:, 1, 1] = k[:, 4, 4] = b12
    k[:, 1, 4] = k[:, 4, 1] = -b12
    k[:, 1, 2] = k[:, 2, 1] = k[:, 1, 5] = k[:, 5, 1] = b6
    k[:, 2, 4] = k[:, 4, 2] = k[:, 4, 5] = k[:, 5, 4] = -b6
    k[:, 2, 2] = k[:, 5, 5] = b4
    k[:, 2, 5] = k[:, 5, 2] = b2
    return (mesh.rot.transpose(0, 2, 1) @ k @ mesh.rot).ravel()


def _rotated_oracle(spec, nel):
    """float.hex of the oracle's fields by the earlier route: 2-D node
    coordinates, full rotated element blocks, scalar linspace spans and
    np.add.at loads."""
    geo, mat = spec.geometry, spec.material
    mesh = _rotated_mesh(nel)
    profile = solve_temperature_profile(spec)
    ei = mat.young_modulus * (geo.beam_thickness * geo.beam_width ** 3 / 12.0)
    ea = mat.young_modulus * (geo.beam_width * geo.beam_thickness)
    length1, gap = geo.hot_arm_length, geo.gap
    corners = np.array([(0.0, 0.0), (length1, 0.0), (length1, -gap),
                        (length1 - geo.cold_arm_length, -gap),
                        (length1 + geo.extension_length, 0.0)])
    starts, stops = corners[[0, 1, 2, 1]], corners[[1, 2, 3, 4]]
    coords = np.empty((4 * nel + 1, 2))
    coords[::nel] = corners
    fractions = np.linspace(0.0, 1.0, nel + 1)[1:-1, None]
    coords[1:].reshape(4, nel, 2)[:, :-1] = \
        starts[:, None] + fractions * (stops - starts)[:, None]
    delta = coords[mesh.node2] - coords[mesh.node1]
    lengths = (delta * mesh.direction).sum(axis=1)
    if not np.all((lengths > 0.0) & (lengths < np.inf)):
        raise FrameSingularError(
            "stiffness mesh has an element length that is not finite and positive")
    with np.errstate(all="ignore"):
        coefficients = np.array((ea / lengths, 12.0 * ei / lengths ** 3,
                                 6.0 * ei / lengths ** 2, 4.0 * ei / lengths,
                                 2.0 * ei / lengths))
    if not (coefficients.min() > 0.0 and coefficients.max() < np.inf):
        raise FrameSingularError(
            "stiffness element has a coefficient that is not finite and positive")
    values = _rotated_blocks(mesh, coefficients)
    band = np.bincount(mesh.slot, weights=values[mesh.kept],
                       minlength=(mesh.kd + 1) * mesh.order.size)
    spans = np.concatenate([
        np.linspace(0.0, length1, nel + 1),
        length1 + np.linspace(0.0, gap, nel + 1)[1:],
        (length1 + gap) + np.linspace(0.0, geo.cold_arm_length, nel + 1)[1:]])
    widths = np.diff(spans)
    if not np.all(widths > 0.0):
        raise FrameSingularError("heated element has a path span that is not positive")
    with np.errstate(all="ignore"):
        mean_rise = np.diff(rise_integral(profile, spans)) / widths
        axial_force = ea * mat.expansion_coefficient * mean_rise
    if not np.all(np.isfinite(axial_force)):
        raise FrameSingularError("equivalent thermal load is not finite")
    load = np.zeros(3 * (4 * nel + 1))
    dofs = mesh.dofs[:3 * nel]
    hcos, hsin = mesh.direction[:3 * nel, 0], mesh.direction[:3 * nel, 1]
    np.add.at(load, dofs[:, 0], -axial_force * hcos)
    np.add.at(load, dofs[:, 1], -axial_force * hsin)
    np.add.at(load, dofs[:, 3], axial_force * hcos)
    np.add.at(load, dofs[:, 4], axial_force * hsin)
    solution = np.zeros(load.size)
    rhs = load[mesh.order]
    if rhs.any():
        _, solution[mesh.order], info = dpbsv(band.reshape(-1, mesh.kd + 1).T, rhs,
                                              overwrite_ab=1, overwrite_b=1)
        if info > 0 or not np.all(np.isfinite(solution)):
            raise FrameSingularError("stiffness system did not solve")
    reaction = np.bincount(mesh.d_rows, minlength=3,
                           weights=values[mesh.at_d] * solution[mesh.d_cols],
                           ) - load[9 * nel:9 * nel + 3]
    fields = (-solution[3 * nel + 1], -solution[3 * nel + 2], -solution[12 * nel + 1],
              *reaction)
    return tuple(float(value).hex() for value in fields)


@pytest.mark.parametrize("elements", [1, 2, 16, 64])
def test_oracle_gather_matches_the_rotated_blocks(elements):
    """The cached gather tables give, bit for bit, the band and D's rows
    that rotating full 6x6 element blocks by the exact 0 and +-1
    rotations gives, on seeded positive coefficients from subnormal to
    near overflow, and the load vector that np.add.at gives."""
    mesh, rotated = _oracle_mesh(elements), _rotated_mesh(elements)
    assert mesh.kd == rotated.kd
    assert np.array_equal(mesh.order, rotated.order)
    rng = np.random.default_rng(elements)
    coefficients = 10.0 ** rng.uniform(-300.0, 300.0, (5, 4 * elements))
    picks = rng.choice(coefficients.size, 4 * elements, replace=False)
    coefficients.ravel()[picks] = rng.choice(
        [5.0e-324, 1.0e-310, 2.2e-308, 1.0e308, 1.7e308], picks.size)

    def bits(array):
        return array.view(np.uint64).tolist()

    values = _rotated_blocks(rotated, coefficients)
    size, ndof = (mesh.kd + 1) * mesh.order.size, 3 * (4 * elements + 1)
    with np.errstate(all="ignore"):
        assert bits(np.bincount(mesh.slot, minlength=size,
                                weights=coefficients.ravel()[mesh.index] * mesh.sign)) \
            == bits(np.bincount(rotated.slot, weights=values[rotated.kept],
                                minlength=size))
    assert bits(np.bincount(mesh.d_rows * ndof + mesh.d_cols, minlength=3 * ndof,
                            weights=coefficients.ravel()[mesh.d_index] * mesh.d_sign)) \
        == bits(np.bincount(rotated.d_rows * ndof + rotated.d_cols, minlength=3 * ndof,
                            weights=values[rotated.at_d]))

    force = rng.choice([-1.0, 1.0], 3 * elements) * 10.0 ** rng.uniform(
        -300.0, 300.0, 3 * elements)
    expected = np.zeros(ndof)
    dofs, (hcos, hsin) = rotated.dofs, rotated.direction[:3 * elements].T
    np.add.at(expected, dofs[:3 * elements, 0], -force * hcos)
    np.add.at(expected, dofs[:3 * elements, 1], -force * hsin)
    np.add.at(expected, dofs[:3 * elements, 3], force * hcos)
    np.add.at(expected, dofs[:3 * elements, 4], force * hsin)
    with np.errstate(all="ignore"):
        load = np.bincount(mesh.load_dofs, weights=(force * mesh.load_sign).ravel(),
                           minlength=ndof)
    assert bits(load) == bits(expected)


def _oracle_outcome(route, spec, elements):
    try:
        return route(spec, elements)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_oracle_keeps_every_bit_of_the_rotated_route():
    """Seeded benchmark-domain draws, draws over many decades of every
    spec field and the bit dump's edge cases, at meshes 1, 3 and 64, give
    the same float.hex fields, or the same refusal and message, by the
    gather as by the rotated-block route.  Members shorter than a few
    subnormals show that a step that underflows is refused first."""
    rng = random.Random(20261020)
    builds = [lambda spec=_domain(rng): spec for _ in range(150)]
    builds += [_extreme(rng, i) for i in range(300)] + list(EDGES)
    builds.append(lambda: ActuatorSpec(drive=Drive(voltage=1.0e150)))
    base = default_spec().geometry
    for tiny in (5.0e-324, 1.5e-322, 1.0e-320):
        builds += [lambda tiny=tiny, field=field: dataclasses.replace(
            default_spec(), geometry=dataclasses.replace(base, **{field: tiny}))
            for field in ("gap", "cold_arm_length", "extension_length")]
    outcomes = set()
    for build in builds:
        try:
            spec = build()
        except ValueError:
            continue
        for elements in (1, 3, 64):
            expected = _oracle_outcome(_rotated_oracle, spec, elements)
            assert _oracle_outcome(_oracle_hex, spec, elements) == expected, spec
            outcomes.add(expected[1] if type(expected[0]) is type else "solved")
    assert {"solved", "stiffness mesh has an element length that is not finite "
            "and positive", "stiffness element has a coefficient that is not finite "
            "and positive", "heated element has a path span that is not positive",
            "equivalent thermal load is not finite",
            "stiffness system did not solve"} <= outcomes


def test_oracle_tip_is_the_exact_one_element_tip():
    """One cubic frame element per member is exact for this frame, so a
    64-element mesh differs from it by rounding alone.  Over seeded points
    of the benchmark's single-point domain that rounding stays below
    1e-4 relative; a wrong band slot or DOF mapping gives errors of
    order one."""
    rng = random.Random(20261019)
    for _ in range(200):
        spec = _domain(rng)
        exact = stiffness_oracle(spec, elements_per_member=1).tip_deflection
        fine = stiffness_oracle(spec, elements_per_member=64).tip_deflection
        assert abs(fine - exact) <= 1.0e-4 * abs(exact), spec


def test_oracle_refuses_a_non_positive_pivot_by_name():
    """A 10 fm gap leaves the clamped system too ill-conditioned for the
    band Cholesky, which meets a non-positive pivot: the oracle names the
    failure, with no warning, instead of returning a tip that is off by
    orders of magnitude."""
    spec = dataclasses.replace(default_spec(), geometry=dataclasses.replace(
        default_spec().geometry, gap=1.0e-14))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrameSingularError, match="^stiffness system did not solve$"):
            stiffness_oracle(spec)


def test_an_unloaded_frame_stays_at_rest_without_a_factorisation():
    """The same frame unpowered has no load, so it does not move, whether
    or not its stiffness can be factored."""
    spec = dataclasses.replace(default_spec(), drive=Drive(voltage=0.0),
                               geometry=dataclasses.replace(
                                   default_spec().geometry, gap=1.0e-14))
    result = stiffness_oracle(spec)
    assert (result.junction_deflection, result.junction_rotation,
            result.tip_deflection) == (0.0, 0.0, 0.0)
    assert result.reaction_cold_anchor == (0.0, 0.0, 0.0)


# float.hex of the closed form's tip, junction deflection, rotation,
# three redundants, hot and cold elongations and peak temperature, on
# the default device, the conduction-only branch and one point in the
# benchmark's single-point ranges.  A rewrite of the frame's
# polynomials that regroups no operation keeps these bits; each field
# is within 2 ulp of the exact solve of its float inputs.
_PINNED_CLOSED_FORM = [
    (default_spec(),
     ("0x1.b0f6accf09864p-17", "0x1.65fb502e9805bp-17", "0x1.c9a730d944c33p-5",
      "0x1.1f3a15802df99p-15", "-0x1.6b07ca93068e6p-23", "-0x1.0ea23c7431e7bp-33",
      "0x1.f69df1c6ffd04p-22", "0x1.38164d4337cc1p-23", "0x1.48765170d8037p+8")),
    (_CONDUCTION_ONLY,
     ("0x1.1144dac06cdfap-16", "0x1.c3e30c801439cp-17", "0x1.20da1b419ac9cp-4",
      "0x1.6a9262787cafbp-15", "-0x1.ca42915d26d31p-23", "-0x1.55a03f6e55c6bp-33",
      "0x1.3b90845356fd0p-21", "0x1.834938ce3cdcep-23", "0x1.9a3e7063e7064p+8")),
    (dataclasses.replace(_spec(920.0, 0.15, 2.5, volts=6.5),
                         environment=Environment(convection_coefficient=5000.0)),
     ("0x1.880939a0c03aap-22", "0x1.f31d1ca64c20ap-23", "0x1.b2cfdb4692b98p-9",
      "0x1.1245bcf98f695p-17", "-0x1.8bf20d880560dp-27", "-0x1.018c3d1e0e262p-36",
      "0x1.564305805cb03p-26", "0x1.fd029a1b6d2dbp-30", "0x1.cc1e5366cfef0p+4")),
]


@pytest.mark.parametrize("spec,expected", _PINNED_CLOSED_FORM,
                         ids=["default", "conduction-only", "benchmark-point"])
def test_closed_form_keeps_its_pinned_bits(spec, expected):
    solution = simulate(spec)
    fields = (solution.tip_deflection, solution.junction_deflection,
              solution.junction_rotation, *solution.redundants,
              solution.thermal_load.hot_elongation,
              solution.thermal_load.cold_elongation, solution.peak_temperature)
    assert all(type(value) is float for value in fields)
    assert tuple(value.hex() for value in fields) == expected


def test_agreement_holds_away_from_the_default_point():
    for hot_um, ratio, gap_um in ((500.0, 0.8, 10.0), (600.0, 0.2, 7.0),
                                  (750.0, 0.46, 5.0)):
        spec = _spec(hot_um, ratio, gap_um)
        ours = simulate(spec)
        oracle = stiffness_oracle(spec, elements_per_member=64)
        assert ours.tip_deflection == pytest.approx(
            oracle.tip_deflection, rel=2.0e-2)


def test_unpowered_device_does_not_move():
    spec = dataclasses.replace(default_spec(), drive=Drive(voltage=0.0))
    quiet = simulate(spec)
    assert quiet.tip_deflection == 0.0
    assert quiet.junction_deflection == 0.0
    assert quiet.junction_rotation == 0.0
    assert quiet.redundants == (0.0, 0.0, 0.0)
    oracle = stiffness_oracle(spec, elements_per_member=8)
    assert oracle.tip_deflection == 0.0
    assert oracle.junction_rotation == 0.0


def test_equal_arms_produce_no_deflection_at_all():
    spec = ActuatorSpec(geometry=Geometry(hot_arm_length=500.0e-6,
                                          cold_arm_length=500.0e-6))
    still = simulate(spec)
    assert still.tip_deflection == 0.0
    assert still.junction_rotation == 0.0


def test_deflection_scales_exactly_with_voltage_squared():
    base = _spec(750.0, 0.46, 5.0, volts=2.0)
    d2 = simulate(base).tip_deflection
    d4 = simulate(dataclasses.replace(base, drive=Drive(voltage=4.0))).tip_deflection
    d8 = simulate(dataclasses.replace(base, drive=Drive(voltage=8.0))).tip_deflection
    assert abs(d4 - 4.0 * d2) <= 1.0e-9 * abs(d4)
    assert abs(d8 - 16.0 * d2) <= 1.0e-9 * abs(d8)


def test_deflection_is_independent_of_the_young_modulus():
    spec = default_spec()
    reference = simulate(spec).tip_deflection
    for factor in (2.0, 3.7):
        softer = dataclasses.replace(
            spec, material=dataclasses.replace(
                spec.material, young_modulus=factor * spec.material.young_modulus))
        assert simulate(softer).tip_deflection == pytest.approx(
            reference, rel=1.0e-10)


def test_peak_temperature_is_the_midspan_value(solution):
    from thermoact.electrothermal import temperature_at
    profile = solve_temperature_profile(default_spec())
    path = profile.path_length
    assert solution.peak_temperature == temperature_at(profile, path / 2.0)
    # mid-span really is the hottest point of the symmetric profile
    xs = np.linspace(0.0, path, 513)
    assert solution.peak_temperature >= np.max(temperature_at(profile, xs))


def _outputs(solution):
    return (solution.tip_deflection, solution.junction_deflection,
            solution.junction_rotation, solution.peak_temperature,
            solution.thermal_load.hot_elongation,
            solution.thermal_load.cold_elongation,
            *solution.redundants)


@pytest.mark.parametrize("component", [Material, Environment, Geometry, Drive])
def test_every_spec_field_moves_an_output(component, solution):
    """No input is inert: a 10 % change of any field of the spec moves
    at least one result of the simulation."""
    section = component.__name__.lower()
    base = default_spec()
    inert = []
    for f in dataclasses.fields(component):
        nudged = dataclasses.replace(getattr(base, section),
                                     **{f.name: 1.1 * f.default})
        moved = simulate(dataclasses.replace(base, **{section: nudged}))
        if _outputs(moved) == _outputs(solution):
            inert.append(f.name)
    assert inert == []
