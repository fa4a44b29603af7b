import dataclasses
import warnings

import numpy as np
import pytest

from thermoact.electrothermal import (arm_elongations, solve_temperature_profile,
                                      temperature_at)
from thermoact.model import (ActuatorSpec, Drive, Environment, Geometry,
                             Material, default_spec)
from thermoact.thermomech import (FrameSingularError, SmallAngleError,
                                  ThermalLoad, flexibility_matrix, simulate,
                                  solve_redundants, stiffness_oracle)

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


def _simpson(length, a_start, a_end, b_start, b_end):
    """Simpson's rule, exact for the product of two linear fields."""
    middle = (a_start + a_end) * (b_start + b_end) / 4.0
    return length * (a_start * b_start + 4.0 * middle + a_end * b_end) / 6.0


def _table_route(spec):
    """The frame solved from the statics table: its nine flexibility
    entries by Simpson's rule, the production solver, the superposed
    moment on the hot arm and virtual work there.  Returns the
    flexibility matrix and the tip, junction deflection and rotation."""
    geometry, material = spec.geometry, spec.material
    ei = material.young_modulus * (geometry.beam_thickness
                                   * geometry.beam_width ** 3 / 12.0)
    ea = material.young_modulus * geometry.beam_width * geometry.beam_thickness
    fields, lengths = unit_fields(geometry)
    flex = np.array([[sum(_simpson(length, a_start, a_end, b_start, b_end) / ei
                          + length * a_axial * b_axial / ea
                          for (a_start, a_end, a_axial), (b_start, b_end, b_axial),
                          length in zip(field_a, field_b, lengths))
                      for field_b in fields] for field_a in fields])
    load = arm_elongations(solve_temperature_profile(spec), geometry, material)
    redundants = solve_redundants(flex, load)
    start = sum(x * field[0][0] for x, field in zip(redundants, fields))
    end = sum(x * field[0][1] for x, field in zip(redundants, fields))
    deflection = _simpson(lengths[0], start, end, lengths[0], 0.0) / ei
    rotation = _simpson(lengths[0], start, end, 1.0, 1.0) / ei
    tip = deflection + geometry.extension_length * rotation
    return flex, (tip, deflection, rotation)


@pytest.fixture(scope="module")
def table():
    return unit_fields(default_spec().geometry)


@pytest.fixture(scope="module")
def flex():
    spec = default_spec()
    return flexibility_matrix(spec.geometry, spec.material)


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
    slices per member; the closed product rule must agree to 1e-9 on
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


def _random_frame_flexibilities():
    for spec in _random_frames():
        yield flexibility_matrix(spec.geometry, spec.material)


def test_flexibility_is_reciprocal_to_the_bit():
    """The six distinct entries are mirrored, so F_ij and F_ji are one
    float by construction; this holds ``flexibility_matrix`` to it."""
    asymmetric = sum(not np.array_equal(flex, flex.T)
                     for flex in _random_frame_flexibilities())
    assert asymmetric == 0


def test_closed_form_matches_the_statics_table_route():
    """Production's closed-form entries and moments against the route
    through the statics table.  The flexibility agrees to 1e-13 on the
    criterion 9 frames, measured in the equilibrated matrix S F S with
    S = diag(F)^-1/2; on the 1278-point acceptance grid the tip, junction
    deflection and rotation agree to 1e-12 relative, and the thermal
    results, which the two routes share, to the bit."""
    worst_flex = 0.0
    for spec in _random_frames():
        reference, _ = _table_route(spec)
        scale = 1.0 / np.sqrt(np.diag(reference))
        defect = (flexibility_matrix(spec.geometry, spec.material) - reference) \
            * scale[:, None] * scale[None, :]
        worst_flex = max(worst_flex, float(np.abs(defect).max()))
    assert worst_flex <= 1.0e-13

    worst_frame = 0.0
    for hot_um in (500.0, 600.0, 750.0):
        for ratio in np.linspace(0.1, 0.8, 71).tolist():
            for gap_um in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
                spec = _spec(hot_um, ratio, gap_um)
                ours = simulate(spec)
                _, expected = _table_route(spec)
                got = (ours.tip_deflection, ours.junction_deflection,
                       ours.junction_rotation)
                worst_frame = max(worst_frame, *(abs(a - b) / abs(b)
                                                 for a, b in zip(got, expected)))
                profile = solve_temperature_profile(spec)
                assert ours.thermal_load == arm_elongations(
                    profile, spec.geometry, spec.material)
                assert ours.peak_temperature == temperature_at(
                    profile, profile.path_length / 2.0)
    assert worst_frame <= 1.0e-12


def test_redundants_close_the_compatibility_system(flex):
    """Backward-error check: the solved redundants satisfy each scalar
    equation to within a tiny multiple of that equation's own terms."""
    spec = default_spec()
    profile = solve_temperature_profile(spec)
    load = arm_elongations(profile, spec.geometry, spec.material)
    x = solve_redundants(flex, load)
    rhs = np.array([load.hot_elongation - load.cold_elongation, 0.0, 0.0])
    residual = np.abs(rhs - flex @ x)
    scale = np.abs(flex) @ np.abs(x) + np.abs(rhs)
    assert np.all(residual <= 1.0e-12 * scale)


def test_redundant_magnitudes_are_sane(solution):
    x1, x2, x3 = solution.redundants
    assert x1 > 0.0              # the hot arm drags the anchor inward
    assert abs(x2) < x1          # transverse correction is much smaller
    assert abs(x3) < 1.0e-6      # and the couple is tiny (N m)


def test_singular_and_indefinite_matrices_are_rejected():
    load = ThermalLoad(hot_elongation=1.0e-9, cold_elongation=0.0)
    with pytest.raises(FrameSingularError):
        solve_redundants(np.zeros((3, 3)), load)
    indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(FrameSingularError):
        solve_redundants(indefinite, load)
    with pytest.raises(FrameSingularError):
        solve_redundants(np.full((3, 3), np.nan), load)
    zero_second_pivot = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(FrameSingularError, match="not positive definite"):
        solve_redundants(zero_second_pivot, load)


@pytest.mark.parametrize("hot,cold", [(np.inf, 0.0), (np.inf, np.inf),
                                      (np.nan, 0.0)])
def test_a_non_finite_load_is_refused(flex, hot, cold):
    load = ThermalLoad(hot_elongation=hot, cold_elongation=cold)
    with pytest.raises(FrameSingularError, match="^thermal load is not finite$"):
        solve_redundants(flex, load)


def test_a_zero_load_gives_exactly_zero_redundants(flex):
    still = ThermalLoad(hot_elongation=2.5e-7, cold_elongation=2.5e-7)
    assert solve_redundants(flex, still) == (0.0, 0.0, 0.0)


def test_redundants_take_any_nested_sequence(flex):
    """Nested lists and an ndarray give the same plain-float 3-tuple."""
    load = ThermalLoad(hot_elongation=4.0e-7, cold_elongation=1.0e-7)
    from_array = solve_redundants(flex, load)
    assert solve_redundants(flex.tolist(), load) == from_array
    assert type(from_array) is tuple
    assert [type(x) for x in from_array] == [float] * 3


def test_solver_agrees_with_a_general_solve_on_random_frames():
    """The frames of acceptance criterion 9: the equilibrated Cholesky
    route matches an LU solve of the raw system to 1e-12, measured in
    the equilibrated variables S^-1 x with S = diag(flex)^-1/2."""
    load = ThermalLoad(hot_elongation=1.0e-6, cold_elongation=0.0)
    rhs = np.array([1.0e-6, 0.0, 0.0])
    worst = 0.0
    for flex in _random_frame_flexibilities():
        root = np.sqrt(np.diag(flex))
        ours = solve_redundants(flex, load) * root
        reference = np.linalg.solve(flex, rhs) * root
        worst = max(worst, float(np.linalg.norm(ours - reference)
                                 / np.linalg.norm(reference)))
    assert worst <= 1.0e-12


def test_moment_field_is_continuous_at_the_joints(solution):
    moments = solution.moments
    assert type(moments) is tuple        # AB, BC, CD x start, end, axial
    assert [len(row) for row in moments] == [3, 3, 3]
    assert moments[0][1] == moments[1][0]
    assert moments[1][1] == moments[2][0]


def test_moment_at_the_released_anchor_equals_the_couple(solution):
    # at D the two force redundants have no lever arm left
    assert solution.moments[2][1] == solution.redundants[2]


def test_moment_superposition_is_linear_in_the_redundants(table, solution):
    fields = np.array(table[0])          # unit redundant x member x action
    expected = np.einsum("i,ikc->kc", solution.redundants, fields)
    scale = np.abs(solution.redundants) @ np.abs(fields).reshape(3, -1)
    assert np.all(np.abs(solution.moments - expected).ravel()
                  <= 1.0e-12 * scale)


def test_virtual_response_matches_the_closed_integral(solution):
    start, end, _ = solution.moments[0]
    length = 750.0e-6
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


_CONDUCTION_ONLY = dataclasses.replace(
    default_spec(), environment=Environment(convection_coefficient=0.0))

# float.hex of every StiffnessResult field: junction deflection,
# junction rotation, tip deflection and the reaction at D.  The
# rectilinear frame rotates by exact 0 and +-1 entries and the clamped
# assembly keeps each row's entry order, so a rewrite of the oracle's
# kernels must keep these bits.
_PINNED_ORACLE = [
    (default_spec(), 1,
     ("0x1.65de39c80424ap-17", "0x1.c9a60f4f64e4cp-5", "0x1.b0d966f854e65p-17",
      "-0x1.1f3e2929c3f78p-15", "0x1.6b2492bf54d48p-23", "0x1.0ea6edf6b3e86p-33")),
    (default_spec(), 16,
     ("0x1.65de395627fcbp-17", "0x1.c9a60f322c902p-5", "0x1.b0d96681b924bp-17",
      "-0x1.1f3e2991ca3fep-15", "0x1.6b248ee179500p-23", "0x1.0ea6ed39a81d8p-33")),
    (default_spec(), 64,
     ("0x1.65de3dc03fcaep-17", "0x1.c9a610a87cc29p-5", "0x1.b0d96b2ab9003p-17",
      "-0x1.1f3e439722e3dp-15", "0x1.6b24b1e1e0000p-23", "0x1.0ea6f429476d6p-33")),
    (_CONDUCTION_ONLY, 64,
     ("0x1.c3be85e0ac90cp-17", "0x1.20d966405364bp-4", "0x1.113279c9d81fep-16",
      "-0x1.6a97a1bd77854p-15", "0x1.ca66e220d8c00p-23", "0x1.55a62ce00021ep-33")),
]


@pytest.mark.parametrize("spec,elements,expected", _PINNED_ORACLE,
                         ids=["default-1", "default-16", "default-64",
                              "conduction-only-64"])
def test_oracle_keeps_its_pinned_bits(spec, elements, expected):
    result = stiffness_oracle(spec, elements_per_member=elements)
    fields = (result.junction_deflection, result.junction_rotation,
              result.tip_deflection, *result.reaction_cold_anchor)
    assert all(type(value) is float for value in fields)
    assert tuple(value.hex() for value in fields) == expected
    assert result.elements_per_member == elements


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
    assert quiet.moments == ((0.0, 0.0, 0.0),) * 3
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
