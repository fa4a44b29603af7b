import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from thermoact.electrothermal import (_CUBE_MAX, _SQUARE_MAX, PLATEAU_THRESHOLD,
                                      ThermalSystemError, _constants, _load_and_peak,
                                      fd_temperature_oracle, rise_integral,
                                      solve_temperature_profile, temperature_at)
from thermoact.model import (ActuatorSpec, Drive, Environment, Geometry,
                             InvalidSpecError, Material, default_spec)
from thermoact.thermomech import FrameSingularError, SmallAngleError, simulate

from test_bits import _domain, _extreme


def _with(spec, **geometry):
    return dataclasses.replace(spec,
                               geometry=dataclasses.replace(spec.geometry, **geometry))


def _beta_for_decay(spec, target_m_times_path):
    """Convection coefficient giving a chosen decay-parameter x path product."""
    g = spec.geometry
    path = g.hot_arm_length + g.gap + g.cold_arm_length
    m = target_m_times_path / path
    k = spec.material.thermal_conductivity
    return m * m * k * g.beam_width * g.beam_thickness \
        / (2.0 * (g.beam_thickness + g.beam_width))


def _adaptive_trapezoid(f, a, b, tol):
    fa, fb = f(a), f(b)

    def recurse(x0, f0, x1, f1, whole, tol):
        xm = 0.5 * (x0 + x1)
        fm = f(xm)
        left = 0.25 * (x1 - x0) * (f0 + fm)
        right = 0.25 * (x1 - x0) * (fm + f1)
        if abs(left + right - whole) <= 3.0 * tol:
            return left + right + (left + right - whole) / 3.0
        return recurse(x0, f0, xm, fm, left, 0.5 * tol) \
            + recurse(xm, fm, x1, f1, right, 0.5 * tol)

    return recurse(a, fa, b, fb, 0.5 * (b - a) * (fa + fb), tol)


def test_current_density_against_hand_calculation():
    """The profile reports the drive as its Joule source j^2 rho; both
    hand routes to the current density j must give it."""
    spec = default_spec()
    q = solve_temperature_profile(spec).heating_rate
    # route 1: voltage over resistivity times path length
    path = (750.0 + 5.0 + 345.0) * 1.0e-6
    j = 8.0 / (5.0e-4 * path)
    assert q == pytest.approx(j * j * 5.0e-4, rel=1.0e-12)
    # route 2: through the loop resistance and cross-section
    area = 2.8e-6 * 2.0e-6
    resistance = 5.0e-4 * path / area
    j = 8.0 / resistance / area
    assert q == pytest.approx(j * j * 5.0e-4, rel=1.0e-12)


def test_profile_reports_the_convective_regime_by_default():
    profile = solve_temperature_profile(default_spec())
    assert profile.regime == "convective"
    assert profile.path_length == pytest.approx(1.100e-3, rel=1.0e-12)
    assert math.isfinite(profile.source_plateau)


def test_ends_are_clamped_exactly_at_ambient():
    profile = solve_temperature_profile(default_spec())
    assert temperature_at(profile, 0.0) == 20.0
    assert temperature_at(profile, profile.path_length) == 20.0


def test_profile_is_symmetric_about_midspan():
    profile = solve_temperature_profile(default_spec())
    path = profile.path_length
    for frac in (0.1, 0.25, 0.4, 0.47):
        left = temperature_at(profile, frac * path)
        right = temperature_at(profile, (1.0 - frac) * path)
        assert left == pytest.approx(right, rel=1.0e-12)


def test_interior_is_hotter_than_ambient():
    profile = solve_temperature_profile(default_spec())
    xs = np.linspace(0.0, profile.path_length, 101)[1:-1]
    assert np.all(temperature_at(profile, xs) > profile.ambient)


def test_out_of_range_coordinates_raise():
    profile = solve_temperature_profile(default_spec())
    for bad in (-1.0e-9, profile.path_length * 1.0001):
        with pytest.raises(ValueError):
            temperature_at(profile, bad)
        with pytest.raises(ValueError):
            rise_integral(profile, bad)


def test_closed_form_satisfies_the_heat_balance_pointwise():
    """Substitute the closed form back into the fin equation with a
    finite-difference second derivative; the residual should be at the
    truncation level, far below any term in the balance."""
    spec = default_spec()
    profile = solve_temperature_profile(spec)
    g, mat, env = spec.geometry, spec.material, spec.environment
    loss = 2.0 * (g.beam_thickness + g.beam_width) * env.convection_coefficient \
        / (g.beam_width * g.beam_thickness)
    h = profile.path_length / 4096.0
    xs = np.linspace(h, profile.path_length - h, 257)
    rise = temperature_at(profile, xs) - profile.ambient
    curvature = (temperature_at(profile, xs - h) - 2.0 * (rise + profile.ambient)
                 + temperature_at(profile, xs + h)) / h ** 2
    residual = mat.thermal_conductivity * curvature + profile.heating_rate \
        - loss * rise
    assert np.max(np.abs(residual)) / profile.heating_rate < 1.0e-5


def test_matches_finite_difference_oracle():
    spec = default_spec()
    profile = solve_temperature_profile(spec)
    xs, temps = fd_temperature_oracle(spec, nodes=4097)
    closed = temperature_at(profile, xs)
    scale = np.max(np.abs(temps - profile.ambient))
    assert np.max(np.abs(closed - temps)) / scale < 1.0e-7


def test_fd_oracle_converges_at_second_order():
    spec = default_spec()
    profile = solve_temperature_profile(spec)
    errors = []
    for nodes in (257, 513, 1025):
        xs, temps = fd_temperature_oracle(spec, nodes=nodes)
        errors.append(np.max(np.abs(temperature_at(profile, xs) - temps)))
    assert errors[0] / errors[1] > 3.5
    assert errors[1] / errors[2] > 3.5


# sha256 of the newline-joined float.hex of every FD temperature, on the
# default device, the conduction-only branch and strong convection.
# Three nodes leave one unknown, the tridiagonal solver's smallest case.
# A change of the FD solve route must keep these bits.
_PINNED_FD = {
    ("default", 3): "26eedb76c1b57ebce0d1cb9018aae2e571ad681a59526920e4a60c94d7bb8ab4",
    ("default", 513): "a9296bc8108fd26d5b2498768bf8444f46afbbea1527c42ca6b298fec5544ef5",
    ("default", 4097): "657567f7f7c0b73870501bf4ffb4049a84601ff936189f91bf2c791540432ae6",
    ("conduction-only", 3): "ff6cd41ebc69acc615bdca60ab4b32f4aa3aaa340ebe4024f3e7e414fce9b73e",
    ("conduction-only", 513): "af9a05a24a2a6acc4d370c7e603bba3d5ee398fed60fec960508ffdd644092e7",
    ("conduction-only", 4097): "df5803d57b19b8d9c5b6ebcc313117a143a64f366f0b228b8f9dd15d8f345291",
    ("convection-5000", 3): "4e10b0aa9abf16b2d507a408244e764356e337bba27b4cef0498d2c3549b889c",
    ("convection-5000", 513): "202d5c718a6bcc20e605e2991aa0f0386847bc0996d702ddb148e257edc45def",
    ("convection-5000", 4097): "f5a2f61f218292fa401bfb153267f2c6e889427b37f0f1bcdf4877457aa9b30c",
}
_FD_SPECS = {
    "default": default_spec(),
    "conduction-only": dataclasses.replace(
        default_spec(), environment=Environment(convection_coefficient=0.0)),
    "convection-5000": dataclasses.replace(
        default_spec(), environment=Environment(convection_coefficient=5000.0)),
}


@pytest.mark.parametrize("name,nodes", sorted(_PINNED_FD),
                         ids=[f"{name}-{nodes}" for name, nodes in sorted(_PINNED_FD)])
def test_fd_oracle_keeps_its_pinned_bits(name, nodes):
    _, temps = fd_temperature_oracle(_FD_SPECS[name], nodes=nodes)
    dump = "\n".join(float(value).hex() for value in temps)
    assert hashlib.sha256(dump.encode()).hexdigest() == _PINNED_FD[name, nodes]


def test_fd_oracle_rejects_degenerate_meshes():
    with pytest.raises(ValueError):
        fd_temperature_oracle(default_spec(), nodes=2)


def _conductive(**geometry):
    return ActuatorSpec(material=dataclasses.replace(default_spec().material,
                                                     thermal_conductivity=1.0e300),
                        geometry=Geometry(**geometry), drive=Drive(voltage=0.0))


@pytest.mark.parametrize("spec,message", [
    (dataclasses.replace(default_spec(), material=dataclasses.replace(
        default_spec().material, thermal_conductivity=1.0e300)),
     "finite-difference thermal system is not finite"),
    (dataclasses.replace(default_spec(), drive=Drive(voltage=1.0e200)),
     "finite-difference thermal system is not finite"),
    (ActuatorSpec(material=Material(resistivity=1.0e-322)),
     "finite-difference resistivity times path length underflows"),
    (_conductive(beam_width=1.0e-160, beam_thickness=1.0e-170),
     "finite-difference cross-section w h underflows"),
    (_conductive(hot_arm_length=1.0e158, cold_arm_length=1.0e158),
     "finite-difference node spacing squared leaves the float range"),
    (_conductive(hot_arm_length=1.0e-160, cold_arm_length=1.0e-160, gap=1.0e-160),
     "finite-difference node spacing squared leaves the float range"),
], ids=["overflowing-coefficients", "overflowing-source", "resistivity-underflow",
        "section-underflow", "spacing-overflow", "spacing-underflow"])
def test_fd_oracle_refuses_a_system_that_is_not_finite(spec, message):
    """k / dx^2 or the Joule source overflows, or a divisor of the
    current density, the side loss or k / dx^2 leaves the float range (a
    resistivity times path length or a cross-section w h that
    underflows, a node spacing whose square overflows or underflows): a
    named arithmetic error, raised before the division or the banded
    solver's ValueError."""
    with pytest.raises(ThermalSystemError, match=f"^{message}$"):
        fd_temperature_oracle(spec, nodes=4097)
    assert issubclass(ThermalSystemError, ArithmeticError)


def test_the_power_bounds_are_the_last_floats_whose_powers_are_finite():
    """The square and cube of each bound are finite, and the next float's
    raise OverflowError: a check against the bound refuses exactly the
    operands whose power the stdlib cannot form."""
    for bound, power in ((_SQUARE_MAX, 2), (_CUBE_MAX, 3)):
        assert math.isfinite(bound ** power)
        with pytest.raises(OverflowError):
            math.nextafter(bound, math.inf) ** power


def test_fd_oracle_takes_a_node_spacing_up_to_the_square_bound():
    """Three nodes on equal arms of length L put the middle node L from
    each end: at the bound the unpowered system solves to ambient, one
    float past it the spacing is refused."""
    past = math.nextafter(_SQUARE_MAX, math.inf)
    for length, solves in ((_SQUARE_MAX, True), (past, False)):
        spec = ActuatorSpec(geometry=Geometry(hot_arm_length=length,
                                              cold_arm_length=length),
                            drive=Drive(voltage=0.0))
        if solves:
            x, temps = fd_temperature_oracle(spec, nodes=3)
            assert x[1] == length and temps.tolist() == [20.0, 20.0, 20.0]
        else:
            with pytest.raises(ThermalSystemError, match="node spacing squared"):
                fd_temperature_oracle(spec, nodes=3)


def test_the_fin_names_each_quantity_that_leaves_the_float_range():
    """A resistivity times path length or a k w h that underflows to zero
    is refused before j or m divides by it, and a conduction-only
    coordinate whose cube overflows before its integral is formed; the
    cube bound itself integrates, and an array coordinate past it is not
    finite, as numpy overflows."""
    base = default_spec()
    for material, site in ((dict(resistivity=1.0e-322), "resistivity times path length"),
                           (dict(thermal_conductivity=1.0e-320), "conduction term k w h")):
        spec = dataclasses.replace(base, material=dataclasses.replace(base.material,
                                                                      **material))
        for call in (solve_temperature_profile, simulate):
            with pytest.raises(ThermalSystemError, match=f"^fin {site} underflows$"):
                call(spec)
    long = ActuatorSpec(environment=Environment(convection_coefficient=0.0),
                        geometry=Geometry(hot_arm_length=1.0e103, cold_arm_length=1.0e103,
                                          gap=1.0e103))
    profile = solve_temperature_profile(long)
    assert profile.regime == "conduction-only"
    assert rise_integral(profile, _CUBE_MAX) == math.inf
    past = math.nextafter(_CUBE_MAX, math.inf)
    with pytest.raises(ThermalSystemError, match="^fin path coordinate cubed overflows$"):
        rise_integral(profile, past)
    with np.errstate(all="ignore"):
        assert not np.isfinite(rise_integral(profile, np.array([past]))).any()
    with pytest.raises(ThermalSystemError, match="^fin path coordinate cubed overflows$"):
        simulate(dataclasses.replace(long, geometry=Geometry(hot_arm_length=past)))


@pytest.mark.parametrize("nodes", [3, 4097])
def test_fd_oracle_refuses_a_singular_system(nodes):
    """k / dx^2 underflows to zero and there is no side loss: the
    tridiagonal system is singular, a named arithmetic error."""
    spec = ActuatorSpec(
        material=dataclasses.replace(default_spec().material,
                                     thermal_conductivity=1.0e-310),
        environment=Environment(convection_coefficient=0.0),
        geometry=dataclasses.replace(default_spec().geometry,
                                     hot_arm_length=1.0e11, cold_arm_length=1.0e10),
        drive=Drive(voltage=0.0))
    with pytest.raises(ThermalSystemError, match="singular"):
        fd_temperature_oracle(spec, nodes=nodes)


def test_no_side_loss_gives_the_parabolic_profile():
    spec = dataclasses.replace(
        default_spec(), environment=Environment(convection_coefficient=0.0))
    profile = solve_temperature_profile(spec)
    assert profile.regime == "conduction-only"
    assert profile.source_plateau == math.inf
    xs, temps = fd_temperature_oracle(spec, nodes=513)
    closed = temperature_at(profile, xs)
    scale = np.max(np.abs(temps - profile.ambient))
    # central differences are exact on a parabola, so only rounding is left
    assert np.max(np.abs(closed - temps)) / scale < 1.0e-9


def test_branches_agree_at_the_regime_threshold():
    """Just below the threshold the conduction-only branch must continue
    the convective one; evaluate the convective series directly here."""
    spec = default_spec()
    beta = _beta_for_decay(spec, 0.999 * PLATEAU_THRESHOLD)
    spec = dataclasses.replace(
        spec, environment=Environment(convection_coefficient=beta))
    profile = solve_temperature_profile(spec)
    assert profile.regime == "conduction-only"
    m = profile.decay_parameter
    b = m * profile.path_length / 2.0
    xs = np.linspace(0.0, profile.path_length, 101)[1:-1]
    u = m * xs - b
    convective = profile.source_plateau * np.expm1(u - b) * np.expm1(-u - b) \
        / (1.0 + math.exp(-2.0 * b))
    parabolic = temperature_at(profile, xs) - profile.ambient
    assert np.max(np.abs(convective - parabolic) / parabolic) < 1.0e-9


def test_strong_cooling_reaches_the_plateau_without_overflow():
    """decay parameter x path of 200 would overflow cosh; the factored
    form must stay finite and flat-top at the source temperature."""
    spec = default_spec()
    beta = _beta_for_decay(spec, 200.0)
    spec = dataclasses.replace(
        spec, environment=Environment(convection_coefficient=beta))
    profile = solve_temperature_profile(spec)
    mid = temperature_at(profile, profile.path_length / 2.0)
    rise = mid - profile.ambient
    assert math.isfinite(mid)
    assert rise == pytest.approx(profile.source_plateau, rel=1.0e-10)
    assert temperature_at(profile, 0.0) == profile.ambient


def test_more_convection_means_cooler_everywhere_inside():
    spec = default_spec()
    xs = None
    previous = None
    for beta in (25.0, 50.0, 100.0):
        cooled = dataclasses.replace(
            spec, environment=Environment(convection_coefficient=beta))
        profile = solve_temperature_profile(cooled)
        if xs is None:
            xs = np.linspace(0.0, profile.path_length, 12)[1:-1]
        rise = temperature_at(profile, xs) - profile.ambient
        if previous is not None:
            assert np.all(rise < previous)
        previous = rise


def test_temperature_rise_scales_exactly_with_voltage_squared():
    spec = default_spec()
    profile_2 = solve_temperature_profile(
        dataclasses.replace(spec, drive=Drive(voltage=2.0)))
    profile_4 = solve_temperature_profile(
        dataclasses.replace(spec, drive=Drive(voltage=4.0)))
    # doubling the voltage multiplies the source exactly by four
    assert 4.0 * profile_2.source_plateau == profile_4.source_plateau
    assert profile_2.decay_parameter == profile_4.decay_parameter
    xs = np.linspace(0.0, profile_2.path_length, 11)
    # the rise integral, which the mechanics consumes, scales to the bit
    assert np.array_equal(4.0 * rise_integral(profile_2, xs),
                          rise_integral(profile_4, xs))
    # through temperature_at the ambient is added and subtracted again,
    # which costs one rounding at most
    rise_2 = temperature_at(profile_2, xs) - profile_2.ambient
    rise_4 = temperature_at(profile_4, xs) - profile_4.ambient
    np.testing.assert_allclose(4.0 * rise_2, rise_4, rtol=1.0e-14)


def test_rise_integral_against_adaptive_trapezoid():
    spec = default_spec()
    profile = solve_temperature_profile(spec)

    def rise(x):
        return temperature_at(profile, x) - profile.ambient

    for upto in (spec.geometry.cold_arm_length, spec.geometry.hot_arm_length,
                 profile.path_length):
        reference = _adaptive_trapezoid(rise, 0.0, upto,
                                        1.0e-10 * profile.source_plateau * upto)
        assert rise_integral(profile, upto) == pytest.approx(reference, rel=1.0e-8)


def test_rise_integral_over_conduction_only_profile():
    spec = dataclasses.replace(
        default_spec(), environment=Environment(convection_coefficient=0.0))
    profile = solve_temperature_profile(spec)

    def rise(x):
        return temperature_at(profile, x) - profile.ambient

    upto = spec.geometry.hot_arm_length
    scale = rise(profile.path_length / 2.0) * upto
    reference = _adaptive_trapezoid(rise, 0.0, upto, 1.0e-10 * scale)
    assert rise_integral(profile, upto) == pytest.approx(reference, rel=1.0e-8)


def test_arm_elongations_come_from_the_rise_integral():
    spec = default_spec()
    profile = solve_temperature_profile(spec)
    load = simulate(spec).thermal_load
    alpha = spec.material.expansion_coefficient
    assert load.hot_elongation == alpha * rise_integral(
        profile, spec.geometry.hot_arm_length)
    assert load.cold_elongation == alpha * rise_integral(
        profile, spec.geometry.cold_arm_length)
    assert load.hot_elongation > load.cold_elongation > 0.0


def test_equal_arms_elongate_identically_to_the_bit():
    """Both the program's load and the public rise-integral route give
    equal arms one elongation, to the bit."""
    spec = ActuatorSpec(geometry=Geometry(hot_arm_length=400.0e-6,
                                          cold_arm_length=400.0e-6))
    load = simulate(spec).thermal_load
    assert load.hot_elongation == load.cold_elongation
    profile = solve_temperature_profile(spec)
    assert rise_integral(profile, spec.geometry.hot_arm_length) \
        == rise_integral(profile, spec.geometry.cold_arm_length)


def test_zero_voltage_means_no_heating_at_all():
    spec = dataclasses.replace(default_spec(), drive=Drive(voltage=0.0))
    profile = solve_temperature_profile(spec)
    xs = np.linspace(0.0, profile.path_length, 33)
    assert np.all(temperature_at(profile, xs) == profile.ambient)
    assert rise_integral(profile, profile.path_length) == 0.0


def _seeded_profiles(regime):
    """Profiles at ambient 0, so that a temperature is its rise: 100
    random drives, with convection coefficients spanning m L from about
    1e-6 to 1e3 in the convective regime, or none at all."""
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        beta = 10.0 ** rng.uniform(-6.0, 7.0) if regime == "convective" else 0.0
        spec = dataclasses.replace(
            default_spec(),
            environment=Environment(convection_coefficient=beta,
                                    ambient_temperature=0.0),
            drive=Drive(voltage=rng.uniform(0.1, 12.0)))
        profile = solve_temperature_profile(spec)
        if profile.regime == regime:
            path = profile.path_length
            yield profile, np.concatenate([rng.uniform(0.0, path, 24),
                                           path * 10.0 ** rng.uniform(-12.0, 0.0, 8)])


@pytest.mark.parametrize("regime", ["convective", "conduction-only"])
def test_scalar_and_array_paths_are_exact_at_the_anchors(regime):
    """A plain float and an array give the ambient itself at both ends
    of the path and an exactly zero integral at the start."""
    for profile, _ in _seeded_profiles(regime):
        ends = np.array([0.0, profile.path_length])
        assert temperature_at(profile, 0.0) == 0.0
        assert temperature_at(profile, profile.path_length) == 0.0
        assert temperature_at(profile, ends).tolist() == [0.0, 0.0]
        assert rise_integral(profile, 0.0) == 0.0
        assert rise_integral(profile, np.zeros(2)).tolist() == [0.0, 0.0]


EPS = np.finfo(float).eps


@pytest.mark.parametrize("regime", ["convective", "conduction-only"])
def test_scalar_and_array_paths_agree_to_a_few_ulp(regime):
    """The stdlib path for plain floats and the numpy path for arrays
    evaluate one set of expressions, but ``math.expm1``/``numpy.expm1``
    and the two ``** 3`` can round differently.  The rise agrees to
    4 eps relative.  The integral agrees to 4 eps of the terms it is
    the difference of: plateau x (x + 1/m) in the convective regime,
    the value itself in the conduction-only one."""
    for profile, xs in _seeded_profiles(regime):
        temps = temperature_at(profile, xs)
        integrals = rise_integral(profile, xs)
        if regime == "convective":
            scale = profile.source_plateau * (xs + 1.0 / profile.decay_parameter)
        else:
            scale = np.abs(integrals)
        for x, temp, integral, bound in zip(xs.tolist(), temps, integrals, scale):
            scalar_temp = temperature_at(profile, x)
            scalar_integral = rise_integral(profile, x)
            assert type(scalar_temp) is float and type(scalar_integral) is float
            assert abs(scalar_temp - temp) <= 4.0 * EPS * abs(temp)
            assert abs(scalar_integral - integral) <= 4.0 * EPS * bound


def test_array_coordinates_are_checked_and_0d_gives_a_float():
    profile = solve_temperature_profile(default_spec())
    for bad in (-1.0e-9, profile.path_length * 1.0001):
        with pytest.raises(ValueError):
            temperature_at(profile, np.array([0.0, bad]))
        with pytest.raises(ValueError):
            rise_integral(profile, [bad])
    for nan in (math.nan, [math.nan], np.array([0.0, math.nan])):
        for func in (temperature_at, rise_integral):
            with pytest.raises(ValueError, match="outside"):
                func(profile, nan)
    mid = profile.path_length / 2.0
    assert type(temperature_at(profile, np.array(mid))) is float
    assert type(rise_integral(profile, np.array(mid))) is float


def _public_route_cases():
    """The acceptance grid (3 hot arms x 71 ratios x 6 gaps at 8 V), then
    conduction-only, both sides of the plateau threshold, equal arms
    and no drive."""
    for hot_um in (500.0, 600.0, 750.0):
        for ratio in np.linspace(0.1, 0.8, 71).tolist():
            for gap_um in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
                yield _with(default_spec(), hot_arm_length=hot_um * 1.0e-6,
                            cold_arm_length=ratio * hot_um * 1.0e-6,
                            gap=gap_um * 1.0e-6)
    base = default_spec()
    conduction = dataclasses.replace(
        base, environment=Environment(convection_coefficient=0.0))
    for spec in (base, conduction):
        yield spec
        yield _with(spec, cold_arm_length=spec.geometry.hot_arm_length)
        yield dataclasses.replace(spec, drive=Drive(voltage=0.0))
    for factor in (0.5, 0.999, 1.001, 2.0):
        beta = _beta_for_decay(base, factor * PLATEAU_THRESHOLD)
        yield dataclasses.replace(
            base, environment=Environment(convection_coefficient=beta))


def _seeded_draws():
    """The bit dump's seeded draws that the constructor accepts: 300 in
    the single-point domain, then 600 over many decades of every field,
    among which each of the fin's three refusals occurs."""
    rng = random.Random(20261020)
    specs = [_domain(rng) for _ in range(300)]
    for i in range(600):
        try:
            specs.append(_extreme(rng, i)())
        except InvalidSpecError:
            pass
    return specs


# Both the resistivity times path length and k w h underflow: the
# former is refused first.
_BOTH_UNDERFLOW = ActuatorSpec(material=Material(resistivity=1.0e-322,
                                                 thermal_conductivity=1.0e-320))


def _thermal(call):
    """The bits of the three floats ``call`` returns, or the type and
    message of its refusal."""
    try:
        return [v.hex() for v in call()]
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_simulate_takes_its_thermal_stage_from_the_public_route():
    """``simulate`` computes its thermal load and peak temperature in
    one private flat scalar pass, ``_load_and_peak``; each must equal,
    to the bit, the public route through the profile that the FD oracle
    checks, and where either route refuses, both raise the same error
    with the same message.  ``simulate`` gives the pass's three floats
    or its refusal, unless the frame refuses a pass that solved."""
    regimes, refusals = set(), set()
    for spec in [*_public_route_cases(), *_seeded_draws(), _BOTH_UNDERFLOW]:
        g, alpha = spec.geometry, spec.material.expansion_coefficient

        def public():
            profile = solve_temperature_profile(spec)
            regimes.add(profile.regime)
            return (alpha * rise_integral(profile, g.hot_arm_length),
                    alpha * rise_integral(profile, g.cold_arm_length),
                    temperature_at(profile, profile.path_length / 2.0))

        ours = _thermal(lambda: _load_and_peak(_constants(spec), g.hot_arm_length,
                                               g.cold_arm_length, g.gap,
                                               spec.drive.voltage))
        assert ours == _thermal(public), spec
        try:
            solution = simulate(spec)
        except ThermalSystemError as exc:
            assert ours == (ThermalSystemError, str(exc)), spec
            refusals.add(str(exc))
            continue
        except (FrameSingularError, SmallAngleError):
            assert type(ours) is list, spec
            continue
        assert ours == [v.hex() for v in (solution.thermal_load.hot_elongation,
                                          solution.thermal_load.cold_elongation,
                                          solution.peak_temperature)], spec
    assert regimes == {"convective", "conduction-only"}
    assert refusals == {"fin resistivity times path length underflows",
                        "fin conduction term k w h underflows",
                        "fin path coordinate cubed overflows"}
