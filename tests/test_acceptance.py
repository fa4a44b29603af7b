"""End-to-end acceptance checks.

Each test covers one numbered claim about the simulator, prints a
PASS/FAIL line with the measured figure even when capture is on, and
asserts at the stated tolerance.  The heavyweight shared work (the full
hot-arm x ratio x gap grid evaluated with the closed pipeline, the
finite-difference thermal oracle and the direct-stiffness mechanical
oracle) happens once in session fixtures.
"""

import dataclasses
import time

import numpy as np
import pytest

from thermoact.config import parse_config
from thermoact.electrothermal import (fd_temperature_oracle,
                                      solve_temperature_profile,
                                      temperature_at)
from thermoact.cli import main
from thermoact.model import (ActuatorSpec, Drive, Environment, Geometry,
                             Material, default_spec)
from thermoact.study import (SweepPlan, find_optimal_ratio, run_sweep,
                             sensitivity_summary)
from thermoact.thermomech import SmallAngleError, simulate, stiffness_oracle

_T0 = time.perf_counter()

HOT_ARMS_UM = (500.0, 600.0, 750.0)
RATIO_GRID = tuple(float(r) for r in np.linspace(0.1, 0.8, 71))
GAP_GRID_UM = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)


def _spec(hot_um, ratio, gap_um, volts=8.0):
    geometry = Geometry(hot_arm_length=hot_um * 1.0e-6,
                        cold_arm_length=ratio * hot_um * 1.0e-6,
                        gap=gap_um * 1.0e-6)
    return ActuatorSpec(geometry=geometry, drive=Drive(voltage=volts))


@pytest.fixture
def report(capsys):
    def _report(number, ok, detail):
        with capsys.disabled():
            print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, f"criterion {number}: {detail}"
    return _report


@pytest.fixture(scope="session")
def optimum_reports():
    """find_optimal_ratio per hot-arm length, with wall times."""
    out = {}
    for hot_um in HOT_ARMS_UM:
        base = _spec(hot_um, 0.46, 5.0)
        start = time.perf_counter()
        out[hot_um] = (find_optimal_ratio(base, grid=71),
                       time.perf_counter() - start)
    return out


@pytest.fixture(scope="session")
def grid_errors():
    """Worst relative disagreement against both oracles over the full
    study grid: every hot-arm length x 71 ratios x 6 gaps at 8 V."""
    thermal = []
    mechanical = []
    for hot_um in HOT_ARMS_UM:
        for ratio in RATIO_GRID:
            for gap_um in GAP_GRID_UM:
                spec = _spec(hot_um, ratio, gap_um)
                profile = solve_temperature_profile(spec)
                xs, fd = fd_temperature_oracle(spec, nodes=4097)
                closed = temperature_at(profile, xs)
                scale = np.max(np.abs(fd - profile.ambient))
                thermal.append(np.max(np.abs(closed - fd)) / scale)

                ours = simulate(spec).tip_deflection
                oracle = stiffness_oracle(spec, elements_per_member=64)
                mechanical.append(abs(ours - oracle.tip_deflection)
                                  / abs(oracle.tip_deflection))
    return np.array(thermal), np.array(mechanical)


def test_criterion_01_optimal_ratio_sits_in_the_narrow_band(
        optimum_reports, report):
    ratios = {h: r.optimal_ratio for h, (r, _) in optimum_reports.items()}
    times = [t for _, t in optimum_reports.values()]
    ok = all(0.40 <= r <= 0.52 for r in ratios.values()) \
        and all(r.flag is None for r, _ in optimum_reports.values()) \
        and max(times) < 1.0
    detail = ("optimal ratios " +
              ", ".join(f"{h:.0f} um -> {r:.4f}" for h, r in ratios.items()) +
              f" all in [0.40, 0.52]; slowest search {max(times):.3f} s < 1 s")
    report(1, ok, detail)


def test_criterion_02_wider_gaps_always_deflect_less(report):
    plan = SweepPlan(base=_spec(750.0, 0.46, 5.0), parameter="gap",
                     values=tuple(g * 1.0e-6 for g in GAP_GRID_UM))
    tips = [rec.tip_deflection for rec in run_sweep(plan).records]
    ok = all(b < a for a, b in zip(tips, tips[1:]))
    detail = (f"tip falls monotonically {tips[0] * 1e6:.3f} -> "
              f"{tips[-1] * 1e6:.3f} um over gaps 5..10 um")
    report(2, ok, detail)


def test_criterion_03_longer_hot_arms_deflect_further(report):
    tips = [simulate(_spec(h, 0.46, 5.0)).tip_deflection for h in HOT_ARMS_UM]
    ok = tips[0] < tips[1] < tips[2]
    detail = ("tip at ratio 0.46: " +
              " < ".join(f"{t * 1e6:.3f}" for t in tips) +
              " um for hot arms 500 < 600 < 750 um")
    report(3, ok, detail)


def test_criterion_04_long_arms_are_more_sensitive(report):
    ratio_tables = [
        run_sweep(SweepPlan(base=_spec(h, 0.46, 5.0), parameter="ratio",
                            values=RATIO_GRID))
        for h in (500.0, 750.0)
    ]
    ratio_spreads = dict(sensitivity_summary(ratio_tables))
    gap_tables = [
        run_sweep(SweepPlan(base=_spec(h, 0.46, 5.0), parameter="gap",
                            values=tuple(g * 1.0e-6 for g in GAP_GRID_UM)))
        for h in (500.0, 750.0)
    ]
    gap_spreads = dict(sensitivity_summary(gap_tables))
    ok = ratio_spreads[750.0e-6] > ratio_spreads[500.0e-6] \
        and gap_spreads[750.0e-6] > gap_spreads[500.0e-6]
    detail = (f"spreads grow with arm length: ratio sweep "
              f"{ratio_spreads[500.0e-6] * 1e6:.2f} -> "
              f"{ratio_spreads[750.0e-6] * 1e6:.2f} um, gap sweep "
              f"{gap_spreads[500.0e-6] * 1e6:.2f} -> "
              f"{gap_spreads[750.0e-6] * 1e6:.2f} um")
    report(4, ok, detail)


def test_criterion_05_tuning_the_ratio_buys_a_large_gain(
        optimum_reports, report):
    gain = optimum_reports[750.0][0].gain_over_range
    ok = gain >= 1.8
    report(5, ok, f"max/min tip deflection over the ratio grid = "
                  f"{gain:.3f} >= 1.8")


def test_criterion_06_thermal_oracle_confirms_the_closed_form(
        grid_errors, report):
    thermal, _ = grid_errors
    worst = float(thermal.max())
    ok = worst <= 1.0e-3
    insulated_worst = 0.0
    for hot_um in HOT_ARMS_UM:
        spec = dataclasses.replace(
            _spec(hot_um, 0.46, 5.0),
            environment=Environment(convection_coefficient=0.0))
        profile = solve_temperature_profile(spec)
        xs, fd = fd_temperature_oracle(spec, nodes=513)
        scale = np.max(np.abs(fd - profile.ambient))
        insulated_worst = max(
            insulated_worst,
            float(np.max(np.abs(temperature_at(profile, xs) - fd)) / scale))
    ok = ok and insulated_worst <= 1.0e-9
    report(6, ok, f"max relative temperature error {worst:.2e} <= 1e-3 over "
                  f"{thermal.size} grid points; insulated case "
                  f"{insulated_worst:.2e} <= 1e-9")


def test_criterion_07_stiffness_oracle_confirms_the_frame_solution(
        grid_errors, report):
    _, mechanical = grid_errors
    worst = float(mechanical.max())
    drift = 0.0
    for hot_um in HOT_ARMS_UM:
        for ratio in RATIO_GRID[::17]:
            for gap_um in (5.0, 10.0):
                spec = _spec(hot_um, ratio, gap_um)
                fine = stiffness_oracle(spec, elements_per_member=64)
                coarse = stiffness_oracle(spec, elements_per_member=16)
                drift = max(drift, abs(fine.tip_deflection
                                       - coarse.tip_deflection)
                            / abs(fine.tip_deflection))
    ok = worst <= 2.0e-2 and drift <= 5.0e-3
    report(7, ok, f"max tip disagreement {worst:.2%} <= 2% over "
                  f"{mechanical.size} grid points; oracle mesh drift "
                  f"{drift:.2e} <= 5e-3")


def test_criterion_08_exact_scaling_laws_hold_to_the_bit(report):
    base = _spec(750.0, 0.46, 5.0, volts=2.0)
    d2 = simulate(base).tip_deflection
    d4 = simulate(dataclasses.replace(base, drive=Drive(4.0))).tip_deflection
    d8 = simulate(dataclasses.replace(base, drive=Drive(8.0))).tip_deflection
    square_dev = max(abs(d4 - 4.0 * d2) / d4, abs(d8 - 16.0 * d2) / d8)

    spec = default_spec()
    reference = simulate(spec).tip_deflection
    modulus_dev = 0.0
    for factor in (2.0, 3.7):
        scaled = dataclasses.replace(
            spec, material=dataclasses.replace(
                spec.material,
                young_modulus=factor * spec.material.young_modulus))
        modulus_dev = max(modulus_dev,
                          abs(simulate(scaled).tip_deflection - reference)
                          / reference)

    balanced = simulate(_spec(600.0, 1.0, 5.0))
    balanced_ok = abs(balanced.tip_deflection) <= 1.0e-12 * 600.0e-6

    quiet = simulate(dataclasses.replace(spec, drive=Drive(0.0)))
    quiet_ok = (quiet.tip_deflection == 0.0
                and quiet.junction_deflection == 0.0
                and quiet.junction_rotation == 0.0
                and quiet.thermal_load.hot_elongation == 0.0)

    ok = square_dev <= 1.0e-9 and modulus_dev <= 1.0e-10 \
        and balanced_ok and quiet_ok
    report(8, ok, f"V-squared law dev {square_dev:.1e} <= 1e-9; modulus "
                  f"invariance dev {modulus_dev:.1e} <= 1e-10; equal arms "
                  f"give |tip| = {abs(balanced.tip_deflection):.1e} m; "
                  f"unpowered device is exactly still")


def _unit_field_flexibility(geometry, material):
    """The 3x3 flexibility of the frame released at the cold-arm anchor,
    built from the unit-redundant fields of the release path AB, BC, CD.
    Unit redundant i at the anchor gives, member by member, the moments
    at the start and end and the axial force: (g, g, 1), (g, 0, 0),
    (0, 0, -1) for the pull; (L1 - L2, -L2, 0), (-L2, -L2, -1),
    (-L2, 0, 0) for the transverse force; a unit moment for the couple.
    Entry (i, j) is the work of field i on the curvature and stretch of
    field j, so F[i, j] and F[j, i] round apart and their agreement is a
    test of reciprocity."""
    length1, length2, gap = (geometry.hot_arm_length, geometry.cold_arm_length,
                             geometry.gap)
    width, thickness = geometry.beam_width, geometry.beam_thickness
    ei = material.young_modulus * (thickness * width * width * width / 12.0)
    ea = material.young_modulus * (width * thickness)
    lengths = (length1, gap, length2)
    fields = (((gap, gap, 1.0), (gap, 0.0, 0.0), (0.0, 0.0, -1.0)),
              ((length1 - length2, -length2, 0.0), (-length2, -length2, -1.0),
               (-length2, 0.0, 0.0)),
              ((1.0, 1.0, 0.0),) * 3)
    flex = np.empty((3, 3))
    for i, moments in enumerate(fields):
        for j, loads in enumerate(fields):
            flex[i, j] = sum(
                length * (2.0 * (a0 * (b0 / ei) + a1 * (b1 / ei))
                          + a0 * (b1 / ei) + a1 * (b0 / ei)) / 6.0
                + length * na * (nb / ea)
                for (a0, a1, na), (b0, b1, nb), length in zip(moments, loads, lengths))
    return flex


def test_criterion_09_flexibility_is_reciprocal_and_definite(report):
    rng = np.random.default_rng(20260824)
    count = 1000
    worst_sym = worst_residual = 0.0
    closed = 0
    for _ in range(count):
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
        flex = _unit_field_flexibility(geometry, material)
        worst_sym = max(worst_sym,
                        float(np.abs(flex - flex.T).max() / np.abs(flex).max()))
        scale = 1.0 / np.sqrt(np.diag(flex))
        np.linalg.cholesky(flex * scale[:, None] * scale[None, :])

        # The redundants simulate reports close F x = (delta, 0, 0): the
        # backward error in the equilibrated norm, |S (rhs - F x)| / |S rhs|.
        try:
            solution = simulate(ActuatorSpec(geometry=geometry, material=material))
        except SmallAngleError:
            continue
        load = solution.thermal_load
        rhs = np.array([load.hot_elongation - load.cold_elongation, 0.0, 0.0])
        residual = rhs - flex @ np.array(solution.redundants)
        worst_residual = max(worst_residual, float(
            np.linalg.norm(scale * residual) / np.linalg.norm(scale * rhs)))
        closed += 1
    ok = worst_sym <= 1.0e-12 and worst_residual <= 1.0e-12 and closed >= count // 2
    report(9, ok, f"{count} random frames: worst reciprocity defect "
                  f"{worst_sym:.1e} <= 1e-12, all Cholesky factorisations "
                  f"succeeded; simulate's redundants close {closed} of them to "
                  f"an equilibrated backward error {worst_residual:.1e} <= 1e-12")


def test_criterion_10_runs_are_deterministic_and_fast(tmp_path, report):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    args = ["sweep", "--param", "gap", "--out"]
    assert main(args + [str(first)]) == 0
    assert main(args + [str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()

    spec_a, _ = parse_config("geometry.gap = 7.25\n")
    spec_b, _ = parse_config("geometry.gap = 7.25\n")
    repeat = simulate(spec_a).tip_deflection == simulate(spec_b).tip_deflection

    elapsed = time.perf_counter() - _T0
    ok = identical and repeat and elapsed < 30.0
    report(10, ok, f"repeated sweeps byte-identical; repeated simulations "
                   f"bit-identical; acceptance wall time {elapsed:.1f} s < 30 s")
