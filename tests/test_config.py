import math

import numpy as np
import pytest

from thermoact.config import (_DEFAULT_GRIDS, DISPLAY_UNITS, MAX_GRID_POINTS,
                              ConfigError, StudySettings, parse_config,
                              resolve_sweep, serialize_config)
from thermoact.model import default_spec
from thermoact.study import _linspace


def test_empty_document_is_the_default_device():
    spec, settings = parse_config("")
    assert spec == default_spec()
    assert settings == StudySettings()


def test_comments_and_blank_lines_are_ignored():
    text = """
    # a comment
    drive.voltage = 5.0   # trailing comment

    geometry.gap = 6      # micrometres
    """
    spec, _ = parse_config(text)
    assert spec.drive.voltage == 5.0
    assert spec.geometry.gap == 6.0 * 1.0e-6


def test_geometry_is_authored_in_micrometres():
    spec, _ = parse_config("geometry.hot_arm_length = 600\n"
                           "geometry.cold_arm_length = 276\n")
    assert spec.geometry.hot_arm_length == 600.0 * 1.0e-6
    assert spec.geometry.cold_arm_length == 276.0 * 1.0e-6


def test_round_trip_is_bit_exact_for_authored_configs():
    text = """
    geometry.hot_arm_length = 777.3
    geometry.cold_arm_length = 345.67
    geometry.gap = 4.25
    geometry.beam_width = 2.9
    material.resistivity = 4.9e-4
    drive.voltage = 7.5
    study.parameter = gap
    study.start = 5
    study.stop = 10
    study.steps = 6
    """
    spec, settings = parse_config(text)
    spec2, settings2 = parse_config(serialize_config(spec, settings))
    assert spec2 == spec
    assert settings2 == settings


def test_default_spec_survives_a_round_trip():
    spec, settings = parse_config(serialize_config(default_spec(),
                                                   StudySettings()))
    assert spec == default_spec()
    assert settings == StudySettings()


def test_serialized_form_is_stable():
    text = serialize_config(default_spec(), StudySettings())
    assert text == serialize_config(*parse_config(text))


@pytest.mark.parametrize("line,needle", [
    ("geometry.gap 5", "expected"),
    ("geometry.nope = 5", "unknown key"),
    ("widget.gap = 5", "unknown key"),
    ("material.poisson_ratio = 0.066", "unknown key"),
    ("geometry.gap = wide", "expects a number"),
    ("study.steps = 2.5", "expects an integer"),
])
def test_bad_lines_are_diagnosed(line, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(line + "\n")
    assert any(needle in d for d in err.value.diagnostics)
    assert any("line 1" in d for d in err.value.diagnostics)


def test_every_problem_is_reported_with_its_line():
    text = "geometry.gap = x\n\nwidget.a = 1\ndrive.voltage = 8\ndrive.voltage = 9\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    joined = "\n".join(err.value.diagnostics)
    assert "line 1" in joined
    assert "line 3" in joined
    assert "line 5" in joined and "duplicate" in joined
    assert len(err.value.diagnostics) == 3


def test_physical_bounds_surface_as_config_errors():
    with pytest.raises(ConfigError) as err:
        parse_config("geometry.hot_arm_length = 300\n"
                     "geometry.cold_arm_length = 400\n")
    assert "cold_arm_length exceeds hot_arm_length" in err.value.diagnostics
    with pytest.raises(ConfigError):
        parse_config("drive.voltage = -4\n")


def test_study_settings_are_validated():
    with pytest.raises(ConfigError):
        parse_config("study.parameter = width\n")
    with pytest.raises(ConfigError):
        parse_config("study.steps = 1\n")
    with pytest.raises(ConfigError):
        parse_config("study.start = 5\n")  # stop missing
    with pytest.raises(ConfigError):
        parse_config("study.start = 8\nstudy.stop = 5\nstudy.steps = 4\n")
    with pytest.raises(ConfigError):
        parse_config("study.optimize_grid = 2\n")


@pytest.mark.parametrize("text,diagnostics", [
    ("study.start = nan\nstudy.stop = 5\n", ["study.start must be finite"]),
    ("study.start = 5\nstudy.stop = inf\n", ["study.stop must be finite"]),
    ("study.start = inf\nstudy.stop = -inf\n",
     ["study.start must be finite", "study.stop must be finite"]),
])
def test_study_range_must_be_finite(text, diagnostics):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.diagnostics == diagnostics


@pytest.mark.parametrize("key", ["steps", "optimize_grid"])
def test_study_grid_sizes_are_capped(key):
    parse_config(f"study.{key} = {MAX_GRID_POINTS}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(f"study.{key} = {MAX_GRID_POINTS + 1}\n")
    assert err.value.diagnostics == [
        f"study.{key} must be at most {MAX_GRID_POINTS}"]


def test_default_sweep_grids():
    settings = StudySettings()
    param, values = resolve_sweep(settings)
    assert param == "ratio"
    assert len(values) == 71
    assert values[0] == pytest.approx(0.1, rel=1.0e-12)
    assert values[-1] == pytest.approx(0.8, rel=1.0e-12)

    param, values = resolve_sweep(settings, parameter="gap")
    assert values == tuple(v * 1.0e-6 for v in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0))

    param, values = resolve_sweep(settings, parameter="voltage")
    assert len(values) == 17
    assert values[0] == 0.0 and values[-1] == 8.0

    param, values = resolve_sweep(settings, parameter="hot_arm_length")
    assert values == (500.0e-6, 600.0e-6, 750.0e-6)


def test_explicit_range_overrides_the_builtin_grid():
    settings = StudySettings(parameter="gap", start=5.0, stop=10.0, steps=6)
    param, values = resolve_sweep(settings)
    assert param == "gap"
    np.testing.assert_allclose(values, np.linspace(5.0, 10.0, 6) * 1.0e-6,
                               rtol=1.0e-12)
    # command-line pieces take precedence over the file
    _, coarse = resolve_sweep(settings, steps=3)
    assert len(coarse) == 3


def test_partial_ranges_are_refused():
    with pytest.raises(ConfigError) as err:
        resolve_sweep(StudySettings(), parameter="gap", start=5.0, stop=10.0)
    assert any("steps" in d for d in err.value.diagnostics)
    with pytest.raises(ConfigError):
        resolve_sweep(StudySettings(), start=1.0, stop=0.5, steps=4)
    with pytest.raises(ConfigError):
        resolve_sweep(StudySettings(), start=0.1, stop=0.8, steps=1)
    with pytest.raises(ConfigError) as err:
        resolve_sweep(StudySettings(), start=0.1, stop=0.8,
                      steps=MAX_GRID_POINTS + 1)
    assert err.value.diagnostics == [
        f"sweep needs at most {MAX_GRID_POINTS} steps"]


@pytest.mark.parametrize("param,start,stop,steps,needle", [
    ("voltage", 1.0, 1.0000000000000002, 5, "strictly increasing finite"),
    ("voltage", -1.0e308, 1.0e308, 3, "strictly increasing finite"),
    ("gap", 1.0e-320, 2.0e-320, 2, "strictly increasing finite"),
    ("gap", 5.0, float("inf"), 3, "sweep stop must be finite"),
    ("ratio", float("nan"), 0.8, 3, "sweep start must be finite"),
    ("bogus", 0.1, 0.8, 3, "unknown sweep parameter 'bogus'"),
])
def test_a_range_without_a_grid_is_refused(param, start, stop, steps, needle):
    """Too narrow for its steps, overflowing, underflowing in SI, not
    finite or for a parameter with no grid: every such range is a
    config error, not a bad grid."""
    with pytest.raises(ConfigError) as err:
        resolve_sweep(StudySettings(), parameter=param, start=start,
                      stop=stop, steps=steps)
    assert len(err.value.diagnostics) == 1
    assert needle in err.value.diagnostics[0]


# Widths, in units of the start, of ranges only a few ulp wide.
EPS_WIDTHS = tuple(k * np.finfo(float).eps for k in (1.0, 2.0, 3.0, 7.0, 64.0))


def _bits(values):
    return [float(v).hex() for v in values]


def _numpy_grid(start, stop, num):
    with np.errstate(all="ignore"):
        return np.linspace(start, stop, num).tolist()


def test_default_grids_are_numpy_linspace_to_the_bit():
    assert _bits(_DEFAULT_GRIDS["ratio"]) == _bits(_numpy_grid(0.1, 0.8, 71))
    assert _bits(_DEFAULT_GRIDS["voltage"]) == _bits(_numpy_grid(0.0, 8.0, 17))


# Each built-in grid's display values, and the range that gives the
# evenly spaced ones.
BUILTIN_DISPLAYS = {
    "ratio": ((0.1, 0.8, 71), _numpy_grid(0.1, 0.8, 71)),
    "gap": ((5.0, 10.0, 6), [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
    "voltage": ((0.0, 8.0, 17), _numpy_grid(0.0, 8.0, 17)),
    "hot_arm_length": (None, [500.0, 600.0, 750.0]),
}


@pytest.mark.parametrize("param", sorted(BUILTIN_DISPLAYS))
def test_builtin_grids_are_stored_in_si(param):
    """A sweep given no range returns its stored grid as it is, without
    a check, so the stored grid must be finite, strictly increasing and
    the bits of each display value times the unit's factor.  Given as a
    range, an evenly spaced grid comes out of the general path with the
    same bits."""
    grid = _DEFAULT_GRIDS[param]
    span, display = BUILTIN_DISPLAYS[param]
    assert all(map(math.isfinite, grid))
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert _bits(grid) == _bits(v * DISPLAY_UNITS[param][1] for v in display)
    assert resolve_sweep(StudySettings(), parameter=param) == (param, grid)
    if span is not None:
        start, stop, steps = span
        _, values = resolve_sweep(StudySettings(), parameter=param, start=start,
                                  stop=stop, steps=steps)
        assert _bits(values) == _bits(grid)


@pytest.mark.parametrize("param,start,stop,steps", [
    ("ratio", 0.1, 0.8, 71),
    ("gap", 5.0, 10.0, 6),
    ("gap", 1.0, 37.3, 113),
    ("voltage", 0.0, 8.0, 5),
    ("hot_arm_length", 300.0, 2000.0, 1001),
    ("voltage", 0.5, 12.25, MAX_GRID_POINTS),
])
def test_sweep_grids_are_numpy_linspace_to_the_bit(param, start, stop, steps):
    _, values = resolve_sweep(StudySettings(), parameter=param, start=start,
                              stop=stop, steps=steps)
    scale = DISPLAY_UNITS[param][1]
    assert _bits(values) == _bits(v * scale
                                  for v in _numpy_grid(start, stop, steps))


def test_linspace_is_numpy_linspace_to_the_bit_on_random_ranges():
    """Seeded ranges of every magnitude and sign, ranges of a few
    subnormals whose step underflows to zero, ranges a few ulp wide, and
    ranges whose width overflows: the stdlib grid repeats numpy's bits,
    nan and inf included."""
    rng = np.random.default_rng(20261018)
    tiny = 5.0e-324
    cases = [(-1.0e308, 1.0e308, 3), (1.0e308, -1.0e308, 5),
             (-1.7976931348623157e308, 1.7976931348623157e308, 2),
             (tiny, 2.0 * tiny, 4), (0.0, tiny, 7), (-tiny, tiny, 3),
             (1.0, 1.0000000000000002, 5), (0.1, 0.8, MAX_GRID_POINTS)]
    for _ in range(2000):
        signs = rng.choice([-1.0, 1.0], 2)
        start, stop = signs * 10.0 ** rng.uniform(-323.0, 308.25, 2)
        cases.append((float(start), float(stop), int(rng.integers(2, 300))))
    for _ in range(500):
        start, stop = rng.integers(-20, 20, 2)
        cases.append((float(start) * tiny, float(stop) * tiny,
                      int(rng.integers(2, 60))))
    for _ in range(500):
        start = float(rng.uniform(-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
        stop = start + abs(start) * EPS_WIDTHS[int(rng.integers(len(EPS_WIDTHS)))]
        cases.append((start, stop, int(rng.integers(2, 40))))
    cases.append((-3.5, 1234.5, int(rng.integers(MAX_GRID_POINTS // 2,
                                                 MAX_GRID_POINTS + 1))))
    zero_steps = 0
    for start, stop, num in cases:
        zero_steps += (stop - start) / (num - 1) == 0.0
        assert _bits(_linspace(start, stop, num)) == \
            _bits(_numpy_grid(start, stop, num)), (start, stop, num)
    assert zero_steps >= 100
