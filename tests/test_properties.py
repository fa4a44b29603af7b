"""Property test of the CLI contract: whatever finite, extreme or
non-finite values a config file holds, and whatever sweep range the
command line asks for, ``main`` returns an exit code of the documented
taxonomy (0 success, 1 configuration problem, 2 solver guard, 3
validation breach from ``validate`` alone), never raises and never
warns.  A ``simulate`` that succeeds reports only finite numbers.

The examples are derandomized and the database is off, so every run
draws the same cases."""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from thermoact.cli import main
from thermoact.config import serialize_config
from thermoact.model import default_spec
from thermoact.study import PARAMETERS

# Every spec key with its default in config units, as the serializer
# writes them (geometry in micrometres).
DEFAULTS = {key.strip(): float(value) for key, _, value in
            (line.partition("=") for line in
             serialize_config(default_spec()).splitlines()) if value}

EXTREMES = (0.0, -0.0, 1.0e-320, -1.0e-320, 1.0e-300, 1.0e300, 1.7e308,
            -1.7e308, math.inf, -math.inf, math.nan)


def _values(ordinary):
    return st.one_of(st.sampled_from(EXTREMES), ordinary,
                     st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _config_text(draw):
    keys = draw(st.lists(st.sampled_from(sorted(DEFAULTS)), unique=True,
                         max_size=len(DEFAULTS)))
    lines = []
    for key in keys:
        scaled = st.floats(0.1, 3.0).map(lambda f, d=DEFAULTS[key]: f * d)
        lines.append(f"{key} = {draw(_values(scaled))!r}")
    return "\n".join(lines) + "\n"


COMMANDS = st.one_of(
    st.just(["simulate"]),
    st.just(["optimize-ratio", "--grid", "5"]),
    st.builds(lambda param, start, stop, steps:
              ["sweep", "--param", param, f"--from={start!r}", f"--to={stop!r}",
               f"--steps={steps}"],
              st.sampled_from(PARAMETERS), _values(st.floats(-10.0, 1000.0)),
              _values(st.floats(-10.0, 1000.0)), st.integers(-1, 8)),
)


def _run(command, text):
    """Exit code, stdout and stderr of ``main`` on a config file holding
    ``text``, with every warning raised as an error."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.cfg"
        config.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(command + ["--config", str(config)])
    if code in (1, 2):
        assert any(line.startswith("error: ")
                   for line in err.getvalue().splitlines()), err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(text=_config_text(), command=COMMANDS)
def test_every_input_ends_in_a_documented_exit_code(text, command):
    code, out, err = _run(command, text)
    assert code in (0, 1, 2), err
    if command[0] == "simulate" and code == 0:
        for line in out.splitlines():
            _, _, reading = line.partition(" = ")
            assert math.isfinite(float(reading.split()[0])), line


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(text=_config_text())
def test_validate_ends_in_a_documented_exit_code(text):
    """``validate`` runs both oracles on numpy and scipy; none of them
    may warn before its exit line."""
    code, _, err = _run(["validate"], text)
    assert code in (0, 1, 2, 3), err
