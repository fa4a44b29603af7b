"""Census of what ``simulate`` and ``validate`` make of seeded extreme specs.

Draws ``tests/test_bits.py``'s ``_extreme(random.Random(4242), i)`` for
i < 20 000, builds each spec and simulates it, and prints how many specs
are invalid, how many solve, how many end in each named refusal and how
many in each raw Python error.  For each refusal of the frame stage (FrameSingularError)
it also prints how many have a thermal load delta, the hot minus the
cold arm's elongation, of exactly zero.  A refusal text's numbers are
replaced by ``#``, so that one kind of refusal is one line.

Then it runs ``validate``'s route, the CLI's ``_cmd_validate`` with its
output discarded and every warning raised as an error, on every spec
that ``simulate`` solves, and prints its outcomes the same way: exit 0,
exit 3 (a validation breach) or a named refusal.  A raw error on either
route is counted by its type and the package source line that raised
it.

Last, on every spec that ``simulate`` refuses, it calls both oracles
directly, ``fd_temperature_oracle`` and ``stiffness_oracle`` at
``validate``'s resolutions, ``cli.FD_NODES`` and ``cli.ORACLE_ELEMENTS``,
each with every warning raised as an error, and prints each
oracle's outcomes the same way.  The census exits 1 if it finds any raw
error on any of the three routes, else 0.

Only the standard library and thermoact are needed for the ``simulate``
census; the ``validate`` and oracle routes also need numpy and scipy.
Run from the repository root, in about ten seconds, and compare with
the committed census, which a change that moves a line updates:

    python tools/refusals.py | diff -u tests/golden/census.txt -
"""

import contextlib
import io
import random
import re
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path

root = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(root / "src"), str(root / "tests")]
from test_bits import _extreme  # noqa: E402
from thermoact.cli import FD_NODES, ORACLE_ELEMENTS, _cmd_validate  # noqa: E402
from thermoact.electrothermal import (_constants, _load_and_peak,  # noqa: E402
                                      fd_temperature_oracle)
from thermoact.model import InvalidSpecError  # noqa: E402
from thermoact.thermomech import (FrameSingularError, simulate,  # noqa: E402
                                  stiffness_oracle)

DRAWS, SEED = 20000, 4242
_NUMBER = re.compile(r"-?\d+\.\d+")
_PACKAGE = str(root / "src" / "thermoact")


def _delta(spec):
    g = spec.geometry
    hot, cold, _ = _load_and_peak(_constants(spec), g.hot_arm_length, g.cold_arm_length,
                                  g.gap, spec.drive.voltage)
    return hot - cold


def _refusal(exc):
    """One census line for an exception, and whether it is a raw error:
    a named refusal's type and text, numbers as ``#``, or a raw error's
    type and the innermost package line that raised it."""
    kind = type(exc)
    if kind.__module__.startswith("thermoact"):
        return f"{kind.__name__}: {_NUMBER.sub('#', str(exc))}", False
    where = ""
    for frame in traceback.extract_tb(exc.__traceback__):
        if frame.filename.startswith(_PACKAGE):
            where = f" at {Path(frame.filename).name}:{frame.lineno} ({frame.line})"
    return f"{kind.__name__} (raw error){where}", True


def _validate(spec):
    """Exit code or refusal of ``validate``'s route on ``spec``."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        return f"exit {_cmd_validate(spec)}"


_ORACLES = (("fd_temperature_oracle", lambda spec: fd_temperature_oracle(spec, FD_NODES)),
            ("stiffness_oracle", lambda spec: stiffness_oracle(spec, ORACLE_ELEMENTS)))


def _oracles(spec):
    """Each oracle's census line on ``spec``, called directly with every
    warning raised as an error, and whether it is a raw error."""
    for name, oracle in _ORACLES:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                oracle(spec)
            outcome, is_raw = "solved", False
        except Exception as exc:
            outcome, is_raw = _refusal(exc)
        yield f"{name}: {outcome}", is_raw


def census():
    """Counts of each ``simulate`` outcome, of the frame refusals with
    delta == 0, of each ``validate`` outcome on the specs that solve and
    of each oracle's outcome on the specs that ``simulate`` refuses, and
    the number of raw errors on the three routes."""
    rng = random.Random(SEED)
    outcomes, at_rest, validated, direct = Counter(), Counter(), Counter(), Counter()
    raw = 0
    for i in range(DRAWS):
        build = _extreme(rng, i)
        try:
            spec = build()
        except InvalidSpecError:
            outcomes["invalid spec"] += 1
            continue
        try:
            simulate(spec)
        except Exception as exc:
            outcome, is_raw = _refusal(exc)
            outcomes[outcome] += 1
            raw += is_raw
            if type(exc) is FrameSingularError and _delta(spec) == 0.0:
                at_rest[outcome] += 1
            for outcome, is_raw in _oracles(spec):
                direct[outcome] += 1
                raw += is_raw
            continue
        outcomes["solved"] += 1
        try:
            outcome = _validate(spec)
        except Exception as exc:
            outcome, is_raw = _refusal(exc)
            raw += is_raw
        validated[outcome] += 1
    return outcomes, at_rest, validated, direct, raw


def _print(counts, note=lambda outcome: ""):
    for outcome, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:7d}  {outcome}{note(outcome)}")


def main():
    outcomes, at_rest, validated, direct, raw = census()
    print(f"{DRAWS} draws of _extreme(random.Random({SEED}), i), through simulate")
    _print(outcomes, lambda outcome: f"  (delta == 0: {at_rest[outcome]})"
           if outcome.startswith(FrameSingularError.__name__) else "")
    print(f"{outcomes['solved']} that simulate solves, through validate")
    _print(validated)
    refused = sum(outcomes.values()) - outcomes["solved"] - outcomes["invalid spec"]
    print(f"{refused} that simulate refuses, through each oracle called directly")
    _print(direct)
    print(f"{raw} raw errors")
    return 1 if raw else 0


if __name__ == "__main__":
    sys.exit(main())
