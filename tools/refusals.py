"""Census of what ``simulate`` makes of seeded extreme specs.

Draws ``tests/test_bits.py``'s ``_extreme(random.Random(4242), i)`` for
i < 20 000, builds each spec and simulates it, and prints how many specs
are invalid, how many solve, how many end in each named refusal and how
many in each raw Python error.  For each refusal of the frame stage (FrameSingularError)
it also prints how many have a thermal load delta, the hot minus the
cold arm's elongation, of exactly zero.  A refusal text's numbers are
replaced by ``#``, so that one kind of refusal is one line.

Only the standard library and thermoact are needed.  Run from the
repository root:

    python tools/refusals.py
"""

import random
import re
import sys
from collections import Counter
from pathlib import Path

root = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(root / "src"), str(root / "tests")]
from test_bits import _extreme  # noqa: E402
from thermoact.electrothermal import _constants, _load_and_peak  # noqa: E402
from thermoact.model import InvalidSpecError  # noqa: E402
from thermoact.thermomech import FrameSingularError, simulate  # noqa: E402

DRAWS, SEED = 20000, 4242
_NUMBER = re.compile(r"-?\d+\.\d+")


def _delta(spec):
    g = spec.geometry
    hot, cold, _ = _load_and_peak(_constants(spec), g.hot_arm_length, g.cold_arm_length,
                                  g.gap, spec.drive.voltage)
    return hot - cold


def census():
    """Counts of each outcome, and of the frame refusals with delta == 0."""
    rng = random.Random(SEED)
    outcomes, at_rest = Counter(), Counter()
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
            kind = type(exc)
            if kind.__module__.startswith("thermoact"):
                outcome = f"{kind.__name__}: {_NUMBER.sub('#', str(exc))}"
            else:
                outcome = f"{kind.__name__} (raw error)"
            outcomes[outcome] += 1
            if kind is FrameSingularError and _delta(spec) == 0.0:
                at_rest[outcome] += 1
        else:
            outcomes["solved"] += 1
    return outcomes, at_rest


def main():
    outcomes, at_rest = census()
    print(f"{DRAWS} draws of _extreme(random.Random({SEED}), i)")
    for outcome, count in sorted(outcomes.items(), key=lambda item: (-item[1], item[0])):
        frame = outcome.startswith(FrameSingularError.__name__)
        share = f"  (delta == 0: {at_rest[outcome]})" if frame else ""
        print(f"{count:7d}  {outcome}{share}")


if __name__ == "__main__":
    main()
