"""In-memory span tracer that wraps thermoact's public functions from the
outside.

Each wrapped call records one span: name, start and end (perf_counter
nanoseconds), parent span, op id, whether it raised, and an optional
size (bytes returned, oracle degrees of freedom).  Spans stay in int64
columns until the run ends and are then written to one ``.npz`` file.

A function imported elsewhere with ``from .x import y`` is patched in
every thermoact namespace that holds it, under the name of the module
that defines it, so ``thermomech.solve_temperature_profile`` is traced
as ``electrothermal.solve_temperature_profile``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

COLUMNS = ("name", "start", "end", "parent", "op", "error", "size")


def _stiffness_dofs(result):
    # 4 members of elements_per_member elements on one chain of nodes,
    # 3 degrees of freedom per node
    return 3 * (4 * result.elements_per_member + 1)


# (defining module, attribute, size of the result or None).  A dotted
# attribute is a method and is patched on its class; its span is named
# after the class.
TARGETS = (
    ("model", "ActuatorSpec.__init__", None),
    ("model", "validate", None),
    ("electrothermal", "solve_temperature_profile", None),
    ("electrothermal", "arm_elongations", None),
    ("electrothermal", "temperature_at", None),
    ("electrothermal", "fd_temperature_oracle", None),
    ("thermomech", "build_frame", None),
    ("thermomech", "flexibility_matrix", None),
    ("thermomech", "solve_redundants", None),
    ("thermomech", "moment_distribution", None),
    ("thermomech", "virtual_tip_response", None),
    ("thermomech", "simulate", None),
    ("thermomech", "stiffness_oracle", _stiffness_dofs),
    ("study", "apply_parameter", None),
    ("study", "SweepPlan.__init__", None),
    ("study", "run_sweep", None),
    ("study", "find_optimal_ratio", None),
    ("study", "golden_section_max", None),
    ("output", "sweep_csv", len),
    ("output", "sweep_chart_svg", len),
    ("config", "parse_config", None),
    ("config", "resolve_sweep", None),
    ("cli", "main", None),
)


class Tracer:
    """Collects spans from patched functions.  The caller sets ``op`` to
    the op's id before each op, so that the spans of one op share it,
    and back to -1 after it: calls outside an op are not recorded."""

    def __init__(self):
        self.names: list[str] = []
        self.cols = {c: array("q") for c in COLUMNS}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, name, fn, size=None):
        self.names.append(name)
        nid = len(self.names) - 1
        names, parents, ops = self.cols["name"], self.cols["parent"], self.cols["op"]
        starts, ends = self.cols["start"], self.cols["end"]
        errors, sizes = self.cols["error"], self.cols["size"]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:   # outside an op: input making and checks
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            errors.append(0)
            sizes.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                errors[idx] = 1
                raise
            else:
                ends[idx] = clock()
                if size is not None:
                    sizes[idx] = size(result)
                return result
            finally:
                stack.pop()

        return traced

    def install(self):
        """Patch every target in every loaded thermoact namespace.  The
        wrappers are made on the first call and reused after it."""
        if not self._patches:
            self._patches = list(self._find_patches())
        for owner, key, wrapper, _ in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, _, original in reversed(self._patches):
            setattr(owner, key, original)

    def _find_patches(self):
        """(owner, attribute, wrapper, original) for every place to patch.
        A target the program no longer has is skipped, and its metrics
        read 0."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and n.split(".")[0] == "thermoact"]
        for modname, attr, size in TARGETS:
            home = sys.modules.get(f"thermoact.{modname}")
            if home is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name, None)
                original = vars(owner).get(method) if owner is not None else None
                if original is not None:
                    yield (owner, method,
                           self.wrap(f"{modname}.{cls_name}", original, size), original)
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{modname}.{attr}", original, size)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        yield module, key, wrapper, original

    def columns(self):
        return {c: np.frombuffer(self.cols[c], dtype=np.int64).copy()
                for c in COLUMNS}

    def dump(self, path):
        save(path, self.names, self.columns())


def save(path, names, cols):
    np.savez_compressed(path, names=np.array(names, dtype=str), **cols)


def load(path):
    """(names, columns) of a span file written by ``Tracer.dump``."""
    with np.load(path) as data:
        return [str(n) for n in data["names"]], {c: data[c] for c in COLUMNS}


class SpanTable:
    """Spans of one run, possibly from several processes, with
    durations and self times (duration minus the direct children's)."""

    def __init__(self, parts):
        names: list[str] = []
        merged = {c: [] for c in COLUMNS}
        offset = 0
        for part_names, cols in parts:
            remap = []
            for n in part_names:
                if n not in names:
                    names.append(n)
                remap.append(names.index(n))
            for c in COLUMNS:
                col = cols[c]
                if c == "name":
                    col = np.array(remap, dtype=np.int64)[col]
                elif c == "parent":
                    col = np.where(col >= 0, col + offset, -1)
                merged[c].append(col)
            offset += len(cols["name"])
        self.names = names
        self.cols = {c: np.concatenate(v) if v else np.zeros(0, np.int64)
                     for c, v in merged.items()}
        self.dur = self.cols["end"] - self.cols["start"]
        parent = self.cols["parent"]
        nested = parent >= 0
        self.self_time = self.dur - np.bincount(
            parent[nested], weights=self.dur[nested], minlength=len(self.dur))

    def mask(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.cols["name"], ids)

    def mean_us(self, rows):
        return float(self.dur[rows].mean()) / 1e3 if rows.any() else 0.0

    def under(self, rows, ancestor):
        """Per row of ``rows``: whether some enclosing span is ``ancestor``."""
        out = np.zeros(len(rows), dtype=bool)
        if ancestor not in self.names:
            return out
        target = self.names.index(ancestor)
        name, parent = self.cols["name"], self.cols["parent"]
        cur = parent[rows]
        while (cur >= 0).any():
            live = cur >= 0
            out[live] |= name[cur[live]] == target
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)
        return out


def layer_metrics(spans: SpanTable, ops: int, count_ops: int) -> dict:
    """Per-layer metrics from traced spans.

    Times are means over every traced call; ``study.self_ms`` is the
    study layer's self time per op.  Counts cover only the ops with id
    below ``count_ops``, so that for one seed they repeat exactly
    whatever the run length.
    """
    prefix = spans.cols["op"] < count_ops
    sim = spans.mask("thermomech.simulate")
    sim_rows = np.flatnonzero(sim & prefix)
    parent = spans.cols["parent"]
    peak = spans.mask("electrothermal.temperature_at") & (parent >= 0)
    peak[peak] = sim[parent[peak]]
    study = spans.mask(*(n for n in spans.names if n.startswith("study.")))

    def mean(name):
        return spans.mean_us(spans.mask(name))

    def count(name):
        return int((spans.mask(name) & prefix).sum())

    def total_size(*names):
        return int(spans.cols["size"][spans.mask(*names) & prefix].sum())

    return {
        "model.spec_us": mean("model.ActuatorSpec"),
        "model.spec_calls": count("model.ActuatorSpec"),
        "model.validate_calls": count("model.validate"),
        "electrothermal.profile_us":
            mean("electrothermal.solve_temperature_profile"),
        "electrothermal.elongation_us": mean("electrothermal.arm_elongations"),
        "electrothermal.peak_us": spans.mean_us(peak),
        "electrothermal.fd_oracle_ms":
            mean("electrothermal.fd_temperature_oracle") / 1e3,
        "thermomech.build_frame_us": mean("thermomech.build_frame"),
        "thermomech.flexibility_us": mean("thermomech.flexibility_matrix"),
        "thermomech.solve_us": mean("thermomech.solve_redundants"),
        "thermomech.moments_us": mean("thermomech.moment_distribution"),
        "thermomech.virtual_work_us": mean("thermomech.virtual_tip_response"),
        "thermomech.simulate_self_us":
            float(spans.self_time[sim].mean()) / 1e3 if sim.any() else 0.0,
        "thermomech.simulate_calls": len(sim_rows),
        "thermomech.refusals": int(spans.cols["error"][sim_rows].sum()),
        "thermomech.stiffness_oracle_ms":
            mean("thermomech.stiffness_oracle") / 1e3,
        "thermomech.oracle_dofs": total_size("thermomech.stiffness_oracle"),
        "study.apply_parameter_us": mean("study.apply_parameter"),
        "study.objective_evals":
            int(spans.under(sim_rows, "study.find_optimal_ratio").sum()),
        "study.golden_evals":
            int(spans.under(sim_rows, "study.golden_section_max").sum()),
        "study.self_ms":
            float(spans.self_time[study].sum()) / 1e6 / max(ops, 1),
        "output.csv_us": mean("output.sweep_csv"),
        "output.svg_us": mean("output.sweep_chart_svg"),
        "output.bytes": total_size("output.sweep_csv", "output.sweep_chart_svg"),
        "config.parse_us": mean("config.parse_config"),
        "config.resolve_sweep_us": mean("config.resolve_sweep"),
        "cli.main_ms": mean("cli.main") / 1e3,
    }
