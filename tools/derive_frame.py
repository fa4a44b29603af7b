"""Re-derive the U-frame's closed form with sympy and check the kernel.

The frame released at the cold-arm anchor D has the 3x3 flexibility F
of the unit-redundant fields below; the compatibility system
F x = (delta, 0, 0) gives the redundants, and unit-load virtual work on
the hot arm the junction deflection and rotation.  This script solves
that system by the adjugate in the ratios r = L2 / L1, y = g / L1 and
k = s s / 12 with s = w / L1, reads off the polynomials Q, D, R, N0, N2
and the factor of the transverse redundant, prints them expanded, and
then checks ``thermomech._solve_point`` against the solve: its source is
run with exact rationals for its float constants and symbols for its
inputs, the spec's constants among them, and every polynomial and every
output it returns must equal the derived one.

sympy is not a dependency of thermoact.  Run from the repository root:

    python tools/derive_frame.py
"""

import ast
import inspect
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import sympy as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from thermoact import electrothermal, thermomech  # noqa: E402

L1, r, y, s, E, t, ext, hot, cold = sp.symbols(
    "L1 r y s E t L_ext hot cold", positive=True)
k = s * s / 12
delta = hot - cold
L2, g, w = r * L1, y * L1, s * L1
EI, EA = E * t * w ** 3 / 12, E * w * t


def product(length, a0, a1, b0, b1):
    """Exact integral over a member of the product of two linear fields."""
    return length * (2 * (a0 * b0 + a1 * b1) + a0 * b1 + a1 * b0) / 6


def derive():
    """The frame's outputs from the adjugate of its flexibility, and the
    polynomials they share, keyed by the kernel's names."""
    lengths = (L1, g, L2)
    # Moments at the start and end and the axial force on AB, BC, CD
    # under a unit pull, transverse force and couple at D.
    fields = (((g, g, 1), (g, 0, 0), (0, 0, -1)),
              ((L1 - L2, -L2, 0), (-L2, -L2, -1), (-L2, 0, 0)),
              ((1, 1, 0), (1, 1, 0), (1, 1, 0)))
    flex = sp.Matrix(3, 3, lambda i, j: sum(
        product(length, a0, a1, b0, b1) / EI + length * na * nb / EA
        for (a0, a1, na), (b0, b1, nb), length in zip(fields[i], fields[j], lengths)))
    det = flex.det()
    x0, x1, x2 = (sp.cancel(delta * cofactor / det) for cofactor in flex.adjugate()[:, 0])
    # The moments at A and B, by statics, carry the virtual work.
    at_a = g * x0 + (L1 - L2) * x1 + x2
    at_b = g * x0 - L2 * x1 + x2
    deflection = sp.cancel(product(L1, at_a, at_b, L1, 0) / EI)
    rotation = sp.cancel(product(L1, at_a, at_b, 1, 1) / EI)

    q = sp.cancel(36 * EI ** 3 * det / L1 ** 7)
    scale = 3 * k * EA * delta / (L1 * q)
    polynomials = dict(
        q=q,
        d=sp.cancel(deflection * 2 * q / (3 * delta * y)),
        rr=sp.cancel(rotation * 2 * q * L1 / (3 * delta * y)),
        n0=sp.cancel(x0 / scale),
        x1_factor=sp.cancel(x1 / (3 * scale * y)),
        n2=sp.cancel(-x2 / (scale * g)),
    )
    outputs = (deflection + ext * rotation, deflection, rotation, hot, cold,
               sp.Symbol("peak"), x0, x1, x2)
    return polynomials, outputs


class _Exact(ast.NodeTransformer):
    """Float constants become exact rationals, and the statements that
    only refuse a point (if ... raise) are dropped."""

    def visit_Constant(self, node):
        if type(node.value) is float:
            return ast.Call(ast.Name("Rational", ast.Load()),
                            [ast.Constant(repr(node.value))], [])
        return node

    def visit_If(self, node):
        return None


def run_kernel():
    """``_solve_point``'s body on symbols: its local variables and the
    tuple it returns."""
    function = ast.parse(textwrap.dedent(inspect.getsource(thermomech._solve_point))).body[0]
    body = [node for node in function.body
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    *statements, returned = body
    statements.append(ast.Assign([ast.Name("result", ast.Store())], returned.value))
    module = ast.fix_missing_locations(_Exact().visit(ast.Module(statements, [])))
    spec = SimpleNamespace(
        geometry=SimpleNamespace(beam_width=w, beam_thickness=t, extension_length=ext),
        material=SimpleNamespace(young_modulus=E, resistivity=sp.Symbol("rho"),
                                 thermal_conductivity=sp.Symbol("k_thermal"),
                                 expansion_coefficient=sp.Symbol("alpha")),
        environment=SimpleNamespace(convection_coefficient=sp.Symbol("beta"),
                                    ambient_temperature=sp.Symbol("ambient")))
    local = dict(Rational=sp.Rational, c=electrothermal._constants(spec), length1=L1,
                 length2=L2, gap=g, volts=sp.Symbol("volts"),
                 _load_and_peak=lambda *point: (hot, cold, sp.Symbol("peak")))
    exec(compile(module, "_solve_point", "exec"), {}, local)
    return local


def main():
    polynomials, outputs = derive()
    ratio = sp.Symbol("k", positive=True)
    for name, polynomial in polynomials.items():
        print(f"{name} = {sp.expand(polynomial).subs(s * s, 12 * ratio)}")
    kernel = run_kernel()
    # The transverse redundant's factor is checked with the outputs.
    failures = [name for name, polynomial in polynomials.items()
                if name in kernel and sp.expand(kernel[name] - polynomial) != 0]
    names = ("tip", "deflection", "rotation", "hot", "cold", "peak", "x0", "x1", "x2")
    failures += [name for name, got, expected in zip(names, kernel["result"], outputs)
                 if sp.cancel(got - expected) != 0]
    if len(kernel["result"]) != len(names):
        failures.append(f"{len(kernel['result'])} outputs, not {len(names)}")
    if failures:
        print("kernel disagrees with the derivation:", ", ".join(failures))
        return 1
    print("kernel agrees with the derivation: every polynomial and output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
