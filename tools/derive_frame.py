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

It checks the thermal pass ``electrothermal._load_and_peak`` the same
way, in each branch of its regime switch, reading expm1(x) as
exp(x) - 1.  Its arm elongations must be alpha times the integral of
theta over each arm, from its anchor, and its peak the ambient plus
theta at mid-path, where theta solves the fin equation

    k w h theta'' + q w h = loss theta,    theta(0) = theta(path) = 0,

q = V^2 / (rho path^2) the Joule source, and loss = 0 in the
conduction-only branch.  The convection coefficient is written so that
the side loss 2 (h + w) beta is mu^2 k w h, and the decay parameter
sqrt(loss / (k w h)) the positive symbol mu.

sympy is not a dependency of thermoact.  Run from the repository root:

    python tools/derive_frame.py
"""

import __future__
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
rho, conductivity, alpha, ambient, volts, mu = sp.symbols(
    "rho k_thermal alpha ambient volts mu", positive=True)
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
    only refuse a point (if ... raise) are dropped.  Every other if is
    dropped, or replaced by its body when ``taken``."""

    def __init__(self, taken=False):
        self.taken = taken

    def visit_Constant(self, node):
        if type(node.value) is float:
            return ast.Call(ast.Name("Rational", ast.Load()),
                            [ast.Constant(repr(node.value))], [])
        return node

    def visit_If(self, node):
        if isinstance(node.body[-1], ast.Raise) or not self.taken:
            return None
        self.generic_visit(node)
        return node.body


def symbolic(function, taken=False, **names):
    """``function`` defined from its own source as ``_Exact(taken)``
    rewrites it, with ``names`` among its globals."""
    tree = _Exact(taken).visit(ast.parse(textwrap.dedent(inspect.getsource(function))))
    namespace = dict(Rational=sp.Rational, **names)
    exec(compile(ast.fix_missing_locations(tree), function.__name__, "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[function.__name__]


def constants(width, convection):
    """``_constants`` on a spec of symbols with this beam width and
    convection coefficient."""
    spec = SimpleNamespace(
        geometry=SimpleNamespace(beam_width=width, beam_thickness=t, extension_length=ext),
        material=SimpleNamespace(young_modulus=E, resistivity=rho,
                                 thermal_conductivity=conductivity,
                                 expansion_coefficient=alpha),
        environment=SimpleNamespace(convection_coefficient=convection,
                                    ambient_temperature=ambient))
    return symbolic(electrothermal._constants)(spec)


def run_kernel():
    """``_solve_point``'s body on symbols: its local variables and the
    tuple it returns."""
    function = ast.parse(textwrap.dedent(inspect.getsource(thermomech._solve_point))).body[0]
    body = [node for node in function.body
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    *statements, returned = body
    statements.append(ast.Assign([ast.Name("result", ast.Store())], returned.value))
    module = ast.fix_missing_locations(_Exact().visit(ast.Module(statements, [])))
    local = dict(Rational=sp.Rational, c=constants(w, sp.Symbol("beta")), length1=L1,
                 length2=L2, gap=g, volts=volts,
                 _load_and_peak=lambda *point: (hot, cold, sp.Symbol("peak")))
    exec(compile(module, "_solve_point", "exec"), {}, local)
    return local


def check_thermal_pass():
    """The outputs of ``_load_and_peak``'s source that differ from the
    fin equation's, in each regime branch, as "branch: output" names."""
    length_hot, length_cold, gap, width, x, q = sp.symbols(
        "L_hot L_cold gap w x q", positive=True)
    path = length_hot + gap + length_cold
    kwh = conductivity * width * t
    c = constants(width, mu * mu * kwh / (2 * (t + width)))
    theta = sp.Function("theta")
    names = SimpleNamespace(expm1=lambda v: sp.exp(v) - 1, exp=sp.exp, sqrt=sp.sqrt)
    failures = []
    for branch, taken, loss in (("convective", True, mu * mu * kwh),
                                ("conduction-only", False, 0)):
        kernel = symbolic(electrothermal._load_and_peak, taken, math=names,
                          float=lambda v: v)
        got = kernel(c, length_hot, length_cold, gap, volts)
        fin = sp.Eq(kwh * theta(x).diff(x, 2) + q * width * t, loss * theta(x))
        rise = sp.dsolve(fin, theta(x), ics={theta(0): 0, theta(path): 0}).rhs
        expected = [v.subs(q, volts ** 2 / (rho * path ** 2))
                    for v in (alpha * sp.integrate(rise, (x, 0, length_hot)),
                              alpha * sp.integrate(rise, (x, 0, length_cold)),
                              ambient + rise.subs(x, path / 2))]
        failures += [f"{branch}: {name}"
                     for name, ours, theirs in zip(("hot", "cold", "peak"), got, expected)
                     if sp.simplify(sp.expand(ours - theirs, power_exp=True)) != 0]
        if len(got) != 3:
            failures.append(f"{branch}: {len(got)} outputs, not 3")
    return failures


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
    else:
        print("kernel agrees with the derivation: every polynomial and output")
    thermal = check_thermal_pass()
    if thermal:
        print("thermal pass disagrees with the fin equation:", ", ".join(thermal))
    else:
        print("thermal pass agrees with the fin equation: both regimes, every output")
    return 1 if failures or thermal else 0


if __name__ == "__main__":
    sys.exit(main())
