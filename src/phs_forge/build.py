"""Compile a kinematic model into its port-Hamiltonian representation.

The three compilation steps are exact: the mass matrix is the density-weighted
section integral of lambda1^T lambda1, the stiffness matrix the section
integral of lambda2^T C lambda2, and the interconnection block pairs the
declared operator with its formal adjoint.  Positive definiteness is certified
with exact leading-minor/pivot signs; a failure is surfaced with a witness
vector rather than silently accepted, since it signals an inconsistent
kinematic assumption or a wrong strain-space dimension.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import List

from . import exact
from .diffop import BoundaryForm, DiffOpMatrix, _common_denominator, _encode, jet_blocks
from .exact import ExactError, PiRat, check_spd, fr, mat_inverse, scalar_json, scalar_parts, to_float
from .modelfile import check_digits
from .models import KinematicModel, ModelError, validate_model
from .poly import Poly

__all__ = [
    "BuildError",
    "PHSystem",
    "mass_matrix",
    "stiffness_matrix",
    "assemble_phs",
    "boundary_port_map",
    "export_system",
    "float_matrix",
    "write_matrix_csv",
]


class BuildError(ModelError):
    pass


def _weigh(rows, col):
    """``W`` times one column of ``_section_gram``'s split factor, with
    ``rows`` the integer rows of ``_encode``."""
    out = []
    for row in rows:
        acc = {}
        get = acc.get
        for s, w in row:
            for k, n in col[s]:
                acc[k] = get(k, 0) + w * n
        out.append([(k, n) for k, n in acc.items() if n])
    return out


def _pair(col, wcol):
    """``{key: S_key}``: the nonzero integer coefficients of ``col^T wcol``
    for a column of the split factor and a weighted one."""
    acc = {}
    get = acc.get
    for a, b in zip(col, wcol):
        if a and b:
            for ka, x in a:
                for kb, y in b:
                    k = ka + kb
                    acc[k] = get(k, 0) + x * y
    return {k: n for k, n in acc.items() if n}


def _section_gram(model: KinematicModel, factor, weight):
    """Exact integral over the section of factor^T * weight * factor, in one
    integer pass.

    ``factor`` is a PolyMatrix over the complementary coordinates, ``weight``
    a rational matrix (or None for the identity).  The factor is split into
    integer coefficient matrices over one denominator (lambda = sum_e A_e
    z^e) and the weight is encoded as integer rows (``diffop._encode``), so
    entry (i, j) is sum_c S_c[i][j] mu_c, with S_c = sum_{e+f=c} A_e^T W A_f
    summed in ints and mu_c the section's ``monomial`` of z^c.  An exponent
    is one integer key, a digit per coordinate, so e + f is one addition.
    The section is asked for mu_c only when some S_c has a nonzero entry,
    and a surviving term in a coordinate it does not span is refused as
    ``Section.integrate`` refuses it.  Each entry is then one Fraction,
    pi-tagged on a circle (a section's nonzero moments share one power of
    pi).  An asymmetric weight gives an asymmetric result, which
    ``check_spd`` reports.
    """
    section, coords = model.section, factor.coords
    exps = {e for row in factor.entries for p in row for e in p.num}
    # a digit per coordinate, wide enough that two keys add without a carry
    base = 2 * max((x for e in exps for x in e), default=0) + 1
    place = [base**i for i in range(len(coords))]
    key = {e: sum(map(mul, e, place)) for e in exps}
    # column j lists, per row, the (key, numerator) of each term over ``common``
    common = lcm(*{p.den for row in factor.entries for p in row})
    cols = [
        [[(key[e], n * (common // p.den)) for e, n in p.num.items()] for p in col]
        for col in zip(*factor.entries)
    ]
    weighted, den = cols, common * common
    if weight is not None:
        lm = _common_denominator(weight)
        rows = _encode(weight, lm)
        weighted = [_weigh(rows, col) for col in cols]
        den *= lm
    sums = [[_pair(col, wcol) for wcol in weighted] for col in cols]
    mu = {}
    # keys ascending is colex order, the order ``Poly.__str__`` writes
    for k in sorted({k for row in sums for s in row for k in s}):
        power = tuple(k // p % base for p in place)
        for name, e in zip(coords, power):
            if e and name not in section.spans:
                n = next(s[k] for row in sums for s in row if k in s)
                term = Poly(coords, {power: Fraction(n, den)})
                raise ExactError(f"section {section.kind} does not span {name}, so it cannot integrate {term}")
        at = dict(zip(coords, power))
        mu[k] = scalar_parts(section.monomial(at.get("z2", 0), at.get("z3", 0)))
    pis = {pi for q, pi in mu.values() if q}
    if len(pis) > 1:
        raise ExactError(f"cannot add pi^{min(pis)} and pi^{max(pis)} terms exactly")
    pi = max(pis, default=0)
    qden = lcm(*{q.denominator for q, _ in mu.values()})
    mu = {k: q.numerator * (qden // q.denominator) for k, (q, _) in mu.items()}
    den *= qden
    zero = Fraction(0)
    return [
        [PiRat(Fraction(n, den), pi) if (n := sum([x * mu[k] for k, x in s.items()])) else zero for s in row]
        for row in sums
    ]


def mass_matrix(model: KinematicModel, require_spd: bool = True):
    """rho times the section integral of lambda1^T lambda1 (n x n, exact)."""
    m = _section_gram(model, model.lambda1, None)
    m = [[model.rho * x for x in row] for row in m]
    if require_spd:
        ok, detail = check_spd(m)
        if not ok:
            raise BuildError(
                f"mass matrix of {model.name} is not symmetric positive definite: {detail}"
            )
    return m


def stiffness_matrix(model: KinematicModel, require_spd: bool = True):
    """Section integral of lambda2^T C lambda2 (m x m, exact)."""
    d, widths = model.lambda2.rows, {len(row) for row in model.cmat}
    if len(model.cmat) != d or widths != {d}:
        shape = f"{len(model.cmat)} x {'/'.join(map(str, sorted(widths)))}"
        raise BuildError(f"constitutive matrix C of {model.name} is {shape}, but lambda2 is {d} x "
                         f"{model.lambda2.cols}, so C must be {d} x {d}")
    k = _section_gram(model, model.lambda2, model.cmat)
    if require_spd:
        ok, detail = check_spd(k)
        if not ok:
            raise BuildError(
                f"stiffness matrix of {model.name} is not symmetric positive definite "
                f"(the strain-space dimension m may be wrong): {detail}"
            )
    return k


@dataclass
class PHSystem:
    """Compiled system: exact matrices, operator pair and boundary form.

    States are x = (p, eps) with co-energy e_p = M^-1 p and e_eps = K eps;
    the interconnection block is [[0, -F*], [F, 0]].
    """

    model: KinematicModel
    mass: list
    mass_inv: list
    stiffness: list
    op: DiffOpMatrix
    op_adjoint: DiffOpMatrix
    boundary: BoundaryForm

    @property
    def n(self) -> int:
        return self.op.n

    @property
    def m(self) -> int:
        return self.op.m

    @property
    def state_labels(self) -> List[str]:
        return [f"p{i + 1}" for i in range(self.n)] + [f"eps{j + 1}" for j in range(self.m)]

    def j_block_strings(self) -> List[List[str]]:
        """The (n+m) x (n+m) interconnection block as entry strings: -F* is
        rendered from the negated adjoint's symbols."""
        top = [["0"] * self.n + [str(-p) for p in row] for row in self.op_adjoint.symbols()]
        return top + [[str(p) for p in row] + ["0"] * self.m for row in self.op.symbols()]

    def summary(self) -> str:
        model = self.model
        lines = [
            f"model {model.name}: ell={model.ell}, N={model.order}, "
            f"n={self.n}, m={self.m}, d={model.d}",
            "mass matrix M:",
        ]
        lines += ["  [" + ", ".join(str(x) for x in row) + "]" for row in self.mass]
        lines.append("stiffness matrix K:")
        lines += ["  [" + ", ".join(str(x) for x in row) + "]" for row in self.stiffness]
        lines.append("interconnection block J = [[0, -F*], [F, 0]]:")
        lines += ["  [" + ", ".join(r) + "]" for r in self.j_block_strings()]
        return "\n".join(lines)


def _bounded(matrix, what: str):
    """``matrix``, unless an entry (a section moment times a parameter)
    passes the digit limit of model-file values: it could not be written out."""
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            check_digits(scalar_parts(x)[0], f"{what}[{i}][{j}]")
    return matrix


def assemble_phs(model: KinematicModel, validate: bool = True) -> PHSystem:
    """Run the compilation pipeline and attach the boundary machinery."""
    if validate:
        report = validate_model(model)
        if not report.ok:
            raise BuildError(str(report))
    mass = _bounded(mass_matrix(model), "mass matrix M")
    stiffness = _bounded(stiffness_matrix(model), "stiffness matrix K")
    return PHSystem(
        model=model,
        mass=mass,
        mass_inv=_bounded(mat_inverse(mass), "inverse mass matrix M^-1"),
        stiffness=stiffness,
        op=model.op,
        op_adjoint=model.op.formal_adjoint(),
        boundary=BoundaryForm(model.op),
    )


# ---------------------------------------------------------------------------
# Boundary ports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPortMap:
    """Concrete port matrices at one boundary point/edge with unit normal.

    u = u_matrix applied to the strain-side co-energy stack, y = the
    momentum-side stack itself; the stacks are plain co-energy vectors for
    first-order operators and jets (field plus derivatives) otherwise.  For
    the normal +-e_a, u_matrix is +-Q_a of the system's boundary form.
    """

    normal: tuple
    u_matrix: list
    u_arg_labels: List[str]
    y_labels: List[str]


def boundary_port_map(sys: PHSystem, normal) -> BoundaryPortMap:
    normal = tuple(fr(x) for x in normal)
    if len(normal) != sys.model.ell:
        raise BuildError(f"normal must have {sys.model.ell} components")
    nonzero = [i for i, x in enumerate(normal) if x != 0]
    if len(nonzero) != 1 or abs(normal[nonzero[0]]) != 1:
        raise BuildError("normal must be an axis-aligned unit vector")
    a = nonzero[0]
    # jet block (j, k) of a co-energy e is labelled "dk^j e"
    prefixes = [
        "" if not j else f"d{k} " if j == 1 else f"d{k}^{j} "
        for j, k in jet_blocks(sys.op.order, sys.model.ell)
    ]
    return BoundaryPortMap(
        normal=normal,
        u_matrix=exact.mat_scale(sys.boundary.q_axes[a], normal[a]),
        u_arg_labels=[f"{d}e_eps{j + 1}" for d in prefixes for j in range(sys.m)],
        y_labels=[f"{d}e_p{i + 1}" for d in prefixes for i in range(sys.n)],
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _matrix_json(matrix) -> list:
    return [[scalar_json(x) for x in row] for row in matrix]


def _op_json(op: DiffOpMatrix) -> dict:
    return {
        "m": op.m,
        "n": op.n,
        "axes": list(op.axes),
        "order": op.order,
        "p0": _matrix_json(op.p0),
        "terms": [
            {"axis": k, "order": i, "matrix": _matrix_json(op.pk[(k, i)])}
            for (k, i) in sorted(op.pk)
        ],
    }


def export_system(sys: PHSystem) -> dict:
    """JSON-ready dict; rationals appear as [num, den] (plus a pi power when
    a circular section is involved), boundary blocks keyed by the normal
    component n1, n2, ... they multiply."""
    model = sys.model
    return {
        "format": "phs-forge-system",
        "version": 1,
        "model": {
            "name": model.name,
            "ell": model.ell,
            "order": model.order,
            "n": sys.n,
            "m": sys.m,
            "d": model.d,
            "r_names": list(model.r_names),
            "params": {k: scalar_json(v) for k, v in sorted(model.params.items())},
        },
        "coords": {"distributed": list(model.dist), "complementary": list(model.comp)},
        "domain": {
            "axes": list(model.domain.axes),
            "bounds": [[scalar_json(lo), scalar_json(hi)] for lo, hi in model.domain.bounds],
        },
        "section": model.section.descriptor(),
        "mass": _matrix_json(sys.mass),
        "mass_inverse": _matrix_json(sys.mass_inv),
        "stiffness": _matrix_json(sys.stiffness),
        "operator": _op_json(sys.op),
        "adjoint": _op_json(sys.op_adjoint),
        "boundary": {
            "p_partial": {
                f"n{k}": _matrix_json(exact.transpose(sys.op.coeff(k, 1)))
                for k in range(1, model.ell + 1)
            },
            "q_partial": {
                f"n{k + 1}": _matrix_json(mat_) for k, mat_ in enumerate(sys.boundary.q_axes)
            },
            "q_shape": [sys.boundary.rows, sys.boundary.cols],
        },
        "state_labels": sys.state_labels,
        "co_energy": {"e_p": "mass_inverse @ p", "e_eps": "stiffness @ eps"},
    }


def float_matrix(matrix, what: str) -> List[List[float]]:
    """``matrix`` as floats; ValueError naming the entry (``what[i][j]``)
    when one lies past the float range."""
    return [[to_float(x, f"{what}[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(matrix)]


def write_matrix_csv(path: str, matrix) -> None:
    """Float rendering with fixed formatting so artifacts are byte-stable; an
    entry past the float range is refused before the file is opened."""
    rows = float_matrix(matrix, "matrix")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([format(x, ".17g") for x in row] for row in rows)
