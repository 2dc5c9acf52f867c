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
from typing import List

from . import exact
from .diffop import BoundaryForm, DiffOpMatrix, jet_blocks
from .exact import check_spd, fr, mat_inverse, scalar_json, scalar_parts, to_float
from .modelfile import check_digits
from .models import KinematicModel, ModelError, validate_model
from .poly import dot, mat_apply

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


def _section_gram(model: KinematicModel, left, weight, right):
    """Exact integral over the section of left^T * weight * right.

    ``left`` and ``right`` are PolyMatrix factors over the complementary
    coordinates, ``weight`` a rational matrix (or None for the identity).
    When ``left is right`` and ``weight`` is exactly symmetric the result is
    a Gram matrix, so each unordered pair is integrated once; an asymmetric
    weight takes the full product, where ``check_spd`` finds it.
    """
    integrate = model.section.integrate
    left_cols = left.transpose().entries
    right_cols = right.transpose().entries
    if weight is not None:
        right_cols = [mat_apply(weight, col) for col in right_cols]
    if left is not right or (weight is not None and not exact.is_symmetric(weight)):
        return [[integrate(dot(col, rcol)) for rcol in right_cols] for col in left_cols]
    gram = [[None] * len(left_cols) for _ in left_cols]
    for i, col in enumerate(left_cols):
        for j in range(i, len(right_cols)):
            gram[i][j] = gram[j][i] = integrate(dot(col, right_cols[j]))
    return gram


def mass_matrix(model: KinematicModel, require_spd: bool = True):
    """rho times the section integral of lambda1^T lambda1 (n x n, exact)."""
    m = _section_gram(model, model.lambda1, None, model.lambda1)
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
    k = _section_gram(model, model.lambda2, model.cmat, model.lambda2)
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
