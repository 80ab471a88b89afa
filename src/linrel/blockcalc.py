"""Columns, rows, and 2x2 blocks of linear relations.

Every element of a relation A is [F_A; G_A] a for its graph basis
[F_A; G_A] and a coefficient vector a, so a row or a column is the image
of the entries' coefficients under one stacked matrix.  That treats
operator graphs, non-densely-defined relations, and purely multivalued
relations uniformly, and never forms a graph complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DimensionMismatch
from .relation import LinearRelation, adjoint
from .subspace import RelateResult, Verdict, nullspace_columns, relate, span

__all__ = [
    "Block2x2",
    "column",
    "row",
    "block",
    "check_row_col_duality",
    "check_adjoint_inclusion",
    "check_row_adjoint",
    "check_column_adjoint",
]


@dataclass(frozen=True)
class Block2x2:
    """Entries e_ij : H_j -> H_i of a 2x2 block of relations."""

    e11: LinearRelation
    e12: LinearRelation
    e21: LinearRelation
    e22: LinearRelation

    def __post_init__(self) -> None:
        h1, h2 = self.e11.n1, self.e12.n1
        ok = (
            self.e21.n1 == h1
            and self.e22.n1 == h2
            and self.e11.n2 == h1
            and self.e12.n2 == h1
            and self.e21.n2 == h2
            and self.e22.n2 == h2
        )
        if not ok:
            raise DimensionMismatch("inconsistent block entry dimensions")

    @property
    def h1(self) -> int:
        return self.e11.n1

    @property
    def h2(self) -> int:
        return self.e12.n1


def column(a: LinearRelation, b: LinearRelation,
           cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """col(A; B) = {(h, (k1, k2)) : (h, k1) in A, (h, k2) in B}.

    Its elements are (F_A a, G_A a, G_B b) over the coefficient pairs with
    F_A a = F_B b.  That map is injective on the pairs, with singular
    values >= 1/sqrt(2), so orthonormalizing the image drops no pair: one
    factorization finds the pairs and one orthonormalizes their image.
    """
    if a.n1 != b.n1:
        raise DimensionMismatch(
            f"column entries need one domain space, got C^{a.n1} and C^{b.n1}"
        )
    pairs = nullspace_columns(
        np.hstack([a.domain_block, -b.domain_block]), cfg.rank_tol
    )
    image = np.vstack(
        [a.graph.basis @ pairs[: a.dim], b.range_block @ pairs[a.dim :]]
    )
    return LinearRelation(a.n1, a.n2 + b.n2, span(image, cfg=cfg))


def row(c: LinearRelation, d: LinearRelation,
        cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """(C ; D) = {((h1, h2), k1 + k2) : (h1, k1) in C, (h2, k2) in D}.

    Its elements are (F_C c, F_D d, G_C c + G_D d) over all coefficient
    pairs (c, d): the span of [[F_C, 0], [0, F_D], [G_C, G_D]], which one
    factorization orthonormalizes.
    """
    if c.n2 != d.n2:
        raise DimensionMismatch(
            f"row entries need one range space, got C^{c.n2} and C^{d.n2}"
        )
    n1 = c.n1 + d.n1
    image = np.zeros((n1 + c.n2, c.dim + d.dim), dtype=complex)
    image[: c.n1, : c.dim] = c.domain_block
    image[c.n1 : n1, c.dim :] = d.domain_block
    image[n1:, : c.dim] = c.range_block
    image[n1:, c.dim :] = d.range_block
    return LinearRelation(n1, c.n2, span(image, cfg=cfg))


def block(b: Block2x2,
          cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Block relation on H1 (+) H2: the row of the two columns."""
    return row(column(b.e11, b.e21, cfg), column(b.e12, b.e22, cfg), cfg)


def check_row_col_duality(b: Block2x2,
                          cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Row-of-columns equals column-of-rows for the same block."""
    row_of_cols = block(b, cfg)
    col_of_rows = column(row(b.e11, b.e12, cfg), row(b.e21, b.e22, cfg), cfg)
    return relate(row_of_cols.graph, col_of_rows.graph, cfg).verdict is Verdict.EQUAL


@dataclass(frozen=True)
class AdjointInclusionResult:
    """Verdict of block-of-adjoints against adjoint-of-block."""

    verdict: Verdict
    inclusion_holds: bool
    angle: float


def check_adjoint_inclusion(b: Block2x2,
                            cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                            ) -> AdjointInclusionResult:
    """Verify block(E_ji^*) is contained in (block E)^*.

    Equality holds for everywhere-defined bounded entries; in general only
    the inclusion does, and a correct implementation must never produce a
    verdict where the inclusion fails.
    """
    lhs = adjoint(block(b, cfg), cfg)
    transposed_adjoints = Block2x2(
        e11=adjoint(b.e11, cfg),
        e12=adjoint(b.e21, cfg),
        e21=adjoint(b.e12, cfg),
        e22=adjoint(b.e22, cfg),
    )
    rhs = block(transposed_adjoints, cfg)
    result = relate(rhs.graph, lhs.graph, cfg)
    holds = result.verdict in (Verdict.EQUAL, Verdict.SUBSET)
    return AdjointInclusionResult(
        verdict=result.verdict, inclusion_holds=holds, angle=result.angle
    )


def check_row_adjoint(c: LinearRelation, d: LinearRelation,
                      cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> RelateResult:
    """(C ; D)^* against col(C^*; D^*): equality is expected."""
    lhs = adjoint(row(c, d, cfg), cfg)
    rhs = column(adjoint(c, cfg), adjoint(d, cfg), cfg)
    return relate(lhs.graph, rhs.graph, cfg)


def check_column_adjoint(a: LinearRelation, b: LinearRelation,
                         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> RelateResult:
    """Row(A^*; B^*) against col(A; B)^*: inclusion is expected."""
    lhs = row(adjoint(a, cfg), adjoint(b, cfg), cfg)
    rhs = adjoint(column(a, b, cfg), cfg)
    return relate(lhs.graph, rhs.graph, cfg)
