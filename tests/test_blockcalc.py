"""Calculus of 2x2 blocks of linear relations.

The block entries are relations, not matrices, so the familiar row/column
identities survive only partly: row-of-columns always equals
column-of-rows, the adjoint of a row is the column of the adjoints, but
the adjoint of a column only contains the row of the adjoints.  The tests
pin down both the identities and the known failure directions, plus the
non-uniqueness of block representations.
"""

import numpy as np
import pytest

from linrel.blockcalc import (
    Block2x2,
    block,
    check_adjoint_inclusion,
    check_column_adjoint,
    check_row_adjoint,
    check_row_col_duality,
    column,
    row,
)
from linrel.errors import DimensionMismatch
from linrel.extension import lift
from linrel.oracle import random_relation
from linrel.relation import (
    adjoint,
    from_operator,
    from_product,
    parts,
    relation_equal,
)
from linrel.subspace import Subspace, Verdict, complement, join, meet, oplus

from conftest import assert_relation_equal, assert_subspace_equal


def zero_zero(n1, n2):
    return from_product(Subspace.zero(n1), Subspace.zero(n2))


def full_zero(n1, n2):
    return from_product(Subspace.full(n1), Subspace.zero(n2))


def zero_full(n1, n2):
    return from_product(Subspace.zero(n1), Subspace.full(n2))


def full_full(n1, n2):
    return from_product(Subspace.full(n1), Subspace.full(n2))


class TestColumnRowParts:
    def test_column_parts(self, rng):
        a = random_relation(3, 2, rng=rng)
        b = random_relation(3, 2, rng=rng)
        col = column(a, b)
        pa, pb, pc = parts(a), parts(b), parts(col)
        assert_subspace_equal(pc.dom, meet(pa.dom, pb.dom))
        assert_subspace_equal(pc.ker, meet(pa.ker, pb.ker))
        assert_subspace_equal(pc.mul, oplus(pa.mul, pb.mul))

    def test_row_parts(self, rng):
        c = random_relation(2, 3, rng=rng)
        d = random_relation(2, 3, rng=rng)
        r = row(c, d)
        pc, pd, pr = parts(c), parts(d), parts(r)
        assert_subspace_equal(pr.dom, oplus(pc.dom, pd.dom))
        assert_subspace_equal(pr.ran, join(pc.ran, pd.ran))
        assert_subspace_equal(pr.mul, join(pc.mul, pd.mul))

    def test_block_parts(self, rng):
        entries = Block2x2(
            e11=random_relation(2, 2, rng=rng),
            e12=random_relation(2, 2, rng=rng),
            e21=random_relation(2, 2, rng=rng),
            e22=random_relation(2, 2, rng=rng),
        )
        rel = block(entries)
        p = parts(rel)
        p11, p12 = parts(entries.e11), parts(entries.e12)
        p21, p22 = parts(entries.e21), parts(entries.e22)
        assert_subspace_equal(
            p.dom, oplus(meet(p11.dom, p21.dom), meet(p12.dom, p22.dom))
        )
        assert_subspace_equal(
            p.mul, oplus(join(p11.mul, p12.mul), join(p21.mul, p22.mul))
        )

    def test_matrix_block_reduces_to_matrix(self, rng):
        blocks = [
            [rng.normal(size=(2, 2)) for _ in range(2)] for _ in range(2)
        ]
        entries = Block2x2(
            e11=from_operator(blocks[0][0]),
            e12=from_operator(blocks[0][1]),
            e21=from_operator(blocks[1][0]),
            e22=from_operator(blocks[1][1]),
        )
        mat = np.block(blocks)
        assert_relation_equal(block(entries), from_operator(mat))

    def test_shape_validation(self, rng):
        with pytest.raises(DimensionMismatch):
            column(random_relation(2, 2, rng=rng),
                   random_relation(3, 2, rng=rng))
        with pytest.raises(DimensionMismatch):
            row(random_relation(2, 2, rng=rng),
                random_relation(2, 3, rng=rng))
        with pytest.raises(DimensionMismatch):
            Block2x2(
                e11=random_relation(2, 2, rng=rng),
                e12=random_relation(3, 2, rng=rng),
                e21=random_relation(2, 2, rng=rng),
                e22=random_relation(2, 2, rng=rng),
            )


class TestDuality:
    def test_row_of_columns_is_column_of_rows(self, rng):
        for _ in range(5):
            entries = Block2x2(
                e11=random_relation(2, 2, rng=rng),
                e12=random_relation(2, 2, rng=rng),
                e21=random_relation(2, 2, rng=rng),
                e22=random_relation(2, 2, rng=rng),
            )
            assert check_row_col_duality(entries)

    def test_row_adjoint_is_column_of_adjoints(self, rng):
        res = check_row_adjoint(
            random_relation(2, 3, rng=rng), random_relation(2, 3, rng=rng)
        )
        assert res.verdict is Verdict.EQUAL and res.angle < 1e-8

    def test_column_adjoint_contains_row_of_adjoints(self, rng):
        res = check_column_adjoint(
            random_relation(3, 2, rng=rng), random_relation(3, 2, rng=rng)
        )
        assert res.verdict in (Verdict.EQUAL, Verdict.SUBSET)
        assert res.forward_angle < 1e-8

    def test_column_adjoint_collapses_to_equality_here(self):
        # in general only row(A*; B*) <= col(A; B)* holds; in finite
        # dimensions both sides have dimension
        #   h + k1 + k2 - dim A - dim B + dim(dom A + dom B)
        # so the inclusion is equality even for degenerate entries
        d = Subspace(2, np.eye(2, 1, dtype=complex))
        a = from_product(d, Subspace.zero(2))
        res = check_column_adjoint(a, a)
        assert res.verdict is Verdict.EQUAL
        rng = np.random.default_rng(11)
        for rank in (0, 1, 2, 3, 4):
            b = random_relation(2, 2, rank=rank, rng=rng)
            res = check_column_adjoint(a, b)
            assert res.verdict is Verdict.EQUAL

    def test_block_adjoint_inclusion(self, rng):
        for _ in range(5):
            entries = Block2x2(
                e11=random_relation(2, 2, rng=rng),
                e12=random_relation(2, 2, rng=rng),
                e21=random_relation(2, 2, rng=rng),
                e22=random_relation(2, 2, rng=rng),
            )
            res = check_adjoint_inclusion(entries)
            assert res.inclusion_holds


class TestLiftBlockForms:
    """The lifted extensions have explicit block representations; the
    block calculus must reproduce the same relations, including one
    non-unique pair of representations for the same relation."""

    @pytest.fixture
    def setup(self, rng):
        r = random_relation(2, 3, rng=rng)
        return r, adjoint(r), lift(r)

    def test_k_as_block(self, setup):
        r, r_star, bundle = setup
        k_block = block(
            Block2x2(
                e11=full_zero(2, 2),
                e12=r_star,
                e21=r,
                e22=full_zero(3, 3),
            )
        )
        assert_relation_equal(k_block, bundle.K)

    def test_k_second_representation(self, setup):
        # same relation, different entries: the diagonal can absorb
        # dom/mul components that the off-diagonal entries already carry
        r, r_star, bundle = setup
        p, q = parts(r), parts(r_star)
        k_block = block(
            Block2x2(
                e11=from_product(p.dom, q.mul),
                e12=r_star,
                e21=r,
                e22=from_product(q.dom, p.mul),
            )
        )
        assert_relation_equal(k_block, bundle.K)

    def test_h_as_block(self, setup):
        r, _, bundle = setup
        h_block = block(
            Block2x2(
                e11=full_zero(2, 2),
                e12=zero_zero(3, 2),
                e21=full_full(2, 3),
                e22=zero_full(3, 3),
            )
        )
        assert_relation_equal(h_block, bundle.H)

    def test_s_as_block(self, setup):
        r, _, bundle = setup
        s_block = block(
            Block2x2(
                e11=full_zero(2, 2),
                e12=zero_zero(3, 2),
                e21=r,
                e22=zero_zero(3, 3),
            )
        )
        assert_relation_equal(s_block, bundle.S)

    def test_s_star_as_block(self, setup):
        r, r_star, bundle = setup
        s_star_block = block(
            Block2x2(
                e11=full_zero(2, 2),
                e12=r_star,
                e21=full_full(2, 3),
                e22=full_full(3, 3),
            )
        )
        assert_relation_equal(s_star_block, bundle.S_star)


class TestDegenerateEntries:
    """Purely multivalued and dim-0 entries: the coefficient images have
    zero-width blocks or drop rank."""

    @pytest.fixture
    def entries(self, rng):
        mul = Subspace(3, np.linalg.qr(rng.normal(size=(3, 2)))[0] + 0j)
        return {"multivalued": from_product(Subspace.zero(2), mul),
                "dim0": zero_zero(2, 3)}

    @pytest.mark.parametrize("kind", ["multivalued", "dim0"])
    def test_row(self, rng, entries, kind):
        c, d = random_relation(2, 3, rank=4, rng=rng), entries[kind]
        r = row(c, d)
        pc, pd, pr = parts(c), parts(d), parts(r)
        # (0, k) in C and (0, -k) in D add up to the zero element
        assert r.dim == c.dim + d.dim - meet(pc.mul, pd.mul).dim
        assert_subspace_equal(pr.dom, oplus(pc.dom, Subspace.zero(2)))
        assert_subspace_equal(pr.mul, join(pc.mul, pd.mul))
        res = check_row_adjoint(c, d)
        assert res.verdict is Verdict.EQUAL and res.angle < 1e-8

    @pytest.mark.parametrize("kind", ["multivalued", "dim0"])
    def test_column(self, rng, entries, kind):
        a, b = random_relation(2, 3, rank=4, rng=rng), entries[kind]
        # dom B = {0} leaves only h = 0: col(A; B) = {0} x (mul A (+) mul B)
        mul_a, mul_b = parts(a).mul, parts(b).mul
        zero = Subspace.zero(2)
        assert_relation_equal(column(a, b), from_product(zero, oplus(mul_a, mul_b)))
        assert_relation_equal(column(b, a), from_product(zero, oplus(mul_b, mul_a)))
        res = check_column_adjoint(a, b)
        assert res.verdict is Verdict.EQUAL and res.angle < 1e-8

    def test_row_of_shared_multivalued_part_drops_rank(self, entries):
        m = entries["multivalued"]
        r = row(m, m)
        assert r.dim == 2
        assert_relation_equal(r, from_product(Subspace.zero(4), parts(m).mul))

    def test_dim0_entries_give_dim0(self):
        z = zero_zero(2, 3)
        assert row(z, z).dim == 0 and row(z, z).graph.basis.shape == (7, 0)
        assert column(z, z).dim == 0
        assert column(z, z).graph.basis.shape == (8, 0)
