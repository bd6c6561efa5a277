import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extremalcurves import QQ, PrimeField
from extremalcurves import linalg

import oracles

FIELDS = [PrimeField(32003), PrimeField(7), QQ]
FIELD_IDS = ["gf32003", "gf7", "qq"]
DENSITIES = [0.01, 0.05, 0.2, 0.5, 1.0]


def _nonzero(field, rnd):
    if field == QQ:
        return Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 5),
                        rnd.randint(1, 4))
    return field.random_nonzero(rnd)


def _sparse_matrix(field, rnd, nrows, ncols, density, duplicates):
    rows = [{j: _nonzero(field, rnd) for j in range(ncols)
             if rnd.random() < density} for _ in range(nrows)]
    for _ in range(duplicates if rows else 0):
        src = rnd.choice(rows)
        scale = _nonzero(field, rnd)
        rows.insert(rnd.randrange(len(rows) + 1),
                    {j: field.mul(scale, v) for j, v in src.items()})
    return rows


def _dense(field, rows, ncols):
    return [[row.get(j, field.zero) for j in range(ncols)] for row in rows]


def _oracle_nullspace(field, dense, ncols):
    reduced, pivots = oracles._rref(field, dense, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for row, pc in zip(reduced, pivots):
            vec[pc] = field.neg(row[free])
        basis.append(vec)
    return basis


def _apply(field, dense, vec):
    out = []
    for row in dense:
        acc = field.zero
        for a, b in zip(row, vec):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def _check_against_oracle(field, rows, ncols):
    before = [dict(r) for r in rows]
    reduced, pivots = linalg.rref(field, rows, ncols)
    assert rows == before                     # the input is not modified
    dense = _dense(field, rows, ncols)
    expected, expected_pivots = oracles._rref(field, dense, ncols)
    assert pivots == expected_pivots
    assert _dense(field, reduced, ncols) == expected
    for row, pc in zip(reduced, pivots):
        # only nonzero entries are stored, and the pivot is normalised
        assert all(not field.is_zero(v) for v in row.values())
        assert row[pc] == field.one

    kernel = linalg.nullspace(field, rows, ncols)
    assert kernel == _oracle_nullspace(field, dense, ncols)
    assert len(kernel) == ncols - len(pivots)
    zero = [field.zero] * len(rows)
    for vec in kernel:
        assert _apply(field, dense, vec) == zero


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_rref_and_nullspace_match_dense_reference(field, data):
    rnd = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    nrows = data.draw(st.integers(0, 14))
    ncols = data.draw(st.integers(1, 14))
    density = data.draw(st.sampled_from(DENSITIES))
    duplicates = data.draw(st.integers(0, 3))
    rows = _sparse_matrix(field, rnd, nrows, ncols, density, duplicates)
    _check_against_oracle(field, rows, ncols)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_large_sparse_systems_match_dense_reference(field, data):
    # at 1-5 % density only larger matrices have more than a few entries
    rnd = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    nrows = data.draw(st.integers(15, 35))
    ncols = data.draw(st.integers(nrows - 5, nrows + 5))
    density = data.draw(st.sampled_from(DENSITIES[:3]))
    rows = _sparse_matrix(field, rnd, nrows, ncols, density, 2)
    _check_against_oracle(field, rows, ncols)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rref_shapes(field):
    one, two = field.one, field.coerce(2)
    _check_against_oracle(field, [], 5)                   # zero rows
    _check_against_oracle(field, [{}, {}, {}], 4)         # zero matrix
    assert linalg.nullspace(field, [{}, {}], 3) == [
        [one if i == j else field.zero for j in range(3)] for i in range(3)]
    tall = [{0: one}, {1: two}, {0: one, 1: one}, {1: one}, {0: two}]
    _check_against_oracle(field, tall, 2)                 # more rows than columns
    assert linalg.rref(field, tall, 2)[1] == [0, 1]
    dup = [{0: one, 2: two}, {0: one, 2: two}, {1: one}]
    _check_against_oracle(field, dup, 3)                  # duplicate rows
    assert len(linalg.nullspace(field, dup, 3)) == 1


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rref_fill_in_and_cancellation(field):
    # an arrow matrix: the dense first row fills in every other row, and
    # the last row is the sum of the others, so it cancels to nothing
    one = field.one
    n = 6
    rows = [{j: one for j in range(n)}]
    rows += [{0: field.coerce(i + 1), i: one} for i in range(1, n - 1)]
    total = {}
    for row in rows:
        for j, v in row.items():
            total[j] = field.add(total.get(j, field.zero), v)
    rows.append({j: v for j, v in total.items() if not field.is_zero(v)})
    _check_against_oracle(field, rows, n)
    assert len(linalg.rref(field, rows, n)[1]) == n - 1


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_mat_inverse(field, data):
    rnd = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = data.draw(st.integers(1, 5))
    density = data.draw(st.sampled_from(DENSITIES[2:]))
    dense = _dense(field, _sparse_matrix(field, rnd, n, n, density, 0), n)
    identity = linalg.mat_identity(field, n)
    if oracles.rank(field, dense, n) < n:
        with pytest.raises(ValueError, match="singular"):
            linalg.mat_inverse(field, dense)
        assert not linalg.mat_is_invertible(field, dense)
        return
    inverse = linalg.mat_inverse(field, dense)
    assert linalg.mat_is_invertible(field, dense)
    columns = list(zip(*inverse))
    assert [_apply(field, dense, col) for col in columns] == identity


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_mat_inverse_singular(field):
    one, zero = field.one, field.zero
    with pytest.raises(ValueError, match="singular"):
        linalg.mat_inverse(field, [[one, one], [one, one]])
    with pytest.raises(ValueError, match="singular"):
        linalg.mat_inverse(field, [[zero, zero], [zero, zero]])
    assert linalg.mat_inverse(field, [[zero, one], [one, zero]]) == [
        [zero, one], [one, zero]]
