import numpy as np
import pytest

import reference
from stairfec import ff, gf2, pff


def naive_mat_mul(a, b):
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=int)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for l in range(a.shape[1]):
                acc ^= a[i, l] & b[l, j]
            out[i, j] = acc
    return out.astype(np.uint8)


def test_mat_mul_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows, inner, cols = rng.integers(1, 9, size=3)
        a = rng.integers(0, 2, (rows, inner), dtype=np.uint8)
        b = rng.integers(0, 2, (inner, cols), dtype=np.uint8)
        assert (gf2.mat_mul(a, b) == naive_mat_mul(a, b)).all()


def test_mat_mul_dimension_check():
    with pytest.raises(ValueError):
        gf2.mat_mul(gf2.zeros(2, 3), gf2.zeros(4, 2))


def test_mat_mul_large_inner_dimension_stays_exact():
    # column of ones against row of ones: inner sums reach the full width
    n = 3000
    a = np.ones((1, n), dtype=np.uint8)
    b = np.ones((n, 1), dtype=np.uint8)
    assert gf2.mat_mul(a, b)[0, 0] == n % 2


def test_invert_multiplies_back_to_identity():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 17, 40, 129):
        # random invertible matrix: start from identity, apply row ops
        a = gf2.identity(n)
        for _ in range(4 * n):
            i, j = rng.integers(0, n, 2)
            if i != j:
                a[i] ^= a[j]
        inv = gf2.invert(a)
        assert (gf2.mat_mul(a, inv) == gf2.identity(n)).all()
        assert (gf2.mat_mul(inv, a) == gf2.identity(n)).all()


@pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 130])
def test_apply_matches_mat_mul(n):
    rng = np.random.default_rng(n)
    a = rng.integers(0, 2, (n, n), dtype=np.uint8)
    op = gf2.operand(a)
    assert op.dtype == np.uint64 and op.shape == (n, -(-n // 64))
    for x in (rng.integers(0, 2, (2, 3, n), dtype=np.uint8),
              rng.integers(0, 2, n, dtype=np.uint8),
              np.zeros((4, n), dtype=np.uint8),
              np.ones((4, n), dtype=np.uint8)):
        # a @ v for every v along the last axis: x a^T, row by row
        expected = gf2.mat_mul(x.reshape(-1, n), a.T).reshape(x.shape)
        assert (gf2.apply(op, x) == expected).all()


def test_products_split_between_gathers(monkeypatch):
    # gathers of one and of seven packed columns split vectors between them
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, (130, 130), dtype=np.uint8)
    op = gf2.operand(a)
    x = rng.integers(0, 2, (5, 130), dtype=np.uint8)
    x[2] = 0
    expected = gf2.mat_mul(x, a.T)
    unit = gf2.identity(130) ^ np.triu(a, 1)
    inv = gf2.invert(unit)
    for gather in (1, 7 * op[:1].nbytes):
        monkeypatch.setattr(gf2, "_GATHER_BYTES", gather)
        assert (gf2.apply(op, x) == expected).all()
        assert (gf2.verify_inverse(unit, inv) == inv).all()
        with pytest.raises(ValueError):
            gf2.verify_inverse(unit, inv ^ gf2.identity(130))


def test_apply_dimension_check():
    with pytest.raises(ValueError):
        gf2.apply(gf2.operand(gf2.identity(3)), gf2.zeros(2, 4))
    with pytest.raises(ValueError):
        gf2.operand(gf2.zeros(2, 3))


def test_verify_inverse_rejects_wrong_inverses():
    rng = np.random.default_rng(6)
    a = gf2.identity(70)
    for _ in range(280):
        i, j = rng.integers(0, 70, 2)
        if i != j:
            a[i] ^= a[j]
    inv = gf2.invert(a)
    assert (gf2.verify_inverse(a, inv) == inv).all()
    # a 2 over a 1 in the next row of its column packs to the same bits
    i, j = np.argwhere((inv[:-1] == 0) & (inv[1:] == 1)
                       & (np.arange(69) % 8 != 7)[:, None])[0]
    not_bits = inv.copy()
    not_bits[i, j] = 2
    for bad in (inv ^ gf2.identity(70), inv[:-1], not_bits):
        with pytest.raises(ValueError):
            gf2.verify_inverse(a, bad)
    # every product bit is checked: one flipped bit fails, in every row and
    # column at a byte or 64-bit word edge of the packed columns
    edges = [0, 1, 7, 8, 62, 63, 64, 65, 69]
    flips = {(i, j) for i in edges for j in range(70)}
    flips |= {(i, j) for i in range(70) for j in edges}
    for i, j in sorted(flips):
        bad = inv.copy()
        bad[i, j] ^= 1
        with pytest.raises(ValueError):
            gf2.verify_inverse(a, bad)


def test_construction_operands_are_packed_and_read_only():
    ff_cons = ff.search_construction(8, 3, 63)
    pff_cons = pff.search_pff_construction(8, 3, 15)
    for op, inv in ((ff_cons.op_a_inv, ff.expand_ring(ff_cons.a_inv_ring)),
                    (pff_cons.op_u_inv, pff_cons.u_inv)):
        assert type(op) is np.ndarray and not op.flags.writeable
        assert (op == gf2.operand(inv)).all()
        with pytest.raises(ValueError):
            op[0, 0] = 0
    # A^-1 is kept as its ring form and the operand, not as 3 MB of bits
    assert not ff_cons.a_inv_ring.flags.writeable
    assert gf2.nbytes(ff_cons) < 1 << 20


def test_invert_singular_raises():
    a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(gf2.SingularMatrixError):
        gf2.invert(a)


# straddling the byte (8 columns) and word (64 columns) boundaries of the
# packed rows
INVERT_SIZES = [1, 7, 8, 9, 63, 64, 65, 127, 130]


def random_matrix(rng, n, density):
    return (rng.random((n, n)) < density).astype(np.uint8)


def dense_invertible(rng, n):
    while True:
        a = random_matrix(rng, n, 0.5)
        if reference.rank(a) == n:
            return a


def sparse_invertible(rng, n):
    """Rows and columns of a unit upper triangular matrix shuffled: about
    1 + n/100 ones per row."""
    upper = np.triu(rng.random((n, n)) < 0.02, 1) | np.eye(n, dtype=bool)
    return upper[rng.permutation(n)][:, rng.permutation(n)].astype(np.uint8)


def inverse_or_error(invert, a):
    try:
        return invert(a)
    except gf2.SingularMatrixError as err:
        return str(err)


def assert_inverts_like_reference(a):
    expected = inverse_or_error(reference.invert, a)
    got = inverse_or_error(gf2.invert, a)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.uint8
        assert got.shape == expected.shape and (got == expected).all()


@pytest.mark.parametrize("n", INVERT_SIZES)
def test_invert_matches_reference(n):
    rng = np.random.default_rng(100 + n)
    for a in (dense_invertible(rng, n), sparse_invertible(rng, n)):
        assert reference.rank(a) == n
        assert_inverts_like_reference(a)
    # mostly singular, sparse ones nearly always
    for density in (0.5, 0.5, 0.5, 0.01, 0.02, 0.03):
        assert_inverts_like_reference(random_matrix(rng, n, density))


@pytest.mark.parametrize("n", INVERT_SIZES)
def test_invert_reports_the_reference_column(n):
    """Column ``col`` made a sum of earlier columns of an invertible matrix
    is the first dependent one, inside a panel of eight columns, at its
    first column or in the last, partial panel."""
    rng = np.random.default_rng(200 + n)
    cols = sorted({0, 8 * (n // 16), min(n - 1, 8 * (n // 16) + 3),
                   8 * ((n - 1) // 8), n - 1})
    for base in (dense_invertible(rng, n), sparse_invertible(rng, n)):
        for col in cols:
            a = base.copy()
            a[:, col] = a[:, :col].astype(int) @ rng.integers(0, 2, col) % 2
            for invert in (reference.invert, gf2.invert):
                with pytest.raises(gf2.SingularMatrixError) as err:
                    invert(a)
                assert str(err.value) == f"rank deficiency at column {col}"


def test_rank():
    assert reference.rank(gf2.identity(5)) == 5
    assert reference.rank(gf2.zeros(3, 4)) == 0
    a = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    # third row is the sum of the first two
    assert reference.rank(a) == 2


def test_vec_unvec_exhaustive_small():
    for rows in range(1, 5):
        for cols in range(1, 5):
            q = np.arange(rows * cols, dtype=np.uint8).reshape(rows, cols) % 2
            for order in ("col", "row"):
                v = reference.vec(q, order=order)
                assert (reference.unvec(v, rows, cols, order=order) == q).all()
    # column-wise convention: v[j*rows + i] == q[i, j]
    q = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    v = reference.vec(q)
    for i in range(3):
        for j in range(2):
            assert v[j * 3 + i] == q[i, j]


def test_kron_mixed_product():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.integers(0, 2, (3, 2), dtype=np.uint8)
        b = rng.integers(0, 2, (2, 4), dtype=np.uint8)
        x = rng.integers(0, 2, (2, 1), dtype=np.uint8)
        y = rng.integers(0, 2, (4, 1), dtype=np.uint8)
        lhs = gf2.mat_mul(gf2.kron(a, b), gf2.kron(x, y))
        rhs = gf2.kron(gf2.mat_mul(a, x), gf2.mat_mul(b, y))
        assert (lhs == rhs).all()


def test_elementary_perm_shifts_and_composes():
    m = 7
    x = np.arange(m, dtype=np.uint8) % 2
    e1 = reference.elementary_perm(m, 1)
    assert (gf2.mat_mul(e1, x) == np.roll(x, -1)).all()
    for i in range(m):
        for j in range(m):
            lhs = gf2.mat_mul(reference.elementary_perm(m, i), reference.elementary_perm(m, j))
            assert (lhs == reference.elementary_perm(m, (i + j) % m)).all()
    assert (reference.elementary_perm(m, m) == gf2.identity(m)).all()


def test_block_diag():
    a = gf2.identity(2)
    b = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    d = reference.block_diag([a, b])
    assert d.shape == (4, 4)
    assert (d[:2, :2] == a).all() and (d[2:, 2:] == b).all()
    assert d[:2, 2:].sum() == 0 and d[2:, :2].sum() == 0
    with pytest.raises(ValueError):
        reference.block_diag([gf2.identity(2), gf2.identity(3)])


def test_transpose_perm_property():
    rng = np.random.default_rng(3)
    for rows, cols in [(2, 3), (4, 4), (5, 2), (1, 6)]:
        p = reference.transpose_perm(rows, cols)
        y = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        assert (gf2.mat_mul(p, reference.vec(y)) == reference.vec(y.T)).all()


def test_perm_indices_round_trip():
    rng = np.random.default_rng(4)
    idx = rng.permutation(9)
    p = reference.perm_matrix(idx)
    assert (reference.perm_indices(p) == idx).all()
    x = rng.integers(0, 2, 9, dtype=np.uint8)
    assert (gf2.mat_mul(p, x) == x[idx]).all()
    inv = gf2.invert_indices(idx)
    assert (x[idx][inv] == x).all()
    with pytest.raises(ValueError):
        reference.perm_indices(np.ones((2, 2), dtype=np.uint8))


def test_text_round_trip():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, (4, 7), dtype=np.uint8)
    assert (reference.from_text(reference.to_text(a)) == a).all()
    with pytest.raises(ValueError):
        reference.from_text("101\n10")
