"""
Dense GF(2) matrix arithmetic and structural operators.

Matrices are numpy uint8 arrays with entries in {0, 1}; a vector is a 1-D
array (conceptually a single-column matrix).  Products use float32 BLAS
matmuls, exact while the inner dimension stays below 2**24.  A large
constant square matrix is instead packed once by :func:`operand`, its
columns into uint64 words, and :func:`apply` multiplies by it with a gather
and XOR of the packed columns each vector selects, so a product reads at
most n*n/8 bytes (packed words as in M4RI; Albrecht, Bard & Hart, ACM
TOMS 2010).  Inversion eliminates on rows packed into uint64 words, eight
columns per pass: each pass clears one byte of columns in every row with a
single gathered XOR from a table of the 256 combinations of that byte's
pivot rows (M4RI's "method of four Russians", same reference), so the
small systems on which the construction searches of the benchmark codes
decide, 216 and 576 rows, invert in a few milliseconds.  Read-only results
of design-time searches, and the codecs that stream readers build, are kept
by :func:`memoize`, keyed by the integer arguments of the call, while the
arrays they keep alive (:func:`nbytes`) fit in ``MEMO_BYTES``.
"""

from __future__ import annotations

import functools
import inspect
import operator
import types
from collections import OrderedDict

import numpy as np

__all__ = [
    "SingularMatrixError",
    "zeros",
    "identity",
    "mat_mul",
    "operand",
    "apply",
    "invert",
    "verify_inverse",
    "kron",
    "invert_indices",
    "check_permutation",
    "freeze",
    "nbytes",
    "memoize",
    "MEMO_BYTES",
]

# Bytes of arrays that memoized results may hold together in one process;
# ff(8,3,63) holds 0.6 MiB, pff(8,3,15) 0.5 MiB, ff(10,3,183) about 18 MiB,
# and the stream codecs sc(8,3,63), ff(8,3,63) and pff(8,3,15) L=2 of the
# benchmark 2.0, 2.2 and 3.5 MiB, their constructions included.
MEMO_BYTES = 256 << 20
# (search, its integer arguments) -> (result, what it holds: {id of each
# base array: its bytes} and the ids of every object it reaches), least
# recently used first
_memo = OrderedDict()
# bytes of packed columns that one numpy call of _packed_products gathers
_GATHER_BYTES = 1 << 20


class SingularMatrixError(ValueError):
    """Raised when a matrix passed to :func:`invert` is rank deficient."""


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.uint8)


def identity(n):
    return np.eye(n, dtype=np.uint8)


def _square(a):
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    return a


def operand(a):
    """The columns of a square 0/1 matrix packed into uint64 words.

    Row j of the ``(n, ceil(n/64))`` result holds column j of ``a``, bit i
    of the column in bit i % 8 of byte i // 8 of the row; :func:`apply`
    multiplies by it.
    """
    a = _square(a)
    n = len(a)
    # byte b of column j holds rows 8b..8b+7, zero-padded to whole words;
    # built a bit plane at a time, so no temporary exceeds n*n/8 bytes
    packed = zeros(8 * -(-n // 64), n)
    for k in range(8):
        rows = a[k::8]
        packed[: len(rows)] |= rows << k
    return np.ascontiguousarray(packed.T).view(np.uint64)


def apply(op, x):
    """``a @ v`` as bits for every vector ``v`` along the last axis of ``x``,
    where ``op`` is :func:`operand` of the square matrix ``a``.

    Each product is the XOR of the packed columns that the ones of ``v``
    select; the result has the shape of ``x``.
    """
    x = np.asarray(x)
    n = op.shape[0]
    if x.shape[-1:] != (n,):
        raise ValueError(f"dimension mismatch: {n}x{n} @ {x.shape}")
    vectors = x.reshape(-1, n)
    prod = _packed_products(op, *np.divmod(np.flatnonzero(vectors), n),
                            len(vectors))
    bits = np.unpackbits(prod.view(np.uint8), axis=1, count=n,
                         bitorder="little")
    return bits.reshape(x.shape)


def _packed_products(op, vec, col, count):
    """``a @ v`` for ``count`` vectors ``v``, packed as ``op`` packs a
    column, where vector i has its ones at the entries of ``col`` at which
    ``vec`` (sorted) is i.

    Product i is the XOR of the packed columns that those ones select.  The
    selected columns are gathered for many vectors at once, up to
    ``_GATHER_BYTES``, and XORed per vector by one ``reduceat``.
    """
    prod = np.zeros((count, op.shape[1]), dtype=np.uint64)
    step = max(1, _GATHER_BYTES // max(1, op[:1].nbytes))
    for lo in range(0, len(vec), step):
        v, c = vec[lo : lo + step], col[lo : lo + step]
        starts = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1))
        # a vector split between two gathers gets its XOR in two parts
        prod[v[starts]] ^= np.bitwise_xor.reduceat(
            np.take(op, c, axis=0), starts, axis=0)
    return prod


def mat_mul(a, b):
    """Matrix (or matrix-vector) product over GF(2).

    ``a`` may be a stack of matrices along leading axes.  The float32
    matmul is exact while the inner dimension is below 2**24.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    inner_a = a.shape[-1] if a.ndim > 0 else 1
    inner_b = b.shape[0]
    if inner_a != inner_b:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    dtype = np.float32 if inner_a < 1 << 24 else np.float64
    prod = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return (prod.astype(np.int64) & 1).astype(np.uint8)


def _panel_pivots(col_bytes, r0, k):
    """``k`` rows from ``r0`` on whose bytes in ``col_bytes``, columns ``r0``
    to ``r0 + k - 1``, are independent.

    The bytes are inserted in row order into an XOR basis keyed by lowest
    set bit; if the rows run out first, the first bit that is no key is the
    first column whose leading columns are dependent.
    """
    basis, pivots = {}, []
    rows = r0 + np.flatnonzero(col_bytes[r0:])
    # about k rows usually suffice, so they are read a few at a time
    for start in range(0, len(rows), 4 * k):
        chunk = rows[start : start + 4 * k]
        for row, value in zip(chunk.tolist(), col_bytes[chunk].tolist()):
            while value and (value & -value) in basis:
                value ^= basis[value & -value]
            if value:
                basis[value & -value] = value
                pivots.append(row)
                if len(pivots) == k:
                    return pivots
    col = r0 + next(j for j in range(k) if 1 << j not in basis)
    raise SingularMatrixError(f"rank deficiency at column {col}")


def invert(a):
    """Invert a square GF(2) matrix by Gauss-Jordan elimination, eight
    columns per pass.

    ``[a | I]`` is packed by rows into uint64 words.  Each pass reduces one
    byte of columns with a table of the 2**8 combinations of its pivot rows,
    as in M4RI's "method of four Russians" (Albrecht, Bard & Hart, ACM TOMS
    2010): the table is indexed by a row's byte in those columns, so one
    gathered XOR clears the byte of every row that has a one there.  Raises
    :class:`SingularMatrixError` when the rank is deficient, naming the
    first column whose leading columns are dependent; callers that search
    over permutations treat that as "try the next candidate".
    """
    a = _square(a)
    n = a.shape[0]
    if n == 0:
        return zeros(0, 0)
    # [a | I] packed row by row, each half padded to whole words; column c
    # is bit c % 8 of byte c // 8 of its half
    half = -(-n // 64)
    packed = np.zeros((n, 2 * half), dtype=np.uint64)
    by_byte = packed.view(np.uint8)
    by_byte[:, : -(-n // 8)] = np.packbits(a, axis=1, bitorder="little")
    diag = np.arange(n)
    by_byte[diag, 8 * half + diag // 8] = 1 << (diag % 8)
    for panel in range(-(-n // 8)):
        r0 = 8 * panel
        k = min(8, n - r0)
        col_bytes = by_byte[:, panel]
        pivots = _panel_pivots(col_bytes, r0, k)
        # the words left of this panel are already zero in the pivot rows
        word = r0 // 64
        table = np.zeros((1 << k, 2 * half - word), dtype=np.uint64)
        for j, row in enumerate(pivots):
            np.bitwise_xor(table[: 1 << j], packed[row, word:],
                           out=table[1 << j : 2 << j])
        # the bytes of the combinations are a permutation of range(2**k);
        # reordered by them, table[c] is the one that clears byte c
        table = table[np.argsort(table.view(np.uint8)[:, panel % 8])]
        reduced = table[1 << np.arange(k)]
        hit = np.flatnonzero(col_bytes)
        packed[hit, word:] ^= table[col_bytes[hit]]
        # the pivot rows are zero now; the rows in their new places move
        # into the places they leave
        targets = range(r0, r0 + k)
        packed[sorted(set(pivots) - set(targets))] = \
            packed[sorted(set(targets) - set(pivots))]
        packed[r0 : r0 + k, word:] = reduced
    return np.unpackbits(by_byte[:, 8 * half :], axis=1, count=n,
                         bitorder="little")


def _is_packed_identity(prod):
    """Whether packed columns (:func:`operand`'s layout) are those of the
    identity: column j is bit j alone, padding included.  Clears the
    diagonal bits of ``prod`` on the way."""
    by_byte = prod.view(np.uint8)
    diag = np.arange(len(by_byte))
    if not (by_byte[diag, diag // 8] == 1 << diag % 8).all():
        return False
    by_byte[diag, diag // 8] = 0
    return not by_byte.any()


def verify_inverse(a, a_inv):
    """``a_inv`` as bits once ``a_inv @ a`` is the identity; ValueError if not.

    For square matrices that is the same as ``a @ a_inv`` being the
    identity.  It checks an inverse found by another route, such as a
    construction search's, without inverting again.  The product is taken
    and compared packed, one XOR of columns of ``a_inv`` per column of
    ``a`` (:func:`_packed_products`), so it costs the ones of ``a`` and
    holds n*n/8 bytes, not the n*n of an unpacked product.
    """
    a = np.asarray(a)
    a_inv = np.asarray(a_inv, dtype=np.uint8)
    # the ones of a, column by column
    rows, cols = np.nonzero(a)
    order = np.argsort(cols, kind="stable")
    if (a_inv.shape != a.shape or a_inv.max(initial=0) > 1
            or not _is_packed_identity(_packed_products(
                operand(a_inv), cols[order], rows[order], len(a)))):
        raise ValueError(f"the {a_inv.shape} inverse of a {a.shape} "
                         "matrix fails verification")
    return a_inv


def kron(a, b):
    return np.kron(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


def freeze(obj):
    """Make every array attribute of ``obj`` read-only."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def _buffers(objs):
    """The base arrays that ``objs`` hold, as {id: bytes} (see nbytes),
    and the ids of every object reached on the way, ``objs`` included."""
    buffers, seen, todo = {}, set(), list(objs)
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            buffers[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
        elif isinstance(value, dict):
            todo.extend(value.values())
        elif (hasattr(value, "__dict__") and not callable(value)
              and not isinstance(value, types.ModuleType)):
            todo.extend(vars(value).values())
    return buffers, seen


def nbytes(*objs):
    """Bytes of the arrays that ``objs`` hold together, each buffer counted
    once however many views of it there are and whichever object refers
    to it.

    The arrays are found in the attributes of each object, in the tuples,
    lists and dicts there, and likewise in the attributes of every object
    reached that way (a codec's plan, construction and component codes,
    a table cached on a code), so the count is what the objects keep alive.
    """
    return sum(_buffers(objs)[0].values())


def _kept_bytes():
    kept = {}
    for _, (buffers, _) in _memo.values():
        kept.update(buffers)
    return sum(kept.values())


def _least_recent_unheld():
    """The least recently used key of ``_memo`` whose result no more
    recently used result reaches; evicting a held one frees nothing."""
    entries = list(_memo.items())
    # the most recent result qualifies, so one is always found
    return next(key for i, (key, (value, _)) in enumerate(entries)
                if not any(id(value) in reached
                           for _, (_, (_, reached)) in entries[i + 1 :]))


def memoize(search):
    """Keep the results of ``search``, a function of integer arguments.

    The key is every argument, defaults included, cast to ``int``; the
    value is the result object itself, so it must be read-only (see
    :func:`freeze`).  Each time a result is kept, least recently used
    results are evicted until the arrays that the kept results hold
    together, :func:`nbytes` of them all, fit in ``MEMO_BYTES``.  That
    count includes what a result shares with others, once: a construction
    that a kept codec holds stays counted after its own entry is evicted,
    so eviction goes on until the memory the memo keeps alive fits.  A
    result larger than ``MEMO_BYTES`` on its own is returned but not kept,
    and a call that raises keeps nothing.  A hit makes its result the most
    recently used, and before it the kept results that it holds (the
    construction of a kept codec), by object identity, so that a
    construction is not evicted while a codec that holds it is in use.
    ``cache_clear()`` forgets this function's results.

    Each entry keeps the buffers and objects its result held when it was
    kept, so an insert walks only the new result and a hit walks nothing;
    before evicting, every kept result is walked again, since it may hold
    more by then (a syndrome table that a component code fetched from this
    memo at its first decode).  Eviction skips a result that a more
    recently used kept result reaches, since evicting it frees nothing and
    a later call would build a second copy beside the one still held.
    """
    signature = inspect.signature(search)

    @functools.wraps(search)
    def memoized(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        for name, value in bound.arguments.items():
            bound.arguments[name] = operator.index(value)
        key = (search, *bound.arguments.values())
        if key in _memo:
            result, (_, reached) = _memo[key]
            for kept in [kept for kept, (value, _) in _memo.items()
                         if id(value) in reached]:
                _memo.move_to_end(kept)
            _memo.move_to_end(key)
            return result
        result = search(*bound.args, **bound.kwargs)
        held = _buffers([result])
        if sum(held[0].values()) <= MEMO_BYTES:
            _memo[key] = result, held
            if _kept_bytes() > MEMO_BYTES:
                for kept, (value, _) in _memo.items():
                    _memo[kept] = value, _buffers([value])
                while _kept_bytes() > MEMO_BYTES:
                    del _memo[_least_recent_unheld()]
        return result

    def cache_clear():
        for key in [key for key in _memo if key[0] is search]:
            del _memo[key]

    memoized.cache_clear = cache_clear
    return memoized


def invert_indices(idx):
    """Index array of the inverse permutation."""
    idx = np.asarray(idx)
    out = np.empty_like(idx)
    out[idx] = np.arange(idx.size)
    return out


def check_permutation(idx, n):
    """``idx`` once it is an integer array that reorders range(n)."""
    idx = np.asarray(idx)
    if (idx.shape != (n,) or not np.issubdtype(idx.dtype, np.integer)
            or (np.sort(idx) != np.arange(n)).any()):
        raise ValueError(f"not a permutation of range({n})")
    return idx
