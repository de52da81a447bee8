"""Block-major tiles and the one block scan of the package's linear recursions.

The volatility recursion of ``garch``, state_t = G_t + sum_j C_j(t) state_{t-j},
and the AR part of the ARMA filter in ``arma``, y_t = u_t + sum_j (-phi_j)
y_{t-j}, are linear in a carried state, and both run as ``linear_scan``, an
affine block scan (Blelloch 1990; Martin & Cundy 2018), on one layout with one
tile policy.

``tiles(B, n, m)`` cuts a (B, n) batch of a recursion of m lags into row
blocks of TILE_BYTES // (8 unit) rows, and each row block into time tiles of
whole units, about TILE_BYTES of state per buffer, with
unit = max(16, min(n, max(BLOCK, m))). The steps of a call fall into blocks
of max(BLOCK, m), counted from its first step, and a tile holds whole
blocks, laid out block-major by ``lagged_blocks`` as (L + span, K B), each
block after its L lag rows: one step of all K blocks is one contiguous vector
and one ufunc call. Rows are independent, so neither the row blocks nor the
tiles move a bit.

Block 0 of a call runs on from the given state; every later block, block 0 of
a later tile included, runs from a zero state, beside its responses R_i to a
unit state i + 1 steps before it. The states before each such block then
follow in sequence over the block ends, S_k = end_{k-1} + T_{k-1} S_{k-1} with
T the responses at the block's last steps, and the block's values gain
sum_i R_i S_k,i (``add_block_starts``). For one lag, R is the running product
of C over the block, and a constant C gives a (span, 1) R. Nothing is
divided, so a zero or underflowing factor needs no special case, and only the
block ends pass through a Python loop. The sums run in lag order with
elementwise ufuncs: a BLAS matmul may round differently by shape. Constant
coefficients (the AR filter's) give the same R for every block, so it is
computed once per call in Python floats, with the products and sums of the
per-step loop in its lag order.

Each thread keeps one workspace of three tile buffers, ``threading.local``
and so dropped when the thread ends (the workers of ``parallel.run_chunked``
outlive their call and keep theirs for the next): the block-major copy of
``lagged_blocks`` (``e`` of a GARCH tile, ``buf`` of an ARMA tile), the GARCH
state tile of ``state_tile``, and the full-width responses R of
``linear_scan`` or, for constant coefficients, the block-start products of
``add_block_starts``. A slot grows to the largest tile it has served and never
shrinks, and every later tile of every later call reuses it, so a warm
recursion allocates no tile-sized buffer of its own and faults no page in
afresh. Since a tile holds about TILE_BYTES, a thread retains at most three
tile-sized buffers plus their lag rows (the responses of a d-lag recursion
with varying coefficients take d). The GARCH and ARMA tiles share the
slots: they never run nested, and in an ARMA-GARCH call the GARCH pass ends
before the filter starts. A slot's contents last until the thread's next
tile, so nothing returned to a caller is a view of one: the final states are
copied out, and a tile's bad-step mask is read before the next tile starts.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["BLOCK", "tiles", "lagged_blocks", "state_tile", "from_blocks", "linear_scan"]

BLOCK = 64  # steps per block of the scan
TILE_BYTES = 2**20  # size of one buffer of a tile


class _Workspace(threading.local):
    """One thread's tile buffers by slot name; a thread's own set goes when it ends."""

    def __init__(self):
        self.slots = {}


_WORKSPACE = _Workspace()


def _slot(name, shape):
    """This thread's slot ``name`` as a float array of ``shape``, grown to the
    largest size it has served; its contents are whatever the last tile left."""
    size, slots = math.prod(shape), _WORKSPACE.slots
    if name not in slots or slots[name].size < size:
        slots[name] = None  # the smaller buffer goes before the larger comes
        slots[name] = np.empty(size)
    return slots[name][:size].reshape(shape)


def tiles(B: int, n: int, m: int):
    """The (rows, steps) slices of a (B, n) batch of an m-lag recursion, row
    block by row block, each in time order."""
    unit = max(16, min(n, max(BLOCK, m)))
    step = TILE_BYTES // (8 * unit)
    for r0 in range(0, B, step):
        rows = min(step, B - r0)
        width = unit * max(1, TILE_BYTES // (8 * unit * rows))
        for s0 in range(0, n, width):
            yield slice(r0, r0 + rows), slice(s0, min(s0 + width, n))


def lagged_blocks(lead, rows, span):
    """The (B, w) ``rows`` block-major as (L + span, K * B), 0 past step w: the
    column group of block k holds the L values before it, then its ``span``
    steps; the (B, L) ``lead`` holds the values before block 0. The copy is
    this thread's block slot, valid until its next tile."""
    (B, L), w = lead.shape, rows.shape[1]
    K = -(-w // span)
    out = _slot("blocks", (L + span, K, B))
    out[:L, 0] = lead.T
    full, r = divmod(w, span)
    out[L:, :full] = rows[:, : full * span].reshape(B, full, span).transpose(2, 1, 0)
    if full < K:
        out[L : L + r, full] = rows[:, full * span :].T
        out[L + r :, full] = 0.0
    out[:L, 1:] = out[span : span + L, :-1]
    return out.reshape(L + span, K * B)


def state_tile(shape):
    """This thread's state slot as a (m + span, K * B) tile beside a
    ``lagged_blocks`` copy of that shape, valid until its next tile."""
    return _slot("states", shape)


def from_blocks(blocks, rows):
    """The inverse of ``lagged_blocks`` without lag rows: rows[:, k * span + i] = blocks[i, k] up to step w."""
    span, K, B = blocks.shape
    full, r = divmod(rows.shape[1], span)
    rows[:, : full * span].reshape(B, full, span).transpose(2, 1, 0)[...] = blocks[:, :full]
    if full < K:
        rows[:, full * span :].T[...] = blocks[:r, full]


def linear_scan(lam, C, m, B, resume):
    """Run state_t = lam_t + sum_j C[j - 1][t - j] state_{t-j} in place, in lag
    order j, over the block-major tile ``lam`` (m + span, K * B): each block's
    first m rows hold the states before it, the rest its forcing. Block 0 runs
    on from the (m, B) states in lam[:m, :B] unless ``resume``; every other
    block runs from 0. Each C[j - 1] is a 2-d array over lam's rows, K * B
    wide, or all are floats (constants). Afterwards every block's first m rows
    hold its true preceding states, so span >= m when K > 1."""
    d, span, K = len(C), lam.shape[0] - m, lam.shape[1] // B
    k0 = 0 if resume else 1  # the first block that runs from 0
    carry = lam[:m, :B].copy() if resume else None
    lam[:m, k0 * B :] = 0.0
    constant = all(isinstance(Cj, float) for Cj in C)
    C_rows = [[Cj] * (m + span) if constant else list(Cj) for Cj in C]
    scan = d > 0 and k0 < K
    if scan and constant:  # R[i]: the response to a unit state i + 1 steps before a block, the same for all
        R = np.array(_constant_responses(C, m, span))[:, :, None]
    elif scan:  # ... and here on lam's rows
        Cr = [rows if k0 == 0 else list(Cj[:, k0 * B :]) for rows, Cj in zip(C_rows, C)]
        R = _slot("responses", (d, m + span, (K - k0) * B))
        R[:, :m] = np.eye(d, m)[:, ::-1, None]
        R_tmp, rest = np.empty(R.shape[2]), [(j, Cr[j - 1]) for j in range(2, d + 1)]  # the lags after the first
    R_rows = [list(Ri) for Ri in R] if scan and not constant else []
    lam_rows, tmp, terms = list(lam), np.empty(lam.shape[1]), list(enumerate(C_rows, start=1))
    for t in range(m, m + span):  # out= positional: the keyword form costs more per step
        acc = lam_rows[t]
        for j, Cj in terms:
            np.add(acc, np.multiply(Cj[t - j], lam_rows[t - j], tmp), acc)
        for Ri in R_rows:  # for d = 1, R is the running product of C over the block
            np.multiply(Cr[0][t - 1], Ri[t - 1], Ri[t])
            for j, Crj in rest:
                np.add(Ri[t], np.multiply(Crj[t - j], Ri[t - j], R_tmp), Ri[t])
    if scan:
        ends = lam.reshape(m + span, K, B)[: m + span - d - 1 : -1]  # each block's last d states, latest first
        S = np.empty((d, K - k0, B))  # the d states before each block that ran from 0, latest first
        S[:, 0] = carry[m - d :][::-1] if resume else ends[:, 0]
        T = [[_per_block(Rj[m + span - 1 - i], K - k0 - 1, B) for Rj in R] for i in range(d)]
        add_block_starts(lam[m:, k0 * B :], [list(end[k0:-1]) for end in ends], T, list(R[:, m:]), S)
    if K > 1 and m:
        lam[:m].reshape(m, K, B)[:, 1:] = lam[span : span + m].reshape(m, K, B)[:, :-1]
    if resume:
        lam[:m, :B] = carry


def _constant_responses(C, m, span):
    """R of ``linear_scan`` for the constant coefficients ``C`` as (d, m + span)
    Python floats: the per-step products and sums of its loop, in lag order."""
    d = len(C)
    R = [[float(i == m - 1 - r) for r in range(m)] for i in range(d)]  # a unit state i + 1 steps back
    for Ri in R:
        for t in range(m, m + span):
            acc = C[0] * Ri[t - 1]
            for j in range(2, d + 1):
                acc = acc + C[j - 1] * Ri[t - j]
            Ri.append(acc)
    return R


def _per_block(row, n, B):
    """The first n blocks' (B,) parts of a response row, or n times a (1,) row."""
    return [row] * n if len(row) == 1 else list(row.reshape(-1, B)[:n])


def add_block_starts(values, ends, T, resp, S):
    """Give the K blocks of ``values`` (span, K * B), which ran from a zero
    state, their starts. ``S`` (d, len(ends[0]) + 1, B) holds the state before
    the first in S[:, 0]; in block order, S[i, k + 1] = ends[i][k] + sum_j
    T[i][j][k] S[j, k] in lag order j, with ``ends[i][k]`` the (B,) end of
    block k from zero. Then block k gains sum_j resp[j] S[j, k] in lag order,
    each ``resp[j]`` broadcast against ``values`` and overwritten if it is as
    large; otherwise the products go through this thread's responses slot,
    which then must not hold ``resp``."""
    d, _, B = S.shape
    S_rows, tmp = [list(Si) for Si in S], np.empty(B)
    terms = [(S_rows[i], S_rows[i][1:] if j else ends[i], T[i][j], S_rows[j]) for i in range(d) for j in range(d)]
    for k in range(len(ends[0])):  # out= positional: the keyword form costs more per call
        for acc, first, Tij, Sj in terms:
            np.add(first[k], np.multiply(Tij[k], Sj[k], tmp), acc[k + 1])
    full = [Rj.shape == values.shape for Rj in resp]  # a full-sized resp holds its product: one tile less
    tmp = None if all(full) else _slot("responses", values.shape)
    for Rj, Sj, own in zip(resp, S[:, : values.shape[1] // B], full):  # 2-d: a strided 3-d view would be copied
        np.add(values, np.multiply(Rj, Sj.reshape(-1), Rj if own else tmp), values)
