"""Block-major tiles and the block scan shared by the two linear recursions.

The scalar volatility recursion of ``garch`` (state_t = G_t + C_t state_{t-1})
and the delay line of the ARMA filter in ``arma`` are linear in a carried
state, and both run as a block scan (Blelloch 1990; Martin & Cundy 2018) on
one layout, with one tile policy and one pass over the block ends.

``tiles(B, n, unit)`` cuts a (B, n) batch into row blocks of
TILE_BYTES // (8 unit) rows, and each row block into time tiles of whole
``unit`` steps, about TILE_BYTES of state per buffer. The steps of a call fall
into blocks of BLOCK, counted from its first step, and a tile holds whole
blocks, laid out block-major by ``to_blocks`` as (span, K, B): one step of all
K blocks is one contiguous vector and one ufunc call. Rows are independent, so
neither the row blocks nor the tiles move a bit.

Block 0 of a call runs on from the given state; every later block, block 0 of
a later tile included, runs from a zero state. The state before each such
block then follows in sequence over the block ends,
S_k = end_{k-1} + T_{k-1} S_{k-1}, and the block's values gain resp S_k
(``add_block_starts``). Nothing is divided, so a zero or underflowing factor
needs no special case, and only the block ends pass through a Python loop.
The sums run in lag order with elementwise ufuncs: a BLAS matmul may round
differently by shape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK", "tiles", "to_blocks", "from_blocks", "add_block_starts"]

BLOCK = 64  # steps per block of the scan
TILE_BYTES = 2**20  # size of one buffer of a tile


def tiles(B: int, n: int, unit: int):
    """The (rows, steps) slices of a (B, n) batch, row block by row block, each in time order."""
    step = TILE_BYTES // (8 * unit)
    for r0 in range(0, B, step):
        rows = min(step, B - r0)
        width = unit * max(1, TILE_BYTES // (8 * unit * rows))
        for s0 in range(0, n, width):
            yield slice(r0, r0 + rows), slice(s0, min(s0 + width, n))


def to_blocks(rows, blocks):
    """blocks[i, k] = rows[:, k * span + i] for (B, w) rows and (span, K, B) blocks, 0 past step w."""
    span, K, B = blocks.shape
    full, r = divmod(rows.shape[1], span)
    blocks[:, :full] = rows[:, : full * span].reshape(B, full, span).transpose(2, 1, 0)
    if full < K:
        blocks[:r, full] = rows[:, full * span :].T
        blocks[r:, full] = 0.0


def from_blocks(blocks, rows):
    """The inverse of ``to_blocks``: rows[:, k * span + i] = blocks[i, k] up to step w."""
    span, K, B = blocks.shape
    full, r = divmod(rows.shape[1], span)
    rows[:, : full * span].reshape(B, full, span).transpose(2, 1, 0)[...] = blocks[:, :full]
    if full < K:
        rows[:, full * span :].T[...] = blocks[:r, full]


def add_block_starts(values, ends, T, resp, S):
    """Give the K blocks of ``values`` (span, K * B), which ran from a zero
    state, their starts. ``S`` (d, len(ends[0]) + 1, B) holds the state before
    the first in S[:, 0]; in block order, S[i, k + 1] = ends[i][k] + sum_j
    T[i][j][k] S[j, k] in lag order j, with ``ends[i][k]`` the (B,) end of
    block k from zero. Then block k gains sum_j resp[j] S[j, k] in lag order,
    each ``resp[j]`` broadcast against ``values`` and overwritten if it is as large."""
    d, _, B = S.shape
    S_rows, tmp = [list(Si) for Si in S], np.empty(B)
    terms = [(S_rows[i], S_rows[i][1:] if j else ends[i], T[i][j], S_rows[j]) for i in range(d) for j in range(d)]
    for k in range(len(ends[0])):  # out= positional: the keyword form costs more per call
        for acc, first, Tij, Sj in terms:
            np.add(first[k], np.multiply(Tij[k], Sj[k], tmp), acc[k + 1])
    full = [Rj.shape == values.shape for Rj in resp]  # a full-sized resp holds its product: one tile less
    tmp = None if all(full) else np.empty(values.shape)
    for Rj, Sj, own in zip(resp, S[:, : values.shape[1] // B], full):  # 2-d: a strided 3-d view would be copied
        np.add(values, np.multiply(Rj, Sj.reshape(-1), Rj if own else tmp), values)
