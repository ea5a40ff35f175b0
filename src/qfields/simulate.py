"""Seeded, reproducible sampling of the stationary chains.

Each chain owns a counter-based stream (Philox keyed by master seed and
chain id), so ensemble content is a pure function of
(master_seed, n_chains, n_steps, sampler).  Chains start from a stationary
draw through the law's inverse-CDF map, then advance by their case's step
rule: the Gaussian AR(1) recursion, a sign flip for the two sign chains, and
for the compact continuous case per-state inverse-CDF tables on a cosine
grid of conditioning states, interpolated cubically across states.  That
step keeps to IEEE +, -, *, / and clamps, ``searchsorted`` and ``take``, so
its bytes do not depend on the array layout, the chain count or the CPU.  The
tables it reads do depend on the CPU: the weight's ``log`` and ``exp`` and the
series coefficients' ``power`` take NumPy's AVX-512 paths where the CPU has
them, and those round some values differently from the other paths.

Memory is bounded by the output: the tables are built a block of theta-cells
at a time, and a block of chains draws its uniforms a chunk of steps at a time
from the streams it holds open, each in the order of the whole-array form.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pickle
import shutil
import signal
import tempfile
import warnings
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

from . import measure
from .kernel import (GaussianAR1, MehlerQ, ScaledTwoPointChain, TransitionKernel,
                     TwoPointChain, _mehler_rows, mehler_kernel)
from .measure import RadialLaw, pchip, theta_cells, theta_to_x, theta_weight
from .params import Classification, ExistsGaussian, ExistsQGaussian, \
    ExistsScaledTwoPoint, ExistsTwoPointSymmetric

__all__ = [
    "SamplerConfig",
    "SamplerError",
    "ChainSampler",
    "Ensemble",
    "make_sampler",
    "sample_ensemble",
    "sample_csv",
    "write_csv",
    "read_csv",
]


class SamplerError(ValueError):
    pass


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration for building a chain sampler (CLI / config-file surface)."""

    rho: float
    q: float | None = None
    b: float | None = None
    case: str | None = None
    radial: RadialLaw | None = None
    n_chains: int = 200
    n_steps: int = 5000
    seed: int = 42


@dataclass(frozen=True, eq=False)
class ConditionalTables:
    """Inverse-CDF tables of f(.|y) on a cosine grid of conditioning states.

    ``quantiles[j, i]`` is the conditional quantile at state y_nodes[j] and
    uniform level i / (_N_U - 1); lookups interpolate linearly in u on the dense
    grid and cubically (Lagrange) across the four states y_nodes[j0 + a],
    a = 0..3, of the stencil starting at row j0 = start[searchsorted(y_nodes, y)].
    The per-stencil arrays are stencil-major, with j0 on the last axis, so the
    step gathers each with one ``take`` along it into contiguous rows:

    - ``stencil_y[b, a, j0]`` is y_nodes[j0 + c], c the b-th of the three rows
      other than a in increasing order; shape (3, 4, _N_Y - 3);
    - ``stencil_den[j0, a, b]`` is the Lagrange denominator
      y_nodes[j0 + a] - y_nodes[j0 + c], shape (_N_Y - 3, 4, 3), the transpose
      of a C-contiguous (3, 4, _N_Y - 3) array laid out as ``stencil_y``;
    - ``cells[a, j0]`` is (j0 + a) * _N_U, the flat index of row j0 + a of
      ``quantiles``; shape (4, _N_Y - 3);
    - ``start[k]`` is the stencil start min(max(k - 2, 0), _N_Y - 4) for
      k = searchsorted(y_nodes, y) in 0.._N_Y.

    The quantiles come from the cell masses of f(.|y), which the build sums a
    block of _BLOCK_CELLS theta-cells at a time against one table of Q_0..Q_N at
    the states (see _cell_masses).  Row j is the inverse PCHIP of the CDF row
    F(.|y_nodes[j]), read at the levels k / (_N_U - 1): _N_U - 1 is a power of two,
    so each level is exact and the interval holding it is found by counting the
    breaks at or below it (see _on_u_grid), with the values a search would give.
    """

    y_nodes: np.ndarray
    quantiles: np.ndarray
    support_radius: float
    stencil_y: np.ndarray
    stencil_den: np.ndarray
    cells: np.ndarray
    start: np.ndarray


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Deterministic ensemble of chains; row i is chain id i."""

    values: np.ndarray  # shape (n_chains, n_steps)

    @property
    def n_chains(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ChainSampler:
    """A case's kernel with its step rule: chains start at ``kernel.law.draw``
    and advance by x_t = step(x_{t-1}, u_t).  Samplers compare by identity."""

    kernel: TransitionKernel
    step: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    conditional: ConditionalTables | None = field(default=None, repr=False)


def _flip_step(rho: float):
    stay = (1.0 + rho) / 2.0
    return lambda x, u: x * np.where(u < stay, 1.0, -1.0)


def _gaussian(c: ExistsGaussian, cfg: SamplerConfig) -> ChainSampler:
    kern = GaussianAR1(cfg.rho)
    sd = math.sqrt(1.0 - kern.rho * kern.rho)
    return ChainSampler(kern, lambda x, u: kern.rho * x + sd * kern.law.draw((u,)))


def _qgaussian(c: ExistsQGaussian, cfg: SamplerConfig) -> ChainSampler:
    kern = mehler_kernel(cfg.rho, c.q)
    tables = _build_conditional_tables(kern)
    return ChainSampler(kern, partial(_conditional_quantile, tables), tables)


def _twopoint(c: ExistsTwoPointSymmetric, cfg: SamplerConfig) -> ChainSampler:
    return ChainSampler(TwoPointChain(cfg.rho), _flip_step(cfg.rho))


def _scaled(c: ExistsScaledTwoPoint, cfg: SamplerConfig) -> ChainSampler:
    if cfg.radial is None:
        raise SamplerError("scaled two-point case requires a radial law")
    return ChainSampler(ScaledTwoPointChain(cfg.rho, cfg.radial), _flip_step(cfg.rho))


_BUILDERS = {
    ExistsGaussian: _gaussian,
    ExistsQGaussian: _qgaussian,
    ExistsTwoPointSymmetric: _twopoint,
    ExistsScaledTwoPoint: _scaled,
}


def make_sampler(c: Classification, cfg: SamplerConfig) -> ChainSampler:
    """Build the sampler matching an existence verdict.

    Rejects nonexistent / open verdicts with the reason; the scaled case
    needs a radial law in the config (a degenerate radial law at 1 recovers
    the plain two-point chain).
    """
    build = _BUILDERS.get(type(c))
    if build is None:
        why = getattr(c, "reason", None) or getattr(c, "caveat", "existence open")
        raise SamplerError(f"cannot sample {c.name}: {why}")
    return build(c, cfg)


# conditioning-state grid / dense-uniform-grid sizes for the conditional tables; the
# _N_Y states are the even columns of MehlerQ.grid_table (see _cell_masses)
_N_Y = 65
_N_CELLS = 1024
_N_U = 4097
_CELL_NODES = 8
# theta-cells whose kernel values the table build holds at once
_BLOCK_CELLS = 128
# the four stencil rows, and for each row a the other three in increasing order
_STENCIL_ROWS = np.arange(4)
_STENCIL_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _cell_masses(k: MehlerQ, theta_edges: np.ndarray) -> np.ndarray:
    """The mass of f(.|y) in each theta-cell, shape (_N_CELLS, _N_Y): Gauss-Legendre
    over _CELL_NODES nodes per cell, the kernel evaluated _BLOCK_CELLS cells at a
    time against one table of Q_0..Q_N at the states, and each product rounded as
    over the whole grid at once.  The states theta = i pi / 64 are the even columns
    of the kernel's grid table, theta = j pi / 128."""
    nodes, wts = (a.ravel() for a in theta_cells(theta_edges, _CELL_NODES))
    x_nodes = theta_to_x(k.law, nodes)
    wt = theta_weight(k.law, nodes)  # marginal weight in theta
    qy = np.ascontiguousarray(k.grid_table[:k.truncation + 1, ::2])
    cells = np.empty((_N_CELLS, _N_Y))
    for c in range(0, _N_CELLS, _BLOCK_CELLS):
        at = slice(c * _CELL_NODES, (c + _BLOCK_CELLS) * _CELL_NODES)
        ker = _mehler_rows(k, x_nodes[at], qy)  # (_BLOCK_CELLS * _CELL_NODES, _N_Y)
        np.multiply(wt[at, None], ker, out=ker)
        np.maximum(ker, 0.0, out=ker)  # clamp truncation wobble
        np.multiply(wts[at, None], ker, out=ker)
        ker.reshape(-1, _CELL_NODES, _N_Y).sum(axis=1, out=cells[c:c + _BLOCK_CELLS])
    return cells


def _build_conditional_tables(k: MehlerQ) -> ConditionalTables:
    spec = k.law
    s = measure.support(spec)[1]
    y_nodes = theta_to_x(spec, np.linspace(0.0, math.pi, _N_Y))
    theta_edges = np.linspace(0.0, math.pi, _N_CELLS + 1)
    x_edges = theta_to_x(spec, theta_edges)
    # the cell masses are not held through the row loop, where the build peaks
    F = np.vstack([np.zeros(_N_Y), np.cumsum(_cell_masses(k, theta_edges), axis=0)])
    totals = F[-1]
    if np.any(totals <= 0.0):
        raise SamplerError("conditional mass vanished while building tables")
    F /= totals
    F = np.maximum.accumulate(F, axis=0)
    F[-1] = 1.0

    u_grid = np.linspace(0.0, 1.0, _N_U)
    quant = np.empty((_N_Y, _N_U))
    for j in range(_N_Y):
        try:
            interp = pchip(*measure._strictly_increasing(F[:, j], x_edges))
        except ValueError:  # the CDF has no usable increments
            raise SamplerError(
                f"conditional tables at rho={k.rho:g}, q={k.q:g} have non-finite "
                f"slopes: series truncated at N={k.truncation}, tail_estimate "
                f"{k.tail_estimate:.3g}") from None
        with np.errstate(invalid="ignore"):  # inf * 0 at u = 0, pinned below
            quant[j] = _on_u_grid(interp, u_grid)
    quant[:, 0] = x_edges[0]
    quant[:, -1] = x_edges[-1]
    np.clip(quant, -s, s, out=quant)
    j0 = np.arange(_N_Y - 3)
    stencil_y = y_nodes[_STENCIL_OTHERS.T[:, :, None] + j0]
    den = y_nodes[_STENCIL_ROWS[:, None] + j0] - stencil_y
    return ConditionalTables(
        y_nodes=y_nodes, quantiles=quant, support_radius=s, stencil_y=stencil_y,
        stencil_den=den.T, cells=(_STENCIL_ROWS[:, None] + j0) * _N_U,
        start=np.minimum(np.maximum(np.arange(_N_Y + 1) - 2, 0), _N_Y - 4))


def _on_u_grid(interp, u_grid: np.ndarray) -> np.ndarray:
    """``interp(u_grid)``, u_grid = linspace(0, 1, _N_U), for a ``Pchip`` (or an
    interpolant with its x and c) whose breaks run from 0 to 1.  _N_U - 1 is a power
    of two, so level k is exactly k / (_N_U - 1), and x[i] <= k / (_N_U - 1) iff
    ceil((_N_U - 1) x[i]) <= k: counting those breaks finds the interval of
    ``Pchip``'s search."""
    x = interp.x
    i = np.cumsum(np.bincount(np.ceil(x * (_N_U - 1)).astype(np.intp), minlength=_N_U))
    i -= 1
    np.minimum(i, x.size - 2, out=i)
    return measure._pchip_pieces(x, interp.c, i, u_grid)


def _conditional_quantile(tables: ConditionalTables, y: np.ndarray,
                          u: np.ndarray) -> np.ndarray:
    """Vectorized x = Q(u | y): linear in u on the dense grid, cubic Lagrange
    across the four nearest conditioning states."""
    n_u = tables.quantiles.shape[1]
    pos = u * (n_u - 1)
    iu = np.minimum(np.maximum(pos.astype(np.int64), 0), n_u - 2)
    fu = pos - iu
    j0 = tables.start.take(np.searchsorted(tables.y_nodes, y))
    # Lagrange weight of each stencil row a, shape (4, n): prod over b != a of
    # (y - yn[j0+b]) / (yn[j0+a] - yn[j0+b]), factors in increasing b
    t = y - tables.stencil_y.take(j0, axis=2)
    t /= tables.stencil_den.T.take(j0, axis=2)
    w = t[0] * t[1]
    w *= t[2]
    cell = tables.cells.take(j0, axis=1) + iu
    xw = tables.quantiles.take(cell) * (1.0 - fu)
    xw += tables.quantiles.take(cell + 1) * fu
    xw *= w
    # sum in stencil order starting from 0.0 (the output bytes depend on it);
    # weights sum to 1 analytically, so renormalize against rounding
    x = (((0.0 + xw[0]) + xw[1]) + xw[2]) + xw[3]
    x /= (((0.0 + w[0]) + w[1]) + w[2]) + w[3]
    return np.minimum(np.maximum(x, -tables.support_radius), tables.support_radius)


# steps whose uniforms the step loop draws at once, for every chain of a block
_STEP_CHUNK = 256


def _uniforms(streams: list[np.random.Generator], n_draws: int) -> np.ndarray:
    """The next n_draws uniforms of each stream, one row per stream."""
    out = np.empty((len(streams), n_draws))
    for row, stream in zip(out, streams):
        stream.random(out=row)
    return out


def _check_counts(n_chains: int, n_steps: int, master_seed: int) -> None:
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    if not 0 <= master_seed < 2 ** 64:
        raise ValueError("master_seed must fit in 64 bits")


def _sample_block(s: ChainSampler, ids: range, n_steps: int, master_seed: int) -> np.ndarray:
    """The chains ids, shape (len(ids), n_steps); each chain depends only on its
    own stream, so the rows do not depend on how the ids are split."""
    law = s.kernel.law
    streams = [np.random.Generator(np.random.Philox(key=np.array([master_seed, cid], np.uint64)))
               for cid in ids]
    vals = np.empty((len(ids), n_steps))
    vals[:, 0] = law.draw(_uniforms(streams, law.n_uniforms).T)
    for t0 in range(1, n_steps, _STEP_CHUNK):  # one uniform per step from here on
        u = _uniforms(streams, min(_STEP_CHUNK, n_steps - t0))
        for i in range(u.shape[1]):
            vals[:, t0 + i] = s.step(vals[:, t0 + i - 1], u[:, i])
    return vals


def sample_ensemble(s: ChainSampler, n_chains: int, n_steps: int,
                    master_seed: int) -> Ensemble:
    """Sample the ensemble; output depends only on the arguments."""
    _check_counts(n_chains, n_steps, master_seed)
    vals = _sample_block(s, range(n_chains), n_steps, master_seed)
    vals.setflags(write=False)
    return Ensemble(values=vals)


_HEADER = "chain,t,x\n"


def write_csv(e: Ensemble, sink) -> None:
    """Write `chain,t,x` rows in (chain, t) order with 17 significant digits."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="") as fh:
            write_csv(e, fh)
        return
    sink.write(_HEADER)
    _write_rows(sink, range(e.n_chains), e.values)


# rows of one chain that _write_rows lays out at most at once
_WRITE_ROWS = 2 ** 12


def _write_rows(fh: io.TextIOBase, ids: range, values: np.ndarray) -> None:
    """Write the rows ``cid,t,x`` of the chains ids (the rows of values), each x
    the bytes of ``'%.17g' % x`` (_number_words).

    A chain is laid out in blocks of equal size, at most _WRITE_ROWS rows each,
    a block in a matrix of little-endian words, one row of words per CSV row: the
    newline that ends the row before, the chain id and a comma, then,
    right-aligned, the step and a comma, then three words of the number.  NUL
    pads each field; the text holds none, so the rows are the matrix's nonzero
    bytes less the first newline, and then one.
    """
    n_steps = values.shape[1]
    # words of the row's head: newline, chain id, comma, step, comma
    head = -(-(len(str(max(ids, default=0))) + len(str(n_steps - 1)) + 3) // 8)
    steps = []  # per block of rows: its first step, and head columns of words "t,"
    for block in _split(n_steps, -(-n_steps // _WRITE_ROWS)):
        text = "".join(f"{t:>{8 * head - 1}}," for t in block)
        steps.append((block.start, np.frombuffer(text.replace(" ", "\0").encode(), "<u8")
                       .reshape(-1, head).T.copy()))
    for cid, row in zip(ids, values):
        chain = np.frombuffer(f"\n{cid},".encode().ljust(8 * head, b"\0"), "<u8")
        for t0, cols in steps:
            fh.write(_row_text(chain, cols, row[t0:t0 + cols.shape[1]]))


def _row_text(chain: np.ndarray, cols: np.ndarray, x: np.ndarray) -> str:
    """The rows of the values x of one chain, each ending in a newline: the words
    chain (newline, chain id, comma) and the columns of words cols (step, comma)
    in front of each number, and the first newline dropped."""
    number = _number_words(x)
    words = np.empty((len(x), len(cols) + 3), "<u8")
    for j, col in enumerate(cols):
        np.bitwise_or(col, chain[j], out=words[:, j])
    words[:, len(cols):] = number.T
    text = words.view(np.uint8)
    text = text[text != 0]
    return str(text[1:], "ascii") + "\n"


_ALL_ONES = np.uint64(2 ** 64 - 1)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
# 5**k for k = 16 - e, e = -4 .. 15; each is below 2**47
_POW5 = np.array([5 ** (16 - e) for e in range(-4, 16)], np.uint64)
# what '%.17g' writes before the digits, by sign (0, 1) and decimal exponent e + 4:
# "-" for a negative, "0." and -e - 1 zeros for e < 0; as little-endian words and lengths
_LEADS = [("-" if sign else "") + ("0." + "0" * (-e - 1) if e < 0 else "")
          for sign in (0, 1) for e in range(-4, 15)]
_LEAD_WORDS = np.array([int.from_bytes(s.encode(), "little") for s in _LEADS], np.uint64)
_LEAD_BITS = np.array([8 * len(s) for s in _LEADS], np.uint64)


def _number_words(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each v in x as a column of three words, the 24 bytes of a
    little-endian text with NUL after it; shape (3, len(x)).

    For 1e-4 <= |v| < 1e15 '%.17g' writes v rounded half to even to 17 significant
    digits d0..d16, in fixed notation with trailing zeros and then a trailing dot
    stripped.  With v = m * 2**s (m < 2**53) and e the decimal exponent, those
    digits are N = round(m * 5**k * 2**(s + k)), k = 16 - e, which _rounded computes
    exactly; e starts from log10|v| and moves until 10**16 <= N < 10**17, so the
    bytes depend on integer operations alone.  Every other value (zeros,
    subnormals, infinities, NaN, and the two ends of the range) is formatted
    by '%.17g' itself.
    """
    fast, e, w = _decimal(x)
    dot = _strip_zeros(w, e)
    _insert_dot(w, e, dot)
    # then shift the digits past the lead and write it in front
    lead = (x < 0) * 19 + e + 4
    lead[~fast] = 0
    shift = _LEAD_BITS[lead]
    back = np.uint64(64) - shift
    w[2] = (w[2] << shift) | (w[1] >> back)
    w[1] = (w[1] << shift) | (w[0] >> back)
    w[0] = (w[0] << shift) | _LEAD_WORDS[lead]
    for i in np.flatnonzero(~fast):
        w[:, i] = np.frombuffer(("%.17g" % x[i]).encode().ljust(24, b"\0"), "<u8")
    return w


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which x are in the range 1e-4 <= |x| < 1e15, and for those the decimal
    exponent e and the 17 digits of N = round(|x| * 10**(16 - e)), 10**16 <= N < 10**17,
    as bytes 0..9 of three words, most significant first: d0..d7 | d8..d15 | d16."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.0  # formatted by '%.17g'; 1.0 needs no correction step
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, -4, 15, out=e)
    n = _rounded(a, e)
    off = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
    while off.size:  # the guess was one decade off, or rounding carried into the next
        e[off] += np.where(n[off] < 10 ** 16, -1, 1)
        n[off] = _rounded(a[off], e[off])
        off = off[(n[off] < 10 ** 16) | (n[off] >= 10 ** 17)]
    w = np.empty((3, len(x)), np.uint64)
    w[0] = n // np.uint64(10 ** 9)
    n -= w[0] * np.uint64(10 ** 9)
    w[1] = n // np.uint64(10)
    w[2] = n - w[1] * np.uint64(10)
    w[:2] = _digit_words(w[:2])
    return fast, e, w


def _strip_zeros(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Turn the digits of w into ASCII and NUL the trailing zeros that '%.17g'
    strips, those after both the last nonzero digit and the units digit d_e; give
    the byte of the dot that follows d_e, '.' if a fraction digit is kept, else
    NUL (and NUL at e < 0, where the lead holds the dot)."""
    # the last nonzero digit: d16, else the top nonzero byte of d8..d15, else of d0..d7.
    # A word's top nonzero byte is its float64 exponent // 8: the conversion rounds by
    # IEEE 754, and bytes of at most 9 cannot round up into the next byte
    top = (np.frexp(w[:2].astype(np.float64))[1] - 1) >> 3
    last = np.where(w[2] > 0, 16, np.where(top[1] >= 0, top[1] + 8, top[0]))
    keep = 8 * (np.maximum(last, e) + 1).astype(np.uint64)  # bits of the kept digits
    w[0] = (w[0] | _ASCII_ZEROS) & ~(_ALL_ONES << keep)  # NumPy shifts by >= 64 to 0
    w[1] = (w[1] | _ASCII_ZEROS) & ~(_ALL_ONES << np.maximum(keep, 64) - np.uint64(64))
    w[2] = (w[2] | _ASCII_ZEROS) & ~(_ALL_ONES << np.maximum(keep, 128) - np.uint64(128))
    return ((last > e) & (e >= 0)) * np.uint64(ord("."))


def _insert_dot(w: np.ndarray, e: np.ndarray, dot: np.ndarray) -> None:
    """Insert the byte dot into the text of w after the units digit d_e, before
    d0 at e < 0; the bytes after it move up by one."""
    at = 8 * np.maximum(e + 1, 0).astype(np.uint64)
    up0 = w[0] & (_ALL_ONES << at)
    up1 = w[1] & (_ALL_ONES << np.maximum(at, 64) - np.uint64(64))
    w[2] = (w[2] << 8) | (up1 >> 56)
    w[1] = (w[1] ^ up1) | (up1 << 8) | (up0 >> 56) | (dot << at - np.uint64(64))
    w[0] = (w[0] ^ up0) | (up0 << 8) | (dot << at)


def _rounded(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round(a * 10**k), k = 16 - e, half to even, exactly, for normal a > 0 and
    -4 <= e <= 15.  With a = m * 2**s (2**52 <= m < 2**53) that is
    m * 5**k * 2**(s + k): the 128-bit product m * 5**k (5**k < 2**47) from 32-bit
    halves, then one right shift by r = -(s + k), which must be 1..63."""
    bits = a.view(np.uint64)
    r = (e - (bits >> 52).view(np.int64) + 1059).astype(np.uint64)  # s = exponent - 1075
    lo32 = np.uint64(2 ** 32 - 1)
    m0, m1 = bits & lo32, ((bits >> 32) & np.uint64(2 ** 20 - 1)) | np.uint64(2 ** 20)
    p0, p1 = _POW5[e + 4] & lo32, _POW5[e + 4] >> 32
    lo = m0 * p0
    mid = m1 * p0 + m0 * p1
    hi = m1 * p1 + (mid >> 32)
    mid <<= 32
    lo += mid
    hi += lo < mid
    # add 2**(r - 1) - 1 and the bit that the shift makes the last: a tie then
    # carries only into an odd result
    bias = (np.uint64(1) << r - np.uint64(1)) - np.uint64(1) + ((lo >> r) & np.uint64(1))
    lo += bias
    hi += lo < bias
    return (hi << np.uint64(64) - r) | (lo >> r)


def _digit_words(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10**8 as the bytes of a little-endian word,
    most significant first, each byte 0..9: v splits into 4-digit halves in 32-bit
    lanes, those into 2-digit quarters in 16-bit lanes, those into digits in 8-bit
    lanes, each division a multiply and shift exact in its lane's range."""
    hi = v // np.uint64(10 ** 4)
    x = hi | ((v - hi * np.uint64(10 ** 4)) << 32)
    hi = ((x * np.uint64(10486)) >> 20) & np.uint64(0x0000007F0000007F)  # // 100
    x = hi | ((x - hi * np.uint64(100)) << 16)
    hi = ((x * np.uint64(103)) >> 10) & np.uint64(0x000F000F000F000F)  # // 10
    return hi | ((x - hi * np.uint64(10)) << 8)


def _split(n: int, n_blocks: int) -> list[range]:
    """range(n) in min(n_blocks, n) contiguous blocks, block i from n * i // n_blocks:
    the chains of sample_csv and of a read CSV's plan, the rows of _write_rows."""
    n_blocks = min(n_blocks, n)
    return [range(n * i // n_blocks, n * (i + 1) // n_blocks) for i in range(n_blocks)]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_count() -> int:
    """Blocks of sample_csv and verify_csv: one per usable CPU, or one where the
    platform cannot fork."""
    return _usable_cpus() if hasattr(os, "fork") else 1


@contextlib.contextmanager
def _forked(jobs: list[tuple[str, Callable[[io.TextIOBase], None]]], tmp_dir=None):
    """Run each ``(what, job)`` in a forked process as ``job(tmp)``, tmp an unnamed
    temporary file in tmp_dir (the system's temporary directory if None); yield an
    iterator that waits for the processes in job order and yields each one's file,
    binary and rewound.

    A job must call no BLAS: the BLAS threads a fork leaves behind are never
    there to wait on.  On any failure, here or in a process, every process is
    killed and reaped.
    """
    children: dict[int, tuple] = {}  # pid -> (what, tmp) while unreaped, in job order

    def results():
        for pid, (what, tmp) in list(children.items()):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code != 0:
                raise ChildProcessError(f"the process {what} exited with status {code}")
            tmp.buffer.seek(0)
            yield tmp.buffer

    with contextlib.ExitStack() as tmps:
        try:
            for what, job in jobs:
                tmp = tmps.enter_context(tempfile.TemporaryFile("w+", newline="", dir=tmp_dir))
                pid = os.fork()
                if pid == 0:
                    _run_child(what, job, tmp)
                children[pid] = what, tmp
            yield results()
        finally:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_child(what: str, job: Callable[[io.TextIOBase], None],
               tmp: io.TextIOBase) -> NoReturn:
    """Run one job in a forked process, which leaves only here."""
    code = 1
    try:
        job(tmp)
        tmp.flush()
        code = 0
    except BaseException as exc:
        os.write(2, f"{what}: {exc!r}\n".encode())
    finally:
        os._exit(code)


def sample_csv(s: ChainSampler, n_chains: int, n_steps: int, master_seed: int,
               path) -> None:
    """Sample the ensemble straight to a CSV file, the bytes of
    ``write_csv(sample_ensemble(...), path)``.

    The chain ids split into contiguous blocks, one per usable CPU.  Block 0
    is drawn here and written to path; every other block is drawn in a forked
    process that writes its rows to an unnamed temporary file beside path
    (in the system's temporary directory if path's is not writable, as /dev
    is for /dev/stdout), which is appended in block order.  On any failure
    every process is reaped and a partial regular file at path is removed.
    """
    _check_counts(n_chains, n_steps, master_seed)
    blocks = _split(n_chains, _fork_count())
    tmp_dir = Path(path).parent if os.access(Path(path).parent, os.W_OK) else None
    jobs = [(f"sampling chains {ids.start}..{ids.stop - 1}",
             partial(_write_block, s, ids, n_steps, master_seed)) for ids in blocks[1:]]
    with open(path, "w", newline="") as out:
        try:
            with _forked(jobs, tmp_dir) as done:
                out.write(_HEADER)
                _write_block(s, blocks[0], n_steps, master_seed, out)
                out.flush()
                for tmp in done:
                    shutil.copyfileobj(tmp, out.buffer)
        except BaseException:
            out.close()
            if os.path.isfile(path) and not os.path.islink(path):  # no device or pipe
                os.unlink(path)
            raise


def _write_block(s: ChainSampler, ids: range, n_steps: int, master_seed: int,
                 fh: io.TextIOBase) -> None:
    _write_rows(fh, ids, _sample_block(s, ids, n_steps, master_seed))


def read_csv(source) -> Ensemble:
    """Read the write_csv format back into an ensemble.

    Rows must come in (chain, t) order: chain ids 0..k-1, and within each
    chain t = 0..n-1.  A path to a regular file is parsed by NumPy's chunked
    reader, which it uses for a path only; anything else (a pipe, a device, an
    open text stream) is parsed through its line iterator, as one block.
    """
    (values,), _, _ = _read_blocks(source, lambda v: v, 1)
    values.setflags(write=False)
    return Ensemble(values=values)


def _read_blocks(source, fn: Callable[[np.ndarray], object],
                 n_blocks: int) -> tuple[list, int, int]:
    """``fn`` of the values of each block of whole chains of a write_csv file, in
    block order, and the file's (n_chains, n_steps); every check and error of the
    file is that of reading it as one block.

    A regular file at a path is read in at most n_blocks blocks if its plan fits
    it (_read_planned); otherwise, and anything else always, as one block
    (_read_whole), which gives every check and error in read_csv's order.
    """
    if not isinstance(source, (str, Path)):
        _check_header(source)
        return _read_whole(source, fn, 0)
    with open(source, "r", newline="") as fh:
        if not os.path.isfile(source):  # a pipe or a device: read once, as a stream
            return _read_blocks(fh, fn, 1)
        _check_header(fh)
    return _read_planned(source, fn, n_blocks) or _read_whole(source, fn, 1)


def _check_header(fh: io.TextIOBase) -> None:
    if fh.readline().strip() != "chain,t,x":
        raise ValueError("expected header 'chain,t,x'")


def _read_whole(src, fn: Callable[[np.ndarray], object],
                skip: int) -> tuple[list, int, int]:
    """``([fn(values)], n_chains, n_steps)`` of the rows np.loadtxt reads from src
    after skip lines, or the ValueError of the first check they fail."""
    rows = _load_rows(src, skip, None)
    ids, counts = np.unique(rows[:, 0], return_counts=True)
    if not np.array_equal(ids, np.arange(ids.size)):
        raise ValueError("chain ids must be contiguous from 0")
    if np.any(counts != counts[0]):
        raise ValueError("all chains must have equal length")
    values = _chain_values(rows, range(ids.size), int(counts[0]))
    del rows  # the parsed rows; fn runs on the values alone
    return [fn(values)], *values.shape


def _load_rows(src, skip: int, rows: int | None) -> np.ndarray:
    with warnings.catch_warnings():  # loadtxt warns on an empty body, and on blank lines
        warnings.simplefilter("ignore", UserWarning)  # that max_rows does not count
        data = np.loadtxt(src, delimiter=",", comments=None, ndmin=2, skiprows=skip,
                          max_rows=rows)
    if data.shape[0] == 0:
        raise ValueError("no data rows")
    if data.shape[1] != 3:
        raise ValueError("expected 3 columns chain,t,x")
    return data


def _chain_values(rows: np.ndarray, ids: range, n_steps: int) -> np.ndarray:
    """The x column of rows (chain, t, x) as values of shape (len(ids), n_steps); a
    ValueError unless the rows are exactly the chains ids in order, each
    t = 0..n_steps-1 (their count checked before any array of that size is made)."""
    chain, t, x = rows.T
    if not (rows.shape[0] == len(ids) * n_steps
            and np.array_equal(chain, np.repeat(ids, n_steps))
            and np.array_equal(t, np.tile(np.arange(n_steps), len(ids)))):
        raise ValueError("rows must run t = 0..n-1 within each chain, chains in id order")
    return np.ascontiguousarray(x).reshape(len(ids), n_steps)


# bytes at the end of a CSV in which _read_planned looks for its last row
_TAIL_BYTES = 2 ** 12


def _read_planned(path, fn: Callable[[np.ndarray], object],
                  n_blocks: int) -> tuple[list, int, int] | None:
    """_read_blocks' result for the CSV at path read in the blocks of its plan, block
    0 here and every other one in a forked process; None if there is no plan or
    a block is refused (_planned_block).

    The plan is a guess from the last non-blank row (chain, t): chains 0..chain,
    each t = 0..t, split as sample_csv splits them; none if that is fewer than
    two blocks, or more rows than the file has room for (a row takes at least 6
    bytes).  The block of chains a..b-1 reads the rows after line 1 + a * n_steps
    (the last one to the end of the file) and must hold exactly those chains,
    each t = 0..n_steps-1.  A blank line inside a block moves the next block's
    start back onto a row this block read, whose chain id is below the next
    block's first; so accepted blocks hold every row, once, in order.
    """
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(size - _TAIL_BYTES, 0))
        lines = [line for line in fh.read().splitlines() if line.strip()]
    try:
        n_chains, n_steps = (int(float(f)) + 1 for f in lines[-1].split(b",")[:2])
    except (IndexError, ValueError, OverflowError):  # no row, or not two finite numbers
        return None
    blocks = _split(n_chains, n_blocks)
    if len(blocks) < 2 or not 0 < 6 * n_chains * n_steps <= size:
        return None
    reads = [partial(_planned_block, path, ids, n_steps, ids is blocks[-1], fn)
             for ids in blocks]
    jobs = [(f"reading the chains from line {2 + ids.start * n_steps}", partial(_pickled, read))
            for ids, read in zip(blocks[1:], reads[1:])]
    with _forked(jobs) as done:
        outs = [reads[0]()] + [pickle.load(tmp) for tmp in done]
    if any(out is None for out in outs):
        return None
    return outs, n_chains, n_steps


def _pickled(read: Callable[[], object], tmp: io.TextIOBase) -> None:
    pickle.dump(read(), tmp.buffer)


def _planned_block(path, ids: range, n_steps: int, to_end: bool,
                   fn: Callable[[np.ndarray], object]) -> object:
    """``fn`` of the values of the chains ids, read from the rows of path after line
    1 + ids.start * n_steps (len(ids) * n_steps of them, or all to the end of the
    file if to_end); None if those rows do not parse, are not exactly the chains
    ids, each t = 0..n_steps-1, or ``fn`` raises ValueError on them."""
    skip, rows = 1 + ids.start * n_steps, None if to_end else len(ids) * n_steps
    try:
        return fn(_chain_values(_load_rows(path, skip, rows), ids, n_steps))
    except ValueError:
        return None
