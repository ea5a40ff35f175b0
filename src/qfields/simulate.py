"""Seeded, reproducible sampling of the stationary chains.

Each chain owns a counter-based stream (Philox keyed by master seed and
chain id), so ensemble content is a pure function of
(master_seed, n_chains, n_steps, sampler).  Chains start from a stationary
draw through the law's inverse-CDF map, then advance by their case's step
rule: the Gaussian AR(1) recursion, a sign flip for the two sign chains, and
for the compact continuous case per-state inverse-CDF tables on a cosine
grid of conditioning states, interpolated cubically across states.  That
step keeps to IEEE +, -, *, / and clamps, ``searchsorted`` and ``take``, so
its bytes do not depend on the array layout, the chain count or the CPU.

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
                     TwoPointChain, mehler_kernel, mehler_sum)
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
    block of _BLOCK_CELLS theta-cells at a time (see _cell_masses).
    """

    y_nodes: np.ndarray
    quantiles: np.ndarray
    support_radius: float
    stencil_y: np.ndarray
    stencil_den: np.ndarray
    cells: np.ndarray
    start: np.ndarray


@dataclass(frozen=True)
class Ensemble:
    """Deterministic ensemble of chains; row i is chain id i."""

    master_seed: int
    values: np.ndarray  # shape (n_chains, n_steps)

    @property
    def n_chains(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    def chains(self):
        for cid in range(self.n_chains):
            yield cid, self.values[cid]


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


# conditioning-state grid / dense-uniform-grid sizes for the conditional tables
_N_Y = 65
_N_CELLS = 1024
_N_U = 4097
_CELL_NODES = 8
# theta-cells whose kernel values the table build holds at once
_BLOCK_CELLS = 128
# the four stencil rows, and for each row a the other three in increasing order
_STENCIL_ROWS = np.arange(4)
_STENCIL_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _cell_masses(k: MehlerQ, y_nodes: np.ndarray, theta_edges: np.ndarray) -> np.ndarray:
    """The mass of f(.|y) in each theta-cell, shape (_N_CELLS, _N_Y): Gauss-Legendre
    over _CELL_NODES nodes per cell, the kernel evaluated _BLOCK_CELLS cells at a
    time, and each product rounded as over the whole grid at once."""
    nodes, wts = (a.ravel() for a in theta_cells(theta_edges, _CELL_NODES))
    x_nodes = theta_to_x(k.law, nodes)
    wt = theta_weight(k.law, nodes)  # marginal weight in theta
    cells = np.empty((_N_CELLS, _N_Y))
    for c in range(0, _N_CELLS, _BLOCK_CELLS):
        at = slice(c * _CELL_NODES, (c + _BLOCK_CELLS) * _CELL_NODES)
        ker = mehler_sum(k, x_nodes[at], y_nodes)  # (_BLOCK_CELLS * _CELL_NODES, _N_Y)
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
    cells = _cell_masses(k, y_nodes, theta_edges)
    F = np.vstack([np.zeros(_N_Y), np.cumsum(cells, axis=0)])
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
            quant[j] = interp(u_grid)
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
    return Ensemble(master_seed=master_seed, values=vals)


_HEADER = "chain,t,x\n"


def write_csv(e: Ensemble, sink) -> None:
    """Write `chain,t,x` rows in (chain, t) order with 17 significant digits."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="") as fh:
            write_csv(e, fh)
        return
    sink.write(_HEADER)
    _write_rows(sink, range(e.n_chains), e.values)


def _write_rows(fh: io.TextIOBase, ids: range, values: np.ndarray) -> None:
    # one %-format per chain: "" + cid + ",0,%.17g\n" + cid + ",1,%.17g\n" + ...
    rows = [""] + [f",{t},%.17g\n" for t in range(values.shape[1])]
    for cid, row in zip(ids, values):
        fh.write(str(cid).join(rows) % tuple(row.tolist()))


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
    n_blocks = min(n_chains, _fork_count())
    edges = [n_chains * i // n_blocks for i in range(n_blocks + 1)]
    blocks = [range(a, b) for a, b in zip(edges, edges[1:])]
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
    """Read the write_csv format back into an ensemble (seed unknown: 0).

    Rows must come in (chain, t) order: chain ids 0..k-1, and within each
    chain t = 0..n-1.  A path to a regular file is parsed by NumPy's chunked
    reader, which it uses for a path only; anything else (a pipe, a device, an
    open text stream) is parsed through its line iterator.
    """
    (values,), _, _ = _read_blocks(source, lambda v: v, 1)
    values.setflags(write=False)
    return Ensemble(master_seed=0, values=values)


@dataclass(frozen=True)
class _Block:
    """What one block of CSV rows tells the reader: the ``np.unique`` ids and counts
    of its chain column and whether its rows run t = 0..n-1 within each chain,
    chains in id order (``ordered``); ``fn`` of its (chains, steps) values where
    they do; or the ValueError its rows (``read_error``) or ``fn`` raised."""

    ids: np.ndarray | None = None
    counts: np.ndarray | None = None
    ordered: bool = False
    out: object = None
    read_error: ValueError | None = None
    fn_error: ValueError | None = None


def _read_blocks(source, fn: Callable[[np.ndarray], object],
                 n_blocks: int) -> tuple[list, int, int]:
    """``fn`` of the values of each block of whole chains of a write_csv file, in
    block order, and the file's (n_chains, n_steps); every check and error of the
    file is that of reading it as one block.

    A regular file at a path splits into at most n_blocks blocks (see
    _chain_bounds); block 0 is read here, every other one in a forked process that
    sends back only its _Block.  The checks run in read_csv's order on the merged
    facts: a block whose rows do not parse as 3 columns has the whole file read
    again here, so the error names the row in the file; then the chain ids, the
    chain lengths and the row order; then the errors ``fn`` raised.
    """
    if not isinstance(source, (str, Path)):
        _check_header(source)
        src, bounds = source, [(0, None)]
    elif not os.path.isfile(source):  # a pipe or a device: read once, as a stream
        with open(source, "r", newline="") as fh:
            return _read_blocks(fh, fn, 1)
    else:
        with open(source, "r", newline="") as fh:
            _check_header(fh)
        src = os.fspath(source)
        bounds = _chain_bounds(src, n_blocks)
    jobs = [(f"reading the chains from line {skip + 1}",
             partial(_pickled_block, src, skip, rows, fn)) for skip, rows in bounds[1:]]
    with _forked(jobs) as done:
        blocks = [_read_block(src, *bounds[0], fn)]
        blocks += [pickle.load(tmp) for tmp in done]
    bad = [b.read_error for b in blocks if b.read_error is not None]
    if bad:
        if len(blocks) > 1:  # raise the error of the file's first bad row
            _load_rows(src, bounds[0][0], None)
        raise bad[0]
    n_chains, n_steps = _check_chains(blocks)
    for b in blocks:
        if b.fn_error is not None:
            raise b.fn_error
    return [b.out for b in blocks], n_chains, n_steps


def _check_header(fh: io.TextIOBase) -> None:
    if fh.readline().strip() != "chain,t,x":
        raise ValueError("expected header 'chain,t,x'")


def _chain_bounds(path: str, n_blocks: int) -> list[tuple[int, int | None]]:
    """Split the data lines of the CSV at path into at most n_blocks ranges of whole
    chains, each ``(skiprows, max_rows)`` for np.loadtxt(path); the last one runs to
    the end of the file.

    The file is scanned in binary, with its lines ended as np.loadtxt(path) ends
    them (universal newlines, see _Newlines); a byte that does not decode is left
    to the parse of its block to report.  A block starts at the first line past
    each n_blocks-th of the file's size whose chain field differs numerically from
    the line before ("1" and "1.0" are one chain).  skiprows counts blank lines,
    max_rows does not.
    """
    targets = [os.path.getsize(path) * i // n_blocks for i in range(1, n_blocks)]
    starts = [(1, 0)]  # (lines, rows) before the first line of each block
    with open(path, "rb") as raw:
        fh = _Newlines(raw)
        lines, rows, pos, prev = 1, 0, len(fh.readline()), None
        for target in targets:
            whole = True  # the next byte read starts a line
            while pos < target and (piece := fh.read(min(target - pos, _SCAN_BYTES))):
                pos += len(piece)
                ends, blank = _line_ends(piece, whole)
                lines, rows = lines + ends, rows + ends - blank
                whole, prev = piece.endswith(b"\n"), None
            while line := fh.readline():  # to the first line of a new chain
                pos += len(line)
                cid = _chain_id(line) if whole else None
                new = prev is not None and cid is not None and cid != prev
                if new:
                    starts.append((lines, rows))
                lines += 1
                if line != b"\n" or not whole:
                    rows += 1
                    prev = cid
                whole = True
                if new:
                    break
            else:
                break  # end of file
    return [(skip, b - a) for (skip, a), (_, b) in zip(starts, starts[1:])] + \
        [(starts[-1][0], None)]


# bytes per read of the file in the block split's scan
_SCAN_BYTES = 2 ** 18


class _Newlines:
    r"""A binary file read with universal newlines, as text mode reads it: each
    \r\n and each lone \r reads as \n.  ``read(n)`` gives the next n bytes so read
    (fewer only at the end of the file), ``readline()`` the next line."""

    def __init__(self, fh: io.BufferedReader):
        self._fh, self._buf, self._at = fh, b"", 0

    def _fill(self, n: int) -> bool:
        """Append what the next n bytes of the file read as; False at its end."""
        raw = self._fh.read(n)
        while raw.endswith(b"\r") and (more := self._fh.read(1)):  # keep a \r\n whole
            raw += more
        if b"\r" in raw:
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        self._buf, self._at = self._buf[self._at:] + raw, 0
        return bool(raw)

    def read(self, n: int) -> bytes:
        while len(self._buf) - self._at < n and self._fill(n - len(self._buf) + self._at):
            pass
        piece = self._buf[self._at:self._at + n]
        self._at += len(piece)
        return piece

    def readline(self) -> bytes:
        while (end := self._buf.find(b"\n", self._at) + 1) == 0 and self._fill(_SCAN_BYTES):
            pass
        line = self._buf[self._at:end or len(self._buf)]
        self._at += len(line)
        return line


def _line_ends(piece: bytes, whole: bool) -> tuple[int, int]:
    """The line ends in piece, and how many of them end an empty line: those right
    after another, and the first byte if whole (piece starts a line)."""
    ends = np.frombuffer(piece, np.uint8) == ord("\n")
    blank = np.count_nonzero(ends[1:] & ends[:-1]) + int(whole and ends[0])
    return int(np.count_nonzero(ends)), int(blank)


def _chain_id(line: bytes) -> float | None:
    try:
        return float(line.partition(b",")[0])
    except ValueError:
        return None


def _pickled_block(src: str, skip: int, rows: int | None, fn, tmp: io.TextIOBase) -> None:
    pickle.dump(_read_block(src, skip, rows, fn), tmp.buffer)


def _read_block(src, skip: int, rows: int | None, fn) -> _Block:
    """The _Block of the rows np.loadtxt reads from src after skip lines (at most
    rows of them)."""
    try:
        chain, t, x = _load_rows(src, skip, rows).T
    except ValueError as exc:
        return _Block(read_error=exc)
    ids, counts = np.unique(chain, return_counts=True)
    n = int(counts[0])
    if not (np.array_equal(chain, np.repeat(ids, n))
            and np.array_equal(t, np.tile(np.arange(n), ids.size))):
        return _Block(ids, counts)
    values = np.ascontiguousarray(x).reshape(ids.size, n)
    del chain, t, x  # the parsed rows; fn runs on the values alone
    try:
        return _Block(ids, counts, True, fn(values))
    except ValueError as exc:
        return _Block(ids, counts, True, fn_error=exc)


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


def _check_chains(blocks: list[_Block]) -> tuple[int, int]:
    """(n_chains, n_steps) of the blocks' rows taken together, or the ValueError of
    the first check they fail."""
    block_ids = np.concatenate([b.ids for b in blocks])
    ids, where = np.unique(block_ids, return_inverse=True)
    counts = np.zeros(ids.size, dtype=np.int64)
    np.add.at(counts, where, np.concatenate([b.counts for b in blocks]))
    if not np.array_equal(ids, np.arange(ids.size)):
        raise ValueError("chain ids must be contiguous from 0")
    if np.any(counts != counts[0]):
        raise ValueError("all chains must have equal length")
    # each block is ordered and the blocks hold increasing, disjoint ids
    if not (all(b.ordered for b in blocks) and np.all(np.diff(block_ids) > 0)):
        raise ValueError("rows must run t = 0..n-1 within each chain, chains in id order")
    return ids.size, int(counts[0])
