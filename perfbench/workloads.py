"""Workload definitions of the qfields benchmark.

Three workloads, one closed-loop client, one operation at a time:

qgauss_roundtrip
    ``qfields sample --rho 0.5 --q 0.5 --chains 200 --steps 5000`` then
    ``qfields verify`` on its CSV.  Every pipeline layer does real work:
    cold Gauss-Legendre nodes and conditional tables in set-up, 10^6
    chain-steps through the q-Gaussian step loop, a 28 MB CSV written and
    read back, and the 57-gate standard suite.
gauss_roundtrip
    The same argv with ``--q 1`` (Gaussian AR(1)).  The CSV and the suite
    match the first workload, but the step loop is cheap and set-up builds
    no nodes and no tables, so a step-loop, kernel or table change must show
    no change here while a CSV or verify change shows its largest share.
kernel_scan
    ``classify`` -> ``make_sampler`` -> the ``kernel-check`` residuals at
    the 36 points of SCAN_RHOS x SCAN_QS.  Kernel, quadrature, measure and
    table building do all the work; there is no step loop, no CSV and no
    verify.  The q = 0.99 column fails at the time of writing and stays in,
    so that the defect shows as failed operations rather than being hidden.

BENCHMARK.json lists qgauss_roundtrip and kernel_scan.  On this class of
shared 2-CPU machine the run-to-run spread of a median needs runs of about
50 s, and the benchmark's time budget holds two workloads at that length,
not three; gauss_roundtrip stays runnable by hand with ``--workload``.

Cold start: every ``setup_s`` sample and every timed ``kernel_scan`` pass
runs in a fresh interpreter.  The ``_leggauss`` lru_cache,
``kernel._THETA_CACHE`` and ``measure._TABLE_CACHE`` make any in-process
repeat warm, which would hide the node and table generation that every
CLI invocation pays.  The round trips are CLI subprocesses and so are
cold by construction.

This module holds data only and imports nothing from qfields, so the
parent process of the benchmark never loads the package it measures.
"""

from __future__ import annotations

from dataclasses import dataclass

ROUNDTRIP_RHO = 0.5
ROUNDTRIP_CHAINS = 200
ROUNDTRIP_STEPS = 5000
DEFAULT_SEED = 42

# SHA-256 of the CSV and report bytes of the benchmark's own argv at
# DEFAULT_SEED (the byte contract); other seeds and sizes are checked for
# repeatability within a run instead.
PINNED_DIGESTS = {
    "qgauss_roundtrip": {
        "csv": "36521204298a66c06b1a578757ef00d5516559bd55c23892a2fbadfd460c4b73",
        "report": "54ca32f809175d6eb79e0fc9b5f2f793f98a69fb9ed81c3ab79fbeac9d1d2174",
    },
    "gauss_roundtrip": {
        "csv": "562202a3a61ea599a9105e7a9220e17d6a941186ee298ee8d26ca655d7883a0b",
        "report": "4b466fdf3241ae71488fd411a66fc15592c02458516a8c14739c75f8189e83ce",
    },
}

SCAN_RHOS = (-0.8, -0.3, 0.3, 0.5, 0.8, 0.95)
SCAN_QS = (-0.9, -0.5, 0.0, 0.5, 0.9, 0.99)

# Small sizes for the benchmark's self-test (``--toy``).
TOY_CHAINS = 8
TOY_STEPS = 200
TOY_SCAN = ((0.5, 0.5), (0.5, 0.99))

# Per-layer metrics a workload's own operation does not reach are timed on
# this reference point and size instead, so that every metric is a real
# measurement on every workload; the results file lists which were probed.
PROBE_RHO_Q = (0.5, 0.5)
PROBE_CHAINS = 20
PROBE_STEPS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "roundtrip" or "scan"
    points: tuple                  # (rho, q) pairs; the first one is timed by setup_s
    chains: int = 0
    steps: int = 0


def workload(name: str, toy: bool = False) -> Workload:
    """The workload called ``name``, at full or self-test size."""
    chains, steps = (TOY_CHAINS, TOY_STEPS) if toy else (ROUNDTRIP_CHAINS, ROUNDTRIP_STEPS)
    if name == "qgauss_roundtrip":
        return Workload(name, "roundtrip", ((ROUNDTRIP_RHO, 0.5),), chains, steps)
    if name == "gauss_roundtrip":
        return Workload(name, "roundtrip", ((ROUNDTRIP_RHO, 1.0),), chains, steps)
    if name == "kernel_scan":
        points = TOY_SCAN if toy else tuple((r, q) for r in SCAN_RHOS for q in SCAN_QS)
        return Workload(name, "scan", points)
    raise KeyError(f"unknown workload {name!r}")


NAMES = ("qgauss_roundtrip", "gauss_roundtrip", "kernel_scan")
