"""``verify_csv`` plans blocks of whole chains from a CSV's last row, one per
usable CPU, parses, checks and reduces each block in a process of its own, and
gates the joined columns; a file the plan does not fit is read again as one
block.  At any block count it gives the entries of
``standard_suite(read_csv(path))``, and for a malformed file the same
ValueError, naming rows in the whole file."""

import io
import os

import numpy as np
import pytest

from qfields import simulate, verify
from qfields.cli import run
from qfields.params import classify, params_from_rho_q
from qfields.simulate import SamplerConfig, make_sampler, read_csv, sample_csv, \
    sample_ensemble, write_csv

P = params_from_rho_q(0.5, 1.0)
C = classify(P)
PARAM_ARGS = ["--rho", repr(P.rho), "--A", repr(P.A), "--B", repr(P.B), "--C", repr(P.C),
              "--D", repr(P.D)]


def _rows(n_chains=6, n_steps=60) -> list[str]:
    """The lines of a write_csv file, header first, each with its newline."""
    buf = io.StringIO()
    e = sample_ensemble(make_sampler(C, SamplerConfig(rho=0.5)), n_chains, n_steps, 3)
    write_csv(e, buf)
    return buf.getvalue().splitlines(keepends=True)


def _bad_x_last_block(rows):
    rows[1 + 5 * 60 + 30] = "5,30,1.5x\n"  # data row 330 of 360
    return rows


def _short_last_chains(rows):  # chains 4 and 5 lose t = 59: ordered within their block
    return [r for r in rows if not r.startswith(("4,59,", "5,59,"))]


def _chains_swapped(rows):  # chains 2, 3 first, then 0, 1: each block ordered on its own
    return rows[:1] + rows[121:241] + rows[1:121] + rows[241:]


def _four_columns_last_block(rows):
    return rows[:241] + [r.replace("\n", ",0\n") for r in rows[241:]]


def _crlf(rows):
    return [r.replace("\n", "\r\n") for r in rows]


def _last_row(chain, t, rows):  # the last row, chain 5 at t = 59, rewritten
    return rows[:-1] + [f"{chain},{t},{rows[-1].rsplit(',', 1)[1]}"]


MALFORMED = {
    # the error cases of read_csv in tests/test_simulate.py
    "bad-header": "a,b,c\n0,0,1.0\n",
    "ragged": "chain,t,x\n0,0,1.0\n0,1,2.0\n1,0,3.0\n",
    "noncontiguous": "chain,t,x\n0,0,1.0\n2,0,3.0\n",
    "t-shuffled": "chain,t,x\n0,1,2.0\n0,0,1.0\n1,0,3.0\n1,1,4.0\n",
    "t-gap": "chain,t,x\n0,0,1.0\n0,7,2.0\n1,0,3.0\n1,1,4.0\n",
    "interleaved": "chain,t,x\n0,0,1.0\n1,0,3.0\n0,1,2.0\n1,1,4.0\n",
    "chains-out-of-order": "chain,t,x\n1,0,3.0\n1,1,4.0\n0,0,1.0\n0,1,2.0\n",
    "header-only": "chain,t,x\n",
    # defects past the first of three blocks
    "non-float-last-block": "".join(_bad_x_last_block(_rows())),
    "lengths-across-boundary": "".join(_short_last_chains(_rows())),
    "order-across-boundary": "".join(_chains_swapped(_rows())),
    "columns-last-block": "".join(_four_columns_last_block(_rows())),
    "crlf-non-float-last-block": "".join(_crlf(_bad_x_last_block(_rows()))),
    "not-utf8-last-block": "".join(_rows()).replace("5,30,", "5,30,\udcff"),
    # files whose last row plans blocks that the rows do not fill
    "extra-row-in-chain-1": "".join(_rows()[:121] + ["1,60,0.5\n"] + _rows()[121:]),
    "row-repeated-at-boundary": "".join(_rows()[:122] + _rows()[121:]),
    "last-row-repeated": "".join(_rows() + _rows()[-1:]),
    "ends-in-a-non-row": "".join(_rows()) + "end\n",
    "last-row-claims-1e18-chains": "".join(_last_row(10 ** 18, 59, _rows())),
    "last-row-claims-1e15-steps": "".join(_last_row(5, 10 ** 15 - 1, _rows())),
    "last-chain-negative": "".join(_last_row(-5, 59, _rows())),
    "last-chain-fractional": "".join(_last_row(5.5, 59, _rows())),
    # a file that reads, and a battery that refuses it
    "50-steps": "".join(_rows(n_steps=50)),
}


def _serial_error(path) -> str:
    with pytest.raises(ValueError) as exc:
        verify.standard_suite(read_csv(path), P, C)
    return str(exc.value)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_same_error_at_every_block_count(name, cpus, tmp_path, monkeypatch, capsys):
    path = tmp_path / "chains.csv"
    path.write_bytes(MALFORMED[name].encode(errors="surrogateescape"))
    expected = _serial_error(path)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    with pytest.raises(ValueError) as exc:
        verify.verify_csv(path, P, C)
    assert str(exc.value) == expected
    assert run(["verify", "--in", str(path), *PARAM_ARGS]) == 2
    assert capsys.readouterr() == ("", f"validation failure: {expected}\n")


def test_error_names_the_row_in_the_whole_file(tmp_path, monkeypatch):
    path = tmp_path / "chains.csv"
    path.write_text(MALFORMED["non-float-last-block"])
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    with pytest.raises(ValueError, match="could not convert string '1.5x' to float64 at row 330,"):
        verify.verify_csv(path, P, C)


def _one_and_one_point_zero(rows):  # chain k is written "k" up to t = 29, "k.0" after
    return rows[:1] + [r.replace(",", ".0,", 1) if int(r.split(",")[1]) >= 30 else r
                       for r in rows[1:]]


def _with_blank_lines(rows):
    return rows[:1] + ["\n"] + [r + "\n" * (i % 7 == 3) for i, r in enumerate(rows[1:])] + ["\n"]


def _mixed_endings(rows):  # \n, \r\n and \r by turns, and one blank line
    ends = ("\n", "\r\n", "\r")
    mixed = [r[:-1] + ends[i % 3] for i, r in enumerate(rows)]
    return mixed[:100] + ["\r\n"] + mixed[100:]  # row 99 ends with \n


VALID = {
    "plain": _rows(),
    "trailing-blank-lines": _rows() + ["\n", "\n"],
    "blank-line-at-block-boundary": _rows()[:121] + ["\n"] + _rows()[121:],  # block 1 of 3
    "one-and-one-point-zero": _one_and_one_point_zero(_rows()),
    "crlf": _crlf(_rows()),
    "blank-lines": _with_blank_lines(_rows()),
    "crlf-blank-lines": _crlf(_with_blank_lines(_rows())),
    "cr": [r.replace("\n", "\r") for r in _rows()],
    "mixed-endings": _mixed_endings(_rows()),
}


@pytest.mark.parametrize("name", list(VALID))
def test_blocks_of_whole_chains_give_the_serial_entries(name, tmp_path, monkeypatch):
    path = tmp_path / "chains.csv"
    path.write_bytes("".join(VALID[name]).encode())
    expected = verify.standard_suite(read_csv(path), P, C)
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        assert verify.verify_csv(path, P, C) == (expected, 6, 60)


def _counting_whole(monkeypatch) -> list:
    """Count the calls to the one-block reader, which reads the file again."""
    calls, whole = [], simulate._read_whole
    monkeypatch.setattr(simulate, "_read_whole", lambda *a: calls.append(a) or whole(*a))
    return calls


@pytest.mark.parametrize("cpus", [2, 3, 7])
@pytest.mark.parametrize("name", ["sample", "crlf", "cr", "one-and-one-point-zero"])
def test_plan_reads_the_blocks_without_a_reread(name, cpus, tmp_path, monkeypatch):
    path = tmp_path / "chains.csv"
    if name == "sample":  # sample's own CSV, written in the blocks verify reads
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        sample_csv(make_sampler(C, SamplerConfig(rho=0.5)), 6, 60, 3, path)
    else:
        path.write_bytes("".join(VALID[name]).encode())
    expected = verify.standard_suite(read_csv(path), P, C)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    calls = _counting_whole(monkeypatch)
    assert verify.verify_csv(path, P, C) == (expected, 6, 60)
    assert calls == []


def test_blank_line_in_block_0_reads_the_file_once_more(tmp_path, monkeypatch):
    path = tmp_path / "chains.csv"
    path.write_text("".join(_rows()[:30] + ["\n"] + _rows()[30:]))
    expected = verify.standard_suite(read_csv(path), P, C)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    calls = _counting_whole(monkeypatch)
    assert verify.verify_csv(path, P, C) == (expected, 6, 60)
    assert len(calls) == 1


LAYOUTS = {**{name: "".join(rows) for name, rows in VALID.items()}, **MALFORMED}
# the layouts whose plan holds at 2, 3 and 7 blocks: no blank line before the last
# row, and rows the whole read accepts; every other one is read as one block
PLANNED = {"plain", "trailing-blank-lines", "one-and-one-point-zero", "crlf", "cr", "50-steps"}


def _read(read) -> tuple:
    """What a reader gives for fn = identity: the joined values and the counts,
    or the text of its ValueError."""
    try:
        outs, n_chains, n_steps = read(lambda v: v)
    except ValueError as exc:
        return ("error", str(exc))
    return np.concatenate(outs).tolist(), n_chains, n_steps


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_plan_matches_the_whole_read(name, tmp_path):
    # CRLF, CR, blank lines, "1" and "1.0", and an undecodable byte among them
    path = tmp_path / "chains.csv"
    path.write_bytes(LAYOUTS[name].encode(errors="surrogateescape"))
    whole = _read(lambda fn: simulate._read_whole(path, fn, 1))
    # past the header line, which _read_blocks checks first, only the rows' errors
    assert (whole[0] != "error") == (name in VALID or name in ("bad-header", "50-steps"))
    assert simulate._read_planned(path, lambda v: v, 1) is None
    for n_blocks in (2, 3, 7):
        planned = simulate._read_planned(path, lambda v: v, n_blocks)
        if name in PLANNED:
            assert _read(lambda fn: planned) == whole
        else:
            assert planned is None


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_plan_from_a_cut_last_row_reads_the_file_as_one_block(name, tmp_path, monkeypatch):
    # tails of one, two, five, nine and seventeen bytes end inside the last row, or
    # hold a short last row whole
    path = tmp_path / "chains.csv"
    path.write_bytes(LAYOUTS[name].encode(errors="surrogateescape"))
    serial = _read(lambda fn: simulate._read_blocks(path, fn, 1))
    for size in (1, 2, 5, 9, 17):
        monkeypatch.setattr(simulate, "_TAIL_BYTES", size)
        assert simulate._read_planned(path, lambda v: v, 3) is None
        assert _read(lambda fn: simulate._read_blocks(path, fn, 3)) == serial


@pytest.mark.parametrize("failing,message", [
    ("child", "the process reading the chains from line"), ("parent", "disk full")])
def test_failing_block_reaps_and_cleans(failing, message, tmp_path, monkeypatch, capsys):
    path, report = tmp_path / "chains.csv", tmp_path / "report.json"
    path.write_text("".join(_rows()))
    load_rows = simulate._load_rows

    def broken(src, skip, rows):
        if (skip == 1) == (failing == "parent"):
            raise OSError("disk full")
        return load_rows(src, skip, rows)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(simulate, "_load_rows", broken)
    code = run(["verify", "--in", str(path), *PARAM_ARGS, "--report", str(report)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("i/o error: ") and message in err
    assert list(tmp_path.iterdir()) == [path]  # no report, no temporary file
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


def test_stream_source_is_one_block(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", None)  # a fork would fail here
    got = simulate._read_blocks(io.StringIO("".join(_rows())), len, simulate._fork_count())
    assert got == ([6], 6, 60)
