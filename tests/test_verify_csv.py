"""``verify_csv`` splits a CSV into one block of whole chains per usable CPU, parses
and reduces each block in a process of its own, and gates the joined columns.  At
any block count it gives the entries of ``standard_suite(read_csv(path))``, and
for a malformed file the same ValueError, first error first, naming rows in the
whole file."""

import bisect
import io
import itertools
import os

import pytest

from qfields import simulate, verify
from qfields.cli import run
from qfields.params import classify, params_from_rho_q
from qfields.simulate import SamplerConfig, make_sampler, read_csv, sample_ensemble, write_csv

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
    assert len(simulate._chain_bounds(str(path), 3)) == 3
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
    bounds = simulate._chain_bounds(str(path), 3)
    assert len(bounds) == 3
    with open(path) as fh:  # universal newlines, as np.loadtxt reads a path
        lines = fh.read().split("\n")
    for skip, _ in bounds[1:]:  # each split starts a chain: t = 0
        assert lines[skip].split(",")[1] == "0"


def _chain_field(line: str) -> float | None:
    try:
        return float(line.partition(",")[0])
    except ValueError:
        return None


def _text_mode_bounds(path, n_blocks: int) -> list[tuple[int, int | None]]:
    """Oracle: the split as a scan in text mode makes it, each line ended by a
    universal newline and each position counted in characters.  A block starts at
    the first line, read from its start past the n-th of the file's bytes, whose
    chain field differs from that of the last non-blank line read before it."""
    with open(path, errors="surrogateescape") as fh:
        lines = fh.readlines()
    ends = list(itertools.accumulate(map(len, lines)))  # characters up to each line's end
    size = os.path.getsize(path)
    starts, nxt, prev = [(1, 0)], 1, None  # nxt: the next line read from its start
    for target in (size * i // n_blocks for i in range(1, n_blocks)):
        if ends[nxt - 1] < target:  # read on to target, then the rest of its line
            nxt, prev = bisect.bisect_left(ends, target) + 1, None
        for j in range(nxt, len(lines)):
            cid = _chain_field(lines[j])
            if prev is not None and cid is not None and cid != prev:
                starts.append((j, sum(line != "\n" for line in lines[1:j])))
                nxt, prev = j + 1, cid
                break
            if lines[j] != "\n":
                prev = cid
        else:
            break
    return [(skip, b - a) for (skip, a), (_, b) in zip(starts, starts[1:])] + \
        [(starts[-1][0], None)]


LAYOUTS = {**{name: "".join(rows) for name, rows in VALID.items()}, **MALFORMED}


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_binary_split_matches_text_mode_scan(name, tmp_path):
    # CRLF, CR, blank lines, "1" and "1.0", and an undecodable byte among them
    path = tmp_path / "chains.csv"
    path.write_bytes(LAYOUTS[name].encode(errors="surrogateescape"))
    for n_blocks in (1, 2, 3, 7):
        assert simulate._chain_bounds(str(path), n_blocks) == _text_mode_bounds(path, n_blocks)


def test_binary_split_reads_a_cr_split_between_reads(tmp_path, monkeypatch):
    # reads of one, two and five bytes split \r\n pairs between two reads
    path = tmp_path / "chains.csv"
    path.write_bytes(LAYOUTS["crlf-blank-lines"].encode())
    want = [_text_mode_bounds(path, n) for n in (2, 3, 7)]
    for size in (1, 2, 5):
        monkeypatch.setattr(simulate, "_SCAN_BYTES", size)
        assert [simulate._chain_bounds(str(path), n) for n in (2, 3, 7)] == want


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_split_across_short_reads_matches_text_mode_scan(name, tmp_path, monkeypatch):
    # reads of one, two and five characters put lone CRs, CRLF pairs, blank lines and
    # the undecodable byte across the boundaries between reads
    path = tmp_path / "chains.csv"
    path.write_bytes(LAYOUTS[name].encode(errors="surrogateescape"))
    want = [_text_mode_bounds(path, n) for n in (2, 3, 7)]
    for size in (1, 2, 5):
        monkeypatch.setattr(simulate, "_SCAN_BYTES", size)
        assert [simulate._chain_bounds(str(path), n) for n in (2, 3, 7)] == want


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
