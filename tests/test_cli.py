import csv
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from contextlib import contextmanager, nullcontext
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsalign import (
    AlignedTuple,
    Alignment,
    ConstraintConfig,
    DataError,
    SeriesTable,
    StructuralError,
    WeightParams,
    compose_greedy,
    determine_weights_and_delta,
    generate_candidates,
)
from tsalign import cli
from tsalign.cli import BLOCK_ROWS, ingest, main, write_alignment_csv, write_table
from tsalign.consistency import ConsistencyReport
from tsalign.evaluation import GroundTruth, generate_synthetic, inject_mcar
from tsalign.tuning import DEFAULT_GRID, determine_beta, determine_theta
from conftest import (assert_same_table, benchmark_scan, check_rows_scan, csv_lines, gappy_table,
                      ingest_scan, random_table, read_alignment_scan, truth_present_scan,
                      write_alignment_scan, write_table_scan)

# row counts around the block boundaries of BLOCK_ROWS and of a quarter of it;
# the writer tests run each count at both block sizes
BLOCK_SIZES = (BLOCK_ROWS // 4, BLOCK_ROWS)
BLOCK_EDGES = (0, 1) + tuple(r for b in BLOCK_SIZES for r in (b - 1, b, b + 1, 2 * b + 1))


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# align runs through each kind of stage sequence: tuned windows, the delta
# grid, and a compose with retries under a given delta
STAGE_FLAGS = [
    ["--strategy", "expect", "--tune-theta", "--tune-beta"],
    ["--strategy", "greedy", "--theta", "3", "--beta", "1", "--tune-delta"],
    ["--strategy", "setpack", "--theta", "3", "--beta", "1", "--delta", "10"],
]


# finite timestamps whose span, 1.2e308 - -1e308, overflows a float
BIG_SPAN = "t_1,v_1,t_2,v_2\n-1e308,1,1e308,2\n-1e307,2,1.1e308,3\n0,3,1.2e308,4\n"


@pytest.fixture
def small_files(tmp_path):
    """Synthetic masked table plus its complete truth, round-tripped to disk."""
    table, truth = generate_synthetic(40, 2, 1.0, seed=21)
    masked = inject_mcar(table, 0.2, seed=22)
    data = tmp_path / "data.csv"
    truth_csv = tmp_path / "truth.csv"
    write_table(masked, str(data))
    write_table(truth.table, str(truth_csv))
    return data, truth_csv


class TestIngest:
    def test_round_trip(self, tmp_path, staggered_table):
        path = tmp_path / "t.csv"
        write_table(staggered_table, str(path))
        again = ingest(str(path))
        assert again.m == 2 and again.n == 3
        assert np.array_equal(again.timestamps, staggered_table.timestamps, equal_nan=True)
        assert np.array_equal(again.values, staggered_table.values, equal_nan=True)

    def test_table_holds_the_halves_of_one_array(self, tmp_path, staggered_table):
        path = tmp_path / "t.csv"
        write_table(staggered_table, str(path))
        table = ingest(str(path))
        assert table.timestamps.base is table.values.base
        assert table.timestamps.base.shape == (2, table.m, table.n)
        for half in (table.timestamps, table.values):
            assert half.flags.c_contiguous and not half.flags.writeable

    def test_empty_cell_becomes_missing(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n0,1.0,0,2.0\n1,,1,\n")
        table = ingest(path)
        assert not table.value_mask[0, 1]
        assert not table.value_mask[1, 1]

    def test_decreasing_timestamps_rejected_with_location(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n5,1,0,1\n3,1,1,1\n")
        with pytest.raises(DataError, match="series 1 line 3"):
            ingest(path)

    def test_decreasing_timestamp_after_blank_line_names_the_file_line(self, tmp_path):
        # the offending row is on line 4 of the file; line 3 is blank
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n0,1,5,1\n\n1,1,4,1\n")
        for read in (ingest, ingest_scan):
            with pytest.raises(DataError, match="at series 2 line 4$"):
                read(path)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "time,value\n0,1\n")
        with pytest.raises(DataError, match="header"):
            ingest(path)

    @pytest.mark.parametrize("text", ["\n", "\nt_1,v_1,t_2,v_2\n0,1,0,1\n"])
    def test_blank_first_record_is_a_bad_header(self, tmp_path, text):
        with pytest.raises(DataError, match="t.csv: header must be t_1,v_1,...,t_m,v_m"):
            ingest(write_csv(tmp_path / "t.csv", text))

    def test_ragged_row_with_line_number(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n0,1,0\n")
        with pytest.raises(DataError, match=":2"):
            ingest(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n0,abc,0,1\n")
        with pytest.raises(DataError, match="abc"):
            ingest(path)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_cell_rejected_with_line_number(self, tmp_path, token):
        path = write_csv(tmp_path / "t.csv", f"t_1,v_1,t_2,v_2\n0,1,0,1\n1,{token},1,1\n")
        with pytest.raises(DataError, match=f":3: not a finite number: '{token}'"):
            ingest(path)


# finite cells as write_table writes them and ingest reads them back: -0.0,
# subnormals and magnitudes up to 1e300
CELL_FLOATS = st.one_of(st.floats(-1e300, 1e300),
                        st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e300]))


@st.composite
def accepted_cells(draw):
    """(timestamps, values) of a table ``SeriesTable`` accepts: missing cells in
    both halves, and each series' present timestamps strictly increasing and
    at most 1e300 in magnitude, so their span is a finite float."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 8))
    ts = np.full((m, n), np.nan)
    for k in range(m):
        rows = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        ts[k, rows] = sorted(draw(st.lists(st.floats(-1e300, 1e300), min_size=len(rows),
                                           max_size=len(rows), unique=True)))
    values = draw(st.lists(st.one_of(st.just(math.nan), CELL_FLOATS),
                           min_size=m * n, max_size=m * n))
    return ts, np.array(values, dtype=float).reshape(m, n)


class TestTableRule:
    """``SeriesTable`` accepts exactly the tables a CSV can hold."""

    @settings(max_examples=80, deadline=None)
    @given(accepted_cells(), st.data())
    def test_accepted_table_reads_back_and_an_infinite_value_is_not_accepted(
            self, tmp_path_factory, cells, data):
        table = SeriesTable(*cells)
        path = str(tmp_path_factory.mktemp("rule") / "t.csv")
        write_table(table, path)
        assert_same_table(ingest(path), table)
        values = table.values.copy()
        k = data.draw(st.integers(0, table.m - 1))
        i = data.draw(st.integers(0, table.n - 1))
        values[k, i] = data.draw(st.sampled_from([math.inf, -math.inf]))
        with pytest.raises(DataError, match="present values must be finite"):
            SeriesTable(table.timestamps, values)


class TestIngestMatchesScan:
    """The column-wise ingest against the row-major scan it replaced."""

    @staticmethod
    def both(path):
        """Each ingest's table, or the message of the DataError it raised."""
        out = []
        for parse in (ingest, ingest_scan):
            try:
                out.append(parse(str(path)))
            except DataError as exc:
                out.append(str(exc))
        return out

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(0, 30))
    def test_random_tables(self, tmp_path_factory, seed, m, n):
        self.check_random_table(tmp_path_factory, seed, m, n)

    @pytest.mark.parametrize("text, message", [
        # the quoted cell of line 2 closes on line 3, so the next record is line 4
        ('"1\n",1,1,1\n2,x,2,2\n', ":4: not a number: 'x'"),
        ('"1\n",1,1,1\n\n2,1,2\n', ":5: expected 4 cells, got 3"),
        ('"1\n",1,1,1\n0,1,2,2\n', ": timestamps not strictly increasing at series 1 line 4"),
    ])
    def test_defect_after_a_quoted_multi_line_cell_names_its_file_line(
            self, tmp_path, text, message):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n" + text)
        fast, scan = self.both(path)
        assert fast == scan == path + message

    def check_random_table(self, tmp_path_factory, seed, m, n):
        path = tmp_path_factory.mktemp("ingest") / "t.csv"
        write_table(gappy_table(np.random.default_rng(seed), m, n), str(path))
        fast, scan = self.both(path)
        assert_same_table(fast, scan)

    @pytest.mark.parametrize("cells", [
        [" 1.5 ", "1_000", "+3", "5."],
        ["-0.0", "1e-310", ".5", "  "],
        ["\t2\t", "1E3", "-1_0.2_5", "0x"],
        ["", " ", "-0.0", "1e308"],
    ])
    def test_odd_tokens(self, tmp_path, cells):
        # row 2 holds the odd tokens, row 3 one more number per column
        text = "t_1,v_1,t_2,v_2\n" + ",".join(cells) + "\n9e9,0,9e9,0\n"
        path = write_csv(tmp_path / "t.csv", text)
        fast, scan = self.both(path)
        if isinstance(scan, str):
            assert fast == scan
        else:
            assert_same_table(fast, scan)

    def test_odd_tokens_read_as_python_float(self, tmp_path):
        path = write_csv(tmp_path / "t.csv",
                         "t_1,v_1,t_2,v_2\n -0.0 ,1_000,.5,1e-310\n+3,5.,  ,\n")
        table = ingest(path)
        assert str(table.timestamps[0, 0]) == "-0.0"
        assert table.values[0].tolist() == [1000.0, 5.0]
        assert table.timestamps[1, 0] == 0.5 and np.isnan(table.timestamps[1, 1])
        assert table.values[1, 0] == 1e-310 and np.isnan(table.values[1, 1])

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2,t_3,v_3\n")
        fast, scan = self.both(path)
        assert fast.timestamps.shape == (3, 0)
        assert_same_table(fast, scan)

    @pytest.mark.parametrize("text, message", [
        # not a number at line 4 column 3, inf at line 3 column 1, ragged line 6
        ("0,1,0,1\ninf,1,1,1\n2,1,x,1\n3,1,3,1\n4,1\n", ":3: not a finite number: 'inf'"),
        # a parse error before a ragged row, and a non-finite cell after it
        ("0,1,0,1\n1,1,1,abc\n2,1\n3,nan,3,1\n", ":3: not a number: 'abc'"),
        ("0,1,0,1\n1,1,1\n2,1,2,abc\n", ":3: expected 4 cells, got 3"),
        # two defects on one line: the leftmost one
        ("0,1,0,1\n1,1,zz,-inf\n", ":3: not a number: 'zz'"),
        ("0,1,0,1\n1,1,1,-inf\n2,nan,2,1\n", ":3: not a finite number: '-inf'"),
        # the first of two cells that are not numbers, not a non-finite one between them
        ("0,1,0,1\n1,abc,1,1\n2,inf,2,1\n3,xyz,3,1\n", ":3: not a number: 'abc'"),
        # a cell of blanks is missing, the next defect still reported
        ("0, ,0,1\n1,1, ,1\n2, NaN ,2,1\n", ":4: not a finite number: 'NaN'"),
        # blank records keep their place in the line count
        ("0,1,0,1\n\n\n1,1,1,oops\n", ":5: not a number: 'oops'"),
        # several decreasing timestamps, listed by series then line
        ("5,1,0,1\n3,1,1,1\n4,1,0,1\n2,1,,1\n",
         "not strictly increasing at series 1 line 3, series 1 line 5, series 2 line 4"),
        ("0,1,5,1\n\n1,1,4,1\n", "not strictly increasing at series 2 line"),
        ("1,1,0,1\n1,1,1,1\n", "not strictly increasing at series 1 line 3"),
    ])
    def test_first_defect_in_file_order(self, tmp_path, text, message):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n" + text)
        fast, scan = self.both(path)
        assert isinstance(scan, str) and message in scan
        assert fast == scan


# a cell one character over the csv module's field size limit
OVERSIZED = "9" * (csv.field_size_limit() + 1)


@pytest.fixture(scope="class")
def blocks_of_three():
    """``BLOCK_ROWS`` of 3 for a whole class, so small files cross many blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "BLOCK_ROWS", 3)
        yield


@pytest.mark.usefixtures("blocks_of_three")
class TestIngestMatchesScanInSmallBlocks(TestIngestMatchesScan):
    """The same comparisons in blocks of 3 records, plus defects at the block edges.

    The first block holds lines 2-4 of the file, the second lines 5-7.
    """

    # hypothesis runs a test method from one class only
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(0, 30))
    def test_random_tables(self, tmp_path_factory, seed, m, n):
        self.check_random_table(tmp_path_factory, seed, m, n)

    @pytest.mark.parametrize("text, message", [
        # the last row of one block and the first row of the next
        ("0,1,0,1\n1,1,1,1\n2,1\n3,x,3,1\n", ":4: expected 4 cells, got 2"),
        ("0,1,0,1\n1,1,1,1\n2,x,2,1\n3,1\n", ":4: not a number: 'x'"),
        ("0,1,0,1\n1,1,1,1\n2,inf,2,1\n3,x,3,1\n", ":4: not a finite number: 'inf'"),
        ("0,1,0,1\n1,1,1,1\n2,1,2,1\n3,1,3\n", ":5: expected 4 cells, got 3"),
        ("0,1,0,1\n1,1,1,1\n2,1,2,1\n3,1,3,x\n4,1\n", ":5: not a number: 'x'"),
        ("0,1,0,1\n1,1,1,1\n2,1,2,1\n3,1,-inf,1\n4,y,4,1\n", ":5: not a finite number: '-inf'"),
        # a defect in the third block
        ("0,1,0,1\n1,1,1,1\n2,1,2,1\n3,1,3,1\n4,1,4,1\n5,1,5,1\n6,x,6,1\n",
         ":8: not a number: 'x'"),
        # a decrease across the edge, and one before a blank record of the second block
        ("0,1,0,1\n1,1,1,1\n5,1,2,1\n4,1,3,1\n", "not strictly increasing at series 1 line 5"),
        ("0,1,0,1\n1,1,1,1\n2,1,2,1\n3,1,3,1\n2,1,4,1\n\n",
         "not strictly increasing at series 1 line 6"),
        # blank records across the edge, and a block of blank records only
        ("0,1,0,1\n\n\n\n1,1,1,oops\n", ":6: not a number: 'oops'"),
        ("0,1,0,1\n\n\n\n1,1,0,1\n", "not strictly increasing at series 2 line 6"),
        ("0,1,0,1\n1,1,1,1\n2,1,2,1\n\n\n\n3,1,1,1\n",
         "not strictly increasing at series 2 line 8"),
    ])
    def test_defects_at_block_edges(self, tmp_path, text, message):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n" + text)
        fast, scan = self.both(path)
        assert isinstance(scan, str) and message in scan
        assert fast == scan

    @pytest.mark.parametrize("text, message", [
        # a cell csv cannot read counts as a defect of its record, in file order
        ("0,1,0,1\nx,1,1,1\n2,{big},2,1\n", ":3: not a number: 'x'"),
        ("0,1,0,1\n1,1,1,1\nx,1,2,1\n3,{big},3,1\n", ":4: not a number: 'x'"),
        ("0,1,0,1\n1,{big},1,1\n2,x,2,1\n", ":3: field larger than field limit"),
        ("0,1,0,1\n1,1,1,1\n2,1,2,1\n3,1,3,{big}\n", ":5: field larger than field limit"),
    ])
    def test_unreadable_record_in_file_order(self, tmp_path, text, message):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n" + text.format(big=OVERSIZED))
        fast, scan = self.both(path)
        assert isinstance(scan, str) and message in scan
        assert fast == scan

    def test_blank_records_only(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n" + "\n" * 7)
        fast, scan = self.both(path)
        assert fast.timestamps.shape == (2, 0)
        assert_same_table(fast, scan)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="t.csv: empty file$"):
            ingest(write_csv(tmp_path / "t.csv", ""))


def block_records(path):
    """The (line, record) pairs of ``cli._csv_blocks`` at ``path``, and the
    message of the DataError it ended with, or None.  The first block holds
    one record."""
    records, sizes = [], []
    try:
        with cli._csv_blocks(path) as blocks:
            for block, lines in blocks:
                assert len(lines) == len(block)
                records += zip(lines, block)
                sizes.append(len(block))
    except DataError as exc:
        return records, str(exc)
    finally:
        assert sizes[:1] in ([], [1]) and max(sizes[1:], default=0) <= cli.BLOCK_ROWS
    return records, None


def csv_records(path):
    """Oracle for ``block_records``: the records ``csv.reader`` reads, each
    with the file line it starts on, and the message of the DataError its
    ``csv.Error`` becomes, or None."""
    records = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for record in csv_lines(reader):
                records.append(record)
        except csv.Error as exc:
            return records, f"{path}:{reader.line_num}: {exc}"
    return records, None


@contextmanager
def field_limit(limit):
    """csv's field size limit set to ``limit`` (kept if None), then restored."""
    before = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(before)


class TestBlocksMatchCsvReader:
    """The split-line block reader against ``csv.reader`` on the same file.

    Texts mix cells, quotes, NULs and every line ending; a field size limit
    of a few characters sends lines to csv for their length.
    """

    ALPHABET = '0123456789.,-_ x"\0\r\n'

    @staticmethod
    def check(path):
        fast, oracle = block_records(str(path)), csv_records(str(path))
        assert fast == oracle
        return fast

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=80), st.sampled_from([None, 3, 8]))
    def test_random_texts(self, tmp_path_factory, text, limit):
        self.check_random_text(tmp_path_factory, text, limit)

    def check_random_text(self, tmp_path_factory, text, limit):
        path = tmp_path_factory.mktemp("blocks") / "t.csv"
        path.write_bytes(text.encode())
        with field_limit(limit):
            self.check(path)


@pytest.mark.usefixtures("blocks_of_three")
class TestBlocksMatchCsvReaderInSmallBlocks(TestBlocksMatchCsvReader):
    """The same comparisons in blocks of 3 records, plus the fallback to csv
    at a block edge.  The header is line 1, the first block lines 2-4, the
    second lines 5-7."""

    # hypothesis runs a test method from one class only
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=TestBlocksMatchCsvReader.ALPHABET, max_size=80),
           st.sampled_from([None, 3, 8]))
    def test_random_texts(self, tmp_path_factory, text, limit):
        self.check_random_text(tmp_path_factory, text, limit)

    @pytest.mark.parametrize("text, records, message", [
        # a quoted header: the whole file is read by csv
        ('"t_1",v_1,"t_2",v_2\n0,1,0,1\n', 2, None),
        # a first quote in the second block
        ('h\n0,1\n1,1\n2,1\n3,"1"\n4,1\n', 6, None),
        # a quoted field that spans the edge of the first and second block
        ('h\n0,1\n1,1\n2,"1\n3",1\n4,1\n5,1\n', 6, None),
        # a NUL in the second block
        ("h\n0,1\n1,1\n2,1\n3,\0\n4,1\n", 6, None),
        # an oversized cell after a fallback at line 5; the quoted field of
        # lines 6-7 is one record on two lines
        ('h\n0,1\n1,1\n2,1\n"3",1\n4,"1\n"\n{big}\n', 6, ":8: field larger than field limit"),
        ('h\n0,1\n1,1\n2,1\n3,1\n4,1\n5,1\n"6",1\n7,1\n{big},1\n', 9,
         ":10: field larger than field limit"),
        # \r-only and mixed line endings, blank records among them
        ("h\r0,1\r1,1\r\r2,1\r3,1\r", 6, None),
        ("h\r\n0,1\r1,1\n\r\n2,1\r\r3,1\n4,1\r\n", 8, None),
        # a trailing line with no newline, and one of a single empty cell
        ("h\n0,1\n1,1\n2,1\n3,1", 5, None),
        ("h\n0,1\n1,1\n2,1\n,", 5, None),
    ])
    def test_fallback_at_block_edges(self, tmp_path, text, records, message):
        path = tmp_path / "t.csv"
        path.write_bytes(text.format(big=OVERSIZED).encode())
        got, error = self.check(path)
        assert len(got) == records
        assert error == (None if message is None else f"{path}{message} "
                         f"({csv.field_size_limit()})")

    @pytest.mark.parametrize("header", ['"t_1","v_1","t_2","v_2"', 't_1,v_1,t_2,"v_2"'])
    def test_quoted_header_ingests_as_plain(self, tmp_path, header):
        body = "0,1,0,1\n1,,1,2\n2,1,,\n3,1,3,1\n"
        plain = ingest(write_csv(tmp_path / "plain.csv", "t_1,v_1,t_2,v_2\n" + body))
        quoted = write_csv(tmp_path / "quoted.csv", header + "\n" + body)
        assert_same_table(ingest(quoted), plain)
        assert_same_table(ingest_scan(quoted), plain)

    def test_quoted_cells_ingest_as_plain(self, tmp_path):
        body = "0,1,0,1\n1,,1,2\n2,1,,\n3,1,3,1\n4,5,4,5\n"
        plain = ingest(write_csv(tmp_path / "plain.csv", "t_1,v_1,t_2,v_2\n" + body))
        lines = body.splitlines()
        lines[3] = ",".join(f'"{cell}"' for cell in lines[3].split(","))
        quoted = write_csv(tmp_path / "quoted.csv", "t_1,v_1,t_2,v_2\n" + "\n".join(lines) + "\n")
        assert_same_table(ingest(quoted), plain)


def respell(cell, kind):
    """Another spelling of the cell ``write_table`` wrote, with the same float:
    padded, signed, with trailing zeros or as ``%.17g``; a blank cell becomes
    a cell of blanks."""
    if not cell:
        return " \t"
    if kind == "padded":
        return f" {cell}\t"
    if kind == "signed":
        return cell if cell.startswith("-") else "+" + cell
    if kind == "zeros":
        mantissa, e, exponent = cell.partition("e")
        return mantissa + ("0" if "." in mantissa else ".0") + e + exponent
    return "%.17g" % float(cell)


RESPELLINGS = ("padded", "signed", "zeros", "%.17g")
DEFECTS = ("x", "inf", "nan", "ragged", "order", "not UTF-8", "header", "empty")


def csv_text(rows, rng, *, quote_from=None, blank_lines=0, crlf=False, bom=False):
    """The CSV text of ``rows`` (header first): every cell quoted from row
    ``quote_from`` on, some of them over two lines, ``blank_lines`` blank lines
    at random places, CRLF line ends and a leading byte-order mark."""
    lines = []
    for i, row in enumerate(rows):
        if quote_from is not None and i >= quote_from:
            row = [f'"{cell}\n"' if cell and rng.random() < 0.1 else f'"{cell}"'
                   for cell in row]
        lines.append(",".join(row))
    for _ in range(blank_lines):
        lines.insert(int(rng.integers(1, len(lines) + 1)), "")
    end = "\r\n" if crlf else "\n"
    return ("﻿" if bom else "") + end.join(lines) + end


def inject(rows, defect, rng):
    """``rows`` (header first) with one ``defect`` at a random cell."""
    rows = [list(row) for row in rows]
    if defect == "header":
        rows[0][0] = "x_1"
        return rows
    if len(rows) < 3:
        rows.append(["0"] * len(rows[0]))
        rows.append(["0"] * len(rows[0]))
    r, c = int(rng.integers(1, len(rows))), int(rng.integers(len(rows[0])))
    if defect == "ragged":
        del rows[r][c]
    elif defect == "order":
        rows[r][2 * (c // 2)] = "-1e300"
    else:
        rows[r][c] = {"x": "x", "inf": "inf", "nan": "nan", "not UTF-8": "\xe9"}[defect]
    return rows


class TestTruthReadBesideInput:
    """``align``'s truth read beside its input against the sequential read.

    Each pair is a table and its truth with cells blanked, written by
    ``write_table``; the truth's cells are respelled, its rows and series
    changed, either file laid out anew or given one defect, or the truth is
    the input file itself.  The new read must give the same table and mask,
    or raise the same error with the same message.
    """

    @staticmethod
    def both(data, truth):
        """Each read's table and truth mask, or the type and message of its error."""
        out = []
        for read in (lambda: cli._ingest_with_truth(data, truth)[:2],
                     lambda: truth_present_scan(data, truth)):
            try:
                out.append(read())
            except (DataError, StructuralError) as exc:
                out.append((type(exc), str(exc)))
        return out

    def check(self, data, truth):
        fast, scan = self.both(data, truth)
        if isinstance(scan[0], SeriesTable):
            assert_same_table(fast[0], scan[0])
            assert fast[1].dtype == bool and np.array_equal(fast[1], scan[1])
        else:
            assert fast == scan
        return scan

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_random_pairs(self, tmp_path_factory, seed, data):
        self.check_random_pair(tmp_path_factory, seed, data)

    def check_random_pair(self, tmp_path_factory, seed, data):
        rng = np.random.default_rng(seed)
        m, n = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 20))
        truth_table = gappy_table(rng, m, n)
        blanked = rng.random((m, n)) < data.draw(st.sampled_from([0.0, 0.2, 0.6]))
        table = SeriesTable(np.where(blanked & (rng.random((m, n)) < 0.5), np.nan,
                                     truth_table.timestamps),
                            np.where(blanked, np.nan, truth_table.values))
        tmp = tmp_path_factory.mktemp("beside")
        paths = {"data": tmp / "data.csv", "truth": tmp / "truth.csv"}
        if data.draw(st.booleans()):  # another row count or series count
            n_truth = data.draw(st.integers(0, 24))
            m_truth = data.draw(st.sampled_from([m, m, 2, 3, 5]))
            truth_table = gappy_table(rng, m_truth, n_truth)
        write_table(table, str(paths["data"]))
        write_table(truth_table, str(paths["truth"]))
        rows = {key: list(csv.reader(path.read_text().splitlines()))
                for key, path in paths.items()}
        respelled = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        rows["truth"] = rows["truth"][:1] + [
            [respell(cell, RESPELLINGS[rng.integers(4)]) if rng.random() < respelled else cell
             for cell in row] for row in rows["truth"][1:]]
        defect = data.draw(st.sampled_from((None,) * 4 + DEFECTS))
        defective = data.draw(st.sampled_from(["data", "truth"]))
        if defect not in (None, "empty"):
            rows[defective] = inject(rows[defective], defect, rng)
        for key, path in paths.items():
            if defect == "empty" and key == defective:
                path.write_bytes(b"")
                continue
            text = csv_text(
                rows[key], rng,
                quote_from=data.draw(st.one_of(st.none(), st.integers(0, len(rows[key])))),
                blank_lines=data.draw(st.sampled_from([0, 0, 1, 5])),
                crlf=data.draw(st.booleans()), bom=data.draw(st.booleans()))
            path.write_bytes(text.encode().replace("\xe9".encode(), b"\xe9"))
        truth = paths["data"] if data.draw(st.booleans(), "truth is the input") else paths["truth"]
        self.check(str(paths["data"]), str(truth))

    def test_respelled_truth_of_the_same_layout(self, tmp_path):
        # every truth block lines up with an input block; each respelling reads back
        table, truth = generate_synthetic(300, 3, 1.0, seed=4)
        data, truth_csv = tmp_path / "data.csv", tmp_path / "truth.csv"
        write_table(inject_mcar(table, 0.3, seed=5, target="both"), str(data))
        write_table(truth.table, str(truth_csv))
        rows = list(csv.reader(truth_csv.read_text().splitlines()))
        for kind in RESPELLINGS:
            path = tmp_path / f"{kind}.csv"
            path.write_text(csv_text(rows[:1] + [[respell(cell, kind) for cell in row]
                                                 for row in rows[1:]], None))
            _, mask = self.check(str(data), str(path))
            assert mask.all()

    def test_only_truth_cells_spelled_differently_are_parsed(self, tmp_path, monkeypatch):
        table, truth = generate_synthetic(300, 3, 1.0, seed=4)
        data, truth_csv = tmp_path / "data.csv", tmp_path / "truth.csv"
        write_table(inject_mcar(table, 0.3, seed=5, target="both"), str(data))
        write_table(truth.table, str(truth_csv))
        rows = [list(csv.reader(path.read_text().splitlines()))[1:] for path in (data, truth_csv)]
        differ = sum(a != b for x, y in zip(*rows) for a, b in zip(x, y))
        parsed, parse = [], cli._parse_cells
        monkeypatch.setattr(cli, "_parse_cells",
                            lambda records, width: parsed.append(sum(map(len, records)))
                            or parse(records, width))
        cli._ingest_with_truth(str(data), str(truth_csv))
        assert 0 < differ < 2 * 3 * 300 and sum(parsed) == 2 * 3 * 300 + differ

    @pytest.mark.parametrize("data_text, truth_text, message", [
        # the input's defect comes first, the truth's next, the shape last
        ("0,x,0,1\n", "0,y,0,1\n1,1,1,1\n", "{data}:2: not a number: 'x'"),
        ("0,x,0,1\n", None, "{data}:2: not a number: 'x'"),
        ("0,1,0,1\n", "0,y,0,1\n1,1,1,1\n", "{truth}:2: not a number: 'y'"),
        ("0,1,0,1\n", "1,1,1,1\n0,1,0,1\n", "{truth}: timestamps not strictly increasing"),
        ("0,1,0,1\n", "0,1,0,1\n1,1,1,1\n", "{truth}: truth has 2 series of 2 rows, "
                                               "input has 2 series of 1 rows"),
        (None, "0,1,0,1\n", "cannot open {data}"),
        ("0,1,0,1\n", None, "cannot open {truth}"),
    ])
    def test_order_of_errors(self, tmp_path, capsys, data_text, truth_text, message):
        paths = {"data": str(tmp_path / "data.csv"), "truth": str(tmp_path / "truth.csv")}
        for key, text in (("data", data_text), ("truth", truth_text)):
            if text is not None:
                write_csv(Path(paths[key]), "t_1,v_1,t_2,v_2\n" + text)
        message = message.format(**paths)
        assert self.check(paths["data"], paths["truth"])[1].startswith(message)
        assert main(["align", "--input", paths["data"], "--truth", paths["truth"],
                     "--theta", "3", "--beta", "1", "--out", str(tmp_path / "a.csv"),
                     "--report", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {message}")


@pytest.mark.usefixtures("blocks_of_three")
class TestTruthReadBesideInputInSmallBlocks(TestTruthReadBesideInput):
    """The same comparisons in blocks of 3 records, so a pair crosses many blocks."""

    # hypothesis runs a test method from one class only
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_random_pairs(self, tmp_path_factory, seed, data):
        self.check_random_pair(tmp_path_factory, seed, data)


def traced_peak(call, *args):
    """The result of ``call(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDataPathMemory:
    N, M = 20000, 4
    CELLS = 2 * M * N * 8  # bytes of the table's float cells

    def test_ingest_holds_one_block_of_strings(self, tmp_path):
        # a whole-file list of records held 2m strings per row, about 14 MB here
        path = str(tmp_path / "t.csv")
        write_table(random_table(np.random.default_rng(0), self.M, self.N), path)
        table, peak = traced_peak(ingest, path)
        assert table.n == self.N
        assert peak < 4 * self.CELLS + 2_000_000

    def test_truth_ingest_and_grouping_copy_nothing(self, tmp_path):
        # the blocks and the joined cells, and one block of strings; the copy
        # of the cells in SeriesTable and of the ids in GroundTruth took the
        # peak to about 2.45 times the cells
        path = str(tmp_path / "t.csv")
        write_table(random_table(np.random.default_rng(0), self.M, self.N), path)
        truth, peak = traced_peak(lambda: GroundTruth.same_row(ingest(path)))
        assert truth.table.n == self.N
        assert peak < 2 * self.CELLS + 300_000

    def test_write_table_holds_one_block_of_strings(self, tmp_path):
        # formatting whole columns held every cell's string, about 11 MB here
        table = random_table(np.random.default_rng(0), self.M, self.N)
        _, peak = traced_peak(write_table, table, str(tmp_path / "t.csv"))
        assert peak < self.CELLS + 2_000_000


def make_alignment(tuples):
    report = ConsistencyReport(np.zeros(0), np.zeros(0), 0.0, (), True)
    return Alignment([r.slots for r in tuples], 0.0, report)


def random_alignment(rng, table, params):
    """A greedy alignment of ``table`` under random windows."""
    cfg = ConstraintConfig(theta=float(rng.uniform(0, 30)), beta=int(rng.integers(0, 3)))
    return compose_greedy(generate_candidates(table, cfg), cfg, params,
                          seed=int(rng.integers(100)))


class TestCheckRowsMatchesScan:
    """``score``'s row rules against the row-by-row checker."""

    def test_random_edits_report_the_first_defect_in_file_order(self, tmp_path):
        # up to three edits per file: a row copied elsewhere, phi_sim or
        # theta_sim moved, or a t cell, theta_sim or phi_sim blanked
        found = []
        for seed in range(24):
            rng = np.random.default_rng(seed)
            table = gappy_table(rng, 3, 25)
            params = WeightParams(3, 2, 1, 1)
            path = tmp_path / "aligned.csv"
            write_alignment_csv(random_alignment(rng, table, params), table, params, str(path))
            header, *rows = [line.split(",") for line in path.read_text().splitlines()]
            for _ in range(int(rng.integers(0, 4))):
                r = int(rng.integers(len(rows)))
                edit = int(rng.integers(4))
                if edit == 0:
                    rows.insert(int(rng.integers(len(rows) + 1)), list(rows[r]))
                elif edit == 1:
                    rows[r][11] = str(int(rows[r][11] or 0) + int(rng.choice([-1, 1])))
                elif edit == 2:
                    rows[r][10] = repr(float(rows[r][10] or 0) + 0.5)
                else:
                    rows[r][int(rng.choice([1, 4, 7, 10, 11]))] = ""
            path.write_text("\n".join(",".join(row) for row in [header] + rows) + "\n")
            lines, slots, cells, sims, _ = cli._read_alignment_csv(str(path), 3)
            messages = []
            for check in (cli._check_rows, check_rows_scan):
                try:
                    check(str(path), lines, slots, cells, sims)
                except DataError as exc:
                    messages.append(str(exc))
                else:
                    messages.append(None)
            assert messages[0] == messages[1]
            found.append(messages[0] and messages[0].split(": ", 1)[1].split(" ")[0])
        # clean files and every rule
        assert {None, "idx_1", "phi_sim", "theta_sim"} <= set(found)


class TestWriteAlignmentMatchesScan:
    """The column-wise alignment writer against the tuple-by-tuple scan it replaced."""

    @staticmethod
    def assert_same_file(tmp_path, alignment, table, params):
        fast, scan = tmp_path / "fast.csv", tmp_path / "scan.csv"
        write_alignment_csv(alignment, table, params, str(fast))
        write_alignment_scan(alignment, table, params, str(scan))
        assert fast.read_bytes() == scan.read_bytes()
        return fast

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 25))
    def test_random_alignments(self, tmp_path_factory, seed, m, n):
        rng = np.random.default_rng(seed)
        table = gappy_table(rng, m, n)
        params = WeightParams(*rng.integers(0, 4, size=2), *rng.uniform(0.5, 2, size=2))
        self.assert_same_file(tmp_path_factory.mktemp("write"), random_alignment(rng, table, params),
                              table, params)

    def test_unsorted_and_repeated_tuples(self, tmp_path, fig_params):
        rng = np.random.default_rng(3)
        table = gappy_table(rng, 4, 12)
        tuples = [AlignedTuple(tuple(rng.integers(0, 12, size=4))) for _ in range(30)]
        self.assert_same_file(tmp_path, make_alignment(tuples + tuples[:5]), table, fig_params)

    def test_signed_zero_timestamps(self, tmp_path, fig_params):
        table = SeriesTable(np.array([[-0.0, 1.0], [0.0, 2.0], [-0.0, 3.0]]), np.ones((3, 2)))
        tuples = [AlignedTuple((0, 0, 0)), AlignedTuple((1, 1, 1))]
        out = self.assert_same_file(tmp_path, make_alignment(tuples), table, fig_params)
        assert out.read_text().splitlines()[1].split(",")[-2] == "0.0"

    def test_empty_alignment_is_header_only(self, tmp_path, staggered_table, fig_params):
        out = self.assert_same_file(tmp_path, make_alignment([]), staggered_table, fig_params)
        assert out.read_bytes() == b"idx_1,t_1,v_1,idx_2,t_2,v_2,weight,theta_sim,phi_sim\r\n"

    @pytest.mark.parametrize("rows", BLOCK_EDGES)
    def test_rows_across_block_boundaries(self, tmp_path, fig_params, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        table = gappy_table(rng, 3, 40)
        tuples = [AlignedTuple(tuple(rng.integers(0, 40, size=3))) for _ in range(rows)]
        for block_rows in BLOCK_SIZES:
            monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
            out = self.assert_same_file(tmp_path, make_alignment(tuples), table, fig_params)
            assert out.read_bytes().count(b"\r\n") == rows + 1


class TestWriteTableMatchesScan:
    """The column-wise table writer against the cell-by-cell writer it replaced."""

    @staticmethod
    def assert_same_file(tmp_path, table):
        fast, scan = tmp_path / "fast.csv", tmp_path / "scan.csv"
        write_table(table, str(fast))
        write_table_scan(table, str(scan))
        assert fast.read_bytes() == scan.read_bytes()
        return fast

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(0, 30))
    def test_random_tables(self, tmp_path_factory, seed, m, n):
        self.assert_same_file(tmp_path_factory.mktemp("table"),
                              gappy_table(np.random.default_rng(seed), m, n))

    def test_missing_and_signed_zero_cells(self, tmp_path):
        table = SeriesTable(np.array([[-0.0, np.nan, 2.5], [0.0, 1e-310, np.nan]]),
                            np.array([[np.nan, -0.0, 1e308], [-1.5, np.nan, 0.1]]))
        out = self.assert_same_file(tmp_path, table)
        assert out.read_text().splitlines()[1:] == ["-0.0,,0.0,-1.5", ",-0.0,1e-310,",
                                                    "2.5,1e+308,,0.1"]

    @pytest.mark.parametrize("rows", BLOCK_EDGES)
    def test_rows_across_block_boundaries(self, tmp_path, monkeypatch, rows):
        table = gappy_table(np.random.default_rng(rows), 3, rows)
        for block_rows in BLOCK_SIZES:
            monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
            out = self.assert_same_file(tmp_path, table)
            assert out.read_bytes().count(b"\r\n") == rows + 1


class TestAlign:
    def test_end_to_end_with_truth(self, small_files, tmp_path):
        data, truth = small_files
        out = tmp_path / "aligned.csv"
        report = tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--strategy", "expect",
                     "--tune-theta", "--tune-beta", "--k1", "3", "--k2", "2",
                     "--truth", str(truth), "--out", str(out), "--report", str(report)])
        assert code == 0
        metrics = json.loads(report.read_text())
        assert metrics["strategy"] == "expect"
        assert metrics["f1"] > 0.8
        assert metrics["candidate_count"] >= metrics["aligned_tuple_count"] > 0
        assert out.read_text().count("\n") == metrics["aligned_tuple_count"] + 1

    def test_exact_guard_exit_code(self, tmp_path):
        table, _ = generate_synthetic(40, 2, 1.0, seed=23)
        data = tmp_path / "data.csv"
        write_table(table, str(data))
        code = main(["align", "--input", str(data), "--strategy", "exact",
                     "--theta", "1e9", "--beta", "3",
                     "--out", str(tmp_path / "a.csv"), "--report", str(tmp_path / "r.json")])
        assert code == 4

    @pytest.mark.parametrize("flags", [
        *(["--beta", "1", "--strategy", s] for s in ("exact", "setpack", "greedy", "expect")),
        ["--tune-beta"],
    ])
    def test_input_without_rows_aligns_nothing(self, tmp_path, flags):
        data = write_csv(tmp_path / "data.csv", "t_1,v_1,t_2,v_2\n")
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        # the beta scan finds no candidate and falls back to beta_lower + 1
        scan = "--tune-beta" in flags
        with pytest.warns(UserWarning, match="widened scan") if scan else nullcontext():
            code = main(["align", "--input", data, "--theta", "5", *flags,
                         "--out", str(out), "--report", str(report)])
        assert code == 0
        assert out.read_text().splitlines() == [
            "idx_1,t_1,v_1,idx_2,t_2,v_2,weight,theta_sim,phi_sim"]
        metrics = json.loads(report.read_text())
        assert metrics["candidate_count"] == metrics["aligned_tuple_count"] == 0

    def test_conflicting_theta_flags(self, small_files, tmp_path):
        data, _ = small_files
        assert main(["align", "--input", str(data), "--theta", "1",
                     "--tune-theta", "--beta", "1",
                     "--out", str(tmp_path / "a.csv"),
                     "--report", str(tmp_path / "r.json")]) == 2
        assert main(["align", "--input", str(data), "--beta", "1",
                     "--out", str(tmp_path / "a.csv"),
                     "--report", str(tmp_path / "r.json")]) == 2

    def test_infinite_value_is_data_error_without_report(self, tmp_path):
        data = write_csv(tmp_path / "data.csv",
                         "t_1,v_1,t_2,v_2\n0,1,0,1\n10,inf,10,2\n20,3,20,3\n")
        report = tmp_path / "report.json"
        code = main(["align", "--input", data, "--theta", "1", "--beta", "0",
                     "--out", str(tmp_path / "aligned.csv"), "--report", str(report)])
        assert code == 3
        assert not report.exists()

    @pytest.mark.parametrize("argv", [
        ["align", "--theta", "1", "--beta", "0"],
        ["align", "--theta", "1", "--beta", "0", "--tune-delta"],
        ["tune"],
    ])
    def test_overflowing_values_are_data_error_without_report(self, tmp_path, argv):
        # finite, but the AR(1) fit and the normalizers overflow to a non-finite delta
        data = write_csv(tmp_path / "data.csv", "t_1,v_1,t_2,v_2\n" + "".join(
            f"{i},{sign}1e308,{i},{-sign}1e308\n" for i, sign in enumerate((1, -1, 1, -1))))
        report = tmp_path / "report.json"
        code = main([*argv, "--input", data, "--report", str(report)]
                    + (["--out", str(tmp_path / "aligned.csv")] if argv[0] == "align" else []))
        assert code == 3
        assert not report.exists()

    @pytest.mark.parametrize("argv", [
        ["align", "--tune-theta", "--tune-beta"],
        ["align", "--theta", "inf", "--beta", "0", "--strategy", "greedy"],
        ["tune"],
    ])
    def test_timestamp_span_past_the_largest_float_is_data_error_without_artifacts(
            self, tmp_path, capsys, argv):
        # every difference is finite but 1.2e308 - -1e308, which would reach
        # the first row's theta_sim, a tuned theta and the candidates' spreads
        data = write_csv(tmp_path / "big.csv", BIG_SPAN)
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        code = main([*argv, "--input", data, "--report", str(report)]
                    + (["--out", str(out)] if argv[0] == "align" else []))
        assert code == 3
        assert not out.exists() and not report.exists()
        assert (f"{data}: timestamps span -1e+308 to 1.2e+308, a difference that "
                "overflows a float") in capsys.readouterr().err

    def test_truth_with_a_span_past_the_largest_float_is_data_error_without_artifacts(
            self, tmp_path):
        # align's truth, then score's, on an input of the truth's shape
        data = write_csv(tmp_path / "data.csv", "t_1,v_1,t_2,v_2\n0,1,0,2\n1,2,1,3\n2,3,2,4\n")
        truth = write_csv(tmp_path / "truth.csv", BIG_SPAN)
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        flags = ["--input", data, "--tune-theta", "--tune-beta", "--out", str(out),
                 "--report", str(report)]
        assert main(["align", *flags, "--truth", truth]) == 3
        assert not out.exists() and not report.exists()
        assert main(["align", *flags]) == 0
        scored = tmp_path / "score.json"
        assert main(["score", "--aligned", str(out), "--truth", truth,
                     "--report", str(scored)]) == 3
        assert not scored.exists()

    def test_timestamp_span_up_to_the_largest_float_aligns_and_scores(self, tmp_path, capsys):
        data = write_csv(tmp_path / "data.csv", "t_1,v_1,t_2,v_2\n0,1,1e308,2\n")
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        assert main(["align", "--input", data, "--tune-theta", "--tune-beta",
                     "--out", str(out), "--report", str(report)]) == 0
        assert out.read_text().splitlines()[1] == "1,0.0,1.0,1,1e+308,2.0,2.0,1e+308,0"
        assert json.loads(report.read_text())["theta"] == 1e308
        assert main(["score", "--aligned", str(out), "--truth", data]) == 0
        assert json.loads(capsys.readouterr().out)["f1"] == 1.0

    @pytest.mark.parametrize("truth_shape", [None, (2, 20), (2, 60), (3, 30)])
    def test_bad_truth_is_data_error_without_artifacts(self, tmp_path, truth_shape):
        # no truth file, or a truth whose series or rows differ from the input's
        table, _ = generate_synthetic(30, 2, 1.0, seed=25)
        data, truth = tmp_path / "data.csv", tmp_path / "truth.csv"
        write_table(table, str(data))
        if truth_shape is not None:
            m, n = truth_shape
            write_table(generate_synthetic(n, m, 1.0, seed=25)[0], str(truth))
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--strategy", "greedy",
                     "--theta", "3", "--beta", "1", "--truth", str(truth),
                     "--out", str(out), "--report", str(report)])
        assert code == 3
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("defect", ["ragged", "truncated", "not UTF-8"])
    def test_bad_truth_fails_before_tuning(self, small_files, tmp_path, monkeypatch, defect):
        data, good = small_files
        lines = good.read_bytes().splitlines(keepends=True)
        truth = tmp_path / "bad_truth.csv"
        truth.write_bytes(b"".join({
            "ragged": lines[:5] + [lines[5].rsplit(b",", 1)[0] + b"\n"] + lines[6:],
            "truncated": lines[:20],
            "not UTF-8": lines[:5] + [b"1,\xe9,1,1\n"] + lines[6:],
        }[defect]))
        calls = []
        monkeypatch.setattr(cli.tuning, "determine_theta", lambda *a, **k: calls.append("theta"))
        monkeypatch.setattr(cli, "generate_candidates", lambda *a, **k: calls.append("generate"))
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--tune-theta", "--tune-beta",
                     "--truth", str(truth), "--out", str(out), "--report", str(report)])
        assert code == 3 and calls == []
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("flags", STAGE_FLAGS)
    def test_truth_cells_are_freed_before_generation(self, small_files, tmp_path, monkeypatch,
                                                     flags):
        # the input's table lives on; of the truth only its presence mask does
        data, truth = small_files
        tables, alive_at_generate, masks = {}, [], []
        read, generate = cli._table_blocks, cli.generate_candidates
        groups = cli.evaluation.same_row_groups

        def read_and_watch(path, out, parse=None):
            # every table file's reader: the input's ingest and the truth's
            yield from read(path, out, parse)
            table = out[-1]
            tables[Path(path).name] = (weakref.ref(table), weakref.ref(table.timestamps.base))

        def generate_and_check(*args, **kwargs):
            gc.collect()
            alive_at_generate.append({name: [ref() is not None for ref in refs]
                                      for name, refs in tables.items()})
            return generate(*args, **kwargs)

        def groups_and_check(present):
            masks.append((present.dtype, present.shape))
            return groups(present)

        monkeypatch.setattr(cli, "_table_blocks", read_and_watch)
        monkeypatch.setattr(cli, "generate_candidates", generate_and_check)
        monkeypatch.setattr(cli.evaluation, "same_row_groups", groups_and_check)
        code = main(["align", "--input", str(data), *flags, "--truth", str(truth),
                     "--out", str(tmp_path / "a.csv"), "--report", str(tmp_path / "r.json")])
        assert code == 0
        assert alive_at_generate == [{"data.csv": [True, True], "truth.csv": [False, False]}]
        assert masks == [(np.dtype(bool), (2, 40))]

    def test_report_lists_the_delta_of_each_attempt(self, small_files, tmp_path):
        data, _ = small_files
        report = tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--strategy", "greedy", "--seed", "4",
                     "--theta", "3", "--beta", "1", "--delta", "1e-15", "--max-retries", "3",
                     "--out", str(tmp_path / "a.csv"), "--report", str(report)])
        metrics = json.loads(report.read_text())
        # attempt i is one compose with seed 4 + i
        table = ingest(str(data))
        cfg = ConstraintConfig(theta=3, beta=1, delta=1e-15)
        rc = generate_candidates(table, cfg)
        expected = [compose_greedy(rc, cfg, WeightParams(k1=1, k2=1),
                                   seed=4 + i, max_retries=1).report.delta for i in range(3)]
        assert code == 5 and metrics["retries_used"] == 2
        assert metrics["diagnostics"]["attempt_deltas"] == expected
        assert metrics["delta_score"] == min(expected)

    @pytest.mark.parametrize("strategy", ["greedy", "expect"])
    def test_tuned_delta_holds_within_the_grids_seeds_under_any_bias(self, strategy):
        # the grid composes under the run's b and c, so the final compose's
        # first four attempts repeat the winning point's four seeds, and the
        # least of their deltas is at most their mean, the tuned delta
        for seed in (4, 5):
            table, _ = generate_synthetic(150, 4, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=1, target="values")
            for b in (0.5, 1.0, 50.0):
                for c in (0.1, 1.0, 40.0):
                    _, params, fields = cli.run_pipeline(
                        masked, strategy, WeightParams(b=b, c=c), grid=DEFAULT_GRID,
                        seed=seed, max_retries=4)
                    assert (params.b, params.c, fields["b"], fields["c"]) == (b, c, b, c)
                    assert not fields["exhausted"] and fields["retries_used"] <= 3, (seed, b, c)
                    assert fields["delta_score"] <= fields["delta"]

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["align", "--input", str(tmp_path / "nope.csv"),
                     "--theta", "1", "--beta", "1"]) == 3

    def test_exhausted_exit_code_still_writes(self, small_files, tmp_path):
        data, _ = small_files
        out = tmp_path / "aligned.csv"
        report = tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--strategy", "greedy",
                     "--theta", "3", "--beta", "1", "--delta", "1e-15",
                     "--max-retries", "2",
                     "--out", str(out), "--report", str(report)])
        metrics = json.loads(report.read_text())
        if metrics["delta_score"] > 1e-15:
            assert code == 5
            assert metrics["exhausted"] is True
        assert out.exists()

    @pytest.mark.parametrize("retries", ["-1", "-3"])
    def test_negative_max_retries_is_config_error_without_artifacts(self, small_files,
                                                                    tmp_path, capsys, retries):
        data, truth = small_files
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--strategy", "greedy",
                     "--theta", "3", "--beta", "1", "--max-retries", retries,
                     "--truth", str(truth), "--out", str(out), "--report", str(report)])
        assert code == 2
        assert not out.exists() and not report.exists()
        assert capsys.readouterr().err == "config error: --max-retries must be at least 0\n"

    @pytest.mark.parametrize("strategy", ["greedy", "expect"])
    def test_zero_max_retries_runs_one_attempt(self, small_files, tmp_path, strategy):
        # an unreachable delta: 0 and 1 both run the one attempt and stop
        data, _ = small_files
        written = []
        for retries in ("0", "1"):
            out, report = tmp_path / f"a{retries}.csv", tmp_path / f"r{retries}.json"
            code = main(["align", "--input", str(data), "--strategy", strategy,
                         "--theta", "3", "--beta", "1", "--delta", "1e-15",
                         "--max-retries", retries, "--out", str(out), "--report", str(report)])
            metrics = json.loads(report.read_text())
            assert code == 5 and metrics["retries_used"] == 0
            assert len(metrics["diagnostics"]["attempt_deltas"]) == 1
            del metrics["wall_time_ms"]
            written.append((out.read_bytes(), metrics))
        assert written[0] == written[1]

    @pytest.mark.parametrize("flags", STAGE_FLAGS)
    def test_candidate_set_is_freed_before_scoring(self, small_files, tmp_path, monkeypatch,
                                                   flags):
        data, truth = small_files
        sets, alive_at_score = [], []
        generate, score = cli.generate_candidates, cli.evaluation.score

        def generate_and_watch(*args, **kwargs):
            rc = generate(*args, **kwargs)
            sets.append(weakref.ref(rc))
            return rc

        def score_and_check(*args, **kwargs):
            gc.collect()
            alive_at_score.append([ref() is not None for ref in sets])
            return score(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_candidates", generate_and_watch)
        monkeypatch.setattr(cli.evaluation, "score", score_and_check)
        code = main(["align", "--input", str(data), *flags, "--truth", str(truth),
                     "--out", str(tmp_path / "a.csv"), "--report", str(tmp_path / "r.json")])
        assert code == 0
        assert alive_at_score == [[False]]

    def test_tune_delta_with_explicit_weights(self, small_files, tmp_path):
        data, _ = small_files
        report = tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--strategy", "greedy",
                     "--theta", "3", "--beta", "1", "--tune-delta",
                     "--k1", "3", "--k2", "2",
                     "--out", str(tmp_path / "a.csv"), "--report", str(report)])
        metrics = json.loads(report.read_text())
        assert metrics["k1"] == 3.0 and metrics["k2"] == 2.0
        assert metrics["delta"] is not None
        assert code in (0, 5)

    @pytest.mark.parametrize("given", [{"k2": 6.0}, {"k1": 5.0}, {"k1": 3.0, "k2": 2.0}])
    def test_tune_delta_searches_only_the_weights_not_given(self, small_files, tmp_path,
                                                             given):
        data, _ = small_files
        report = tmp_path / "report.json"
        flags = [token for key, value in given.items() for token in (f"--{key}", str(value))]
        code = main(["align", "--input", str(data), "--strategy", "greedy",
                     "--theta", "3", "--beta", "1", "--tune-delta", *flags,
                     "--out", str(tmp_path / "a.csv"), "--report", str(report)])
        assert code in (0, 5)
        rc = generate_candidates(ingest(str(data)), ConstraintConfig(theta=3, beta=1))
        grid = [(k1, k2) for k1 in ([given["k1"]] if "k1" in given else range(1, 7))
                for k2 in ([given["k2"]] if "k2" in given else range(1, 7))]
        tuned = determine_weights_and_delta(rc, grid=grid, strategy="greedy")
        metrics = json.loads(report.read_text())
        assert {key: metrics[key] for key in given} == given
        assert (metrics["k1"], metrics["k2"], metrics["delta"]) == (
            tuned.weights.k1, tuned.weights.k2, tuned.config.delta)
        assert metrics["diagnostics"]["grid_composes"] == tuned.diagnostics["grid_composes"]

    def test_report_diagnostics(self, tmp_path):
        table, _ = generate_synthetic(60, 3, 4.0, seed=23, tick=10.0)
        data = tmp_path / "data.csv"
        write_table(inject_mcar(table, 0.2, seed=24), str(data))
        table = ingest(str(data))
        rc = generate_candidates(table, ConstraintConfig(theta=8, beta=2))
        tuned = determine_weights_and_delta(rc, strategy="greedy", seed=2)
        grid = {key: tuned.diagnostics[key] for key in (
            "grid_composes", "grid_distinct_passes", "grid_segment_walks")}
        segments = len(rc.segment_bounds) - 1
        assert 1 < grid["grid_distinct_passes"] < grid["grid_composes"]
        assert 0 < grid["grid_segment_walks"] < segments * grid["grid_composes"]
        report = tmp_path / "report.json"
        tie_breaks = []
        for tune, delta, params, counts in (
                (False, math.inf, WeightParams(k1=1, k2=1), {}),
                (True, tuned.config.delta, tuned.weights, grid)):
            main(["align", "--input", str(data), "--strategy", "greedy", "--seed", "2",
                  "--theta", "8", "--beta", "2", *(["--tune-delta"] if tune else []),
                  "--out", str(tmp_path / "a.csv"), "--report", str(report)])
            alignment = compose_greedy(rc, ConstraintConfig(theta=8, beta=2, delta=delta),
                                       params, seed=2)
            fit = alignment.report
            assert json.loads(report.read_text())["diagnostics"] == {
                "tie_breaks": alignment.tie_breaks, "truncated": False,
                "degenerate_series": [j + 1 for j in fit.degenerate_series],
                "all_missing": fit.all_missing,
                "fallback_series": [j + 1 for j in fit.fallback_series],
                "full_fallback": fit.full_fallback, "segments": segments, **counts,
                "multi_member_groups": alignment.multi_member_groups,
                "largest_group": alignment.largest_group,
                "attempt_deltas": list(alignment.attempt_deltas)}
            tie_breaks.append(alignment.tie_breaks)
        assert any(tie_breaks)
        tuning = tmp_path / "tuning.json"
        assert main(["tune", "--input", str(data), "--report", str(tuning)]) == 0
        diagnostics = json.loads(tuning.read_text())["diagnostics"]
        assert 0 < diagnostics["grid_distinct_passes"] <= diagnostics["grid_composes"]
        assert 0 < diagnostics["grid_segment_walks"] <= (diagnostics["segments"]
                                                         * diagnostics["grid_composes"])

    def test_report_numbers_flagged_series_from_one(self, tmp_path):
        # series 2 has no value: it is degenerate, and without a complete row
        # every series falls back to its mean
        table, _ = generate_synthetic(40, 3, 1.0, seed=21)
        vs = np.array(table.values)
        vs[1] = np.nan
        data = tmp_path / "data.csv"
        write_table(SeriesTable(table.timestamps, vs), str(data))
        report = tmp_path / "report.json"
        assert main(["align", "--input", str(data), "--strategy", "greedy",
                     "--theta", "3", "--beta", "1",
                     "--out", str(tmp_path / "a.csv"), "--report", str(report)]) == 0
        diagnostics = json.loads(report.read_text())["diagnostics"]
        assert {key: diagnostics[key] for key in (
            "degenerate_series", "all_missing", "fallback_series", "full_fallback")} == {
            "degenerate_series": [2], "all_missing": False,
            "fallback_series": [1, 2, 3], "full_fallback": False}

    @pytest.mark.parametrize("flags", [
        ["--theta", "nan", "--beta", "1"],
        ["--theta", "nan", "--tune-beta"],
        ["--theta", "3", "--beta", "1", "--k2", "nan"],
        ["--theta", "3", "--beta", "1", "--c", "inf"],
        ["--theta", "3", "--beta", "1", "--b", "nan"],
        ["--tune-theta", "--tune-beta", "--tune-delta", "--k1", "inf"],
        # finite, but the weights overflow to inf
        ["--theta", "3", "--beta", "1", "--k1", "1e308", "--k2", "1e308"],
        ["--theta", "3", "--beta", "1", "--c", "1e-320"],
        # finite and positive, but the weights underflow to 0
        ["--tune-theta", "--tune-beta", "--k1", "0", "--b", "1e-310", "--c", "1e300"],
        ["--tune-theta", "--tune-beta", "--strategy", "setpack",
         "--k1", "0", "--b", "1e-310", "--c", "1e300"],
    ])
    def test_non_finite_option_is_config_error_without_artifacts(self, tmp_path, flags):
        data = tmp_path / "data.csv"
        assert main(["synth", "--n", "50", "--m", "3", "--out", str(data)]) == 0
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--strategy", "greedy", *flags,
                     "--out", str(out), "--report", str(report)])
        assert code == 2
        assert not out.exists() and not report.exists()

    def test_underflowing_weight_is_config_error_without_artifacts(self, tmp_path):
        # the weights of the off-diagonal candidates underflow to 0, and setpack
        # divided by a swap's loss of 0
        data = tmp_path / "data.csv"
        assert main(["synth", "--n", "12", "--m", "3", "--rate", "0.2", "--target", "both",
                     "--seed", "7", "--jitter", "4", "--out", str(data)]) == 0
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--tune-theta", "--tune-beta",
                     "--strategy", "setpack", "--k1", "0", "--k2", "1e300", "--b", "1e-310",
                     "--out", str(out), "--report", str(report)])
        assert code == 2
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("flags", [[], ["--tune-delta"]])
    def test_total_weight_past_the_largest_float_is_config_error_without_artifacts(
            self, tmp_path, capsys, flags):
        # every chosen weight is finite, but their sum overflows to inf, which
        # neither the CSV nor the JSON report can hold
        data = tmp_path / "data.csv"
        assert main(["synth", "--n", "30", "--m", "2", "--rate", "0.2", "--seed", "3",
                     "--out", str(data)]) == 0
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["align", "--input", str(data), "--theta", "5", "--beta", "1",
                         "--k1", "1e308", *flags, "--out", str(out), "--report", str(report)])
        assert code == 2
        assert not out.exists() and not report.exists()
        assert not caught
        assert "weights sum past the largest float" in capsys.readouterr().err

    def test_infinite_theta_is_reported_as_null(self, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["synth", "--n", "50", "--m", "3", "--out", str(data)]) == 0
        report = tmp_path / "report.json"
        assert main(["align", "--input", str(data), "--strategy", "greedy",
                     "--theta", "inf", "--beta", "1",
                     "--out", str(tmp_path / "a.csv"), "--report", str(report)]) == 0
        metrics = json.loads(report.read_text())
        assert metrics["theta"] is None and metrics["delta"] is None
        assert metrics["aligned_tuple_count"] > 0

    def test_report_flags_match_recheck(self, small_files, tmp_path):
        data, _ = small_files
        out = tmp_path / "aligned.csv"
        code = main(["align", "--input", str(data), "--strategy", "greedy",
                     "--theta", "2.5", "--beta", "1",
                     "--out", str(out), "--report", str(tmp_path / "r.json")])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[-3:] == ["weight", "theta_sim", "phi_sim"]
        for line in lines[1:]:
            cells = line.split(",")
            theta_sim = cells[-2]
            phi_sim = int(cells[-1])
            assert phi_sim <= 1
            if theta_sim:
                assert float(theta_sim) <= 2.5


class TestOptionsCheckedFirst:
    """An option value that fails a check exits 2 before any file is read or written."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        def must_not_read(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "ingest", must_not_read)
        out, report = tmp_path / "out.csv", tmp_path / "report.json"

        def run(argv):
            capsys.readouterr()
            if argv[0] == "align":
                argv = argv + ["--truth", str(tmp_path / "truth.csv"), "--out", str(out)]
            code = main(argv + ["--input", str(tmp_path / "data.csv"), "--report", str(report)])
            assert not out.exists() and not report.exists()
            return code, capsys.readouterr().err

        return run

    @pytest.mark.parametrize("flags, message", [
        (["--strategy", "greedy", "--tune-theta", "--tune-beta", "--tune-delta", "--b", "-1"],
         "bias terms b and c must be strictly positive"),
        (["--tune-theta", "--tune-beta", "--k1", "nan"], "k1, k2, b and c must be finite"),
        (["--tune-theta", "--tune-beta", "--k2", "-1"], "k1 and k2 must be non-negative"),
        (["--tune-theta", "--tune-beta", "--c", "0"],
         "bias terms b and c must be strictly positive"),
        (["--tune-theta", "--tune-beta", "--delta", "nan"],
         "delta must be non-negative (infinity disables the model check)"),
        (["--theta", "-1", "--tune-beta"],
         "theta must be non-negative (infinity disables the time check)"),
        (["--tune-theta", "--beta", "-1"], "beta must be a non-negative integer"),
        (["--tune-theta", "--tune-beta", "--beta-lower", "-1"], "--beta-lower must be at least 0"),
        (["--tune-theta", "--tune-beta", "--beta-lower", "-4"], "--beta-lower must be at least 0"),
    ])
    def test_align(self, run, flags, message):
        assert run(["align", *flags]) == (2, f"config error: {message}\n")

    @pytest.mark.parametrize("flags, message", [
        (["--k-max", "0"], "--k-max must be at least 1"),
        (["--beta-lower", "-2"], "--beta-lower must be at least 0"),
        (["--percentile", "101"], "--percentile must lie in [0, 100]"),
        (["--percentile", "nan"], "--percentile must lie in [0, 100]"),
    ])
    def test_tune(self, run, flags, message):
        assert run(["tune", *flags]) == (2, f"config error: {message}\n")


class TestOutputPaths:
    """An output path that cannot be written exits 2 naming its option, before
    any input is read and with nothing written."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the command read an input or started a run")

        for module, name in ((cli, "ingest"), (cli.evaluation, "generate_synthetic")):
            monkeypatch.setattr(module, name, must_not_run)
        (tmp_path / "folder").mkdir()
        bad = {"missing": (str(tmp_path / "missing" / "x.json"),
                           f"no directory {tmp_path / 'missing'}"),
               "folder": (str(tmp_path / "folder"), "is a directory")}

        def run(argv, option, kind):
            path, message = bad[kind]
            capsys.readouterr()
            assert main([a.replace("BAD", path) for a in argv]) == 2
            assert capsys.readouterr().err == f"config error: {option} {path}: {message}\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]

        return run

    @pytest.mark.parametrize("kind", ["missing", "folder"])
    @pytest.mark.parametrize("option", ["--out", "--report"])
    def test_align(self, run, tmp_path, option, kind):
        outputs = {"--out": str(tmp_path / "a.csv"), "--report": str(tmp_path / "r.json"),
                   option: "BAD"}
        run(["align", "--input", "data.csv", "--theta", "3", "--beta", "1",
             *chain.from_iterable(outputs.items())], option, kind)

    @pytest.mark.parametrize("kind", ["missing", "folder"])
    def test_tune(self, run, kind):
        run(["tune", "--input", "data.csv", "--report", "BAD"], "--report", kind)

    @pytest.mark.parametrize("kind", ["missing", "folder"])
    def test_score(self, run, kind):
        run(["score", "--aligned", "a.csv", "--truth", "t.csv", "--report", "BAD"],
            "--report", kind)

    @pytest.mark.parametrize("kind", ["missing", "folder"])
    @pytest.mark.parametrize("option", ["--out", "--truth-out"])
    def test_synth(self, run, tmp_path, option, kind):
        outputs = {"--out": str(tmp_path / "d.csv"), "--truth-out": str(tmp_path / "t.csv"),
                   option: "BAD"}
        run(["synth", "--n", "20", *chain.from_iterable(outputs.items())], option, kind)

    @pytest.mark.parametrize("kind", ["missing", "folder"])
    def test_bench(self, run, kind):
        run(["bench", "--n", "40", "--seeds", "1", "--rates", "0.1", "--report", "BAD"],
            "--report", kind)

    @pytest.mark.parametrize("command", ["align", "synth"])
    def test_empty_out_is_config_error(self, tmp_path, capsys, command):
        argv = (["align", "--input", "data.csv", "--theta", "3", "--beta", "1",
                 "--report", str(tmp_path / "r.json")] if command == "align" else ["synth"])
        assert main([*argv, "--out", ""]) == 2
        assert capsys.readouterr().err == "config error: --out must name a file\n"
        assert not any(tmp_path.iterdir())

    def test_empty_report_writes_none(self, small_files, tmp_path):
        data, truth = small_files
        aligned = tmp_path / "a.csv"
        for argv in (["align", "--input", str(data), "--theta", "3", "--beta", "1",
                      "--out", str(aligned)],
                     ["tune", "--input", str(data), "--k-max", "2"],
                     ["score", "--aligned", str(aligned), "--truth", str(truth)]):
            assert main([*argv, "--report", ""]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "data.csv", "truth.csv"]

    def test_output_that_cannot_be_opened_is_config_error(self, small_files, tmp_path, capsys):
        # a name past the file system's limit passes the checks made before
        # the run and fails only when the file is opened
        data, _ = small_files
        out, report = tmp_path / ("x" * 300 + ".csv"), tmp_path / "r.json"
        capsys.readouterr()
        assert main(["align", "--input", str(data), "--theta", "3", "--beta", "1",
                     "--out", str(out), "--report", str(report)]) == 2
        assert capsys.readouterr().err == f"config error: cannot write {out}: File name too long\n"
        assert not report.exists()

    @pytest.mark.parametrize("command", ["align", "synth"])
    def test_output_that_cannot_be_opened_leaves_no_other(self, small_files, tmp_path, capsys,
                                                           command):
        # the first output is written before the second fails to open; the
        # command removes it, so it exits 2 with no half set of outputs
        data, _ = small_files
        first, second = tmp_path / "first.csv", tmp_path / ("x" * 300 + ".json")
        argv = (["align", "--input", str(data), "--theta", "3", "--beta", "1",
                 "--out", str(first), "--report", str(second)] if command == "align" else
                ["synth", "--n", "20", "--out", str(first), "--truth-out", str(second)])
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {second}: File name too long\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "truth.csv"]


class TestOutputNamesAnotherFile:
    """An output that names another output or an input exits 2 naming both
    options, before any input is read and with every file as it was."""

    @pytest.fixture
    def run(self, small_files, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the command read an input or started a run")

        for module, name in ((cli, "ingest"), (cli.evaluation, "generate_synthetic")):
            monkeypatch.setattr(module, name, must_not_run)
        folder = small_files[0].parent

        def run(argv, output, other):
            before = {p.name: p.read_bytes() for p in folder.iterdir()}
            capsys.readouterr()
            assert main(argv) == 2
            path, given = (argv[argv.index(option) + 1] for option in (output, other))
            assert capsys.readouterr().err == (
                f"config error: {output} {path}: the same file as {other} {given}\n")
            assert {p.name: p.read_bytes() for p in folder.iterdir()} == before

        return run

    @pytest.mark.parametrize("output, other", [("--out", "--report"), ("--out", "--input"),
                                               ("--out", "--truth"), ("--report", "--input"),
                                               ("--report", "--truth")])
    def test_align(self, run, small_files, tmp_path, output, other):
        data, truth = small_files
        paths = {"--input": str(data), "--truth": str(truth),
                 "--out": str(tmp_path / "a.csv"), "--report": str(tmp_path / "r.json")}
        paths[output] = paths[other]
        run(["align", "--theta", "3", "--beta", "1", *chain.from_iterable(paths.items())],
            output, other)

    @pytest.mark.parametrize("spelling", ["dotted", "link"])
    def test_align_report_naming_the_input_another_way(self, run, small_files, tmp_path,
                                                      spelling):
        data, _ = small_files
        if spelling == "link":
            (tmp_path / "link.csv").symlink_to(data)
        report = f"{tmp_path}/./data.csv" if spelling == "dotted" else str(tmp_path / "link.csv")
        run(["align", "--input", str(data), "--theta", "3", "--beta", "1",
             "--out", str(tmp_path / "a.csv"), "--report", report], "--report", "--input")

    def test_synth(self, run, tmp_path):
        both = str(tmp_path / "s.csv")
        run(["synth", "--n", "20", "--out", both, "--truth-out", both], "--out", "--truth-out")

    @pytest.mark.parametrize("other", ["--aligned", "--truth"])
    def test_score(self, run, small_files, other):
        data, truth = small_files
        paths = {"--aligned": str(data), "--truth": str(truth)}
        run(["score", *chain.from_iterable(paths.items()), "--report", paths[other]],
            "--report", other)

    def test_tune(self, run, small_files):
        data = str(small_files[0])
        run(["tune", "--input", data, "--report", data], "--report", "--input")


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["synth", "--n", "100", "--m", "4", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_and_masking(self, tmp_path):
        out = tmp_path / "masked.csv"
        truth = tmp_path / "truth.csv"
        assert main(["synth", "--n", "50", "--m", "3", "--seed", "1",
                     "--rate", "0.3", "--out", str(out), "--truth-out", str(truth)]) == 0
        masked = ingest(str(out))
        complete = ingest(str(truth))
        assert np.isnan(masked.values).sum() > 0
        assert not np.isnan(complete.values).any()

    def test_zero_rate_writes_the_complete_table(self, tmp_path):
        out, plain, truth = tmp_path / "zero.csv", tmp_path / "plain.csv", tmp_path / "truth.csv"
        argv = ["synth", "--n", "60", "--m", "3", "--seed", "4", "--target", "both"]
        assert main([*argv, "--rate", "0", "--out", str(out), "--truth-out", str(truth)]) == 0
        assert main([*argv, "--out", str(plain)]) == 0
        assert out.read_bytes() == plain.read_bytes() == truth.read_bytes()

    @pytest.mark.parametrize("rate", ["-0.5", "nan", "1.5"])
    def test_rate_outside_unit_interval_is_config_error_without_file(self, tmp_path, capsys,
                                                                     rate):
        out, truth = tmp_path / "out.csv", tmp_path / "truth.csv"
        assert main(["synth", "--n", "20", "--m", "2", "--rate", rate,
                     "--out", str(out), "--truth-out", str(truth)]) == 2
        assert not out.exists() and not truth.exists()
        assert capsys.readouterr().err == "config error: missing rate must lie in [0, 1]\n"

    def test_negative_seed_is_config_error_without_file(self, tmp_path, capsys):
        # bench's --seed is one of TestBench's up-front option checks
        out, truth = tmp_path / "out.csv", tmp_path / "truth.csv"
        assert main(["synth", "--n", "50", "--seed", "-3", "--out", str(out),
                     "--truth-out", str(truth)]) == 2
        assert not out.exists() and not truth.exists()
        assert capsys.readouterr() == ("", "config error: seed must be non-negative\n")

    def test_negative_seed_is_valid_for_align(self, small_files, tmp_path):
        data, _ = small_files
        assert main(["align", "--input", str(data), "--theta", "3", "--beta", "1",
                     "--seed", "-1", "--out", str(tmp_path / "aligned.csv"),
                     "--report", str(tmp_path / "report.json")]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["seed"] == -1

    @pytest.mark.parametrize("argv", [
        ["synth", "--jitter", "nan"],
        ["synth", "--jitter", "inf"],
        ["synth", "--tick", "nan"],
        ["bench", "--n", "40", "--seeds", "1", "--jitter", "nan"],
    ])
    def test_non_finite_jitter_or_tick_is_config_error_without_file(self, tmp_path, argv):
        out = tmp_path / "out.json"
        code = main([*argv, "--out" if argv[0] == "synth" else "--report", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--n", "5", "--m", "2", "--tick", "-10", "--jitter", "1"],
        ["synth", "--tick", "0"],
        ["bench", "--n", "40", "--seeds", "1", "--tick", "-1"],
    ])
    def test_non_positive_tick_is_config_error_without_file(self, tmp_path, argv, capsys):
        out, truth = tmp_path / "out.csv", tmp_path / "truth.csv"
        if argv[0] == "synth":
            argv = [*argv, "--out", str(out), "--truth-out", str(truth)]
        else:
            argv = [*argv, "--report", str(out)]
        assert main(argv) == 2
        assert not out.exists() and not truth.exists()
        assert capsys.readouterr().out == ""


class TestScoreCommand:
    def test_score_round_trip(self, small_files, tmp_path, capsys):
        data, truth = small_files
        aligned = tmp_path / "aligned.csv"
        assert main(["align", "--input", str(data), "--strategy", "greedy",
                     "--theta", "2.5", "--beta", "1",
                     "--out", str(aligned), "--report", str(tmp_path / "r.json")]) == 0
        report_path = tmp_path / "score.json"
        assert main(["score", "--aligned", str(aligned), "--truth", str(truth),
                     "--report", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert 0 <= payload["f1"] <= 1
        assert payload["aligned_tuple_count"] > 0

    def test_defect_after_a_quoted_multi_line_cell_names_its_file_line(
            self, small_files, tmp_path, capsys):
        # the quoted index of line 2 closes on line 3, so the malformed row is line 5
        _, truth = small_files
        aligned = write_csv(tmp_path / "aligned.csv", ALIGNED_HEADER
                            + '"1\n",0.0,1.0,1,0.0,1.0,1.0,0.0,0\n2,0,1,2,0,1,1,0,0\n3,x\n')
        capsys.readouterr()
        assert main(["score", "--aligned", aligned, "--truth", str(truth)]) == 3
        assert capsys.readouterr().err == f"data error: {aligned}:5: expected 9 cells, got 2\n"

    def test_score_matches_align_with_truth(self, small_files, tmp_path, capsys):
        data, truth = small_files
        aligned, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        assert main(["align", "--input", str(data), "--strategy", "expect",
                     "--tune-theta", "--tune-beta", "--truth", str(truth),
                     "--out", str(aligned), "--report", str(report)]) == 0
        score_path = tmp_path / "score.json"
        assert main(["score", "--aligned", str(aligned), "--truth", str(truth),
                     "--report", str(score_path)]) == 0
        metrics = json.loads(report.read_text())
        payload = json.loads(score_path.read_text())
        for key in ("precision", "recall", "f1", "aligned_tuple_count"):
            assert payload[key] == metrics[key]
        assert payload["total_weight"] == pytest.approx(metrics["total_weight"])

    def test_other_csv_of_the_aligned_width_is_data_error(self, small_files, tmp_path, capsys):
        # nine columns, as an aligned CSV of two series has, under other names
        _, truth = small_files
        aligned = write_csv(tmp_path / "other.csv",
                            "a,b,c,d,e,f,g,h,i\n1,0.0,1.0,1,0.0,1.0,1.0,0.0,0\n")
        report = tmp_path / "score.json"
        capsys.readouterr()
        assert main(["score", "--aligned", aligned, "--truth", str(truth),
                     "--report", str(report)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {aligned}: expected an alignment CSV for 2 series\n")
        assert not report.exists()

    def test_rows_outside_the_truth_are_data_error(self, small_files, tmp_path, capsys):
        _, truth = small_files
        aligned = write_csv(tmp_path / "aligned.csv",
                            "idx_1,t_1,v_1,idx_2,t_2,v_2,weight,theta_sim,phi_sim\n"
                            "1,0.0,1.0,999,0.0,1.0,1.0,0.0,998\n")
        assert main(["score", "--aligned", aligned, "--truth", str(truth)]) == 3

    def test_truth_of_another_table_is_data_error_without_report(self, tmp_path, capsys):
        # the n = 60 truth is another table; against its own truth the score is unchanged
        for n in (30, 60):
            assert main(["synth", "--n", str(n), "--m", "2", "--seed", "3", "--rate", "0.2",
                         "--out", str(tmp_path / f"data{n}.csv"),
                         "--truth-out", str(tmp_path / f"truth{n}.csv")]) == 0
        aligned = tmp_path / "aligned.csv"
        assert main(["align", "--input", str(tmp_path / "data30.csv"), "--strategy", "greedy",
                     "--theta", "3", "--beta", "1", "--out", str(aligned),
                     "--report", str(tmp_path / "r.json")]) == 0
        own = tmp_path / "own.json"
        assert main(["score", "--aligned", str(aligned), "--truth", str(tmp_path / "truth30.csv"),
                     "--report", str(own)]) == 0
        assert own.read_text() == (
            '{\n  "precision": 1.0,\n  "recall": 0.9666666666666667,\n'
            '  "f1": 0.983050847457627,\n  "aligned_tuple_count": 29,\n'
            '  "total_weight": 52.0\n}\n')
        capsys.readouterr()
        other = tmp_path / "other.json"
        assert main(["score", "--aligned", str(aligned), "--truth", str(tmp_path / "truth60.csv"),
                     "--report", str(other)]) == 3
        assert not other.exists()
        assert f"{aligned}:2: v_1 " in capsys.readouterr().err

    @pytest.fixture
    def aligned_rows(self, tmp_path):
        """The rows of a 29-tuple alignment of two series (header first), and its truth."""
        truth = tmp_path / "truth.csv"
        assert main(["synth", "--n", "30", "--m", "2", "--rate", "0.2", "--seed", "3",
                     "--out", str(tmp_path / "data.csv"), "--truth-out", str(truth)]) == 0
        aligned = tmp_path / "aligned.csv"
        assert main(["align", "--input", str(tmp_path / "data.csv"), "--truth", str(truth),
                     "--tune-theta", "--tune-beta", "--out", str(aligned),
                     "--report", str(tmp_path / "r.json")]) == 0
        rows = [line.split(",") for line in aligned.read_text().splitlines()]
        assert len(rows) == 30 and rows[1][6:] == ["2.0", "1.4429733316742321", "0"]
        return rows, str(truth)

    @staticmethod
    def score_rows(tmp_path, rows, truth, capsys):
        """``score``'s exit code, report and standard error on the CSV of ``rows``."""
        aligned = write_csv(tmp_path / "edited.csv", "".join(",".join(r) + "\n" for r in rows))
        report = tmp_path / "score.json"
        capsys.readouterr()
        code = main(["score", "--aligned", aligned, "--truth", truth, "--report", str(report)])
        err = capsys.readouterr().err.replace(aligned, "edited.csv")
        return code, report.read_text() if report.exists() else None, err

    def test_repeated_row_is_data_error(self, aligned_rows, tmp_path, capsys):
        # the parent scored this file with exit 0: 30 tuples, total weight 54.0
        rows, truth = aligned_rows
        assert self.score_rows(tmp_path, rows + [rows[1]], truth, capsys) == (
            3, None, "data error: edited.csv:31: idx_1 1 is also on line 2: "
                     "two rows share a cell\n")
        # one index shared with an earlier row is enough, in any series
        shared = [rows[9][0]] + rows[10][1:]
        assert self.score_rows(tmp_path, rows[:10] + [shared] + rows[11:], truth, capsys)[2] == (
            "data error: edited.csv:11: idx_1 9 is also on line 10: two rows share a cell\n")

    @pytest.mark.parametrize("edit, message", [
        # the parent scored these with exit 0 and the unedited file's report
        ({7: "-5", 8: "12345"}, "phi_sim 12345.0 is not 0, the row's largest index minus "
                                "its smallest"),
        ({8: ""}, "phi_sim is blank, not 0, the row's largest index minus its smallest"),
        ({7: "-5"}, "theta_sim -5.0 is not 1.4429733316742321, the spread of the row's "
                    "present t cells"),
        ({7: ""}, "theta_sim is blank, not 1.4429733316742321, the spread of the row's "
                  "present t cells"),
        ({4: ""}, "theta_sim 1.4429733316742321 must be blank: the row has fewer than two "
                  "present t cells"),
    ])
    def test_similarity_that_is_not_the_rows_is_data_error(self, aligned_rows, tmp_path,
                                                           capsys, edit, message):
        rows, truth = aligned_rows
        row = list(rows[1])
        for column, cell in edit.items():
            row[column] = cell
        assert self.score_rows(tmp_path, [rows[0], row] + rows[2:], truth, capsys) == (
            3, None, f"data error: edited.csv:2: {message}\n")

    @pytest.mark.parametrize("index", ["0", "31", "-4"])
    def test_index_outside_the_truth_names_its_line(self, aligned_rows, tmp_path, capsys,
                                                     index):
        # both indices of row 2 set alike keep its phi_sim of 0; the parent
        # said only "alignment does not fit the truth table".  Line 10's
        # idx_2, outside too, comes later in the file
        rows, truth = aligned_rows
        row = list(rows[1])
        row[0] = row[3] = index
        later = list(rows[9])
        later[3], later[8] = "35", str(35 - int(later[0]))
        edited = [rows[0], row] + rows[2:9] + [later] + rows[10:]
        assert self.score_rows(tmp_path, edited, truth, capsys) == (
            3, None, f"data error: edited.csv:2: idx_1 {index} is outside the truth's "
                     "rows 1..30\n")
        assert self.score_rows(tmp_path, rows[:9] + [later] + rows[10:], truth, capsys) == (
            3, None, "data error: edited.csv:10: idx_2 35 is outside the truth's rows 1..30\n")

    def test_row_rules_report_the_first_defect_in_file_order(self, aligned_rows, tmp_path,
                                                               capsys):
        # a repeated row at line 31, and a phi_sim off by one at line 5
        rows, truth = aligned_rows
        row = rows[4][:8] + [str(int(rows[4][8]) + 1)]
        edited = rows[:4] + [row] + rows[5:] + [rows[1]]
        assert self.score_rows(tmp_path, edited, truth, capsys)[2].startswith(
            "data error: edited.csv:5: phi_sim ")
        code, report, _ = self.score_rows(tmp_path, rows, truth, capsys)
        assert code == 0 and '"aligned_tuple_count": 29' in report

    def test_t_cells_whose_spread_overflows_are_data_error(self, tmp_path, capsys):
        # the parent warned of an overflow in the subtraction and then said
        # "theta_sim 0.0 is not inf"; align cannot write such a row
        truth = write_csv(tmp_path / "truth.csv", "t_1,v_1,t_2,v_2\n0,1,1,2\n10,2,11,3\n")
        rows = ALIGNED_HEADER + "1,-1e308,1,1,1e308,2,1.0,0.0,0\n"
        aligned = write_csv(tmp_path / "aligned.csv", rows)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["score", "--aligned", aligned, "--truth", truth,
                         "--report", str(tmp_path / "score.json")]) == 3
        assert capsys.readouterr().err == (
            f"data error: {aligned}:2: t_1 -1e+308 and t_2 1e+308 span more than a float "
            "can hold\n")
        assert not (tmp_path / "score.json").exists()

    @pytest.mark.parametrize("weights", [["nan"], ["inf"], ["1e308", "1e308"]])
    def test_non_finite_weight_sum_is_data_error_without_report(self, small_files, tmp_path,
                                                                 weights):
        _, truth = small_files
        aligned = write_csv(tmp_path / "aligned.csv",
                            "idx_1,t_1,v_1,idx_2,t_2,v_2,weight,theta_sim,phi_sim\n" + "".join(
                                f"{i},0.0,1.0,{i},0.0,1.0,{w},0.0,0\n"
                                for i, w in enumerate(weights, start=1)))
        report = tmp_path / "score.json"
        assert main(["score", "--aligned", aligned, "--truth", str(truth),
                     "--report", str(report)]) == 3
        assert not report.exists()


ALIGNED_HEADER = "idx_1,t_1,v_1,idx_2,t_2,v_2,weight,theta_sim,phi_sim\n"


@pytest.mark.usefixtures("blocks_of_three")
class TestReadAlignmentMatchesScan:
    """The block reader of ``score`` against the row-by-row reader it replaced,
    in blocks of 3 records: lines 2-4 of the file, then 5-7."""

    @staticmethod
    def both(path, m):
        """Each reader's lines, slots, t/v and theta_sim/phi_sim cells and weight
        sum, or its DataError message."""
        out = []
        for read in (cli._read_alignment_csv, read_alignment_scan):
            try:
                lines, slots, cells, sims, total = read(str(path), m)
            except DataError as exc:
                out.append(str(exc))
                continue
            cells = np.asarray(cells, dtype=float).reshape(-1, 2 * m)
            sims = np.asarray(sims, dtype=float).reshape(-1, 2)
            out.append((np.asarray(lines).tolist(), np.asarray(slots).reshape(-1, m).tolist(),
                        cells.view(np.int64).tolist(), sims.view(np.int64).tolist(), total))
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_aligned_files_with_blank_records(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        table = gappy_table(rng, 3, 25)
        params = WeightParams(3, 2, 1, 1)
        path = tmp_path / "aligned.csv"
        write_alignment_csv(random_alignment(rng, table, params), table, params, str(path))
        lines = path.read_text().splitlines()
        for at in sorted(rng.integers(1, len(lines) + 1, size=5).tolist(), reverse=True):
            lines.insert(at, "")
        path.write_text("\n".join(lines) + "\n")
        fast, scan = self.both(path, 3)
        assert fast == scan

    @pytest.mark.parametrize("text, message", [
        ("", None),
        ("1,0,1,1,0,1,1.5,0,0\n\n\n\n2,,1,2,0,,2.5,,0\n", None),
        # the last row of one block and the first row of the next
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,x,1,3,0,1,1,0,0\n4,0,1\n",
         ":4: not a number: 'x'"),
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,0,1,3,0,1,1,0,0\n4,0,1\n",
         ":5: expected 9 cells, got 3"),
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,0,1,3,0,1,inf,0,0\n4,0,1\n",
         ":4: not a finite number: 'inf' (leave the cell empty to mark it missing)"),
        ("1,0,1,1,0,1,1e308,0,0\n\n\n2,0,1,2,0,1,1e308,0,0\n",
         ":5: weight 1e+308 makes the weight sum non-finite"),
        ("1,0,1,1,0,1,1,0,0\n\n2,0,1,2,0,1,1,0,0\n\n\n3,0,1,3,0,1,1,0,0\n4,x\n",
         ":8: expected 9 cells, got 2"),
        # a cell csv cannot read, after and before a malformed row
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,x,1,3,0,1,1,0,0\n4,{big},1\n",
         ":4: not a number: 'x'"),
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,0,1,3,0,1,1,0,0\n4,{big},1\n5,x\n",
         ":5: field larger than field limit"),
        # a quoted index that spans lines 2-3: the rows after it start on lines 4 and 5
        ('"1\n",0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,0,1,3,0,1,1,0,0\n', None),
        ('"1\n",0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,x\n', ":5: expected 9 cells, got 2"),
        # rows of 7 cells (no theta_sim and phi_sim) and of 11, against the header's 9
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,0,1,3,0,1,1\n4,0,1,4,0,1,1,0,0\n",
         ":4: expected 9 cells, got 7"),
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,0,1,3,0,1,1,0,0\n4,0,1,4,0,1,1,0,0,0,0\n",
         ":5: expected 9 cells, got 11"),
    ])
    def test_defects_at_block_edges(self, tmp_path, text, message):
        path = write_csv(tmp_path / "aligned.csv", ALIGNED_HEADER + text.format(big=OVERSIZED))
        fast, scan = self.both(path, 2)
        if message is None:
            assert not isinstance(scan, str)
        else:
            assert isinstance(scan, str) and message in scan
        assert fast == scan

    def test_index_past_64_bits_is_malformed(self, tmp_path):
        # the row-by-row reader returned it, and scoring it crashed
        path = write_csv(tmp_path / "aligned.csv", ALIGNED_HEADER + "1,0,1,1,0,1,1,0,0\n"
                         "99999999999999999999,0,1,2,0,1,1,0,0\n3,x\n")
        with pytest.raises(DataError, match=r"aligned\.csv:3: malformed alignment row$"):
            cli._read_alignment_csv(path, 2)

    @pytest.mark.parametrize("cell", [" 1.5 ", "1_000", "+3", ".5", "-0.0", "", "   ",
                                      "nan", "inf", "1e400", "x"])
    def test_one_cell_rule_for_input_and_aligned_csv(self, tmp_path, cell):
        # the same spelling as a t_1 cell: both readers accept or reject it
        # alike, at line 3, and read it as the same float
        table = write_csv(tmp_path / "t.csv", f"t_1,v_1,t_2,v_2\n-1,1,-1,1\n{cell},1,0,1\n")
        aligned = write_csv(tmp_path / "a.csv", ALIGNED_HEADER
                            + f"1,-1,1,1,-1,1,1,0,0\n2,{cell},1,2,0,1,1,0,0\n")
        fast, scan = self.both(aligned, 2)
        assert fast == scan
        try:
            want = ingest(table).timestamps[0, 1]
        except DataError as exc:
            assert fast == aligned + str(exc)[len(table):]
            assert fast.startswith(aligned + ":3: ")
        else:
            assert fast[2][1][0] == np.float64(want).view(np.int64)

    @pytest.mark.parametrize("seed", range(16))
    def test_random_defects_report_the_first_in_file_order(self, tmp_path, seed):
        # rows of 9 cells, a few of them odd: cell, index and sum defects mix
        # across blocks of three, and both readers must name the same first one
        rng = np.random.default_rng(seed)
        odd = ["", " ", "x", "inf", "nan", "2.5", "1e20", "3.0", "-1e308", " 7 "]
        rows = []
        for i in range(1, 13):
            row = [str(i), "0", "1", str(i), "0", "1", "1e308" if rng.random() < 0.2 else "1",
                   "0", "0"]
            if rng.random() < 0.15:
                row[rng.integers(9)] = odd[rng.integers(len(odd))]
            rows.append(",".join(row[:8 if rng.random() < 0.03 else 9]))
        path = write_csv(tmp_path / "aligned.csv", ALIGNED_HEADER + "\n".join(rows) + "\n")
        fast, scan = self.both(path, 2)
        assert fast == scan

    @pytest.mark.parametrize("index", ["2.5", "", "inf", "1e20"])
    def test_index_that_is_no_row_is_rejected_at_its_line(self, tmp_path, index):
        path = write_csv(tmp_path / "aligned.csv", ALIGNED_HEADER + "1,0,1,1,0,1,1,0,0\n"
                         f"2,0,1,{index},0,1,1,0,0\n")
        fast, scan = self.both(path, 2)
        assert fast == scan and fast.startswith(f"{path}:3: ")

    def test_whole_float_index_names_its_row(self, tmp_path):
        path = write_csv(tmp_path / "aligned.csv", ALIGNED_HEADER + "3.0,0,1, 2 ,0,1,1,0,0\n")
        fast, scan = self.both(path, 2)
        assert fast == scan
        assert fast[1] == [[2, 1]]


class TestUnreadableFiles:
    """Files that are not UTF-8 text, or that csv cannot read, exit 3 without a traceback."""

    @pytest.fixture
    def files(self, small_files, tmp_path):
        data, truth = small_files
        aligned = tmp_path / "aligned.csv"
        assert main(["align", "--input", str(data), "--strategy", "greedy", "--theta", "2.5",
                     "--beta", "1", "--out", str(aligned),
                     "--report", str(tmp_path / "r.json")]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t_1,v_1,t_2,v_2\n0,1,0,1\n1,\xe9,1,1\n")
        return {"data": str(data), "truth": str(truth), "aligned": str(aligned), "bad": str(bad)}

    @pytest.mark.parametrize("argv", [
        ["align", "--input", "{bad}", "--theta", "3", "--beta", "1"],
        ["align", "--input", "{data}", "--truth", "{bad}", "--theta", "3", "--beta", "1"],
        ["score", "--aligned", "{aligned}", "--truth", "{bad}"],
        ["score", "--aligned", "{bad}", "--truth", "{truth}"],
    ])
    def test_non_utf8_file_is_data_error(self, files, tmp_path, capsys, argv):
        capsys.readouterr()
        out, report = tmp_path / "out.csv", tmp_path / "report.json"
        argv = [a.format(**files) for a in argv] + ["--report", str(report)]
        if argv[0] == "align":
            argv += ["--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == (f"data error: {files['bad']}: not UTF-8 text "
                       "(byte 0xe9: invalid continuation byte)\n")
        assert not out.exists() and not report.exists()

    def test_leading_byte_order_mark_is_dropped(self, files, tmp_path):
        for key in ("data", "aligned"):
            text = open(files[key], "rb").read()
            with open(tmp_path / f"bom_{key}.csv", "wb") as fh:
                fh.write(b"\xef\xbb\xbf" + text)
        assert_same_table(ingest(str(tmp_path / "bom_data.csv")), ingest(files["data"]))
        plain, bom = (tmp_path / "plain.json", tmp_path / "bom.json")
        for aligned, report in ((files["aligned"], plain), (tmp_path / "bom_aligned.csv", bom)):
            assert main(["score", "--aligned", str(aligned), "--truth", files["truth"],
                         "--report", str(report)]) == 0
        assert bom.read_text() == plain.read_text()

    @pytest.mark.parametrize("command", ["align", "score"])
    def test_oversized_cell_is_data_error_with_line(self, files, tmp_path, capsys, command):
        capsys.readouterr()
        lines = open(files["data" if command == "align" else "aligned"]).read().splitlines()
        lines[2] = OVERSIZED + lines[2][lines[2].index(","):]
        path = write_csv(tmp_path / "big.csv", "\n".join(lines) + "\n")
        report = tmp_path / "report.json"
        argv = (["align", "--input", path, "--theta", "3", "--beta", "1",
                 "--out", str(tmp_path / "out.csv")] if command == "align"
                else ["score", "--aligned", path, "--truth", files["truth"]])
        assert main(argv + ["--report", str(report)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}:3: field larger than field limit "
            f"({csv.field_size_limit()})\n")
        assert not report.exists()


def without_wall_time(rows):
    return [{key: value for key, value in row.items() if key != "wall_time_ms"}
            for row in rows]


def test_import_loads_no_statistics():
    # ``bench`` alone imports ``statistics``, which loads ``decimal`` and ``fractions``
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, tsalign.cli; "
            "print(sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


class TestBench:
    def test_small_matrix(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        code = main(["bench", "--n", "60", "--m", "2", "--seeds", "1",
                     "--rates", "0.1", "--strategies", "greedy", "expect",
                     "--report", str(report)])
        assert code == 0
        rows = json.loads(report.read_text())
        assert len(rows) == 2
        assert all(0 <= r["f1"] <= 1 for r in rows)

    def test_rows_match_the_stage_sequence(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        assert main(["bench", "--n", "40", "60", "--m", "3", "--seeds", "2",
                     "--rates", "0.1", "0.4", "--strategies", "greedy", "expect",
                     "--report", str(report)]) == 0
        expected = without_wall_time(
            benchmark_scan(n, 3, 2.5, rate, strategy, seed)
            for strategy in ("greedy", "expect") for n in (40, 60)
            for rate in (0.1, 0.4) for seed in range(2))
        rows = json.loads(report.read_text())
        assert len(rows) == len(expected)
        assert [{key: row[key] for key in want} for row, want in zip(rows, expected)] == expected

    @pytest.mark.parametrize("strategy", ["greedy", "expect"])
    @pytest.mark.parametrize("seed", [5, 61])
    def test_row_is_the_align_report_of_its_table(self, tmp_path, capsys, strategy, seed):
        data, truth = tmp_path / "data.csv", tmp_path / "truth.csv"
        report, bench = tmp_path / "report.json", tmp_path / "bench.json"
        assert main(["synth", "--n", "60", "--m", "3", "--rate", "0.2", "--seed", str(seed),
                     "--out", str(data), "--truth-out", str(truth)]) == 0
        assert main(["align", "--input", str(data), "--truth", str(truth),
                     "--strategy", strategy, "--theta", "7", "--beta", "1",
                     "--k1", "3", "--k2", "2", "--seed", str(seed),
                     "--out", str(tmp_path / "aligned.csv"), "--report", str(report)]) == 0
        assert main(["bench", "--n", "60", "--m", "3", "--rates", "0.2", "--seeds", "1",
                     "--seed", str(seed), "--theta", "7", "--beta", "1",
                     "--strategies", strategy, "--report", str(bench)]) == 0
        [row] = json.loads(bench.read_text())
        assert (row.pop("n"), row.pop("m"), row.pop("rate")) == (60, 3, 0.2)
        [aligned] = without_wall_time([json.loads(report.read_text())])
        assert json.dumps(without_wall_time([row])[0]) == json.dumps(aligned)

    def test_given_windows_are_used(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        assert main(["bench", "--n", "60", "--m", "3", "--seeds", "2", "--rates", "0.2",
                     "--theta", "7", "--beta", "1", "--report", str(report)]) == 0
        rows = json.loads(report.read_text())
        assert len(rows) == 4
        assert all((row["theta"], row["beta"]) == (7.0, 1) for row in rows)

    def test_summary_line_per_strategy_size_and_rate(self, capsys):
        assert main(["bench", "--n", "40", "80", "--m", "2", "--seeds", "2",
                     "--rates", "0.1", "0.3", "--strategies", "greedy", "expect"]) == 0
        summary = [line.split() for line in capsys.readouterr().out.splitlines()
                   if "median_ms=" in line]
        assert [tuple(words[:3]) for words in summary] == [
            (strategy, f"n={n}", f"rate={rate}") for strategy in ("greedy", "expect")
            for n in (40, 80) for rate in ("0.10", "0.30")]
        for words in summary:
            growth = words[-1].startswith("x")
            assert growth == (words[1] == "n=80")
            if growth:
                assert float(words[-1][1:]) > 0

    def test_zero_seeds_is_config_error(self):
        assert main(["bench", "--n", "40", "--seeds", "0"]) == 2

    def test_guard_keeps_the_finished_runs(self, tmp_path, capsys):
        # exact refuses the 40 candidates of the second run
        args = ["bench", "--n", "40", "--m", "2", "--seeds", "1", "--rates", "0.1"]
        report, alone = tmp_path / "bx.json", tmp_path / "greedy.json"
        assert main([*args, "--strategies", "greedy", "exact", "--report", str(report)]) == 4
        assert capsys.readouterr().err == (
            "size guard: |R_c| = 40 > 24: exact enumeration refused, "
            "use setpack/greedy/expect\n")
        assert main([*args, "--strategies", "greedy", "--report", str(alone)]) == 0
        rows = json.loads(report.read_text())
        assert [row["strategy"] for row in rows] == ["greedy"]
        assert without_wall_time(rows) == without_wall_time(json.loads(alone.read_text()))

    @pytest.mark.parametrize("flags, message", [
        (["--rates", "0.1", "1.5"], "missing rate must lie in [0, 1]"),
        (["--rates", "0.1", "nan"], "missing rate must lie in [0, 1]"),
        (["--n", "40", "1"], "need n >= 2 and m >= 2"),
        (["--m", "1"], "need n >= 2 and m >= 2"),
        (["--jitter", "-1"], "jitter must be non-negative"),
        (["--tick", "0"], "tick must be positive"),
        (["--theta", "-1"], "theta must be non-negative (infinity disables the time check)"),
        (["--beta", "-1"], "beta must be a non-negative integer"),
        (["--seeds", "0"], "--seeds must be at least 1"),
        (["--seed", "-3"], "seed must be non-negative"),
    ])
    def test_every_option_is_checked_before_the_first_run(self, tmp_path, capsys,
                                                         monkeypatch, flags, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli.evaluation, "generate_synthetic", no_run)
        report = tmp_path / "bench.json"
        assert main(["bench", "--n", "40", "--m", "2", "--seeds", "1", "--rates", "0.1",
                     *flags, "--report", str(report)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not report.exists()


class TestTune:
    def test_report_matches_the_stage_sequence(self, small_files, tmp_path, capsys):
        data, _ = small_files
        report = tmp_path / "tuning.json"
        assert main(["tune", "--input", str(data), "--percentile", "90", "--beta-lower", "1",
                     "--k-max", "3", "--seed", "1", "--report", str(report)]) == 0
        table = ingest(str(data))
        theta = determine_theta(table, percentile=90)
        beta = determine_beta(table, theta, beta_lower=1)
        rc = generate_candidates(table, ConstraintConfig(theta=theta, beta=beta))
        tuned = determine_weights_and_delta(
            rc, grid=[(k1, k2) for k1 in range(1, 4) for k2 in range(1, 4)],
            strategy="greedy", seed=1)
        assert json.loads(report.read_text()) == json.loads(json.dumps({
            "theta": tuned.config.theta, "beta": tuned.config.beta,
            "delta": tuned.config.delta, "k1": tuned.weights.k1, "k2": tuned.weights.k2,
            "b": tuned.weights.b, "c": tuned.weights.c, "diagnostics": tuned.diagnostics}))
