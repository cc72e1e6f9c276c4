import csv
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsalign import (
    AlignedTuple,
    Alignment,
    ConstraintConfig,
    DataError,
    SeriesTable,
    WeightParams,
    compose_greedy,
    determine_weights_and_delta,
    generate_candidates,
)
from tsalign import cli
from tsalign.cli import BLOCK_ROWS, ingest, main, write_alignment_csv, write_table
from tsalign.consistency import ConsistencyReport
from tsalign.evaluation import GroundTruth, generate_synthetic, inject_mcar
from tsalign.tuning import determine_beta, determine_theta
from conftest import (assert_same_table, benchmark_scan, gappy_table, ingest_scan,
                      random_table, read_alignment_scan, write_alignment_scan, write_table_scan)

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
    report = ConsistencyReport(np.zeros(0), np.zeros(0), 0.0, np.zeros((0, 0)), (), True)
    return Alignment([r.slots for r in tuples], 0.0, report, "test")


def random_alignment(rng, table, params):
    """A greedy alignment of ``table`` under random windows."""
    cfg = ConstraintConfig(theta=float(rng.uniform(0, 30)), beta=int(rng.integers(0, 3)))
    return compose_greedy(generate_candidates(table, cfg), cfg, params,
                          seed=int(rng.integers(100)))


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
        tables, alive_at_generate = [], []
        read, generate = cli.ingest, cli.generate_candidates

        def read_and_watch(path):
            table = read(path)
            tables.append(weakref.ref(table))
            return table

        def generate_and_check(*args, **kwargs):
            gc.collect()
            alive_at_generate.append([ref() is not None for ref in tables])
            return generate(*args, **kwargs)

        monkeypatch.setattr(cli, "ingest", read_and_watch)
        monkeypatch.setattr(cli, "generate_candidates", generate_and_check)
        code = main(["align", "--input", str(data), *flags, "--truth", str(truth),
                     "--out", str(tmp_path / "a.csv"), "--report", str(tmp_path / "r.json")])
        assert code == 0
        assert alive_at_generate == [[True, False]]

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
        assert (metrics["k1"], metrics["k2"], metrics["delta"]) == (tuned.k1, tuned.k2,
                                                                     tuned.delta)
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
                (True, tuned.delta, WeightParams(k1=tuned.k1, k2=tuned.k2), grid)):
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
    ])
    def test_non_finite_option_is_config_error_without_artifacts(self, tmp_path, flags):
        data = tmp_path / "data.csv"
        assert main(["synth", "--n", "50", "--m", "3", "--out", str(data)]) == 0
        out, report = tmp_path / "aligned.csv", tmp_path / "report.json"
        code = main(["align", "--input", str(data), "--strategy", "greedy", *flags,
                     "--out", str(out), "--report", str(report)])
        assert code == 2
        assert not out.exists() and not report.exists()

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
        """Each reader's lines, slots, cells and weight sum, or its DataError message."""
        out = []
        for read in (cli._read_alignment_csv, read_alignment_scan):
            try:
                lines, slots, cells, total = read(str(path), m)
            except DataError as exc:
                out.append(str(exc))
                continue
            cells = np.asarray(cells, dtype=float).reshape(-1, 2 * m)
            out.append((np.asarray(lines).tolist(), np.asarray(slots).reshape(-1, m).tolist(),
                        cells.view(np.int64).tolist(), total))
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
         ":4: malformed alignment row"),
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,0,1,3,0,1,1,0,0\n4,0,1\n",
         ":5: malformed alignment row"),
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,0,1,3,0,1,inf,0,0\n4,0,1\n",
         ":4: weight 'inf' makes the weight sum non-finite"),
        ("1,0,1,1,0,1,1e308,0,0\n\n\n2,0,1,2,0,1,1e308,0,0\n",
         ":5: weight '1e308' makes the weight sum non-finite"),
        ("1,0,1,1,0,1,1,0,0\n\n2,0,1,2,0,1,1,0,0\n\n\n3,0,1,3,0,1,1,0,0\n4,x\n",
         ":8: malformed alignment row"),
        # a cell csv cannot read, after and before a malformed row
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,x,1,3,0,1,1,0,0\n4,{big},1\n",
         ":4: malformed alignment row"),
        ("1,0,1,1,0,1,1,0,0\n2,0,1,2,0,1,1,0,0\n3,0,1,3,0,1,1,0,0\n4,{big},1\n5,x\n",
         ":5: field larger than field limit"),
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
            "theta": tuned.theta, "beta": tuned.beta, "delta": tuned.delta,
            "k1": tuned.k1, "k2": tuned.k2, "b": tuned.b, "c": tuned.c,
            "diagnostics": tuned.diagnostics}))
