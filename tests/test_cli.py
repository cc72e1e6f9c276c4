import json

import numpy as np
import pytest

from tsalign import DataError
from tsalign.cli import ingest, main, write_table
from tsalign.evaluation import generate_synthetic, inject_mcar


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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

    def test_empty_cell_becomes_missing(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n0,1.0,0,2.0\n1,,1,\n")
        table = ingest(path)
        assert not table.value_mask[0, 1]
        assert not table.value_mask[1, 1]

    def test_decreasing_timestamps_rejected_with_location(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "t_1,v_1,t_2,v_2\n5,1,0,1\n3,1,1,1\n")
        with pytest.raises(DataError, match="series 1 line 3"):
            ingest(path)

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
