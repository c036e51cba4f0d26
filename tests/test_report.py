import csv
import io
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pilotopt import ConfigurationError, ExperimentConfig
from pilotopt.harness import ConvergenceResult, SweepRow, convergence_trace, sweep_snr
from pilotopt.optimizer import OptimizerTrace
from pilotopt.plot import svg
from pilotopt.report import (
    SWEEP_HEADER,
    TRACE_HEADER,
    emit,
    write_json,
    write_sweep_csv,
    write_trace_csv,
)


def sample_rows():
    return [
        SweepRow(0.0, 4, "proposed", 0.759712345678901, 0.76012, 0.0021, 500, 3),
        SweepRow(0.0, 4, "conventional", 0.789304, 0.78877, 0.0022, 500, None),
        SweepRow(10.0, 4, "proposed", 0.549, 0.5493, 0.0017, 500, 2),
        SweepRow(10.0, 4, "conventional", 1.0436, 1.0429, 0.0031, 500, None),
    ]


def sample_traces():
    t1 = OptimizerTrace(np.array([2.5, 2.4, 2.35, 2.35]), 2, True, 2.8)
    t2 = OptimizerTrace(np.array([2.45, 2.36, 2.35, 2.35]), 2, True, 3.1)
    return [
        ConvergenceResult("dft-reuse", 0.0, t1, 2.35, 3),
        ConvergenceResult("dft-k", 0.0, t2, 2.35, 3),
    ]


class TestSweepCsv:
    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_sweep_csv([], path)
        assert path.read_text() == ",".join(SWEEP_HEADER) + "\n"

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = sample_rows()
        write_sweep_csv(rows, path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert float(b["snr_db"]) == a.snr_db
            assert int(b["n"]) == a.n
            assert b["algorithm"] == a.algorithm
            # repr-based formatting round-trips doubles exactly, which is
            # stronger than the 12-significant-digit requirement
            assert float(b["wsmse_analytic"]) == a.wsmse_analytic
            assert float(b["wsmse_empirical"]) == a.wsmse_empirical
            assert float(b["stderr"]) == a.stderr
            assert int(b["trials"]) == a.trials
            assert b["sweeps"] == ("" if a.sweeps is None else str(a.sweeps))


class TestTraceCsv:
    def test_layout_and_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(sample_traces(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        assert lines[1].startswith("dft-reuse,0,")
        with open(path, newline="") as fh:
            parsed = {}
            for row in csv.DictReader(fh):
                parsed.setdefault(row["init"], []).append(float(row["objective"]))
        assert parsed["dft-reuse"] == [2.8, 2.5, 2.4, 2.35, 2.35]
        assert parsed["dft-k"][0] == 3.1


class TestJson:
    def test_sweep_fields_mirrored(self, tmp_path):
        path = tmp_path / "rows.json"
        emit(sample_rows(), "json", path)
        data = json.loads(path.read_text())
        assert data[0] == {
            "snr_db": 0.0,
            "n": 4,
            "algorithm": "proposed",
            "wsmse_analytic": 0.759712345678901,
            "wsmse_empirical": 0.76012,
            "stderr": 0.0021,
            "trials": 500,
            "sweeps": 3,
        }
        assert data[1]["sweeps"] is None

    def test_trace_fields(self, tmp_path):
        path = tmp_path / "traces.json"
        emit(sample_traces(), "json", path)
        data = json.loads(path.read_text())
        assert data[0]["init"] == "dft-reuse"
        assert data[0]["objective_per_update"] == [2.5, 2.4, 2.35, 2.35]
        assert data[0]["converged"] is True

    def test_non_finite_value_refused_before_the_file_opens(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            write_json({"wsmse": float("inf")}, path)
        assert not path.exists()


class TestSvg:
    def test_wellformed_one_polyline_per_series(self):
        series = [
            ("proposed", [0, 10, 20], [0.76, 0.55, 0.51]),
            ("conventional", [0, 10, 20], [0.79, 1.04, 2.49]),
        ]
        root = ET.fromstring(svg(series, x_label="SNR (dB)", y_label="normalized WSMSE"))
        tag = "{http://www.w3.org/2000/svg}polyline"
        polylines = root.findall(f".//{tag}")
        assert len(polylines) == 2
        for pl in polylines:
            assert pl.get("points")

    def test_markers_only_on_one_point_series(self, tmp_path):
        # a polyline draws a line of two points or more, but nothing of one
        ns = "{http://www.w3.org/2000/svg}"
        emit(sample_rows()[:2], "svg", tmp_path / "point.svg")
        root = ET.fromstring((tmp_path / "point.svg").read_text())
        circles = root.findall(f"{ns}circle")
        assert len(circles) == len(root.findall(f"{ns}polyline")) == 2
        assert len({c.get("fill") for c in circles}) == 2
        emit(sample_traces(), "svg", tmp_path / "trace.svg")
        root = ET.fromstring((tmp_path / "trace.svg").read_text())
        assert len(root.findall(f"{ns}polyline")) == 2
        assert root.findall(f"{ns}circle") == []

    def test_nonpositive_values_fall_back_to_linear(self):
        ET.fromstring(svg([("zero", [0, 1], [0.0, 1.0])]))


class TestEmit:
    def test_dispatch_by_format(self, tmp_path):
        rows = sample_rows()
        emit(rows, "csv", tmp_path / "r.csv")
        emit(rows, "json", tmp_path / "r.json")
        emit(rows, "svg", tmp_path / "r.svg")
        assert (tmp_path / "r.csv").exists()
        assert (tmp_path / "r.json").exists()
        root = ET.fromstring((tmp_path / "r.svg").read_text())
        tag = "{http://www.w3.org/2000/svg}polyline"
        assert len(root.findall(f".//{tag}")) == 2

    def test_traces_svg_one_polyline_per_init(self, tmp_path):
        ecfg = ExperimentConfig(antennas=8, users=4, gains=[0.8, 0.5, 0.3, 0.9],
                                snr_db_list=[0.0], n_list=[2], trials=10, seed=2)
        results = convergence_trace(ecfg)
        emit(results, "svg", tmp_path / "t.svg")
        root = ET.fromstring((tmp_path / "t.svg").read_text())
        tag = "{http://www.w3.org/2000/svg}polyline"
        assert len(root.findall(f".//{tag}")) == 3

    def test_csv_parses_back_to_the_cells_written(self, tmp_path):
        # the CSV lines are joined without quoting, so every cell must be
        # one that csv.reader reads back unchanged and csv.writer would not
        # quote: the file holds the bytes the csv module would write
        ecfg = ExperimentConfig(antennas=8, users=4, gains=[0.8, 0.5, 0.3, 0.9],
                                snr_db_list=[-10.0, 0.0], n_list=[2, 3], trials=10,
                                seed=2, init="random")
        rows = sample_rows() + sweep_snr(ecfg)
        traces = sample_traces() + convergence_trace(
            ExperimentConfig(antennas=8, users=4, gains=[0.8, 0.5, 0.3, 0.9],
                             snr_db_list=[0.0], n_list=[2], seed=2))
        sweep_cells = [SWEEP_HEADER] + [
            [repr(float(r.snr_db)), str(r.n), r.algorithm, repr(r.wsmse_analytic),
             repr(r.wsmse_empirical), repr(r.stderr), str(r.trials),
             "" if r.sweeps is None else str(r.sweeps)]
            for r in rows
        ]
        trace_cells = [TRACE_HEADER] + [
            [res.init, str(i), repr(float(obj))]
            for res in traces
            for i, obj in enumerate([res.trace.initial_objective,
                                     *res.trace.objective_per_update])
        ]
        assert {r.sweeps is None for r in rows} == {True, False}
        for items, cells in [(rows, sweep_cells), (traces, trace_cells)]:
            path = tmp_path / "out.csv"
            emit(items, "csv", path)
            with open(path, newline="") as fh:
                assert list(csv.reader(fh)) == cells
            expected = io.StringIO()
            csv.writer(expected, lineterminator="\n").writerows(cells)
            assert path.read_bytes() == expected.getvalue().encode()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit(sample_rows(), "xlsx", tmp_path / "r.xlsx")
