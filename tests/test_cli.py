"""Tests for the command-line harness: output contents, config handling,
exit codes, and byte-level determinism."""

import gc
import json
from pathlib import Path

import numpy as np
import pytest

from rpsdm.channel import circulant_matrix, draw_channel, structure_report
from rpsdm.cli import _build_parser, main
from rpsdm.detection import QamConstellation
from rpsdm.metrics import worst_case_papr
from rpsdm.ramanujan import build_transform
from rpsdm.transforms import Scheme


def run(*argv) -> int:
    return main(list(argv))


class TestPaprWorstCommand:
    def test_table_values(self, tmp_path, capsys):
        out = tmp_path / "worst.csv"
        assert run("papr-worst", "--n", "8,16,32,64,128,256,512", "--m", "16",
                   "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,scheme,worst_case_papr_db"
        assert len(lines) == 1 + 14
        qam = QamConstellation.from_order(16)
        for line in lines[1:]:
            n, scheme, value = line.split(",")
            expected = worst_case_papr(Scheme(scheme), int(n), qam)
            assert float(value) == pytest.approx(expected, abs=1e-12)
        assert "11.58" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        out = tmp_path / "worst.json"
        assert run("papr-worst", "--n", "8", "--output", str(out),
                   "--format", "json") == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "papr-worst"
        assert payload["config"] == {"n": [8], "m": 16}
        assert len(payload["rows"]) == 2


class TestComplexityCommand:
    def test_table_values(self, tmp_path):
        out = tmp_path / "complexity.csv"
        assert run("complexity", "--n", "4,16,64,256", "--output", str(out)) == 0
        rows = {}
        for line in out.read_text().splitlines()[1:]:
            n, op, scheme, mults, adds = line.split(",")
            rows[(int(n), op, scheme)] = (int(mults), int(adds))
        assert rows[(4, "modulator_fast", "ofdm")] == (16, 24)
        assert rows[(4, "modulator_fast", "rpsdm")] == (24, 16)
        assert rows[(64, "modulator_fast", "ofdm")] == (768, 1152)
        assert rows[(256, "modulator_fast", "rpsdm")] == (4608, 4096)


class TestSpectrumCommand:
    def test_supports_for_n8(self, tmp_path, capsys):
        out = tmp_path / "spectrum.json"
        assert run("spectrum", "--n", "8", "--output", str(out),
                   "--format", "json") == 0
        payload = json.loads(out.read_text())
        supports = {entry["q"]: entry["support"] for entry in payload["subspaces"]}
        assert supports == {1: [0], 2: [4], 4: [2, 6], 8: [1, 3, 5, 7]}
        # union covers every bin exactly once
        flattened = sorted(k for bins in supports.values() for k in bins)
        assert flattened == list(range(8))
        for entry in payload["subspaces"]:
            magnitude = np.array(entry["magnitude"])
            on = np.zeros(8, dtype=bool)
            on[entry["support"]] = True
            assert (magnitude[on] > 1e-9).all()
            assert (magnitude[~on] < 1e-9).all()

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run("spectrum", "--n", "4", "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,k,magnitude"
        assert len(lines) == 1 + 3 * 4  # three divisors, four bins each


class TestDumpBasisCommand:
    def test_matrices_round_trip(self, tmp_path):
        prefix = str(tmp_path / "basis")
        assert run("dump-basis", "--n", "12", "--output", prefix) == 0
        transform = build_transform(12)
        lines = lambda suffix: Path(prefix + suffix).read_text().splitlines()
        e_t = np.array([[int(v) for v in line.split(",")] for line in lines("_et.csv")])
        np.testing.assert_array_equal(e_t, transform.e_t)
        q_norm = np.array([float(line) for line in lines("_qnorm.csv")])
        np.testing.assert_allclose(q_norm, transform.q_norm, rtol=1e-15)
        e_r = np.array([[float(v) for v in line.split(",")] for line in lines("_er.csv")])
        np.testing.assert_allclose(e_r, transform.e_r, rtol=1e-15)

    def test_rejects_json(self, tmp_path):
        prefix = tmp_path / "basis"
        assert run("dump-basis", "--n", "4", "--output", str(prefix), "--format", "json") == 2
        assert list(tmp_path.iterdir()) == []


class TestDecomposeCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "dec.json"
        assert run("decompose", "--n", "8", "--l", "3", "--seed", "5",
                   "--scheme", "rpsdm", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["config"] == {"n": 8, "l": 3, "seed": 5, "scheme": "rpsdm"}
        assert payload["report"]["stair_block_ok"] is True
        assert [b["size"] for b in payload["report"]["blocks"]] == [1, 1, 2, 4]
        assert len(payload["matrix_real"]) == 8

    def test_ofdm_variant(self, tmp_path):
        out = tmp_path / "dec.json"
        assert run("decompose", "--n", "8", "--l", "3", "--seed", "5",
                   "--scheme", "ofdm", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["structure"] == "diagonal"

    @pytest.mark.parametrize("n, l, seed", [(12, 4, 79), (8, 3, 5)])
    def test_reports_the_dense_product(self, tmp_path, n, l, seed):
        # the matrix and its report are those of e_r @ H_cir @ forward itself,
        # whose off-block residue is rounding, not the gains route's exact zeros
        out = tmp_path / "dec.json"
        assert run("decompose", "--n", str(n), "--l", str(l), "--seed", str(seed),
                   "--scheme", "rpsdm", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        transform = build_transform(n)
        dense = transform.e_r @ circulant_matrix(draw_channel(seed, l, n)) @ transform.forward
        assert payload["matrix_real"] == dense.real.tolist()
        assert payload["matrix_imag"] == dense.imag.tolist()
        report = json.loads(json.dumps(structure_report(dense, transform.layout)))
        assert payload["report"] == report
        assert report["off_block_residual"] > 0

    def test_rejects_csv(self, tmp_path):
        code = run("decompose", "--n", "8", "--l", "3", "--seed", "5",
                   "--scheme", "rpsdm", "--format", "csv")
        assert code == 2


class TestCurveCommands:
    def test_ccdf_output(self, tmp_path):
        out = tmp_path / "ccdf.csv"
        assert run("papr-ccdf", "--n", "8", "--m", "16", "--trials", "400",
                   "--seed", "3", "--thresholds", "0:10:1", "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,n,threshold_db,ccdf,ci_low,ci_high"
        assert len(lines) == 1 + 2 * 11  # both schemes, 11 thresholds

    def test_ber_json_metadata(self, tmp_path):
        out = tmp_path / "ber.json"
        assert run("ber", "--n", "8", "--l", "2", "--m", "16", "--snr", "10,20",
                   "--trials", "10", "--seed", "4", "--scheme", "rpsdm",
                   "--detector", "zf", "--output", str(out), "--format", "json") == 0
        payload = json.loads(out.read_text())
        (curve,) = payload["curves"]
        assert curve["config"]["scheme"] == "rpsdm"
        assert "resampled_trials" in curve["metadata"]
        assert len(curve["values"]) == 2


class TestDeterminism:
    def test_ccdf_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["papr-ccdf", "--n", "8", "--trials", "500", "--seed", "11",
                "--thresholds", "0:12:0.5"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("threads", ["0", "two"])
    def test_thread_variable_changes_nothing(self, tmp_path, monkeypatch, threads):
        # RPSDM_THREADS once picked a worker count; the single-process engine
        # reads no environment, so even a value that was once refused runs
        plain, set_ = tmp_path / "plain.csv", tmp_path / "set.csv"
        argv = ["ber", "--n", "8", "--l", "3", "--snr", "5,15", "--trials", "25",
                "--seed", "12"]
        monkeypatch.delenv("RPSDM_THREADS", raising=False)
        assert main(argv + ["--output", str(plain)]) == 0
        monkeypatch.setenv("RPSDM_THREADS", threads)
        assert main(argv + ["--output", str(set_)]) == 0
        assert plain.read_bytes() == set_.read_bytes()

    @pytest.mark.parametrize("workers, code", [("1", 0), ("2", 0), ("0", 2)])
    def test_workers_flag_is_validated_and_selects_nothing(self, tmp_path, workers, code):
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        argv = ["ber", "--n", "8", "--l", "3", "--snr", "5,15", "--trials", "25",
                "--seed", "12"]
        assert main(argv + ["--output", str(plain)]) == 0
        assert main(argv + ["--workers", workers, "--output", str(flagged)]) == code
        if code == 0:
            assert flagged.read_bytes() == plain.read_bytes()
        else:
            assert not flagged.exists()


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    BER = ["ber", "--n", "16", "--l", "3", "--snr", "5,15", "--trials", "6", "--seed", "13"]
    CCDF = ["papr-ccdf", "--n", "8,12", "--trials", "50", "--seed", "13",
            "--thresholds", "0:9:1"]

    @pytest.mark.parametrize("argv", [BER, CCDF], ids=["ber", "papr-ccdf"])
    def test_a_warm_call_leaves_no_cyclic_garbage(self, tmp_path, capsys, argv):
        argv = argv + ["--output", str(tmp_path / "out.csv")]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    @pytest.mark.parametrize("argv", [BER, CCDF], ids=["ber", "papr-ccdf"])
    def test_repeated_calls_write_identical_bytes(self, tmp_path, capsys, argv):
        outputs = [tmp_path / f"{i}.csv" for i in range(3)]
        for out in outputs:
            assert main(argv + ["--output", str(out)]) == 0
        assert len({out.read_bytes() for out in outputs}) == 1

    def test_a_failure_between_successes_changes_nothing(self, tmp_path, capsys):
        bad = self.BER[:-1] + ["-1"]
        with pytest.raises(SystemExit) as fresh:
            _build_parser.__wrapped__().parse_args(bad)
        assert fresh.value.code == 2
        expected_err = capsys.readouterr().err
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(self.BER + ["--output", str(first)]) == 0
        capsys.readouterr()
        for _ in range(2):
            assert main(bad) == 2
            assert capsys.readouterr().err == expected_err
        assert main(self.BER + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestConfigFile:
    def test_file_supplies_values_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# ber experiment\nn = 8\nl = 2\nseed = 9\n"
                       "trials = 50\nsnr = 10,20\nscheme = rpsdm\ndetector = zf\n"
                       "workers = 1\n")
        out_file = tmp_path / "file.csv"
        out_flag = tmp_path / "flag.csv"
        assert run("ber", "--config", str(cfg), "--output", str(out_file)) == 0
        # --trials overrides the file entry
        assert run("ber", "--config", str(cfg), "--trials", "10",
                   "--output", str(out_flag)) == 0
        file_lines = out_file.read_text().splitlines()
        flag_lines = out_flag.read_text().splitlines()
        assert len(file_lines) == len(flag_lines) == 1 + 2
        assert file_lines[1] != flag_lines[1]  # different trial counts

    def test_missing_file_is_config_error(self, tmp_path):
        assert run("ber", "--config", str(tmp_path / "nope.cfg")) == 2

    def test_malformed_line_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 8\n")
        assert run("spectrum", "--config", str(cfg)) == 2

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a misspelled entry must not fall back to the default, as a
        # misspelled flag does not
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n = 8\nl = 2\nseed = 1\nsnr = 10\ntrails = 3\n")
        out = tmp_path / "never.csv"
        assert run("ber", "--config", str(cfg), "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'trails'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, entries", [
        ("ber", "n = 8\nseed = 1\nl = abc\n"),
        ("ber", "n = 8\nl = 2\nseed = 1\ntrials = 1.5\n"),
        ("papr-worst", "n = 8\nm = x\n"),
        ("papr-ccdf", "n = 8\nseed = 1\ntrials = 10\nscheme = qpsk\n"),
        ("papr-worst", "n = 8\nformat = xml\n"),
        ("ber", "n = 8\nl = 2\nseed = 1\nsnr = 0,nan\n"),
        ("ber", "n = 8\nl = 2\nseed = 1\nsnr = 0,3300\n"),
        ("ber", "n = 8\nl = 2\nseed = 1\nworkers = 0\n"),
    ], ids=["l", "trials", "m", "scheme", "format", "snr-nan", "snr-noise-free", "workers"])
    def test_entries_are_parsed_like_flags(self, tmp_path, capsys, command, entries):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(entries)
        out = tmp_path / "never.csv"
        assert run(command, "--config", str(cfg), "--output", str(out)) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()


#: one small run per command that writes a table or report file
LAYOUT_RUNS = {
    "spectrum": ("spectrum", "--n", "4"),
    "papr-worst": ("papr-worst", "--n", "4"),
    "complexity": ("complexity", "--n", "4"),
    "papr-ccdf": ("papr-ccdf", "--n", "4", "--trials", "5", "--seed", "1",
                  "--thresholds", "0,3"),
    "ber": ("ber", "--n", "4", "--l", "2", "--trials", "2", "--seed", "1", "--snr", "10"),
    "decompose": ("decompose", "--n", "4", "--l", "2", "--seed", "1", "--scheme", "rpsdm"),
}

_CURVE_KEYS = ["config", "grid", "values", "ci_low", "ci_high", "metadata"]


class TestFileLayout:
    """Header lines and JSON key orders (top level, config, first row, curve or
    report) as the files have always had them; json.dumps keeps insertion
    order, so a reordered payload changes the bytes."""

    @pytest.mark.parametrize("command, fmt, expected", [
        ("spectrum", "csv", "q,k,magnitude"),
        ("spectrum", "json", [["command", "config", "subspaces"], ["n"],
                              ["q", "subcarriers", "support", "magnitude"]]),
        ("papr-worst", "csv", "n,scheme,worst_case_papr_db"),
        ("papr-worst", "json", [["command", "config", "rows"], ["n", "m"],
                                ["n", "scheme", "papr_db"]]),
        ("complexity", "csv", "n,operation,scheme,real_mults,real_adds"),
        ("complexity", "json", [["command", "config", "rows"], ["n"],
                                ["n", "operation", "scheme", "real_mults", "real_adds"]]),
        ("papr-ccdf", "csv", "scheme,n,threshold_db,ccdf,ci_low,ci_high"),
        ("papr-ccdf", "json", [["command", "config", "curves"],
                               ["n", "m", "trials", "seed", "schemes", "thresholds"],
                               _CURVE_KEYS]),
        ("ber", "csv", "scheme,detector,n,l,m,snr_db,ber,ci_low,ci_high"),
        ("ber", "json", [["command", "config", "curves"],
                         ["n", "l", "m", "trials", "seed", "schemes", "detectors", "snr"],
                         _CURVE_KEYS]),
        ("decompose", "json", [["command", "config", "taps", "matrix_real", "matrix_imag",
                                "report"], ["n", "l", "seed", "scheme"],
                               ["structure", "off_block_residual", "stair_block_ok", "blocks"]]),
    ])
    def test_layout(self, tmp_path, command, fmt, expected):
        out = tmp_path / f"out.{fmt}"
        assert run(*LAYOUT_RUNS[command], "--output", str(out), "--format", fmt) == 0
        text = out.read_text()
        if fmt == "csv":
            assert text.splitlines()[0] == expected
            return
        payload = json.loads(text)
        first = next((payload[key][0] for key in ("rows", "curves", "subspaces")
                      if key in payload), payload.get("report"))
        assert [list(payload), list(payload["config"]), list(first)] == expected
        if "curves" in payload:
            assert list(first["config"]) == ["scheme", "detector", "n", "l", "m",
                                             "trials", "seed", "grid"]


class TestConfigErrors:
    def test_missing_seed(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run("papr-ccdf", "--n", "8", "--trials", "10", "--output", str(out))
        assert code == 2
        assert not out.exists()  # no partial files on config errors

    @pytest.mark.parametrize("argv", [
        ("papr-worst", "--n", "8", "--m", "32"),
        ("ber", "--n", "8", "--l", "9", "--seed", "1"),
        ("ber", "--n", "8", "--l", "2", "--seed", "1", "--trials", "0"),
        ("papr-ccdf", "--n", "8", "--seed", "1", "--thresholds", "junk"),
        ("spectrum", "--n", "8,16"),
        ("complexity", "--n", "0"),
        ("papr-ccdf", "--n", "8", "--trials", "10", "--seed", "-1"),
        ("papr-ccdf", "--n", "8", "--seed", "1", "--thresholds", "0:inf:1"),
        ("papr-ccdf", "--n", "8", "--seed", "1", "--thresholds", "0,nan"),
        ("ber", "--n", "8", "--l", "2", "--seed", "1", "--snr", "0:inf:5"),
        ("ber", "--n", "8", "--l", "2", "--seed", "1", "--snr", "-1e308:1e308:1"),
        ("ber", "--n", "8", "--l", "2", "--seed", "1", "--snr", "inf", "--detector", "zf"),
        ("ber", "--n", "8", "--l", "2", "--seed", "1", "--snr", "nan"),
        ("ber", "--n", "8", "--l", "2", "--seed", "1", "--snr", "0,3300"),
        ("ber", "--n", "8", "--l", "2", "--seed", "1", "--snr=-4000"),
    ])
    def test_invalid_configs_exit_2(self, argv):
        assert run(*argv) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run("frobnicate") == 2

    @pytest.mark.parametrize("argv, target", [
        (("ber", "--n", "8", "--l", "2", "--trials", "2", "--seed", "1"), "missing/x.csv"),
        (("dump-basis", "--n", "4"), "missing/b"),
        (("complexity", "--n", "8"), "existing"),
    ], ids=["ber-missing-dir", "dump-basis-missing-dir", "complexity-onto-dir"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv, target):
        # a missing directory, or an output path naming an existing directory
        (tmp_path / "existing").mkdir()
        assert run(*argv, "--output", str(tmp_path / target)) == 2
        assert "config error: cannot write" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["existing"]

    def test_failed_multi_file_write_leaves_nothing(self, tmp_path, capsys):
        # the last of the three dump-basis files cannot be written: the other
        # two must not be left behind, and neither may any temporary file
        (tmp_path / "b_er.csv").mkdir()
        assert run("dump-basis", "--n", "4", "--output", str(tmp_path / "b")) == 2
        assert "config error: cannot write" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["b_er.csv"]

    def test_corrupted_power_of_two_basis_exits_3(self, tmp_path, capsys, monkeypatch):
        import rpsdm.ramanujan
        real = rpsdm.ramanujan.subspace_basis
        monkeypatch.setattr(rpsdm.ramanujan, "subspace_basis", lambda q, n: 2 * real(q, n))
        assert run("dump-basis", "--n", "8", "--output", str(tmp_path / "b")) == 3
        err = capsys.readouterr().err
        assert "numerical failure: demodulation pair for n=8 failed residual check" in err
        assert list(tmp_path.iterdir()) == []

    def test_numerical_exit_path_exists(self):
        # numerical failures map to exit 3; the residual check cannot be
        # tripped by valid input, so just pin the exit-code contract
        from rpsdm.cli import ConfigError, NumericalError
        assert issubclass(ConfigError, ValueError)
        assert issubclass(NumericalError, RuntimeError)
