"""Tests for the repro-cfd command-line interface."""

import pytest

from repro import __version__
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestTable1Command:
    def test_prints_paper_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "12192" in out
        assert "13996" in out
        assert "139.96" in out

    def test_simulated_variant_small(self, capsys):
        assert main([
            "table1", "--fft-size", "16", "--m", "3", "--tiles", "2",
            "--blocks", "2", "--simulate",
        ]) == 0
        out = capsys.readouterr().out
        assert "Executing platform simulation" in out


class TestScalingCommand:
    def test_default_sweep(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "914.5" in out
        assert "200.0" in out

    def test_custom_tiles(self, capsys):
        assert main(["scaling", "--tiles", "4"]) == 0
        assert "13996" in capsys.readouterr().out


class TestSenseCommand:
    def test_occupied_band_detected(self, capsys):
        code = main([
            "sense", "--fft-size", "32", "--blocks", "32",
            "--snr-db", "6", "--sps", "4",
            "--calibration-trials", "20", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cyclostationary" in out
        assert "OCCUPIED" in out

    def test_vacant_band(self, capsys):
        code = main([
            "sense", "--fft-size", "32", "--blocks", "16", "--vacant",
            "--calibration-trials", "20",
        ])
        assert code == 0
        assert "vacant" in capsys.readouterr().out


class TestClassifyCommand:
    def test_classifies_correctly(self, capsys):
        code = main(["classify", "--sps", "8", "--snr-db", "10",
                     "--samples", "8192", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "classified symbol rate: fs/8" in out
        assert "correct!" in out

    def test_qpsk_variant(self, capsys):
        code = main(["classify", "--modulation", "qpsk", "--sps", "4",
                     "--snr-db", "10", "--samples", "8192"])
        assert code == 0
        assert "fs/4" in capsys.readouterr().out


class TestBackendsCommand:
    def test_lists_full_plane_estimators(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "fam" in out
        assert "ssca" in out
        assert "full-plane" in out

    def test_prints_descriptions_and_complexity(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "complexity O(" in out
        assert "FFT Accumulation Method" in out
        assert "Strip Spectral Correlation Analyzer" in out

    def test_sense_runs_on_fam_backend(self, capsys):
        code = main([
            "sense", "--fft-size", "32", "--blocks", "32",
            "--snr-db", "6", "--sps", "4",
            "--calibration-trials", "25", "--seed", "3",
            "--backend", "fam",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cyclostationary/fam" in out
        assert "OCCUPIED" in out

    def test_sense_runs_on_compiled_soc_backend(self, capsys):
        code = main([
            "sense", "--fft-size", "16", "--blocks", "8",
            "--snr-db", "10", "--sps", "4",
            "--calibration-trials", "20", "--seed", "3",
            "--backend", "soc", "--soc-compiled",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cyclostationary/soc" in out

    def test_backends_mentions_compiled_mode(self, capsys):
        assert main(["backends"]) == 0
        assert "soc_compiled=True" in capsys.readouterr().out

    def test_soc_compiled_rejected_for_other_backends(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main([
                "sense", "--fft-size", "16", "--blocks", "4",
                "--backend", "vectorized", "--soc-compiled",
            ])


class TestScanCommand:
    def test_smoke_recovers_and_writes_bench_json(self, capsys, tmp_path):
        bench = tmp_path / "BENCH_scanner.json"
        code = main([
            "scan", "--smoke", "--calibration-trials", "20",
            "--bench-json", str(bench),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "occupancy map" in out
        assert "recovered" in out
        assert "band confusion" in out
        import json

        payload = json.loads(bench.read_text())
        assert payload["scanner"]["batched"]["seconds_per_estimate"] > 0
        assert payload["scanner"]["per_band"]["seconds_per_estimate"] > 0

    def test_preset_choice_and_backend(self, capsys, tmp_path):
        code = main([
            "scan", "--smoke", "--preset", "single-qpsk",
            "--backend", "fam", "--calibration-trials", "20",
            "--bench-json", str(tmp_path / "bench.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "single-qpsk" in out
        assert "backend fam" in out

    def test_smoke_honours_explicit_preset(self, capsys, tmp_path):
        """--smoke only swaps in the small preset when none was asked
        for; an explicit --preset five-emitter stays five-emitter."""
        code = main([
            "scan", "--smoke", "--preset", "five-emitter",
            "--calibration-trials", "20",
            "--bench-json", str(tmp_path / "bench.json"),
        ])
        out = capsys.readouterr().out
        assert "preset 'five-emitter'" in out
        assert code in (0, 1)  # smoke geometry needn't recover all five

    def test_full_preset_without_bench_json(self, capsys):
        code = main([
            "scan", "--preset", "linear-pair", "--fft-size", "32",
            "--blocks", "32", "--calibration-trials", "20", "--seed", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "f1 1.00" in out

    def test_soc_compiled_rejected_for_other_backends(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["scan", "--smoke", "--backend", "vectorized",
                  "--soc-compiled"])


class TestMapCommand:
    def test_paper_defaults(self, capsys):
        assert main(["map"]) == 0
        out = capsys.readouterr().out
        assert "P = F = 127" in out
        assert "T = 32" in out
        assert "8 mm^2" in out

    def test_figures_flag(self, capsys):
        assert main(["map", "--figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "(PE" in out


class TestEngineFlags:
    """PR-5: --jobs/--cache on sense/scan/sweep, enriched backends."""

    def test_sense_with_jobs_and_no_cache(self, capsys):
        code = main([
            "sense", "--fft-size", "32", "--blocks", "16",
            "--snr-db", "6", "--calibration-trials", "20",
            "--jobs", "2", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: jobs=2, plan cache off" in out

    def test_sense_reports_cache_usage(self, capsys):
        code = main([
            "sense", "--fft-size", "32", "--blocks", "16",
            "--snr-db", "6", "--calibration-trials", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: jobs=1, plan cache" in out
        assert "miss(es)" in out

    def test_scan_accepts_jobs(self, capsys):
        code = main([
            "scan", "--preset", "linear-pair", "--fft-size", "32",
            "--blocks", "32", "--calibration-trials", "20", "--seed", "9",
            "--jobs", "2",
        ])
        assert code == 0
        assert "engine: jobs=2" in capsys.readouterr().out

    def test_backends_reports_plan_and_cache_columns(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "plan: batched plan (Gram-matrix DSCF)" in out
        assert "plan: per-trial loop plan" in out
        assert "cache: shared engine LRU" in out
        # The engine's plan cache is the only one: no backend reports
        # a private executor cache any more.
        assert "backend executor cache" not in out
        assert "shared plan cache: capacity" in out
        assert "up to jobs=4" in out

    def test_backends_reports_serve_capability(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "serve: session-capable; spectra fast path" in out
        assert "serve: session-capable; engine path only" in out
        assert "serve: offline only" in out


class TestServeCommand:
    def test_smoke_drives_full_protocol(self, capsys):
        assert main([
            "serve", "--smoke", "--fft-size", "32", "--blocks", "8",
            "--calibration-trials", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving on 127.0.0.1:" in out
        assert "smoke: statistic=" in out
        assert "served=1 batches=1" in out
        assert "engine: jobs=1" in out

    def test_rejects_non_serve_capable_backend(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="not serve-capable"):
            main([
                "serve", "--smoke", "--fft-size", "32", "--blocks", "8",
                "--calibration-trials", "8", "--backend", "reference",
            ])


class TestSweepCommand:
    def test_sweep_prints_table(self, capsys):
        code = main([
            "sweep", "--fft-size", "32", "--blocks", "16",
            "--points", "2", "--trials", "10",
            "--backends", "vectorized", "fam",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pd vs SNR" in out
        assert "vectorized" in out
        assert "fam" in out
        assert "engine: jobs=1" in out

    def test_sweep_with_jobs_matches_serial(self, capsys):
        argv = [
            "sweep", "--fft-size", "32", "--blocks", "16",
            "--points", "2", "--trials", "10",
            "--backends", "vectorized",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        sharded = capsys.readouterr().out

        def table(text):
            return [
                line for line in text.splitlines()
                if line.strip().startswith(("-", "0", "1"))
            ]

        assert table(serial) == table(sharded)

    def test_sweep_rejects_interpreted_soc(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main([
                "sweep", "--fft-size", "16", "--blocks", "4",
                "--points", "1", "--trials", "4", "--backends", "soc",
            ])

    def test_sweep_soc_compiled_flag_needs_soc_backend(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main([
                "sweep", "--points", "1", "--trials", "4",
                "--backends", "vectorized", "--soc-compiled",
            ])
