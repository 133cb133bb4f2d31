"""End-to-end checks of the command-line interface.

Each test drives ``main`` directly with an argv list and inspects the files
it writes, so exit codes, config resolution, and the deterministic-output
guarantee are all exercised exactly as a shell user would hit them.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rggstats
from rggstats import (
    Pmf,
    fock_pn_limit_pmf,
    fock_scatter_pmf,
    gn_out_predicted,
    scatter_pmf,
    total_variation,
)
from rggstats import cli, inputs
from rggstats.cli import build_parser, main
from rggstats.combinatorics import approx_scatter_pmf


def read_csv(path):
    """Parse an output CSV into (comment dict, header list, row lists)."""
    comments, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" = ")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def column(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) for r in rows if r[i] != ""]


class TestScatterCommand:
    def test_fock_matches_library(self, tmp_path):
        rc = main(
            ["scatter", "--kind", "fock", "--n", "8", "--M", "8", "--out", str(tmp_path)]
        )
        assert rc == 0
        comments, header, rows = read_csv(tmp_path / "scatter.csv")
        assert header == ["n", "p_exact", "p_thermal_ref"]
        assert comments["scatter.m"] == "8"
        assert comments["input.kind"] == "fock"
        # repr() round-trips doubles exactly, so equality is bit-for-bit
        assert column(header, rows, "p_exact") == list(fock_scatter_pmf(8, 8).probs)
        # the n column covers every row, the thermal reference's longer tail too
        assert column(header, rows, "n", int) == list(range(len(rows)))
        assert len(rows) == len(column(header, rows, "p_thermal_ref")) > 9

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "scatter", "--kind", "coherent", "--mean", "3.5",
            "--M", "6", "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        first = (tmp_path / "scatter.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "scatter.csv").read_bytes() == first

    def test_config_file_supplies_settings(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[input]\nkind = fock\nn = 5\n\n[scatter]\nm = 4\n", encoding="utf-8")
        assert main(["scatter", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        comments, header, rows = read_csv(tmp_path / "scatter.csv")
        assert comments["scatter.m"] == "4"
        assert comments["input.n"] == "5"
        assert column(header, rows, "p_exact") == list(fock_scatter_pmf(5, 4).probs)

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[input]\nkind = fock\nn = 5\n\n[scatter]\nm = 4\n", encoding="utf-8")
        rc = main(["scatter", "--config", str(cfg), "--M", "8", "--out", str(tmp_path)])
        assert rc == 0
        comments, header, rows = read_csv(tmp_path / "scatter.csv")
        assert comments["scatter.m"] == "8"
        assert column(header, rows, "p_exact") == list(fock_scatter_pmf(5, 8).probs)

    def test_approx_column(self, tmp_path):
        rc = main(
            ["scatter", "--kind", "fock", "--n", "30", "--M", "50",
             "--approx", "--out", str(tmp_path)]
        )
        assert rc == 0
        comments, header, rows = read_csv(tmp_path / "scatter.csv")
        assert header[-1] == "p_approx"
        assert comments["scatter.approx_n"] == "30"
        assert column(header, rows, "p_approx") == list(approx_scatter_pmf(30, 50).probs)

    def test_approx_needs_single_stage(self, tmp_path):
        rc = main(
            ["scatter", "--kind", "fock", "--n", "4", "--M", "5",
             "--stages", "2", "--approx", "--out", str(tmp_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "argv, wording",
        [
            (["--kind", "thermal", "--mean", "0.3"], "input mean 0.29"),
            (["--kind", "fock", "--n", "0"], "input mean 0.0 "),
        ],
    )
    def test_approx_names_the_input_mean(self, tmp_path, capsys, argv, wording):
        rc = main(["scatter", *argv, "--M", "8", "--approx", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "needs N >= 1" in err and wording in err and "rounds to N = 0" in err

    def test_approx_names_the_cell_count_setting(self, tmp_path, capsys):
        rc = main(["scatter", "--kind", "fock", "--n", "4", "--M", "2", "--approx",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "configuration error: [scatter] m must be >= 3, got 2\n"
        assert not (tmp_path / "scatter.csv").exists()

    def test_custom_pmf_roundtrip(self, tmp_path):
        src = tmp_path / "input.csv"
        # comment and blank lines are skipped, before the header and among the rows
        src.write_text("# a pmf\n\nn,p\n0,0.25\n1,0.5\n\n# last row\n2,0.25\n", encoding="utf-8")
        rc = main(
            ["scatter", "--kind", "custom", "--pmf-csv", str(src),
             "--M", "3", "--out", str(tmp_path)]
        )
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "scatter.csv")
        expected = scatter_pmf(Pmf((0.25, 0.5, 0.25)), 3)
        assert column(header, rows, "p_exact") == list(expected.probs)


class TestGnCommand:
    def test_headline_value(self, tmp_path):
        rc = main(["gn", "--kind", "fock", "--n", "8", "--M", "8", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "gn.json").read_text(encoding="utf-8"))
        assert doc["output"]["g"]["2"] == pytest.approx(14 / 9, abs=1e-9)
        assert doc["predicted"]["2"] == pytest.approx(14 / 9, abs=1e-12)
        assert abs(doc["difference"]["2"]) < 1e-9
        assert doc["deep_cascade_limit"]["2"] == pytest.approx(2 * (1 - 1 / 8), abs=1e-12)
        assert doc["input"]["mean"] == pytest.approx(8.0)
        assert doc["engine"]["name"] == "rggstats"
        assert doc["config"]["scatter"]["stages"] == 1

    def test_third_order_included_by_default(self, tmp_path):
        assert main(["gn", "--kind", "coherent", "--mean", "4.0", "--M", "8",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "gn.json").read_text(encoding="utf-8"))
        assert doc["predicted"]["3"] == pytest.approx(6 * 64 / (9 * 10), abs=1e-9)
        assert doc["deep_cascade_limit"]["3"] == pytest.approx(6.0, abs=1e-9)

    def test_every_order_is_predicted(self, tmp_path):
        argv = ["gn", "--kind", "thermal", "--mean", "3.0", "--M", "5", "--stages", "2",
                "--order", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        doc = json.loads((tmp_path / "gn.json").read_text(encoding="utf-8"))
        assert sorted(doc["predicted"]) == sorted(doc["difference"]) == ["2", "3", "4", "5"]
        for k, value in doc["predicted"].items():
            assert abs(doc["difference"][k]) < 1e-9 * value
        g4_in = doc["input"]["g"]["4"]
        assert doc["predicted"]["4"] == gn_out_predicted(gn_out_predicted(g4_in, 4, 5), 4, 5)
        # thermal input, g^(4) = 4! up to the truncated tail; each stage multiplies
        # by 4! M^4 / (M (M+1) (M+2) (M+3))
        per_stage = 24 * 5**4 / (5 * 6 * 7 * 8)
        assert doc["predicted"]["4"] == pytest.approx(24 * per_stage**2, rel=1e-6)

    def test_vacuum_input_is_numeric_failure(self, tmp_path):
        rc = main(["gn", "--kind", "fock", "--n", "0", "--M", "4", "--out", str(tmp_path)])
        assert rc == 3

    def test_mean_too_small_to_square_is_numeric_failure(self, tmp_path, capsys):
        # the output mean 5 / 3**400 ~ 7e-191 squares to 0.0, so g^(2) would be inf
        argv = ["gn", "--kind", "fock", "--n", "5", "--M", "3", "--stages", "400",
                "--order", "2", "--out", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "g^(2)" in err
        assert not (tmp_path / "gn.json").exists()

    def test_squeezed_input(self, tmp_path):
        rc = main(
            ["gn", "--kind", "squeezed", "--alpha-mag", "2.0", "--r", "0.5",
             "--theta", "1.0", "--M", "10", "--order", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "gn.json").read_text(encoding="utf-8"))
        assert abs(doc["difference"]["2"]) < 1e-9


class TestPlimitCommand:
    def test_matches_library(self, tmp_path):
        assert main(["plimit", "--n", "60", "--M", "200", "--out", str(tmp_path)]) == 0
        one = fock_scatter_pmf(60, 200)
        limit = fock_pn_limit_pmf(60, 200)
        doc = json.loads((tmp_path / "plimit.json").read_text(encoding="utf-8"))
        assert doc["total_variation"] == total_variation(one, limit)
        assert doc["mean_single_stage"] == pytest.approx(0.3, abs=1e-12)
        assert doc["mean_limit"] == pytest.approx(0.3, abs=1e-12)
        _, header, rows = read_csv(tmp_path / "plimit.csv")
        assert column(header, rows, "p_single_stage") == list(one.probs)
        assert column(header, rows, "p_limit") == list(limit.probs)

    def test_single_cell_limit_is_rejected(self, tmp_path):
        # the limit expression goes negative for N >= 2, M = 1
        assert main(["plimit", "--n", "2", "--M", "1", "--out", str(tmp_path)]) == 3


class TestMcCommand:
    def test_outputs_consistent(self, tmp_path):
        argv = [
            "mc", "--kind", "coherent", "--mean", "2.0", "--M", "4",
            "--frames", "2000", "--seed", "7", "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        _, header, rows = read_csv(tmp_path / "mc.csv")
        counts = column(header, rows, "count", int)
        assert sum(counts) == 2000
        empirical = column(header, rows, "p_empirical")
        assert empirical == [c / 2000 for c in counts]
        doc = json.loads((tmp_path / "mc.json").read_text(encoding="utf-8"))
        assert doc["blocks"] == 100
        assert doc["config"]["mc"]["seed"] == 7
        assert doc["z"]["2"] is not None
        assert abs(doc["z"]["2"]) < 5.0
        assert doc["exact"]["g"]["2"] == pytest.approx(2 * 4 / 5 * 1.0, abs=1e-9)

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "mc", "--kind", "fock", "--n", "3", "--M", "3",
            "--frames", "500", "--seed", "11", "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        csv_first = (tmp_path / "mc.csv").read_bytes()
        json_first = (tmp_path / "mc.json").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "mc.csv").read_bytes() == csv_first
        assert (tmp_path / "mc.json").read_bytes() == json_first

    def test_heavy_tail_is_numeric_failure(self, tmp_path):
        # a 0.3 tail would bias the sampled histogram; the exact side raises first
        src = tmp_path / "input.csv"
        src.write_text("n,p\n0,0.5\n1,0.2\n", encoding="utf-8")
        argv = ["mc", "--kind", "custom", "--pmf-csv", str(src), "--tail-mass", "0.3",
                "--M", "4", "--frames", "10000", "--seed", "1", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert not (tmp_path / "mc.csv").exists()

    def test_one_block_with_every_photon_has_no_g_error(self, tmp_path):
        # the histogram is (299, 1, 0, 0, 0): the replicate without that one
        # block has no photons, so no g
        argv = ["mc", "--kind", "coherent", "--mean", "0.005", "--M", "2",
                "--frames", "300", "--seed", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        _, header, rows = read_csv(tmp_path / "mc.csv")
        assert column(header, rows, "count", int)[:2] == [299, 1]
        doc = json.loads((tmp_path / "mc.json").read_text(encoding="utf-8"))
        assert doc["standard_errors"]["g"] == {"2": None}
        assert doc["standard_errors"]["mean"] > 0
        assert doc["z"] == {"2": None}

    def test_single_frame_writes_strict_json(self, tmp_path):
        # one frame gives one jackknife block: no standard error to estimate
        argv = [
            "mc", "--kind", "coherent", "--mean", "8", "--M", "2",
            "--frames", "1", "--seed", "1", "--out", str(tmp_path),
        ]
        assert main(argv) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads((tmp_path / "mc.json").read_text(encoding="utf-8"), parse_constant=reject)
        assert doc["standard_errors"] == {"mean": None, "g": {"2": None}}
        assert doc["z"] == {"2": None}


    def test_input_is_built_once(self, monkeypatch, tmp_path):
        # the exact side and the sampler read the same pmf
        calls = []
        thermal = inputs.thermal_pmf

        def counted(mean):
            calls.append(mean)
            return thermal(mean)

        monkeypatch.setattr(inputs, "thermal_pmf", counted)
        argv = ["mc", "--kind", "thermal", "--mean", "250", "--M", "64",
                "--frames", "200", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert calls == [250.0]


class TestFigureCommand:
    def test_fig2_requires_cell_count(self, tmp_path, capsys):
        assert main(["figure", "fig2", "--out", str(tmp_path)]) == 2
        assert "[figure] m" in capsys.readouterr().err

    def test_fig2(self, tmp_path):
        rc = main(["figure", "fig2", "--M", "6", "--nbar", "30", "--out", str(tmp_path)])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "fig2.csv")
        assert header == ["n", "p_fock", "p_poisson", "p_thermal_ref", "p_fock_approx"]
        assert column(header, rows, "p_fock") == list(fock_scatter_pmf(30, 6).probs)

    def test_fig2_states_the_approximation_needs_m3(self, tmp_path):
        rc = main(["figure", "fig2", "--M", "2", "--nbar", "10", "--out", str(tmp_path)])
        assert rc == 0
        _, header, _ = read_csv(tmp_path / "fig2.csv")
        assert "p_fock_approx" not in header

    def test_fig2_approximation_names_nbar(self, tmp_path, capsys):
        assert main(["figure", "fig2", "--M", "8", "--nbar", "0", "--out", str(tmp_path)]) == 2
        assert "[figure] nbar >= 1, got 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, low",
        [(["fig2", "--M", "2", "--nbar", "-1"], 0), (["fig3a", "--nbar", "-1"], 0),
         (["fig3d", "--nbar", "0", "--r", "0"], 1), (["fig3d", "--nbar", "-2"], 1)],
    )
    def test_mean_out_of_range_names_nbar(self, tmp_path, capsys, argv, low):
        out = tmp_path / "out"
        assert main(["figure", *argv, "--out", str(out)]) == 2
        value = argv[argv.index("--nbar") + 1]
        assert f"[figure] nbar must be >= {low}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_fig3a_defaults(self, tmp_path):
        assert main(["figure", "fig3a", "--out", str(tmp_path)]) == 0
        comments, header, rows = read_csv(tmp_path / "fig3a.csv")
        assert header == ["n", "p_fock", "p_poisson", "p_thermal"]
        assert comments["figure.m"] == "8"
        assert column(header, rows, "p_fock") == list(fock_scatter_pmf(8, 8).probs)

    def test_fig3b_law_curves(self, tmp_path):
        assert main(["figure", "fig3b", "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "fig3b.csv")
        assert header == ["M", "g2_fock2", "g2_fock5", "g2_fock10", "g2_poisson"]
        assert len(rows) == 64
        assert rows[0][0] == "1"
        # one cell never degrades the statistics
        assert column(header, rows, "g2_fock2")[0] == 0.5
        assert column(header, rows, "g2_poisson")[0] == 1.0
        assert column(header, rows, "g2_poisson")[-1] == pytest.approx(2 * 64 / 65, abs=1e-15)

    def test_fig3c_sweep(self, tmp_path):
        assert main(["figure", "fig3c", "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "fig3c.csv")
        assert len(rows) == 50
        g2_in = column(header, rows, "g2_in")
        assert g2_in[0] == 0.0
        assert g2_in[-1] == pytest.approx(1 - 1 / 50, abs=1e-15)

    @pytest.mark.parametrize(
        "name, key, value",
        [("fig3b", "m_max", 0), ("fig3c", "n_sweep_max", -3), ("fig3c", "n_sweep_max", 0)],
    )
    def test_empty_sweep_is_rejected(self, tmp_path, capsys, name, key, value):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[figure]\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["figure", name, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"[figure] {key} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_fig3d_phase_sweep(self, tmp_path):
        rc = main(
            ["figure", "fig3d", "--M", "20", "--nbar", "4", "--r", "0.5",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "fig3d.csv")
        assert header == ["theta", "g2_in", "g2_out", "g2_out_law"]
        assert len(rows) == 65
        g2_out = column(header, rows, "g2_out")
        law = column(header, rows, "g2_out_law")
        assert max(abs(a - b) for a, b in zip(g2_out, law)) < 1e-9
        # the sweep is 2*pi-periodic
        assert rows[0][1:] == rows[-1][1:]

    def test_fig3d_rejects_impossible_mean(self, tmp_path, capsys):
        rc = main(
            ["figure", "fig3d", "--nbar", "1", "--r", "2.0", "--out", str(tmp_path)]
        )
        assert rc == 2
        # sinh(r)**2 overflows, or is nan: the setting is named either way
        for r in ("710.5", "nan"):
            capsys.readouterr()
            assert main(["figure", "fig3d", "--r", r, "--out", str(tmp_path)]) == 2
            assert "[figure] r" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["fig5a", "fig5b"])
    def test_fig5(self, name, tmp_path):
        rc = main(["figure", name, "--n", "20", "--M", "30", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))
        expected = total_variation(fock_scatter_pmf(20, 30), fock_pn_limit_pmf(20, 30))
        assert doc["total_variation"] == expected
        _, header, rows = read_csv(tmp_path / f"{name}.csv")
        assert header == ["n", "p_single_stage", "p_limit"]


class TestErrorHandling:
    def test_record_configurations_is_not_a_setting(self, tmp_path, capsys):
        # the CLI never wrote the tallies, so the key is gone from [mc]
        cfg = tmp_path / "run.ini"
        cfg.write_text("[mc]\nrecord_configurations = yes\n", encoding="utf-8")
        argv = ["mc", "--kind", "fock", "--n", "2", "--M", "2", "--frames", "100"]
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "record_configurations" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([*argv, "--record-configurations", "--out", str(tmp_path)])

    def test_approx_nmax_is_not_a_setting(self, tmp_path, capsys):
        # the approximation column always spans 0..N
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scatter]\nm = 8\napprox = yes\napprox_nmax = 3\n", encoding="utf-8")
        argv = ["scatter", "--kind", "fock", "--n", "4"]
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown key(s) in [scatter]: approx_nmax" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([*argv, "--M", "8", "--approx-nmax", "3", "--out", str(tmp_path)])

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scatter]\nm = 4\nq = 3\n", encoding="utf-8")
        rc = main(["scatter", "--kind", "fock", "--n", "2",
                   "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_ini_syntax(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("this is not an ini file\n", encoding="utf-8")
        rc = main(["scatter", "--kind", "fock", "--n", "2", "--M", "4",
                   "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        # configparser's message spans three lines; the CLI reports one
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no section headers" in err

    def test_config_with_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("\ufeff[scatter]\nm = 4\n", encoding="utf-8")
        rc = main(["scatter", "--kind", "fock", "--n", "2",
                   "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        comments, _, _ = read_csv(tmp_path / "scatter.csv")
        assert comments["scatter.m"] == "4"

    def test_custom_pmf_with_byte_order_mark(self, tmp_path):
        # as spreadsheets write "CSV UTF-8"
        src = tmp_path / "input.csv"
        src.write_text("\ufeffn,p\n0,0.25\n1,0.75\n", encoding="utf-8")
        rc = main(["scatter", "--kind", "custom", "--pmf-csv", str(src),
                   "--M", "3", "--out", str(tmp_path)])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "scatter.csv")
        assert column(header, rows, "p_exact") == list(scatter_pmf(Pmf((0.25, 0.75)), 3).probs)

    def test_missing_config_file(self, tmp_path):
        rc = main(["scatter", "--kind", "fock", "--n", "2", "--M", "4",
                   "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path)])
        assert rc == 2

    def test_out_path_is_a_file(self, tmp_path):
        blocker = tmp_path / "out"
        blocker.write_text("", encoding="utf-8")
        rc = main(["scatter", "--kind", "fock", "--n", "2", "--M", "4",
                   "--out", str(blocker)])
        assert rc == 4

    def test_invalid_state_parameters(self, tmp_path, capsys):
        rc = main(["scatter", "--kind", "thermal", "--mean", "-1.0", "--M", "4",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "invalid input state" in capsys.readouterr().err

    def test_missing_required_setting(self, tmp_path, capsys):
        rc = main(["scatter", "--kind", "fock", "--n", "3", "--out", str(tmp_path)])
        assert rc == 2
        assert "[scatter] m" in capsys.readouterr().err

    def test_unknown_input_kind_via_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[input]\nkind = laser\n", encoding="utf-8")
        rc = main(["scatter", "--M", "4", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: unknown input kind 'laser'; "
            "expected fock, coherent, thermal, squeezed or custom\n"
        )

    @pytest.mark.parametrize("message", ["", "Unable to allocate 22.4 GiB"])
    def test_out_of_memory_is_a_numeric_failure(self, tmp_path, monkeypatch, capsys, message):
        def exhausted(spec):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "input_pmf", exhausted)
        rc = main(["scatter", "--kind", "fock", "--n", "4", "--M", "8", "--out", str(tmp_path)])
        assert rc == 3
        detail = f": {message}" if message else ""
        assert capsys.readouterr().err == f"numeric failure: out of memory{detail}\n"

    def test_percent_sign_in_config_value_is_taken_literally(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[input]\nkind = custom\npmf_csv = a%b.csv\n", encoding="utf-8")
        rc = main(["scatter", "--M", "4", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "custom pmf file not found: a%b.csv" in capsys.readouterr().err

    def test_custom_pmf_with_gap_rejected(self, tmp_path):
        src = tmp_path / "input.csv"
        src.write_text("n,p\n0,0.5\n2,0.5\n", encoding="utf-8")
        rc = main(["scatter", "--kind", "custom", "--pmf-csv", str(src),
                   "--M", "3", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "text, wording",
        [
            ("x,y\n0,1.0\n", "need columns 'n' and 'p'"),
            ("n,p\n0,half\n", "bad row '0,half'"),
            ("n,p\n", "no pmf rows found"),
            ("n,p\n0,-0.5\n1,1.5\n", "negative probability -0.5"),
        ],
        ids=["no-columns", "bad-row", "no-rows", "negative-p"],
    )
    def test_bad_custom_pmf_file(self, tmp_path, capsys, text, wording):
        src = tmp_path / "input.csv"
        src.write_text(text, encoding="utf-8")
        rc = main(["scatter", "--kind", "custom", "--pmf-csv", str(src),
                   "--M", "3", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and wording in err

    @pytest.mark.parametrize(
        "word, approx", [("yes", True), ("on", True), ("1", True), ("no", False)]
    )
    def test_config_boolean_words(self, tmp_path, word, approx):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[scatter]\nm = 8\napprox = {word}\n", encoding="utf-8")
        rc = main(["scatter", "--kind", "fock", "--n", "4",
                   "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        comments, header, _ = read_csv(tmp_path / "scatter.csv")
        assert comments["scatter.approx"] == str(approx)
        assert ("p_approx" in header) is approx

    @pytest.mark.parametrize(
        "text, key",
        [("m = 8\napprox = maybe", "[scatter] approx = 'maybe'"), ("m = eight", "[scatter] m = ")],
    )
    def test_unparsable_config_value(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[scatter]\n{text}\n", encoding="utf-8")
        rc = main(["scatter", "--kind", "fock", "--n", "4",
                   "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "rggstats" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


INPUT_FLAGS = {
    "--kind", "--n", "--mean", "--alpha-mag", "--alpha-phase", "--r", "--theta",
    "--pmf-csv", "--tail-mass",
}

SHARED_CONFIG = """\
[input]
kind = fock
n = 5

[scatter]
m = 4
stages = 1

[gn]
order = 3

[plimit]
n = 10
m = 20

[mc]
frames = 500
seed = 3

[figure]
m = 40
nbar = 10
n = 12
r = 0.4
alpha_phase = 0.1
m_max = 12
n_sweep_max = 9
"""


class TestOptionSurface:
    """The flags and config keys are generated from one table; these pin them."""

    FLAGS = {
        "scatter": {"--config", "--out", *INPUT_FLAGS, "--M", "--stages", "--approx",
                    "--no-approx"},
        "gn": {"--config", "--out", *INPUT_FLAGS, "--M", "--stages", "--order"},
        "plimit": {"--config", "--out", "--n", "--M"},
        "mc": {"--config", "--out", *INPUT_FLAGS, "--M", "--frames", "--seed", "--order"},
        "figure": {"--config", "--out", "--M", "--nbar", "--n", "--r", "--alpha-phase"},
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags_of_each_subcommand(self, command):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(subparsers.choices) == set(self.FLAGS)
        actions = subparsers.choices[command]._actions
        flags = {flag for action in actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == self.FLAGS[command]

    def test_keys_of_each_config_section(self):
        assert cli._accepted_keys() == {
            "input": {"kind", "n", "mean", "alpha_mag", "alpha_phase", "r", "theta",
                      "pmf_csv", "tail_mass"},
            "scatter": {"m", "stages", "approx"},
            "gn": {"order"},
            "plimit": {"n", "m"},
            "mc": {"frames", "seed", "order"},
            "figure": {"m", "nbar", "n", "r", "alpha_phase", "m_max", "n_sweep_max"},
        }


class TestUnreadSettings:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["figure", "fig3b", "--M", "10", "--nbar", "3", "--r", "2"], "--nbar"),
            (["figure", "fig3c", "--nbar", "3"], "--nbar"),
            (["figure", "fig3a", "--r", "0.5"], "--r"),
            (["figure", "fig2", "--M", "6", "--n", "4"], "--n"),
            (["figure", "fig5b", "--alpha-phase", "0.3"], "--alpha-phase"),
            (["scatter", "--kind", "fock", "--n", "4", "--mean", "7", "--M", "5"], "--mean"),
            (["scatter", "--kind", "thermal", "--mean", "2", "--tail-mass", "0", "--M", "4"],
             "--tail-mass"),
            (["gn", "--kind", "coherent", "--mean", "2", "--theta", "1", "--M", "5"], "--theta"),
            (["mc", "--kind", "squeezed", "--alpha-mag", "1", "--n", "3", "--M", "4"], "--n"),
        ],
    )
    def test_flag_not_read_is_rejected(self, tmp_path, capsys, argv, flag):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "not read by" in err and flag in err
        assert not (tmp_path / "out").exists()

    def test_flag_not_read_by_the_configured_kind_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[input]\nkind = fock\nn = 3\n", encoding="utf-8")
        rc = main(["scatter", "--config", str(cfg), "--mean", "2.0", "--M", "4",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--mean not read by input kind fock" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["scater", "figures", "Input", "monte_carlo"])
    def test_section_no_command_reads_is_rejected(self, tmp_path, capsys, section):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[input]\nkind = fock\nn = 3\n\n[scatter]\nm = 4\n\n[{section}]\nm = 4\n",
            encoding="utf-8",
        )
        assert main(["scatter", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"[{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["scatter"], ["gn"], ["plimit"], ["mc"], ["figure", "fig3a"], ["figure", "fig3c"],
         ["figure", "fig5a"]],
    )
    def test_one_config_serves_every_command(self, tmp_path, argv):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SHARED_CONFIG, encoding="utf-8")
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 0


class TestChecksPrecedeCompute:
    @pytest.mark.parametrize(
        "argv, heavy",
        [
            (["mc", "--kind", "coherent", "--mean", "8", "--M", "8", "--frames", "3000000",
              "--order", "1"], "run_mc"),
            (["scatter", "--kind", "thermal", "--mean", "140", "--M", "64", "--stages", "2",
              "--approx"], "cascade_pmf"),
            (["figure", "fig3b", "--M", "10"], "g2_out_predicted"),
            (["scatter", "--kind", "fock", "--n", "8", "--M", "2", "--approx"], "cascade_pmf"),
            (["scatter", "--kind", "fock", "--n", "0", "--M", "8", "--approx"], "cascade_pmf"),
            (["scatter", "--kind", "thermal", "--mean", "0.3", "--M", "8", "--approx"],
             "cascade_pmf"),
        ],
    )
    def test_bad_setting_exits_before_the_heavy_call(self, monkeypatch, tmp_path, argv, heavy):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{heavy} ran before the settings were checked")

        monkeypatch.setattr(cli, heavy, refuse)
        assert main([*argv, "--out", str(tmp_path)]) == 2


class TestImportPath:
    def test_cli_import_leaves_heavy_scipy_modules_out(self):
        # scipy.stats and scipy.linalg cost most of a CLI call's start-up;
        # only the squeezed-state oracle needs one of them, on demand
        env = dict(os.environ)
        src = str(Path(rggstats.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, rggstats.cli; "
            "print([m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_coherent_commands_load_no_scipy(self, tmp_path):
        # the production paths run on numpy and math alone; scipy serves only
        # the squeezed-state oracle and the float64 measuring stick
        env = dict(os.environ)
        src = str(Path(rggstats.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        coherent = ["--kind", "coherent", "--mean", "6.0", "--M", "4"]
        commands = [
            ["scatter", *coherent],
            ["gn", *coherent],
            ["mc", *coherent, "--frames", "4000", "--seed", "3"],
            ["figure", "fig2", "--M", "6", "--nbar", "30"],
        ]
        code = (
            "import sys, rggstats.cli\n"
            f"for i, argv in enumerate({commands!r}):\n"
            f"    assert rggstats.cli.main([*argv, '--out', {str(tmp_path)!r} + f'/{{i}}']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "oracle",
        [
            lambda: rggstats.squeezed_oracle_pmf(rggstats.SqueezedCoherent(1, 0, 0.2, 0), 30),
            lambda: rggstats.fock_pn_limit_float64(5, 4, 2),
        ],
        ids=["squeezed_oracle_pmf", "fock_pn_limit_float64"],
    )
    def test_oracles_without_scipy_name_the_test_extra(self, monkeypatch, oracle):
        # scipy is a test-only dependency; a plain install has none
        for module in ("scipy", "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "scipy.special"):
            monkeypatch.setitem(sys.modules, module, None)
        with pytest.raises(ImportError, match=r"rggstats\[test\]"):
            oracle()
