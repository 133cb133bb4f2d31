"""End-to-end checks of the command-line interface.

Each test drives ``main`` directly with an argv list and inspects the files
it writes, so exit codes, config resolution, and the deterministic-output
guarantee are all exercised exactly as a shell user would hit them.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_huge_stage_count_stops_at_the_fixed_point(self, tmp_path):
        # the cascade reaches its fixed point within ~1100 stages and stops there
        argv = ["scatter", "--kind", "thermal", "--mean", "3", "--M", "2", "--stages", str(10**30)]
        assert main([*argv, "--out", str(tmp_path / "huge")]) == 0
        assert main([*argv[:-1], "2000", "--out", str(tmp_path / "finite")]) == 0
        _, _, rows = read_csv(tmp_path / "huge" / "scatter.csv")
        _, _, finite = read_csv(tmp_path / "finite" / "scatter.csv")
        assert rows == finite


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
        exact = gn_out_predicted(gn_out_predicted(Fraction(doc["input"]["g"]["4"]), 4, 5), 4, 5)
        assert doc["predicted"]["4"] == float(exact)
        # thermal input, g^(4) = 4! up to the truncated tail; each stage multiplies
        # by 4! M^4 / (M (M+1) (M+2) (M+3))
        per_stage = 24 * 5**4 / (5 * 6 * 7 * 8)
        assert doc["predicted"]["4"] == pytest.approx(24 * per_stage**2, rel=1e-6)

    # the law through every stage in exact rationals, rounded once
    @given(
        st.sampled_from(["coherent", "thermal"]), st.floats(0.1, 20.0),
        st.integers(1, 10**4), st.integers(1, 3), st.integers(2, 6),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_predicted_is_the_exact_law_rounded_once(self, kind, mean, M, stages, order):
        with tempfile.TemporaryDirectory() as out:
            argv = ["gn", "--kind", kind, "--mean", repr(mean), "--M", str(M),
                    "--stages", str(stages), "--order", str(order), "--out", out]
            assert main(argv) == 0
            doc = json.loads((Path(out) / "gn.json").read_text(encoding="utf-8"))
        for k in map(str, range(2, order + 1)):
            exact = Fraction(doc["input"]["g"][k])
            for _ in range(stages):
                exact *= math.factorial(int(k))
                for j in range(int(k)):
                    exact *= Fraction(M, M + j)
            assert doc["predicted"][k] == float(exact)
            assert doc["difference"][k] == doc["output"]["g"][k] - doc["predicted"][k]

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

    def test_a_deep_limit_past_the_doubles_fails_at_once(self, tmp_path, capsys):
        # M = 1 keeps the input; 2**(10**12) g^(2) is refused before 2**(10**12) is formed
        argv = ["gn", "--kind", "thermal", "--mean", "3", "--M", "1", "--stages", str(10**12),
                "--out", str(tmp_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "numeric failure: the law's g^(2) is too large for a double\n"
        )

    @pytest.mark.parametrize(
        "kind, mean", [("thermal", "3"), ("thermal", "10"), ("coherent", "10")]
    )
    def test_standard_json_at_every_order_or_one_line(self, tmp_path, capsys, kind, mean):
        # high orders overflow on the way to the law, or in the moments
        def refuse(constant):
            raise ValueError(f"{constant} is not standard JSON")

        for order in (2, 50, 89, 90, 131, 132, 169, 170, 171, 200):
            out = tmp_path / str(order)
            argv = ["gn", "--kind", kind, "--mean", mean, "--M", "8", "--order", str(order),
                    "--out", str(out)]
            rc = main(argv)
            err = capsys.readouterr().err
            if rc == 0:
                json.loads((out / "gn.json").read_text(encoding="utf-8"), parse_constant=refuse)
            else:
                assert rc == 3 and err.count("\n") == 1, (order, err)

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

    def test_lowest_entry_past_the_doubles_is_named(self, tmp_path, capsys):
        assert main(["plimit", "--n", "300", "--M", "2", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: deep-cascade form is not a distribution at N=300, M=2: "
            "p_151 = -5.1737979291746066e+612 < 0; raw values available via "
            "fock_pn_limit_fractions\n"
        )


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


# SHA-256 of each file that the README's "Command line" block writes, recorded
# before the router took over the suffix route's range test.  Three files are
# left out: bright/scatter.csv, fig2.csv and mc-thermal/mc.csv hold entries
# from glibc's exp, log1p or pow, whose FMA and plain variants differ in the
# last bit, so they move with the CPU.  Every file embeds the engine version.
# squeezed/gn.json was re-recorded when the law's g^(3) became its exact
# rational rounded once: 2.9510592334323813, where the old float expression,
# rounded at each step, gave 2.951059233432381.  mc.json and mc-thermal/mc.json
# were re-recorded when the Monte Carlo estimates became exact ratios of the
# histogram's integer sums, each rounded once: the thermal run's second
# factorial moment reads 62.58462, where the float sum gave 62.584619999999994.
README_DIGESTS = {
    "big/scatter.csv": "4c8f9141aa83036e8ea47bfa82516465384f2c18616ace550a4e1da7da8b78d4",
    "deep/plimit.csv": "b8a7cf30a0363d0b404ffe65c6f20cb714d030cb0a3b31138fffb91d401b5952",
    "deep/plimit.json": "142e3e760a8902aa47733a00375371e54798b9f698664cc483a2b5e5d0880edf",
    "fig3a.csv": "379bf76fd61298d38eca99620c534a6b522d17da58c9ced6ed84226715658da4",
    "gn.json": "46563f800015fe619dd32d264d2e8a3cdd8a45f385167ec36a7f79e105eafe3d",
    "mc-thermal/mc.json": "90c6b9e4a80f0a1bbc656a34bea21da2d14ea0883911a33b266f8879bfc6207c",
    "mc.csv": "58c7897707bbc457964368ebfb12fe6e865f16765da3b820bacdcc177d0d5f5e",
    "mc.json": "220128f4bb36044f277499a139a3186eeb659217599db2dd58ba9edaec246cc6",
    "plimit.csv": "38ece09efe5e95e3c311766af1e77dcda1593c88081afcadf427974de7dce678",
    "plimit.json": "d2cd0dfa853317608c86b34232a575099825faef7b37d319a2517e0ef05daf2e",
    "scatter.csv": "b6e6326f1fa6ddc649c2ae6970aa17da5b49e446efc7080811e2034ffce70114",
    "squeezed/gn.json": "6b8119562d9ae7cf61c0cda2c35eda1a58b4e91af6dc0065b5c900a6198b4e1c",
}


class TestReadmeCommands:
    def test_readme_outputs_pinned(self, tmp_path):
        # the lines of the sh block under "## Command line", as CI reads them
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [line for line in block.splitlines() if line]
        assert len(commands) == 11
        for command in commands:
            program, *argv = shlex.split(command)
            out = argv.index("--out") + 1
            assert program == "rggstats" and argv[out].startswith("results/")
            argv[out] = str(tmp_path / argv[out].removeprefix("results/"))
            assert main(argv) == 0, command
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert len(written) == 15 and set(README_DIGESTS) <= written
        for name, digest in README_DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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

    @pytest.mark.parametrize(
        "flags, message",
        [(["--M", str(10**20), "--frames", "10"], "M must be < 2**53 - N"),
         (["--M", "4", "--frames", str(10**20)], "frames must be < 2**63")],
        ids=["cells", "frames"],
    )
    def test_sampler_range_is_a_configuration_error(self, tmp_path, capsys, flags, message):
        # both once exited 3 with "Python int too large to convert to C long"
        argv = ["mc", "--kind", "coherent", "--mean", "3", *flags, "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not list(tmp_path.iterdir())

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

    def test_kind_has_one_spelling_rule_for_flag_and_config(self, tmp_path):
        # --kind and kind = parse alike: any case, written in lower case
        cfg = tmp_path / "run.ini"
        cfg.write_text("[input]\nkind = Thermal\nmean = 2\n", encoding="utf-8")
        runs = {
            "flag-lower": ["--kind", "thermal", "--mean", "2"],
            "flag-upper": ["--kind", "THERMAL", "--mean", "2"],
            "config": ["--config", str(cfg)],
        }
        for name, argv in runs.items():
            assert main(["scatter", *argv, "--M", "4", "--out", str(tmp_path / name)]) == 0
        first = (tmp_path / "flag-lower" / "scatter.csv").read_bytes()
        assert b"# input.kind = thermal\n" in first
        for name in runs:
            assert (tmp_path / name / "scatter.csv").read_bytes() == first

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

    @pytest.mark.parametrize(
        "argv, bounds",
        [(["gn"], "[input] n at most 100000, [gn] order from 2 to 500"),
         (["mc"], "[input] n at most 100000, [mc] order from 2 to 500"),
         (["scatter"], "[input] n at most 100000"), (["plimit"], "[plimit] n at most 100000"),
         (["figure"], "[figure] nbar at most 100000, [figure] m_max from 1 to 100000, "
                      "[figure] n_sweep_max from 1 to 100000, [figure] n at most 100000")],
    )
    def test_help_states_the_bounds(self, capsys, argv, bounds):
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        assert " ".join(capsys.readouterr().out.split()).endswith(f"bounds: {bounds}")


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

    # configparser lends [DEFAULT]'s keys to every section, where the command
    # would read them unasked or ignore them
    @pytest.mark.parametrize(
        "text, argv",
        [("[DEFAULT]\nframes = 5\n", ["mc", "--kind", "coherent", "--mean", "1", "--M", "4"]),
         ("[DEFAULT]\nnbar = 3\n\n[figure]\nm = 4\n", ["figure", "fig3a"])],
        ids=["ignored", "leaked"],
    )
    def test_default_section_is_rejected(self, tmp_path, capsys, text, argv):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text, encoding="utf-8")
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[DEFAULT]" in err
        assert not (tmp_path / "out").exists()

    def test_empty_default_section_is_accepted(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\n\n[figure]\nm = 4\n", encoding="utf-8")
        assert main(["figure", "fig3a", "--config", str(cfg), "--out", str(tmp_path)]) == 0

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

    @pytest.mark.parametrize(
        "argv, ini, message",
        [
            (["gn", "--kind", "thermal", "--mean", "3", "--M", "8", "--order", "501"], "",
             "[gn] order must be <= 500, got 501"),
            (["mc", "--kind", "fock", "--n", "5", "--M", "2", "--order", str(10**30)], "",
             f"[mc] order must be <= 500, got {10**30}"),
            (["figure", "fig3b"], "m_max = 100001", "[figure] m_max must be <= 100000, got 100001"),
            (["figure", "fig3c"], f"n_sweep_max = {10**30}",
             f"[figure] n_sweep_max must be <= 100000, got {10**30}"),
            # sizes that numpy or libm would refuse in words of their own
            (["scatter", "--kind", "fock", "--n", str(10**30), "--M", "4"], "",
             f"[input] n must be <= 100000, got {10**30}"),
            (["plimit", "--n", str(10**30), "--M", "4"], "",
             f"[plimit] n must be <= 100000, got {10**30}"),
            (["figure", "fig5a"], f"n = {10**30}", f"[figure] n must be <= 100000, got {10**30}"),
            (["figure", "fig2", "--M", "4", "--nbar", "100001"], "",
             "[figure] nbar must be <= 100000, got 100001"),
            (["gn", "--kind", "squeezed", "--r", "1e30", "--M", "4"], "",
             "invalid input state: squeezing magnitude r = 1e+30: cosh(r) overflows"),
        ],
    )
    def test_size_past_its_maximum_exits_before_any_work(self, monkeypatch, tmp_path,
                                                          capsys, argv, ini, message):
        for heavy in ("correlation_report", "g2_out_predicted", "input_pmf", "fock_scatter_pmf"):
            monkeypatch.setattr(cli, heavy, None)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[figure]\n{ini}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()


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


# --- fuzz: argv and INI files drawn from the settings tables ----------------------

# every int setting gets a huge value: the stages of scatter and gn run, as
# the cascade stops at its fixed point and the deep-cascade limit knows when it
# is past the doubles; order, m_max, n_sweep_max, n and nbar have a stated
# maximum, and the other settings are refused before any work in their size;
# every float setting gets 1e30, past where cosh(r) overflows
_CSV_FILES = {"good.csv": "n,p\n0,0.25\n1,0.5\n2,0.25\n", "bad.csv": "n,p\n0,abc\n"}
# strings that no flag's type takes; they reach the settings through INI files
_WRONG_TYPE = ["abc", "yes", "true", "off", "1.5", "", "0x10", "nan", "inf", "1e30"]


def _fuzz_value(key, in_ini, clean, command=None):
    """A value of ``key`` as text: valid and small, or else also out of range or wrong-typed."""
    kind = cli._KEYS[key][0]
    huge = [str(10**30)] if key == "stages" and command in ("scatter", "gn") else []
    if clean:
        valid = {"kind": st.sampled_from(list(cli._KINDS)), "pmf_csv": st.just("good.csv"),
                 "tail_mass": st.just("0.0"), "seed": st.integers(0, 2**64 - 1).map(str),
                 "order": st.integers(2, 6).map(str), "frames": st.integers(200, 400).map(str)}
        if huge:  # the cascade stops at its fixed point, and the limit past the doubles
            valid["stages"] = st.one_of(st.integers(1, 12).map(str), st.sampled_from(huge))
        return valid.get(key, st.integers(1, 12).map(str) if kind is int
                         else st.floats(0.1, 4.0).map(repr))
    if key == "kind":  # the flag takes only the kinds themselves
        values = st.sampled_from([*cli._KINDS, *(["FOCK", "laser"] if in_ini else [])])
    elif key == "pmf_csv":
        values = st.sampled_from([*_CSV_FILES, "missing.csv"])
    elif kind is int:
        huge = huge or [str(10**30), str(2**63)]
        values = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["-1", "-7", *huge]))
    else:  # float: supports of at most ~150 entries, so any M stays cheap
        special = ["-1.0", "-0.0", "nan", "inf", "-inf", "1e30", "5e-324"]
        values = st.one_of(st.floats(0.0, 4.0).map(repr), st.sampled_from(special))
    return st.one_of(values, st.sampled_from(_WRONG_TYPE)) if in_ini else values


@st.composite
def _cli_runs(draw):
    """argv (without ``--out``) and INI sections of the keys the command reads.

    A clean run sets every key to a valid value; the others leave keys out,
    draw out-of-range and wrong-typed values, add keys nothing reads, and
    may put the output directory under a file.
    """
    clean = draw(st.booleans())
    command = draw(st.sampled_from(
        [*(c for c in cli._COMMANDS if c != "figure"), *(f"figure {f}" for f in cli._FIGURES)]
    ))
    head, *recipe = command.split()
    _, reads_input, sections, _ = cli._COMMANDS[head]
    flagged = {key for keys in sections.values() for key in keys}  # what argparse takes
    if recipe:
        sections = {"figure": cli._FIGURES[recipe[0]][1]}
    if reads_input:
        state = draw(_fuzz_value("kind", in_ini=False, clean=True))
        foreign = [] if clean else draw(
            st.lists(st.sampled_from(list(cli._INPUT_KEYS)), max_size=1)
        )
        sections = {"input": dict.fromkeys(["kind", *cli._KINDS[state][1], *foreign]), **sections}
        flagged |= set(cli._INPUT_KEYS)
    bools = st.sampled_from(["yes", "no", "on", "0", *([] if clean else ["maybe", "2"])])
    argv, ini = command.split(), {}
    for section, keys in sections.items():
        for key in keys:
            kind, flag, _ = cli._KEYS[key]
            where = draw(st.sampled_from(["argv", "ini", *([] if clean else ["none"])]))
            if where == "argv" and flag is not None and key in flagged:
                if kind is bool:
                    argv.append(draw(st.sampled_from([flag, f"--no-{flag[2:]}"])))
                else:
                    value = state if key == "kind" else draw(_fuzz_value(key, False, clean, head))
                    argv.append(f"{flag}={value}")
            elif where != "none":
                value = state if key == "kind" else draw(_fuzz_value(key, True, clean, head))
                ini.setdefault(section, {})[key] = draw(bools) if kind is bool else value
    if not clean:
        section, key = draw(st.sampled_from([("input", "colour"), ("mc", "m"), ("extra", "n")]))
        if draw(st.booleans()):
            ini.setdefault(section, {})[key] = "1"
    return argv, ini, not clean and draw(st.booleans())


class TestCliFuzz:
    @given(_cli_runs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_run_exits_cleanly(self, run):
        # exit 0, 2, 3 or 4 with one line on stderr (none on success), never a
        # traceback; a successful run writes the same bytes when run again
        argv, ini, under_a_file = run
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, text in _CSV_FILES.items():
                (root / name).write_text(text, encoding="utf-8")
            argv = [arg.replace("=", f"={root}/", 1) if arg.startswith("--pmf-csv=")
                    else arg for arg in argv]
            if ini:
                text = "".join(
                    f"[{section}]\n" + "".join(
                        f"{key} = {root / value if key == 'pmf_csv' else value}\n"
                        for key, value in keys.items()
                    )
                    for section, keys in ini.items()
                )
                (root / "run.ini").write_text(text, encoding="utf-8")
                argv += ["--config", str(root / "run.ini")]
            outputs = []
            for out in ("first", "second"):
                out = root / "good.csv" / out if under_a_file else root / out
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = main([*argv, "--out", str(out)])
                assert rc in (0, 2, 3, 4), (argv, ini)
                assert err.getvalue().count("\n") == (rc != 0), (argv, ini, err.getvalue())
                assert "Traceback" not in err.getvalue()
                if rc:
                    assert not outputs, (argv, ini)  # a success reruns as one
                    break
                outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")})
            assert outputs[:1] == outputs[1:], (argv, ini)
