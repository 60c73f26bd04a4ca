"""End-to-end tests of the command line interface.

Every test drives ``quasikp.cli.main`` in process with ``--out`` paths under
``tmp_path``, so nothing leaks into the working tree and stdout/stderr can be
captured exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from quasikp.cli import MODEL_TAGS, main
from quasikp.kp1d import Kp1dParams, kp1d_bands
from quasikp.quasi1d import ConstantScatteringLength, a1d_of_e


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- parser

class TestParser:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_model_tag_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["bands", "--models", "bogus"])
        assert exc.value.code == 2

    def test_unknown_format_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["a1deff", "--format", "yaml"])
        assert exc.value.code == 2


# ---------------------------------------------------------------- config file

class TestConfigFile:
    def scatlen(self, tmp_path, *extra):
        out = tmp_path / "table.csv"
        argv = ["scatlen", "--b", "0.431", "--e-min", "0.3",
                "--energy-max", "2.0", "--out", str(out), *extra]
        return main(argv), out

    def test_missing_config_file(self, tmp_path, capsys):
        rc, _ = self.scatlen(tmp_path, "--config", str(tmp_path / "nope.json"))
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    def test_config_must_be_valid_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        rc, _ = self.scatlen(tmp_path, "--config", str(cfg))
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        rc, _ = self.scatlen(tmp_path, "--config", str(cfg))
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 5, "bogus": 1}), encoding="utf-8")
        rc, _ = self.scatlen(tmp_path, "--config", str(cfg))
        assert rc == 2
        assert "unknown config key: bogus" in capsys.readouterr().err

    def test_config_value_beats_default_and_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 7}), encoding="utf-8")

        rc, out = self.scatlen(tmp_path, "--config", str(cfg))
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 7  # numerov rows plus low-energy rows

        rc, out = self.scatlen(tmp_path, "--config", str(cfg), "--points", "5")
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 5


# ---------------------------------------------------------------- scatlen

class TestScatlen:
    def test_resolves_b_from_zero_energy_scattering_length(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = main(["scatlen", "--a0", "1.0", "--one-bound-state",
                   "--points", "6", "--e-min", "0.3", "--energy-max", "2.0",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "resolved b = " in text
        b = float(text.split("resolved b = ")[1].split(" ")[0])
        assert b == pytest.approx(0.4308867360537225, abs=1e-8)

        header, rows = read_csv(out)
        assert header == ["E_over_Estar", "a_over_Rstar", "model", "resonant"]
        assert len(rows) == 2 * 6
        assert {r[2] for r in rows} == {"numerov", "low-energy-expansion"}
        assert {r[3] for r in rows} <= {"0", "1"}

    def test_explicit_b_wins_and_is_not_echoed(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = main(["scatlen", "--b", "0.431", "--a0", "99.0", "--points", "4",
                   "--e-min", "0.3", "--energy-max", "2.0", "--out", str(out)])
        assert rc == 0
        assert "resolved b" not in capsys.readouterr().out

    def test_nonpositive_b_rejected(self, tmp_path, capsys):
        rc = main(["scatlen", "--b", "-0.3", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "b must be > 0" in capsys.readouterr().err

    def test_needs_b_or_a0(self, tmp_path, capsys):
        rc = main(["scatlen", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "need either --b or --a0" in capsys.readouterr().err


# ---------------------------------------------------------------- bands

class TestBands:
    def test_all_three_models_in_one_table(self, tmp_path, capsys):
        out = tmp_path / "bands.csv"
        rc = main(["bands", "--L", "1.5", "--a", "0.5", "--rstar", "0.3",
                   "--theta-points", "7", "--n-bands", "2",
                   "--energy-max", "4.0", "--out", str(out)])
        assert rc == 0
        assert "resolved b = " in capsys.readouterr().out

        header, rows = read_csv(out)
        assert header == ["model", "theta", "band", "E"]
        assert {r[0] for r in rows} == set(MODEL_TAGS)
        thetas = sorted({float(r[1]) for r in rows})
        np.testing.assert_allclose(thetas, np.linspace(0.0, math.pi, 7),
                                   atol=1e-12)
        assert all(math.isfinite(float(r[3])) for r in rows)

    def test_reduced_model_rows_match_direct_solver(self, tmp_path):
        out = tmp_path / "bands.csv"
        rc = main(["bands", "--L", "2.0", "--a", "0.5",
                   "--models", "kp1d-reduced", "--theta-points", "5",
                   "--n-bands", "2", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert {r[0] for r in rows} == {"kp1d-reduced"}

        # the table holds the axial energies shifted by the transverse
        # zero point, with the coupling read off a1d at the lowest threshold
        g = -1.0 / a1d_of_e(1.0, ConstantScatteringLength(0.5))
        expect = kp1d_bands(Kp1dParams(g1d=g, L=2.0), 0.0, 2)
        got = sorted(float(r[3]) for r in rows if float(r[1]) == 0.0)
        np.testing.assert_allclose(got, 1.0 + np.asarray(expect), atol=1e-9)

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            rc = main(["bands", "--L", "2.0", "--a", "0.5",
                       "--models", "kp1d-reduced", "--theta-points", "5",
                       "--n-bands", "2", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_spacing_near_pi_has_no_nan_point(self, tmp_path):
        # at L within ~1e-5 of pi the theta = 0 node level 1 + 2 (pi/L)^2
        # sits 1.6e-5 below the threshold E = 3, with a band root between
        out = tmp_path / "bands.csv"
        rc = main(["bands", "--models", "constant-a", "kp1d-reduced",
                   "--n-bands", "4", "--theta-points", "21",
                   "--energy-max", "7", "--L", "3.141605475438004",
                   "--a", "0.9874678801396116", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 4 * 21
        assert all(math.isfinite(float(r[3])) for r in rows)

    def test_deep_kp1d_bound_band(self, tmp_path):
        # 1 - C a is about -0.006 here, so g1d = -1/a1d(1) is about -239;
        # the first bisection midpoint of the bound root has a subnormal
        # residual
        L, a = 3.100703457240802, 0.6887199918115454
        out = tmp_path / "bands.csv"
        rc = main(["bands", "--models", "constant-a", "kp1d-reduced",
                   "--n-bands", "4", "--theta-points", "21",
                   "--energy-max", "7", "--L", str(L), "--a", str(a),
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 4 * 21
        g = -1.0 / a1d_of_e(1.0, ConstantScatteringLength(a))
        bottom = [float(r[3]) for r in rows
                  if r[0] == "kp1d-reduced" and r[2] == "0"]
        # kappa L ~ 740: the bound band is flat at kappa = -g1d
        np.testing.assert_allclose(bottom, 1.0 - 0.5 * g * g, rtol=1e-12)

    def test_rows_read_back_onto_the_kronig_penney_relation(self, tmp_path):
        # a sits 6e-4 above the confinement-induced resonance, so g1d is
        # about -1571; near kL = pi the relation moves by 4e4 per unit E,
        # and a table rounded to 12 digits misses it by 1.4e-7
        L, a = 6.320190366481748, 0.68536277181714
        out = tmp_path / "bands.csv"
        rc = main(["bands", "--models", "constant-a", "kp1d-reduced",
                   "--n-bands", "4", "--theta-points", "21",
                   "--energy-max", "7.0", "--L", repr(L), "--a", repr(a),
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        g = -1.0 / a1d_of_e(1.0, ConstantScatteringLength(a))
        worst = 0.0
        for r in rows:
            if r[0] != "kp1d-reduced":
                continue
            theta, e = float(r[1]), float(r[3]) - 1.0
            if e >= 0.0:
                k = math.sqrt(2.0 * e)
                s = L if k == 0.0 else math.sin(k * L) / k
                lhs = math.cos(k * L) + g * s - math.cos(theta)
            else:
                # divided through by cosh(kappa L), which overflows here
                kap = math.sqrt(-2.0 * e)
                s = math.tanh(kap * L) / kap
                sech = 2.0 * math.exp(-kap * L) / (1.0 + math.exp(-2.0 * kap * L))
                lhs = 1.0 + g * s - math.cos(theta) * sech
            worst = max(worst, abs(lhs) / (1.0 + abs(g * s)))
        assert worst < 1e-8

    def test_free_lattice_kp1d_rows_equal_constant_a_rows(self, tmp_path):
        # a = 0: below the second transverse threshold E = 3 both models are
        # the free particle folded into the zone, with the levels at theta = pi
        # doubly degenerate
        out = tmp_path / "bands.csv"
        rc = main(["bands", "--L", "2", "--a", "0", "--models", "constant-a",
                   "kp1d-reduced", "--n-bands", "3", "--theta-points", "3",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        for theta in (0.0, 0.5 * math.pi, math.pi):
            levels = {tag: sorted(float(r[3]) for r in rows
                                  if r[0] == tag and abs(float(r[1]) - theta) < 1e-9
                                  and float(r[3]) < 3.0)
                      for tag in ("constant-a", "kp1d-reduced")}
            assert levels["kp1d-reduced"] == pytest.approx(levels["constant-a"],
                                                           rel=1e-12), theta
            assert len(levels["kp1d-reduced"]) == (2 if theta == math.pi else 1)
        rc = main(["bands", "--L", "2", "--a", "0", "--models", "constant-a",
                   "kp1d-reduced", "--n-bands", "4", "--theta-points", "5",
                   "--out", str(tmp_path / "four.csv")])
        assert rc == 0

    def test_unknown_model_tag_via_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": ["bogus"]}), encoding="utf-8")
        rc = main(["bands", "--config", str(cfg),
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "unknown model tag" in capsys.readouterr().err

    def test_energy_dependent_model_needs_interaction(self, tmp_path, capsys):
        rc = main(["bands", "--a", "0.0", "--models", "energy-dependent",
                   "--rstar", "0.3", "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "a != 0" in capsys.readouterr().err

    def test_nonpositive_b_rejected(self, tmp_path, capsys):
        rc = main(["bands", "--L", "5", "--a", "0.5", "--rstar", "0.1",
                   "--b", "-0.3", "--models", "energy-dependent",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "b must be > 0" in capsys.readouterr().err

    def test_explicit_b_wins_and_is_not_echoed(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc = main(["bands", "--L", "2", "--a", "0.5", "--rstar", "0.3",
                   "--b", "0.431", "--models", "energy-dependent",
                   "--theta-points", "5", "--n-bands", "1",
                   "--energy-max", "4.0", "--out", str(out)])
        assert rc == 0
        assert "resolved b" not in capsys.readouterr().out
        _, rows = read_csv(out)
        assert {r[0] for r in rows} == {"energy-dependent"}

    def test_zero_bands_rejected(self, tmp_path, capsys):
        rc = main(["bands", "--n-bands", "0", "--models", "constant-a",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "--n-bands must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------- bands-vs-a

class TestBandsVsA:
    def test_single_spacing_single_file(self, tmp_path):
        out = tmp_path / "edges.csv"
        rc = main(["bands-vs-a", "--L", "5", "--a", "0.4", "--n-bands", "1",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["a_over_aperp", "band", "E_theta0", "E_thetapi",
                          "flag"]
        assert len(rows) == 1
        assert float(rows[0][2]) < 1.0  # attractive coupling binds below ho

    def test_multiple_spacings_get_suffixed_files(self, tmp_path):
        out = tmp_path / "sub" / "edges.csv"
        out.parent.mkdir()
        rc = main(["bands-vs-a", "--L", "1.5", "3", "--a", "0.4",
                   "--n-bands", "1", "--out", str(out)])
        assert rc == 0
        assert not out.exists()
        assert (tmp_path / "sub" / "edges_L1p5.csv").exists()
        assert (tmp_path / "sub" / "edges_L3.csv").exists()


# ---------------------------------------------------------------- a1deff

class TestA1dEff:
    def test_both_modes_all_spacings(self, tmp_path):
        out = tmp_path / "a1deff.csv"
        rc = main(["a1deff", "--a", "1.0", "--L", "1.0", "1.5",
                   "--theta-points", "9", "--mode", "both", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["theta", "L_over_aperp", "mode", "a1deff_over_aperp"]
        assert len(rows) == 2 * 2 * 9
        assert {r[2] for r in rows} == {"series", "h-approx"}

    def test_single_mode(self, tmp_path):
        out = tmp_path / "a1deff.csv"
        rc = main(["a1deff", "--a", "1.0", "--L", "1.0",
                   "--theta-points", "9", "--mode", "series",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 9
        assert {r[2] for r in rows} == {"series"}

    def test_unknown_mode_via_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "bogus"}), encoding="utf-8")
        rc = main(["a1deff", "--config", str(cfg),
                   "--out", str(tmp_path / "a.csv")])
        assert rc == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["a1deff", "--a", "1.0", "--L", "1.0",
                   "--theta-points", "5", "--mode", "series"])
        assert rc == 0
        assert (tmp_path / "fig8_a1deff.csv").exists()

    def test_json_format_holds_column_arrays(self, tmp_path):
        csv_out = tmp_path / "a.csv"
        json_out = tmp_path / "a.json"
        for fmt, out in (("csv", csv_out), ("json", json_out)):
            rc = main(["a1deff", "--a", "1.0", "--L", "1.0",
                       "--theta-points", "5", "--mode", "series",
                       "--format", fmt, "--out", str(out)])
            assert rc == 0
        cols = json.loads(json_out.read_text(encoding="utf-8"))
        header, rows = read_csv(csv_out)
        assert list(cols) == header
        assert all(len(cols[h]) == len(rows) for h in header)
        np.testing.assert_allclose(
            cols["a1deff_over_aperp"],
            [float(r[3]) for r in rows], rtol=1e-10)


# ---------------------------------------------------------------- meff

class TestMeff:
    def test_free_lattice_has_unit_mass_ratio(self, tmp_path):
        out = tmp_path / "meff.csv"
        rc = main(["meff", "--L", "5", "--a", "0.0", "0.3",
                   "--theta-points", "41", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["a_axis", "L_over_aperp", "model", "m_over_meff",
                          "flag"]
        by_a = {float(r[0]): r for r in rows}
        assert float(by_a[0.0][3]) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < float(by_a[0.3][3]) < 1.0
        assert all(r[4] == "" for r in rows)

    def test_too_coarse_grid_flags_failed_rows(self, tmp_path):
        # 31 thetas leave only 16 points inside the fit window, below the
        # fitter's minimum, so every row must be flagged instead of raising
        out = tmp_path / "meff.csv"
        with pytest.warns(RuntimeWarning, match="effective mass failed"):
            rc = main(["meff", "--L", "5", "--a", "0.0", "0.3",
                       "--theta-points", "31", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert all(r[3] == "nan" and r[4] == "failed" for r in rows)

    def test_nonpositive_fit_fraction_rejected(self, tmp_path, capsys):
        rc = main(["meff", "--L", "5", "--a", "0.3", "--fit-fraction", "0",
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        assert "--fit-fraction must be in (0, 1]" in capsys.readouterr().err

    def test_single_theta_point_rejected(self, tmp_path, capsys):
        rc = main(["meff", "--L", "5", "--a", "0.3", "--theta-points", "1",
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        assert "--theta-points must be >= 2" in capsys.readouterr().err

    def test_json_maps_nan_to_null(self, tmp_path):
        out = tmp_path / "meff.json"
        rc = main(["meff", "--L", "5", "--a", "0.3", "--theta-points", "31",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        cols = json.loads(out.read_text(encoding="utf-8"))
        assert cols["m_over_meff"] == [None]
        assert cols["flag"] == ["failed"]

    def test_energy_dependent_rows_use_bound_state_abscissa(self, tmp_path):
        out = tmp_path / "meff.csv"
        rc = main(["meff", "--L", "5", "--a", "0.3", "--rstar", "0.3",
                   "--theta-points", "41", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        models = [r[2] for r in rows]
        assert models == ["contact", "energy-dependent"]
        iondep = rows[1]
        assert iondep[4] == ""
        # the abscissa is a evaluated at the band bottom, not the bare a
        assert float(iondep[0]) != pytest.approx(0.3, abs=1e-6)
        assert math.isfinite(float(iondep[3]))

    def test_nonpositive_rstar_rejected(self, tmp_path, capsys):
        rc = main(["meff", "--a", "0.3", "--rstar", "0.0",
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        assert "--rstar must be > 0" in capsys.readouterr().err


# ---------------------------------------------------------------- selfcheck

class TestSelfcheck:
    def test_report_written_and_all_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["selfcheck", "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out

        report = json.loads(out.read_text(encoding="utf-8"))
        assert set(report) == {"seed", "checks", "all_pass"}
        assert report["seed"] == 7
        assert report["all_pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == ["hurwitz_zeta_oracle", "olshanii_constant",
                         "single_site_sum_oracle", "lattice_sum_oracle"]
        for check in report["checks"]:
            assert check["pass"] is True
            assert check["max_abs_err"] <= check["tol"]

    def test_report_to_stdout_by_default(self, capsys):
        rc = main(["selfcheck", "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True

    def test_failing_check_returns_exit_code_4(self, tmp_path, monkeypatch):
        import quasikp.cli as cli
        monkeypatch.setattr(cli, "olshanii_constant", lambda: 2.0)
        out = tmp_path / "report.json"
        rc = main(["selfcheck", "--seed", "7", "--out", str(out)])
        assert rc == 4
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["all_pass"] is False
        bad = [c for c in report["checks"] if not c["pass"]]
        assert [c["name"] for c in bad] == ["olshanii_constant"]


# ---------------------------------------------------------------- exit codes

class TestExitCodes:
    def test_solver_errors_exit_3(self, tmp_path, capsys):
        rc = main(["a1deff", "--a", "0.0", "--L", "1.0",
                   "--out", str(tmp_path / "a.csv")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (["bands-vs-a", "--L", "2", "--a", "0.5", "--n-bands", "0"],
         "--n-bands must be >= 1"),
        (["scatlen", "--b", "0.431", "--points", "3"], "--points must be >= 4"),
        (["a1deff", "--a", "1", "--L", "1", "--theta-points", "0"],
         "--theta-points must be >= 1"),
        (["bands", "--models", "kp1d-reduced", "--theta-points", "1",
          "--L", "2", "--a", "0.5"], "--theta-points must be >= 2"),
    ])
    def test_bad_counts_exit_2_before_solving(self, argv, message, tmp_path,
                                              capsys):
        out = tmp_path / "t.csv"
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_errors_exit_2_with_message(self, tmp_path, capsys):
        rc = main(["scatlen", "--b", "-1.0", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
