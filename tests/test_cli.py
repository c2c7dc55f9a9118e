import json

import numpy as np
import pytest

from cpwloss.cli import main
from cpwloss.s21fit import read_trace, synth_trace


def run(argv):
    return main(argv)


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load(path):
    """Parse CLI JSON strictly: NaN and Infinity are not JSON."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


BUDGET_KEYS = {"label", "entries", "total_f_tan_delta"}
ENTRY_KEYS = {"region", "participation", "loss_tangent", "contribution"}
TLS_KEYS = {
    "chip", "resonator", "f_r", "temperature", "f_tan_delta0",
    "f_tan_delta0_err", "n_c", "n_c_err", "b", "b_err", "delta_other",
    "delta_other_err", "reduced_chi2", "flags", "nfev", "status", "input",
    "q_i_low", "q_i_high", "q_i_low_extrapolated",
}


def test_version_and_help(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()
    for sub in ("simulate", "budget", "fit-s21", "fit-tls", "stats", "synth",
                "reproduce-tables"):
        assert run([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--output" in out


def test_unknown_subcommand():
    assert run(["frobnicate"]) == 1
    assert run([]) == 1


def test_simulate_preset(tmp_path, capsys):
    out = tmp_path / "budget.json"
    assert run(["simulate", "--preset", "400C", "--refinement", "1",
                "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Total loss" in text
    record = load(out)
    assert set(record) == {
        "tool_version", "provenance", "refinement_level", "config",
        "mesh_cells", "solver", "capacitance_per_length_f_per_m", "budget",
        "shares_percent"}
    solver = record["solver"]
    assert set(solver) == {"unknowns", "matrix_nnz", "factor_nnz",
                           "strip_unknowns", "bands", "residual", "stage_s"}
    # SuperLU factors only the separator rows between the bands, so
    # factor_nnz is bounded by them, not by the whole system
    assert 0 < solver["strip_unknowns"] < solver["unknowns"] < solver["matrix_nnz"]
    assert solver["factor_nnz"] > solver["strip_unknowns"]
    # below the surface, in the gap and above the metal: (first, last) rows
    assert len(solver["bands"]) == 3
    assert all(0 < first <= last for first, last in solver["bands"])
    assert solver["residual"] <= 1e-8
    assert set(solver["stage_s"]) == {"assemble", "factor", "solve", "post"}
    assert all(t >= 0 for t in solver["stage_s"].values())
    assert set(record["config"]) == {
        "trace_width", "gap", "metal_thickness", "substrate_thickness",
        "trench_depth", "layer_MA_top", "layer_MA_side", "layer_SA",
        "ma_scale", "materials", "domain_halfwidth", "domain_height_air",
        "domain_depth_substrate"}
    assert set(record["budget"]) == BUDGET_KEYS
    assert all(set(e) == ENTRY_KEYS for e in record["budget"]["entries"])
    assert record["budget"]["total_f_tan_delta"] > 0
    assert set(record["shares_percent"]) == {
        "substrate", "air", "metal_air", "substrate_air"}
    regions = [e["region"] for e in record["budget"]["entries"]]
    assert regions == ["substrate", "air", "metal_air", "substrate_air"]


def test_simulate_prints_the_hf_scale_note(capsys):
    for treatment, scaled in (("reference", False), ("hf_treated", True)):
        assert run(["simulate", "--preset", "400C", "--treatment", treatment,
                    "--refinement", "1"]) == 0
        text = capsys.readouterr().out
        assert ("note: metal-air participation scaled by 0.818 " in text) == scaled
        assert ("note:" in text) == scaled


def test_simulate_config_file(tmp_path):
    cfg = tmp_path / "stack.yaml"
    cfg.write_text("trace_width: 10 um\ngap: 4.5 um\n")
    assert run(["simulate", "--config", str(cfg), "--refinement", "1"]) == 0


def test_simulate_bad_config(tmp_path):
    cfg = tmp_path / "bad.yaml"
    for text in ("gap: -1 um\n", "trace_width: 10 cm\n", "trench_depth: .nan\n",
                 "trace_width: yes\n"):
        cfg.write_text(text)
        assert run(["simulate", "--config", str(cfg)]) == 1
    assert run(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 1


@pytest.mark.parametrize("text,expected", [
    ("materials:\n  SA_oxide:\n    loss_tangent: 1.0e-3\n",
     "relative_permittivity"),
    ("ma_scale: abc\n", "ma_scale"),
    ("materials:\n  substrate:\n    relative_permittivity: abc\n",
     "relative_permittivity"),
    ("materials: 3\n", "materials"),
    ("materials:\n  MA_oxid:\n    relative_permittivity: 25\n", "'MA_oxid'"),
    ("materials:\n  MA_oxide:\n    relative_permittivity: 25\n"
     "    loss_tangnet: 5.0e-3\n", "'loss_tangnet'"),
], ids=["missing-permittivity", "non-numeric-ma-scale",
        "non-numeric-permittivity", "materials-not-mapping", "unknown-role",
        "unknown-material-key"])
def test_simulate_malformed_config_is_input_error(tmp_path, capsys, text,
                                                  expected):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    assert run(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and expected in err


def test_simulate_dump_fields(tmp_path):
    dump = tmp_path / "fields.csv"
    assert run(["simulate", "--refinement", "1",
                "--dump-fields", str(dump)]) == 0
    assert dump.exists()
    assert dump.read_text().startswith("x,y,potential")


def test_budget_entries(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run([
        "budget",
        "--entry", "substrate:0.911:1.3e-7",
        "--entry", "air:0.088:0",
        "--entry", "metal_air:1.87e-5:1e-2",
        "--entry", "substrate_air:3.7e-4:1.7e-3",
        "--output", str(out),
    ]) == 0
    record = load(out)
    assert set(record) == BUDGET_KEYS
    assert record["total_f_tan_delta"] == pytest.approx(9.34e-7, rel=0.01)


def test_budget_input_file(tmp_path):
    src = tmp_path / "in.json"
    src.write_text(json.dumps([
        {"region": "substrate", "participation": 0.911, "loss_tangent": 1.3e-7},
        {"region": "metal_air", "participation": 1.87e-5, "loss_tangent": 1e-2},
    ]))
    out = tmp_path / "out.json"
    assert run(["budget", "--input", str(src), "--output", str(out)]) == 0
    record = load(out)
    assert record["total_f_tan_delta"] == pytest.approx(
        0.911 * 1.3e-7 + 1.87e-5 * 1e-2, rel=1e-9)


def test_budget_requires_input():
    assert run(["budget"]) == 1
    assert run(["budget", "--entry", "substrate=0.9"]) == 1


@pytest.mark.parametrize("entry", ["substrate:nan:1.3e-7", "substrate:0.911:inf"])
def test_budget_non_finite_entry_is_input_error(entry, capsys):
    assert run(["budget", "--entry", entry, "--entry", "metal_air:1e-5:1e-2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'substrate'" in err


def test_budget_non_finite_input_is_input_error(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text('[{"region": "substrate", "participation": NaN, '
                   '"loss_tangent": 1.3e-7}]')
    assert run(["budget", "--input", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}:") and "'substrate'" in err


@pytest.mark.parametrize("field, line", [
    ("n_photon", "nan,1e6,1e4"), ("q_i", "1.0,nan,1e4"), ("temperature", "# temp_k=nan"),
])
def test_fit_tls_non_finite_sweep_is_input_error(tmp_path, capsys, field, line):
    sweep = tmp_path / "sweep.csv"
    assert run(["synth", "--tls", "F=1e-6,nc=10,b=0.4,other=5e-8",
                "--seed", "7", "--output", str(sweep)]) == 0
    # a later `# temp_k=` line overrides the first
    sweep.write_text(sweep.read_text() + line + "\n")
    capsys.readouterr()
    assert run(["fit-tls", str(sweep)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("line", ["nan,1e6,1e4", "-1,1e6,1e4"])
def test_fit_tls_bad_sweep_names_file(tmp_path, capsys, line):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["synth", "--tls", "F=1e-6,nc=10,b=0.4,other=5e-8",
                    "--seed", "7", "--output", str(path)]) == 0
    b.write_text(b.read_text() + line + "\n")
    capsys.readouterr()
    assert run(["fit-tls", str(a), str(b)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {b}: ")


def test_synth_points_default(tmp_path):
    # without --points, synth writes as many points as synth_sweep and
    # synth_trace make by default
    for kind, spec, n in (("--tls", "F=1e-6,nc=10,b=0.4,other=5e-8", 30),
                          ("--s21", "fr=6e9,ql=5e5,qc=1e6", 1001)):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["synth", kind, spec, "--seed", "3", "--output", str(a)]) == 0
        assert run(["synth", kind, spec, "--seed", "3", "--points", str(n),
                    "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_synth_fit_tls_round_trip(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    assert run(["synth", "--tls", "F=1e-6,nc=10,b=0.4,other=5e-8",
                "--seed", "7", "--output", str(sweep)]) == 0
    out = tmp_path / "fit.json"
    assert run(["fit-tls", str(sweep), "--output", str(out)]) == 0
    rec = load(out)[0]
    assert set(rec) == TLS_KEYS
    assert rec["nfev"] > 0 and rec["status"] in (1, 2, 3)
    assert rec["f_tan_delta0"] == pytest.approx(1e-6, rel=0.01)
    assert rec["n_c"] == pytest.approx(10.0, rel=0.01)
    assert rec["b"] == pytest.approx(0.4, rel=0.01)
    assert rec["delta_other"] == pytest.approx(5e-8, rel=0.01)
    assert "q_i_low" in rec and "q_i_high" in rec


def test_synth_fit_s21_round_trip(tmp_path):
    trace = tmp_path / "trace.csv"
    assert run(["synth", "--s21", "fr=6e9,ql=5e5,qc=1e6,phi=0.1,tau=4e-8",
                "--output", str(trace)]) == 0
    out = tmp_path / "fit.json"
    assert run(["fit-s21", str(trace), "--power-dbm", "-140",
                "--output", str(out)]) == 0
    rec = load(out)[0]
    assert set(rec) == {
        "label", "f_r", "f_r_err", "q_l", "q_l_err", "q_c", "q_c_err", "q_i",
        "q_i_err", "phi", "a", "alpha", "alpha_err", "tau", "tau_err", "alpha_c",
        "alpha_c_err", "nfev", "status", "start", "reduced_chi2", "jtj_cond",
        "diameter_z", "n_photon"}
    assert rec["f_r"] == pytest.approx(6e9, rel=1e-7)
    assert rec["q_l"] == pytest.approx(5e5, rel=0.005)
    assert rec["n_photon"] > 0
    assert len(rec["start"]) == 7 and rec["start"][1] == pytest.approx(5e5, rel=0.5)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_s21_non_finite_power_is_input_error(tmp_path, capsys, value):
    trace = tmp_path / "trace.csv"
    assert run(["synth", "--s21", "fr=6e9,ql=5e5,qc=1e6", "--output", str(trace)]) == 0
    out = tmp_path / "fit.json"
    capsys.readouterr()
    assert run(["fit-s21", str(trace), "--power-dbm", value,
                "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --power-dbm: ")
    assert not out.exists()


def test_fit_s21_non_finite_power_is_checked_before_fitting(tmp_path, capsys):
    # the flat trace would fail to fit (exit 2); the option is wrong first
    flat = _flat_trace(tmp_path / "flat.csv")
    capsys.readouterr()
    assert run(["fit-s21", str(flat), "--power-dbm", "nan"]) == 1
    assert capsys.readouterr().err.startswith("error: --power-dbm: ")


def test_synth_argument_validation(tmp_path):
    assert run(["synth"]) == 1
    assert run(["synth", "--tls", "F=1e-6", "--s21", "fr=6e9,ql=1e5,qc=2e5"]) == 1
    assert run(["synth", "--tls", "F=1e-6,nc=ten,b=0.4,other=0"]) == 1
    assert run(["synth", "--s21", "fr=6e9,ql=5e5,qc=1e6,bogus=1",
                "--output", str(tmp_path / "t.csv")]) == 1


def test_synth_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["synth", "--tls", "F=1e-6,nc=10,b=0.4,other=5e-8",
            "--noise", "0.03", "--seed", "3"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


TLS_SPEC, S21_SPEC = "F=1e-6,nc=10,b=0.4,other=5e-8", "fr=6e9,ql=5e5,qc=1e6"


@pytest.mark.parametrize("argv, expected", [
    (["synth", "--tls", TLS_SPEC, "--points", "-1"], "--points"),
    (["synth", "--s21", S21_SPEC, "--points", "-1"], "--points"),
    (["synth", "--tls", TLS_SPEC, "--points", "0"], "--points"),
    (["synth", "--tls", TLS_SPEC, "--noise", "0.03", "--seed", "-1"], "--seed"),
    (["synth", "--tls", TLS_SPEC, "--noise", "-0.5"], "noise_frac"),
    (["synth", "--s21", "fr=6e9,ql=0,qc=1e6"], "q_l"),
    (["synth", "--s21", "fr=6e9,ql=5e5,qc=-1e6"], "q_c_mag"),
    (["synth", "--s21", S21_SPEC + ",fr=7e9"], "'f_r'"),
    (["synth", "--s21", S21_SPEC + ",f_r=7e9"], "'f_r'"),
    (["synth", "--tls", TLS_SPEC + ",nc=20"], "'n_c'"),
    (["budget", "--entry", "substrate:0.9:1e-7", "--entry", "substrate:0.8:1e-7"],
     "'substrate'"),
    (["budget", "--input", "{twice}"], "'substrate'"),
    (["simulate", "--refinement", "0"], "--refinement"),
    (["simulate", "--refinement", "-3"], "--refinement"),
    (["reproduce-tables", "--refinement", "0"], "--refinement"),
    (["simulate", "--config", "{config}", "--preset", "500C", "--refinement", "1"],
     "--preset"),
    (["simulate", "--treatment", "hf_treated", "--refinement", "1"], "--treatment"),
    (["synth", "--s21", S21_SPEC, "--noise", "0.5"], "--noise"),
    (["synth", "--tls", TLS_SPEC, "--snr-db", "40"], "--snr-db"),
    (["synth", "--tls", TLS_SPEC, "--noise", "2", "--seed", "1"],
     "--tls: noise level too large"),
], ids=["tls-points-negative", "s21-points-negative", "tls-points-zero",
        "seed-negative", "noise-negative", "s21-q-l-zero", "s21-q-c-negative",
        "s21-key-twice", "s21-alias-and-name", "tls-key-twice",
        "budget-entry-region-twice", "budget-input-region-twice",
        "simulate-refinement-zero", "simulate-refinement-negative",
        "tables-refinement-zero", "config-and-preset", "treatment-alone",
        "noise-with-s21", "snr-db-with-tls", "tls-noise-too-large"])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, expected):
    config = tmp_path / "stack.yaml"
    config.write_text("trace_width: 10 um\ngap: 4.5 um\n")
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps([
        {"region": "substrate", "participation": p, "loss_tangent": 1e-7}
        for p in (0.9, 0.8)]))
    out = tmp_path / "out"
    argv = [a.format(config=config, twice=twice) for a in argv]
    # main returns here, so no exception escapes to print a traceback
    assert run(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert expected in err and "Traceback" not in err
    assert not out.exists()


def test_fit_s21_magphase_matches_reim(tmp_path):
    trace = synth_trace(6e9, 5e5, 1e6, phi=0.1, a=0.9, alpha=0.3, tau=4e-8,
                        snr_db=40, seed=3)
    reim, magphase = tmp_path / "reim.csv", tmp_path / "magphase.csv"
    for path, header, cols in (
            (reim, "freq_hz,re,im", (trace.s21.real, trace.s21.imag)),
            (magphase, "freq_hz,mag_db,phase_rad",
             (20 * np.log10(np.abs(trace.s21)), np.angle(trace.s21)))):
        rows = np.column_stack([trace.frequency, *cols])
        path.write_text(header + "\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    back = read_trace(magphase, fmt="magphase")
    assert np.array_equal(back.frequency, trace.frequency)
    assert np.max(np.abs(back.s21 - trace.s21)) < 1e-12
    fits = []
    for path, fmt in ((reim, "reim"), (magphase, "magphase")):
        out = tmp_path / f"{fmt}.json"
        assert run(["fit-s21", str(path), "--format", fmt, "--output", str(out)]) == 0
        fits.append(load(out)[0])
    for key in ("f_r", "q_l", "q_c", "q_i", "phi", "a", "alpha_c", "tau"):
        assert fits[1][key] == pytest.approx(fits[0][key], rel=1e-8, abs=1e-12)


def _flat_trace(path):
    lines = ["freq_hz,re,im"]
    for k in range(200):
        lines.append(f"{6e9 + k * 1e4:.6e},1.0,0.0")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fit_s21_no_dip_exit_code(tmp_path):
    flat = _flat_trace(tmp_path / "flat.csv")
    assert run(["fit-s21", str(flat)]) == 2


def test_fit_s21_failed_input_keeps_other_fits(tmp_path, capsys):
    flat = _flat_trace(tmp_path / "flat.csv")
    good = tmp_path / "good.csv"
    assert run(["synth", "--s21", "fr=6e9,ql=5e5,qc=1e6", "--output", str(good)]) == 0
    out = tmp_path / "multi.json"
    capsys.readouterr()
    assert run(["fit-s21", str(flat), str(good), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"numerical failure: {flat}: no resonance dip" in err
    records = load(out)
    assert [rec["label"] for rec in records] == [str(good)]
    assert records[0]["q_l"] == pytest.approx(5e5, rel=0.005)


def test_fit_tls_failed_input_keeps_other_fits(tmp_path, capsys, monkeypatch):
    from cpwloss import tlsfit
    from cpwloss.errors import FitDivergedError

    bad, good = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (bad, good):
        assert run(["synth", "--tls", "F=1e-6,nc=10,b=0.4,other=5e-8",
                    "--seed", "7", "--output", str(path)]) == 0
    fit_tls = tlsfit.fit_tls
    calls = []

    def fail_first(sweep):  # inputs are fitted in sorted order: a.csv first
        calls.append(sweep)
        if len(calls) == 1:
            raise FitDivergedError("TLS fit did not converge: test")
        return fit_tls(sweep)

    monkeypatch.setattr(tlsfit, "fit_tls", fail_first)
    out = tmp_path / "multi.json"
    capsys.readouterr()
    assert run(["fit-tls", str(good), str(bad), "--output", str(out)]) == 2
    assert f"numerical failure: {bad}: TLS fit did not converge" in capsys.readouterr().err
    assert [rec["input"] for rec in load(out)] == [str(good)]


def test_stats_pipeline(tmp_path, capsys):
    records = []
    for k, (f0, err) in enumerate([(1.0e-6, 1e-7), (1.2e-6, 1.2e-7),
                                   (0.9e-6, 9e-8), (1.4e-6, 2e-7)]):
        records.append({
            "chip": "400C-ref", "resonator": f"R{k}",
            "f_tan_delta0": f0, "f_tan_delta0_err": err,
            "n_c": 10.0, "b": 0.4, "delta_other": 5e-8,
            "q_i_low": 5e5 + 1e4 * k, "q_i_high": 2e6 + 1e5 * k,
        })
    src = tmp_path / "fits.json"
    src.write_text(json.dumps(records))
    out = tmp_path / "summary.json"
    csv_out = tmp_path / "box.csv"
    assert run(["stats", str(src), "--chip", "400C-ref", "--sample-holder", "A",
                "--simulated-total", "9.3e-7", "--csv", str(csv_out),
                "--output", str(out)]) == 0
    summary = load(out)
    assert set(summary) == {"chip", "sample_holder", "n_resonators",
                            "weighted_mean_f_tan_delta0", "boxplots",
                            "comparison"}
    assert set(summary["weighted_mean_f_tan_delta0"]) == {
        "mean", "uncertainty", "spread", "displayed_error"}
    assert set(summary["comparison"]) == {
        "measured", "simulated", "ratio", "difference", "underestimated"}
    assert summary["n_resonators"] == 4
    assert summary["comparison"]["underestimated"] in (True, False)
    assert set(summary["boxplots"]) == {"f_tan_delta0", "q_i_low", "q_i_high"}
    for box in summary["boxplots"].values():
        assert set(box) == {"q1", "mean", "q3", "whisker_low",
                            "whisker_high", "outliers"}
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("chip,quantity,q1,mean,q3")


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-9.3e-7"])
def test_stats_non_finite_simulated_total_is_input_error(tmp_path, capsys, value):
    src = tmp_path / "fits.json"
    src.write_text(json.dumps([{"f_tan_delta0": 1e-6, "f_tan_delta0_err": 1e-7,
                                "n_c": 10.0, "b": 0.4, "delta_other": 5e-8}]))
    out = tmp_path / "summary.json"
    assert run(["stats", str(src), f"--simulated-total={value}",
                "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --simulated-total: ")
    assert not out.exists()


def test_stats_record_missing_fields_is_input_error(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps([{"f_tan_delta0": 1e-6, "b": 0.4,
                                "delta_other": 5e-8}]))
    assert run(["stats", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad.json" in err and "record 0" in err and "n_c" in err


GOOD_ENTRY = {"region": "air", "participation": 0.1, "loss_tangent": 0.0}
GOOD_FIT = {"f_tan_delta0": 1e-6, "n_c": 10.0, "b": 0.4, "delta_other": 5e-8}


@pytest.mark.parametrize("command, text, expected", [
    ("budget", json.dumps([{"region": "substrate"}]), "record 0"),
    ("budget", "{not json", "not valid JSON"),
    ("budget", json.dumps("hello"), "record 0"),
    ("budget", json.dumps([GOOD_ENTRY, dict(GOOD_ENTRY, participation="abc")]),
     "record 1"),
    ("budget", json.dumps({}), "no entries"),
    ("budget", json.dumps([]), "no entries"),
    ("stats", "{not json", "not valid JSON"),
    ("stats", json.dumps([GOOD_FIT, dict(GOOD_FIT, f_tan_delta0="x")]),
     "record 1"),
    # null is how a non-finite Q endpoint is written out
    ("stats", json.dumps([dict(GOOD_FIT, q_i_high=2e6),
                          dict(GOOD_FIT, q_i_high=None)]), "q_i_high"),
    # json writes float("inf") as the bare token Infinity and reads it back
    ("stats", json.dumps([dict(GOOD_FIT, q_i_high=2e6),
                          dict(GOOD_FIT, q_i_high=float("inf"))]), "q_i_high"),
    ("stats", json.dumps([GOOD_FIT, dict(GOOD_FIT, f_tan_delta0=float("inf"))]),
     "f_tan_delta0"),
], ids=["budget-missing-key", "budget-not-json", "budget-not-object",
        "budget-non-numeric", "budget-empty-object", "budget-empty-list",
        "stats-not-json", "stats-non-numeric", "stats-nan-quantity",
        "stats-inf-quantity", "stats-inf-f-tan-delta0"])
def test_malformed_json_input_is_input_error(tmp_path, capsys, command, text,
                                             expected):
    src = tmp_path / "bad.json"
    src.write_text(text)
    argv = ["budget", "--input", str(src)] if command == "budget" \
        else ["stats", str(src)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad.json" in err and expected in err


@pytest.mark.parametrize("command,text,line", [
    ("fit-s21", "freq_hz,re,im\n6e9,1,0\n6e9,abc,0\n", 3),
    ("fit-s21", "freq_hz,re,im\n6e9,1\n", 2),
    ("fit-tls", "# f_r_hz=6e9\n# temp_k=0.01\nn_photon,q_i,q_i_sigma\n"
                "1,abc,3\n", 4),
    ("fit-tls", "# f_r_hz=abc\n# temp_k=0.01\nn_photon,q_i,q_i_sigma\n"
                "1,2,3\n", 1),
], ids=["trace-non-numeric", "trace-short-row", "sweep-non-numeric",
        "sweep-non-numeric-metadata"])
def test_malformed_csv_input_is_input_error(tmp_path, capsys, command, text,
                                            line):
    src = tmp_path / "bad.csv"
    src.write_text(text)
    assert run([command, str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad.csv" in err and f"line {line}" in err


def test_reproduce_tables(tmp_path, capsys):
    out = tmp_path / "tables.json"
    assert run(["reproduce-tables", "--refinement", "1",
                "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "worst per-cell relative deviation" in text
    record = load(out)
    assert set(record) == {"tool_version", "refinement_level", "tables"}
    report = record["tables"]
    assert len(report) == 6
    assert "400C reference" in report
    assert "500C hf_treated" in report
    for table in report.values():
        assert set(table) == {"rows", "total", "total_ref",
                              "total_deviation_percent"}
        assert all(set(row) == {"participation", "participation_ref",
                                "contribution", "contribution_ref",
                                "deviation_percent"}
                   for row in table["rows"].values())


def test_flat_sweep_record_round_trips_through_stats(tmp_path):
    # a power-independent sweep has no TLS part; its reduced chi^2 is NaN,
    # which fit-tls writes as null and stats reads back
    sweep = tmp_path / "flat.csv"
    assert run(["synth", "--tls", "F=0,nc=10,b=0.4,other=5e-8",
                "--output", str(sweep)]) == 0
    fit = tmp_path / "fit.json"
    assert run(["fit-tls", str(sweep), "--output", str(fit)]) == 0
    rec = load(fit)[0]
    assert set(rec) == TLS_KEYS
    assert rec["reduced_chi2"] is None
    assert rec["nfev"] == 0 and rec["status"] == 0  # no least-squares fit ran
    assert "insufficient-span" in rec["flags"]
    out = tmp_path / "summary.json"
    assert run(["stats", str(fit), "--chip", "flat", "--output", str(out)]) == 0
    summary = load(out)
    assert summary["n_resonators"] == 1
    assert summary["weighted_mean_f_tan_delta0"]["mean"] == 0.0
