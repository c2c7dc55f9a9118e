import json

import pytest

from cpwloss.cli import main


def run(argv):
    return main(argv)


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load(path):
    """Parse CLI JSON strictly: NaN and Infinity are not JSON."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


BUDGET_KEYS = {"label", "entries", "total_f_tan_delta", "notes"}
ENTRY_KEYS = {"region", "participation", "loss_tangent", "contribution"}
TLS_KEYS = {
    "chip", "resonator", "f_r", "temperature", "f_tan_delta0",
    "f_tan_delta0_err", "n_c", "n_c_err", "b", "b_err", "delta_other",
    "delta_other_err", "reduced_chi2", "flags", "input", "q_i_low", "q_i_high",
    "q_i_low_extrapolated",
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
    assert set(record["solver"]) == {"unknowns", "factor_nnz", "residual"}
    assert 0 < record["solver"]["unknowns"] < record["solver"]["factor_nnz"]
    assert record["solver"]["residual"] <= 1e-8
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


def test_simulate_config_file_and_env(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "stack.yaml"
    cfg.write_text("trace_width: 10 um\ngap: 4.5 um\n")
    assert run(["simulate", "--config", str(cfg), "--refinement", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("CPWLOSS_CONFIG", str(cfg))
    out = tmp_path / "env.json"
    assert run(["simulate", "--refinement", "1", "--output", str(out)]) == 0
    assert "CPWLOSS_CONFIG" in load(out)["provenance"]


def test_simulate_bad_config(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("gap: -1 um\n")
    assert run(["simulate", "--config", str(cfg)]) == 1
    assert run(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 1


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


def test_synth_fit_tls_round_trip(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    assert run(["synth", "--tls", "F=1e-6,nc=10,b=0.4,other=5e-8",
                "--seed", "7", "--output", str(sweep)]) == 0
    out = tmp_path / "fit.json"
    assert run(["fit-tls", str(sweep), "--output", str(out)]) == 0
    rec = load(out)[0]
    assert set(rec) == TLS_KEYS
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
        "q_i_err", "phi", "a", "alpha", "tau", "n_photon"}
    assert rec["f_r"] == pytest.approx(6e9, rel=1e-7)
    assert rec["q_l"] == pytest.approx(5e5, rel=0.005)
    assert rec["n_photon"] > 0


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


def test_fit_s21_no_dip_exit_code(tmp_path):
    flat = tmp_path / "flat.csv"
    lines = ["freq_hz,re,im"]
    for k in range(200):
        lines.append(f"{6e9 + k * 1e4:.6e},1.0,0.0")
    flat.write_text("\n".join(lines) + "\n")
    assert run(["fit-s21", str(flat)]) == 2


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
    assert "insufficient-span" in rec["flags"]
    out = tmp_path / "summary.json"
    assert run(["stats", str(fit), "--chip", "flat", "--output", str(out)]) == 0
    summary = load(out)
    assert summary["n_resonators"] == 1
    assert summary["weighted_mean_f_tan_delta0"]["mean"] == 0.0
