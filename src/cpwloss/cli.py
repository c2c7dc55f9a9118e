"""Command-line entry point.

Subcommands: simulate | budget | fit-s21 | fit-tls | stats | synth |
reproduce-tables. Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, fields

from . import __version__
from .errors import CpwLossError, ConfigError, FitError, MeshError, SolveError
from . import geometry, participation, s21fit, stats as stats_mod, tlsfit
from .fieldsolve import build_mesh, dump_fields_csv, solve_potential


def _plain(obj):
    """JSON-ready copy: floats kept to 10 significant digits, non-finite
    floats as null (JSON has no NaN), tuples as lists."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.9e}") if math.isfinite(obj) else None
    return obj


def _json_dump(obj, path_or_none):
    text = json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n"
    if path_or_none:
        with open(path_or_none, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_records(path, unwrap=None):
    """Records of a JSON input file: a list, or a single record. `unwrap`
    names the key that holds the list when the file is one object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if unwrap and isinstance(data, dict):
        data = data.get(unwrap, [])
    return data if isinstance(data, list) else [data]


def _number(value):
    """A JSON number as float; null (how non-finite floats are written) is NaN."""
    return math.nan if value is None else float(value)


def _budget_record(budget):
    record = asdict(budget)
    record["entries"] = [dict(asdict(e), contribution=e.contribution)
                         for e in budget.entries]
    record["total_f_tan_delta"] = budget.total
    return record


def _resolve_stack(args):
    """The stack from --config, from --preset [--treatment] or the defaults."""
    if args.treatment is not None and args.preset is None:
        raise ConfigError("--treatment applies to a --preset chip; give --preset")
    if args.config is not None and args.preset is not None:
        raise ConfigError("--config and --preset each give the stack; give one")
    if args.config is not None:
        return geometry.load_stack(args.config), f"config:{args.config}"
    if args.preset is None:
        return geometry.build_stack({}), "defaults"
    treatment = args.treatment or "reference"
    stack = geometry.reference_presets(args.preset, treatment)
    return stack, f"preset:{args.preset}/{treatment}"


def _refinement(args):
    if args.refinement < 1:  # build_mesh would call it a numerical failure
        raise ConfigError(f"--refinement: must be >= 1, got {args.refinement}")
    return args.refinement


def cmd_simulate(args):
    stack, provenance = _resolve_stack(args)
    mesh = build_mesh(stack, _refinement(args))
    solution = solve_potential(mesh)
    budget = participation.simulate_budget(
        stack, solution=solution, label=provenance
    )
    if args.dump_fields:
        dump_fields_csv(solution, args.dump_fields)
    print(participation.format_budget_table(budget))
    if stack.ma_scale != 1.0:
        print(f"note: metal-air participation scaled by {stack.ma_scale:.3f} "
              "(remaining-oxide fraction; the XPS pentoxide-percentage ratio "
              "0.856 is an alternative convention)")
    print(f"participation sum (bulk + layers): {budget.participation_sum:.6f}")
    record = {
        "tool_version": __version__,
        "provenance": provenance,
        "refinement_level": args.refinement,
        "config": stack.to_config(),
        "mesh_cells": mesh.n_cells,
        "solver": {"unknowns": solution.unknowns,
                   "matrix_nnz": solution.matrix_nnz,
                   "factor_nnz": solution.factor_nnz,
                   "strip_unknowns": solution.strip_unknowns,
                   "bands": [list(band) for band in solution.bands],
                   "residual": solution.residual,
                   "stage_s": solution.stage_s},
        "capacitance_per_length_f_per_m": solution.capacitance_per_length,
        "budget": _budget_record(budget),
        "shares_percent": participation.budget_shares(budget),
    }
    if args.output:
        _json_dump(record, args.output)
    return 0


def cmd_budget(args):
    if args.input:
        source, records = args.input, _read_records(args.input, unwrap="entries")
    elif args.entry:
        # each REGION:P:TAN becomes the record a --input file holds
        source, records = "--entry", [
            dict(zip(("region", "participation", "loss_tangent"), spec.split(":", 2)))
            for spec in args.entry]
    else:
        raise ConfigError("budget requires --input or --entry")
    participations, tangents = {}, {}
    for index, e in enumerate(records):
        try:
            region = e["region"]
            p, t = float(e["participation"]), float(e["loss_tangent"])
            if region in participations:  # TypeError if region is unhashable
                raise ConfigError(f"{source}: record {index} repeats region {region!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{source}: record {index} needs region, participation "
                f"and loss_tangent: {exc!r}") from None
        participations[region], tangents[region] = p, t
    try:
        budget = participation.loss_budget(participations, tangents)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    print(participation.format_budget_table(budget))
    if args.output:
        _json_dump(_budget_record(budget), args.output)
    return 0


def _fit_each(paths, fit_one, output):
    """Run `fit_one` (read, fit, print, return a record) on each input. A
    fit that fails is reported with its path and the other inputs go on;
    the records that succeeded are written and the exit code is 2. Input
    errors propagate."""
    records, code = [], 0
    for path in sorted(paths):
        try:
            records.append(fit_one(path))
        except FitError as exc:
            print(f"numerical failure: {path}: {exc}", file=sys.stderr)
            code = 2
    if output:
        _json_dump(records, output)
    return code


def cmd_fit_s21(args):
    if args.power_dbm is not None and not math.isfinite(args.power_dbm):
        raise ConfigError(f"--power-dbm: power must be finite, got {args.power_dbm} dBm")

    def fit_one(path):
        trace = s21fit.read_trace(path, fmt=args.format, power_dbm=args.power_dbm)
        fit = s21fit.fit_s21(trace)
        rec = asdict(fit)
        if args.power_dbm is not None:
            rec["n_photon"] = s21fit.photon_number(args.power_dbm, fit)
        print(f"{path}: f_r={fit.f_r:.6e} Hz  Q_l={fit.q_l:.4e}  "
              f"Q_i={fit.q_i:.4e}  Q_c={fit.q_c:.4e}")
        return rec

    return _fit_each(args.traces, fit_one, args.output)


def cmd_fit_tls(args):
    def fit_one(path):
        sweep = tlsfit.read_sweep(path)
        fit = tlsfit.fit_tls(sweep)
        ends = tlsfit.q_low_high(fit, sweep)
        flagtxt = f"  [{','.join(fit.flags)}]" if fit.flags else ""
        print(f"{path}: F*tan_d0={fit.f_tan_delta0:.4e}  n_c={fit.n_c:.4g}  "
              f"b={fit.b:.4f}  delta_other={fit.delta_other:.4e}{flagtxt}")
        return dict(asdict(fit), input=str(path), q_i_low=ends.q_low,
                    q_i_high=ends.q_high, q_i_low_extrapolated=ends.extrapolated)

    return _fit_each(args.sweeps, fit_one, args.output)


def cmd_stats(args):
    total = args.simulated_total
    if total is not None and not (math.isfinite(total) and total > 0):
        raise ConfigError(f"--simulated-total: simulated total must be finite "
                          f"and positive, got {total}")
    tls_fields = {f.name: f.type == "float" for f in fields(tlsfit.TlsFit)}
    required = [f.name for f in fields(tlsfit.TlsFit)
                if f.default is MISSING and f.default_factory is MISSING]
    fits = []
    q_lows, q_highs = [], []
    for path in sorted(args.records):
        for index, rec in enumerate(_read_records(path)):
            missing = [name for name in required
                       if not isinstance(rec, dict) or name not in rec]
            if missing:
                raise ConfigError(
                    f"{path}: record {index} lacks TLS fit fields {missing}")
            try:
                fits.append(tlsfit.TlsFit(**{
                    name: _number(rec[name]) if is_float else rec[name]
                    for name, is_float in tls_fields.items() if name in rec
                }))
                if "q_i_low" in rec:
                    q_lows.append(_number(rec["q_i_low"]))
                if "q_i_high" in rec:
                    q_highs.append(_number(rec["q_i_high"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{path}: record {index} has a non-numeric value: {exc}") from None
    try:
        summary = stats_mod.summarize_chip(
            args.chip, fits, q_lows=q_lows, q_highs=q_highs,
            sample_holder=args.sample_holder,
            simulated_total=args.simulated_total,
        )
    except ConfigError as exc:
        raise ConfigError(f"{', '.join(args.records)}: {exc}") from None
    wm = summary.f_tan_delta0
    record = asdict(summary)
    record["weighted_mean_f_tan_delta0"] = dict(
        record.pop("f_tan_delta0"), displayed_error="spread")
    if summary.comparison is None:
        del record["comparison"]
    print(f"{summary.chip}: F*tan_d0 = {wm.mean:.3e} +/- {wm.spread:.3e} "
          f"(spread; standard error {wm.uncertainty:.3e}), "
          f"{summary.n_resonators} resonators")
    if args.csv:
        _write_boxplot_csv(summary, args.csv)
    if args.output:
        _json_dump(record, args.output)
    return 0


def _write_boxplot_csv(summary, path):
    import csv as csvlib

    with open(path, "w", newline="") as fh:
        writer = csvlib.writer(fh)
        writer.writerow(["chip", "quantity", "q1", "mean", "q3",
                         "whisker_low", "whisker_high", "outliers"])
        for name in sorted(summary.boxplots):
            b = summary.boxplots[name]
            writer.writerow([
                summary.chip, name,
                f"{b.q1:.9e}", f"{b.mean:.9e}", f"{b.q3:.9e}",
                f"{b.whisker_low:.9e}", f"{b.whisker_high:.9e}",
                ";".join(f"{v:.9e}" for v in b.outliers),
            ])


# each synth option: generator, writer, what it writes and the field that
# holds its points, parameter aliases, required and optional parameters, and
# the generator's noise keyword with the option that sets it
_SYNTH = {
    "--tls": (tlsfit.synth_sweep, tlsfit.write_sweep, "sweep", "n_photon",
              {"F": "f_tan_delta0", "nc": "n_c", "other": "delta_other",
               "fr": "f_r", "temp": "temperature"},
              ("f_tan_delta0", "n_c", "b", "delta_other"),
              ("f_r", "temperature", "n_min", "n_max"), ("noise_frac", "--noise")),
    "--s21": (s21fit.synth_trace, s21fit.write_trace, "trace", "frequency",
              {"fr": "f_r", "ql": "q_l", "qc": "q_c_mag"},
              ("f_r", "q_l", "q_c_mag"), ("phi", "a", "alpha", "tau"),
              ("snr_db", "--snr-db")),
}


def _parse_kv(option, spec, aliases):
    out = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigError(f"bad parameter {part!r}; expected key=value")
        key, val = part.split("=", 1)
        key = key.strip()
        key = aliases.get(key, key)
        if key in out:
            raise ConfigError(f"{option} gives parameter {key!r} twice")
        try:
            out[key] = float(val)
        except ValueError:
            raise ConfigError(f"bad value {val!r} for parameter {key!r}") from None
    return out


def cmd_synth(args):
    if (args.tls is None) == (args.s21 is None):
        raise ConfigError("synth requires exactly one of --tls or --s21")
    for option, value, least in (("--points", args.points, 1),
                                 ("--seed", args.seed, 0)):
        if value is not None and value < least:
            raise ConfigError(f"{option}: must be >= {least}, got {value}")
    option, spec = ("--tls", args.tls) if args.s21 is None else ("--s21", args.s21)
    make, write, noun, axis, aliases, required, optional, _ = _SYNTH[option]
    params = _parse_kv(option, spec, aliases)
    missing = [k for k in required if k not in params]
    if missing:
        raise ConfigError(f"{option} is missing parameters: {missing}")
    unknown = set(params) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {option} parameters: {sorted(unknown)}")
    if args.points is not None:
        params["n_points"] = args.points
    for kind, (*_, (keyword, noise_option)) in _SYNTH.items():
        value = getattr(args, noise_option[2:].replace("-", "_"))
        if value is None:
            continue
        if kind != option:  # each noise option sets one kind's noise
            raise ConfigError(f"{noise_option} applies to {kind}, not {option}")
        params[keyword] = value
    try:
        data = make(**params, seed=args.seed)
    except ConfigError as exc:
        raise ConfigError(f"{option}: {exc}") from None
    if args.output:
        write(data, args.output)
        print(f"wrote {len(getattr(data, axis))}-point {noun} to {args.output}")
    else:
        write(data, "/dev/stdout")
    return 0


def cmd_reproduce_tables(args):
    # all six presets share the same bulk geometry: one solve serves them all
    base = geometry.reference_presets("400C", "reference")
    mesh = build_mesh(base, _refinement(args))
    solution = solve_potential(mesh)
    report = {}
    worst = 0.0
    for (temp, treatment), expected in geometry.REFERENCE_BUDGETS.items():
        stack = geometry.reference_presets(temp, treatment)
        label = f"{temp} {treatment}"
        budget = participation.simulate_budget(stack, solution=solution, label=label)
        print(f"\n=== {label} ===")
        print(f"{'Region':<18}{'F_i (sim)':>12}{'F_i (ref)':>12}"
              f"{'F*tan (sim)':>13}{'F*tan (ref)':>13}{'dev %':>8}")
        rows = {}
        for e in budget.entries:
            p_ref = expected[e.region]
            c_ref = p_ref * e.loss_tangent
            dev = (e.contribution - c_ref) / c_ref * 100 if c_ref else 0.0
            print(f"{participation.ROW_LABELS[e.region]:<18}"
                  f"{e.participation:>12.3g}{p_ref:>12.3g}"
                  f"{e.contribution:>13.3g}{c_ref:>13.3g}{dev:>8.1f}")
            rows[e.region] = {
                "participation": e.participation,
                "participation_ref": p_ref,
                "contribution": e.contribution,
                "contribution_ref": c_ref,
                "deviation_percent": dev,
            }
            if c_ref:
                worst = max(worst, abs(dev))
        t_ref = expected["total"]
        t_dev = (budget.total - t_ref) / t_ref * 100
        worst = max(worst, abs(t_dev))
        print(f"{'Total loss':<18}{'':>12}{'':>12}"
              f"{budget.total:>13.3g}{t_ref:>13.3g}{t_dev:>8.1f}")
        report[label] = {
            "rows": rows,
            "total": budget.total,
            "total_ref": t_ref,
            "total_deviation_percent": t_dev,
        }
    print(f"\nworst per-cell relative deviation: {worst:.1f}%")
    if args.output:
        _json_dump({"tool_version": __version__,
                    "refinement_level": args.refinement,
                    "tables": report}, args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpwloss",
        description="CPW resonator loss analysis: participation simulation, "
                    "S21 and TLS fitting, chip statistics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="solve a cross section and print its "
                                        "loss budget")
    p.add_argument("--preset", choices=geometry.DEPOSITION_LABELS,
                   help="chip preset (deposition temperature)")
    p.add_argument("--treatment", choices=geometry.TREATMENTS,
                   help="treatment of the --preset chip (default reference)")
    p.add_argument("--config", help="YAML stack config file (not with --preset)")
    p.add_argument("--refinement", type=int, default=2,
                   help="mesh refinement level (default 2)")
    p.add_argument("--dump-fields", metavar="CSV",
                   help="write node potentials as CSV")
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("budget", help="combine given participations and loss "
                                      "tangents into a budget")
    p.add_argument("--input", metavar="JSON",
                   help="JSON list of {region, participation, loss_tangent}")
    p.add_argument("--entry", action="append", metavar="REGION:P:TAN",
                   help="inline budget entry; repeatable")
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("fit-s21", help="fit notch-port traces")
    p.add_argument("traces", nargs="+", metavar="CSV")
    p.add_argument("--format", choices=("reim", "magphase"), default="reim")
    p.add_argument("--power-dbm", type=float,
                   help="applied power; adds photon-number output")
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=cmd_fit_s21)

    p = sub.add_parser("fit-tls", help="fit photon-number sweeps")
    p.add_argument("sweeps", nargs="+", metavar="CSV")
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=cmd_fit_tls)

    p = sub.add_parser("stats", help="aggregate fit records into a chip summary")
    p.add_argument("records", nargs="+", metavar="JSON")
    p.add_argument("--chip", default="chip")
    p.add_argument("--sample-holder", default="")
    p.add_argument("--simulated-total", type=float,
                   help="simulated loss total for measured-vs-simulated "
                        "comparison")
    p.add_argument("--csv", metavar="CSV", help="boxplot geometry columns")
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate synthetic traces or sweeps")
    p.add_argument("--tls", metavar="F=..,nc=..,b=..,other=..")
    p.add_argument("--s21", metavar="fr=..,ql=..,qc=..[,phi=..,a=..,alpha=..,tau=..]")
    p.add_argument("--noise", type=float,
                   help="fractional Q_i noise for --tls sweeps (default 0)")
    p.add_argument("--snr-db", type=float, default=None,
                   help="signal-to-noise for --s21 traces")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", metavar="CSV")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reproduce-tables",
                       help="simulate all six chip presets and compare with "
                            "the reference budgets")
    p.add_argument("--refinement", type=int, default=2)
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=cmd_reproduce_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MeshError, SolveError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except CpwLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
