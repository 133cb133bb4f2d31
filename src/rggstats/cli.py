"""Command-line interface.

Subcommands
-----------
scatter   single-cell pmf after one or more diffusers, as CSV
gn        correlations: exact, law-predicted at every order, deep-cascade limit; JSON
plimit    N-photon single-diffuser pmf vs. deep-cascade limit, CSV + JSON
mc        Monte Carlo run with jackknife error bars, CSV + JSON
figure    canned parameter recipes reproducing the standard plots

Each setting is declared once, in the tables ``_KEYS``, ``_BOUNDS``,
``_KINDS``, ``_FIGURES`` and ``_COMMANDS``; the flags, the keys each INI
section accepts, the range of each size and the resolution (flag, then
``--config`` file, then default) follow from them.  Flags the chosen
subcommand, recipe or input kind does not read, and sections no subcommand
reads (a ``[DEFAULT]`` with keys among them), are configuration errors,
found before any numeric work; the sections of other subcommands are
ignored.

Every output file embeds the fully resolved configuration and the engine
version, and rerunning a command with the same resolved configuration
reproduces the output byte for byte (no timestamps, no machine identifiers).

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    Coherent,
    Custom,
    DimTooSmall,
    Fock,
    InvalidPmf,
    OutOfRange,
    Pmf,
    SqueezedCoherent,
    TailTooHeavy,
    Thermal,
    ZeroMean,
    _as_int,
    _law,
    pmf_mean,
    total_variation,
)
from .combinatorics import approx_scatter_pmf, fock_scatter_pmf
from .inputs import input_pmf, thermal_pmf
from .montecarlo import MCConfig, empirical_report, run_mc
from .plimit import fock_pn_limit_pmf, gn_limit
from .transform import (
    cascade_pmf,
    correlation_report,
    g2_out_predicted,
    gn_out_predicted,
    scatter_pmf,
)

__all__ = ["ConfigError", "main"]

_ENGINE = {"name": "rggstats", "version": __version__}


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


_REQUIRED = object()
_NUMERIC_FAILURES = (
    TailTooHeavy, ZeroMean, OutOfRange, DimTooSmall, InvalidPmf, ArithmeticError
)


def _load_custom_pmf(pmf_csv: str, tail_mass: float) -> Custom:
    file = Path(pmf_csv)
    if not file.is_file():
        raise ConfigError(f"custom pmf file not found: {pmf_csv}")
    probs: list[float] = []
    with file.open(encoding="utf-8-sig") as handle:  # drops a byte-order mark
        header: list[str] | None = None
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = [c.strip().lower() for c in cells]
                if "n" not in header or "p" not in header:
                    raise ConfigError(f"{pmf_csv}: need columns 'n' and 'p', got {header}")
                continue
            row = dict(zip(header, cells))
            try:
                n, p = int(row["n"]), float(row["p"])
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{pmf_csv}: bad row {line!r}: {exc}") from exc
            if n != len(probs):
                raise ConfigError(f"{pmf_csv}: rows must cover n = 0,1,2,... got n={n}")
            probs.append(p)
    if not probs:
        raise ConfigError(f"{pmf_csv}: no pmf rows found")
    try:
        return Custom(Pmf(probs, tail_mass))
    except InvalidPmf as exc:
        raise ConfigError(f"{pmf_csv}: {exc}") from exc


# --- the settings tables --------------------------------------------------------

# key: (type, flag, help).  The type parses both the flag and the config value
# (bool: a --flag/--no-flag pair, and yes/no, on/off, true/false or 1/0 in the
# config).  Keys without a flag are set in the config file only.
_KEYS = {
    "kind": (str.lower, "--kind", None),
    "n": (int, "--n", "photon number of the Fock input"),
    "mean": (float, "--mean", "mean photon number (coherent/thermal)"),
    "alpha_mag": (float, "--alpha-mag", "displacement magnitude of the squeezed input"),
    "alpha_phase": (float, "--alpha-phase", "displacement phase of the squeezed input"),
    "r": (float, "--r", "squeezing magnitude of the squeezed input"),
    "theta": (float, "--theta", "squeezing phase of the squeezed input"),
    "pmf_csv": (str, "--pmf-csv", "CSV with columns n,p (custom)"),
    "tail_mass": (float, "--tail-mass", "tail mass of the custom pmf"),
    "m": (int, "--M", "number of speckle cells"),
    "stages": (int, "--stages", "diffusers in series"),
    "approx": (bool, "--approx", "also emit the small-n approximation column"),
    "order": (int, "--order", "highest correlation order"),
    "frames": (int, "--frames", "number of frames"),
    "seed": (int, "--seed", "base seed"),
    "nbar": (int, "--nbar", "input mean photon number"),
    "m_max": (int, None, None),
    "n_sweep_max": (int, None, None),
}

# (min, max); n and nbar leave their minimum to the input state or recipe
_BOUNDS = {"order": (2, 500), "m_max": (1, 10**5), "n_sweep_max": (1, 10**5),
           "n": (None, 10**5), "nbar": (None, 10**5)}

# input kind: (state constructor, {[input] key: default})
_KINDS = {
    "fock": (Fock, {"n": _REQUIRED}),
    "coherent": (Coherent, {"mean": _REQUIRED}),
    "thermal": (Thermal, {"mean": _REQUIRED}),
    "squeezed": (
        SqueezedCoherent, {"alpha_mag": 0.0, "alpha_phase": 0.0, "r": 0.0, "theta": 0.0}
    ),
    "custom": (_load_custom_pmf, {"pmf_csv": _REQUIRED, "tail_mass": 0.0}),
}
_INPUT_KEYS = dict.fromkeys(["kind", *(key for _, keys in _KINDS.values() for key in keys)])


# --- deterministic output helpers ----------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _open(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", encoding="utf-8", newline="\n")


def _write_csv(path: Path, cfg: dict, header: list[str], columns) -> None:
    """Columns may be ragged; the short ones are padded with blanks."""
    with _open(path) as handle:
        handle.write(f"# engine = {_ENGINE['name']} {_ENGINE['version']}\n")
        for section in sorted(cfg):
            for key in sorted(cfg[section]):
                handle.write(f"# {section}.{key} = {_cell(cfg[section][key])}\n")
        handle.write(",".join(header) + "\n")
        for row in zip_longest(*columns):
            handle.write(",".join(_cell(x) for x in row) + "\n")


def _write_json(path: Path, cfg: dict, payload: dict) -> None:
    with _open(path) as handle:
        document = {"engine": _ENGINE, "config": cfg, **payload}
        json.dump(document, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _pmf_columns(*pmfs) -> list:
    """An n column as long as the longest pmf, then the entries of each."""
    return [range(max(map(len, pmfs))), *(p.probs for p in pmfs)]


def _limit(cfg: dict, spec, out: Path) -> None:
    """plimit, fig5a, fig5b: an N-photon single-stage pmf next to its deep-cascade limit."""
    [settings] = cfg.values()  # [plimit], or [figure] with the recipe name
    name = settings.get("name", "plimit")
    one_stage = fock_scatter_pmf(settings["n"], settings["m"])
    limit = fock_pn_limit_pmf(settings["n"], settings["m"])
    payload = {"total_variation": total_variation(one_stage, limit)}
    if name == "plimit":
        payload.update(mean_single_stage=pmf_mean(one_stage), mean_limit=pmf_mean(limit))
    header = ["n", "p_single_stage", "p_limit"]
    _write_csv(out / f"{name}.csv", cfg, header, _pmf_columns(one_stage, limit))
    _write_json(out / f"{name}.json", cfg, payload)


# --- subcommands ----------------------------------------------------------------
# Each takes the resolved configuration, the input state (None for commands
# that read no [input]) and the output directory.


def cmd_scatter(cfg: dict, spec, out: Path) -> None:
    settings = cfg["scatter"]
    M, stages, approx = settings["m"], settings["stages"], settings["approx"]
    if approx:
        if stages != 1:
            raise ConfigError("the small-n approximation applies to a single stage only")
        _as_int("[scatter] m", M, 3)  # the approximation's own limit, named as a setting

    source = input_pmf(spec)
    if approx:
        # before the cascade, so that N >= 1 is checked before the heavy work
        n_eff = spec.n if isinstance(spec, Fock) else round(pmf_mean(source))
        if n_eff < 1:
            raise ConfigError("the small-n approximation needs N >= 1 photons; the input "
                              f"mean {pmf_mean(source)!r} rounds to N = {n_eff}")
        approximate = approx_scatter_pmf(n_eff, M)
        settings["approx_n"] = n_eff
    scattered = cascade_pmf(source, M, stages)
    pmfs = [scattered, thermal_pmf(pmf_mean(scattered))]
    header = ["n", "p_exact", "p_thermal_ref"]
    if approx:
        pmfs.append(approximate)
        header.append("p_approx")
    _write_csv(out / "scatter.csv", cfg, header, _pmf_columns(*pmfs))


def _report_as_dict(report) -> dict:
    moments = {str(i + 1): x for i, x in enumerate(report.factorial_moments)}
    g = {str(i + 2): x for i, x in enumerate(report.g)}
    return {"mean": report.mean, "factorial_moments": moments, "g": g}


def cmd_gn(cfg: dict, spec, out: Path) -> None:
    M, stages, order = cfg["scatter"]["m"], cfg["scatter"]["stages"], cfg["gn"]["order"]
    source = input_pmf(spec)
    incoming = correlation_report(source, order)
    outgoing = correlation_report(cascade_pmf(source, M, stages), order)

    predicted = {}
    for k in range(2, order + 1):  # the law composed exactly over the stages, rounded once
        factor = gn_out_predicted(Fraction(1), k, M) ** stages
        predicted[str(k)] = _law(k, incoming.g_at(k), factor.numerator, factor.denominator)

    payload = {
        "input": _report_as_dict(incoming),
        "output": _report_as_dict(outgoing),
        "predicted": predicted,
        "difference": {k: outgoing.g_at(int(k)) - v for k, v in predicted.items()},
        "deep_cascade_limit": {
            str(k): gn_limit(incoming.g_at(k), k, stages) for k in range(2, order + 1)
        },
    }
    _write_json(out / "gn.json", cfg, payload)


def _finite_or_none(x: float) -> float | None:
    """JSON has no NaN: a standard error that a run cannot estimate is null."""
    return x if math.isfinite(x) else None


def cmd_mc(cfg: dict, spec, out: Path) -> None:
    M, settings = cfg["scatter"]["m"], cfg["mc"]
    frames, order = settings["frames"], settings["order"]
    source = input_pmf(spec)
    config = MCConfig(Custom(source), M, frames, settings["seed"])
    # the exact side is cheap and checks the order before the sampler runs
    exact_pmf = scatter_pmf(source, M)
    exact = correlation_report(exact_pmf, order)
    result = run_mc(config)
    empirical = empirical_report(result, order)

    counts = result.histogram
    columns = [range(len(counts)), counts, [c / frames for c in counts], exact_pmf.probs]
    _write_csv(out / "mc.csv", cfg, ["n", "count", "p_empirical", "p_exact"], columns)

    z_scores = {}
    for k in range(2, order + 1):
        se = empirical.g_se[k - 2]
        gap = empirical.report.g_at(k) - exact.g_at(k)
        z_scores[str(k)] = gap / se if se > 0 else None
    payload = {
        "empirical": _report_as_dict(empirical.report),
        "standard_errors": {
            "mean": _finite_or_none(empirical.mean_se),
            "g": {str(k): _finite_or_none(empirical.g_se[k - 2]) for k in range(2, order + 1)},
        },
        "exact": _report_as_dict(exact),
        "z": z_scores,
        "blocks": empirical.blocks,
    }
    _write_json(out / "mc.json", cfg, payload)


# --- figure recipes ---------------------------------------------------------------


def _at_least(cfg: dict, key: str, low: int) -> int:
    """The [figure] key, checked to be at least ``low``."""
    return _as_int(f"[figure] {key}", cfg["figure"][key], low)


def _fig2(cfg: dict, spec, out: Path) -> None:
    M, nbar = cfg["figure"]["m"], _at_least(cfg, "nbar", 0)
    if M >= 3 and nbar < 1:
        raise ConfigError(f"the p_fock_approx column needs [figure] nbar >= 1, got {nbar}")
    fock_out = fock_scatter_pmf(nbar, M)
    poisson_out = scatter_pmf(input_pmf(Coherent(float(nbar))), M)
    columns = _pmf_columns(fock_out, poisson_out, thermal_pmf(nbar / M))
    header = ["n", "p_fock", "p_poisson", "p_thermal_ref"]
    if M >= 3:
        columns.append(approx_scatter_pmf(nbar, M).probs)
        header.append("p_fock_approx")
    _write_csv(out / "fig2.csv", cfg, header, columns)


def _fig3a(cfg: dict, spec, out: Path) -> None:
    M, nbar = cfg["figure"]["m"], _at_least(cfg, "nbar", 0)
    fock_out = fock_scatter_pmf(nbar, M)
    poisson_out = scatter_pmf(input_pmf(Coherent(float(nbar))), M)
    thermal_out = scatter_pmf(input_pmf(Thermal(float(nbar))), M)
    columns = _pmf_columns(fock_out, poisson_out, thermal_out)
    _write_csv(out / "fig3a.csv", cfg, ["n", "p_fock", "p_poisson", "p_thermal"], columns)


def _fig3b(cfg: dict, spec, out: Path) -> None:
    cells = range(1, cfg["figure"]["m_max"] + 1)
    # Fock inputs of 2, 5 and 10 photons, then a Poissonian input of any mean
    g2_inputs = [1.0 - 1.0 / n_in for n_in in (2, 5, 10)] + [1.0]
    columns = [cells, *([g2_out_predicted(g2, M) for M in cells] for g2 in g2_inputs)]
    header = ["M", "g2_fock2", "g2_fock5", "g2_fock10", "g2_poisson"]
    _write_csv(out / "fig3b.csv", cfg, header, columns)


def _fig3c(cfg: dict, spec, out: Path) -> None:
    M, n_sweep = cfg["figure"]["m"], range(1, cfg["figure"]["n_sweep_max"] + 1)
    g2_in = [1.0 - 1.0 / n_in for n_in in n_sweep]
    columns = [n_sweep, g2_in, [g2_out_predicted(g2, M) for g2 in g2_in]]
    _write_csv(out / "fig3c.csv", cfg, ["N", "g2_in", "g2_out"], columns)


def _fig3d(cfg: dict, spec, out: Path) -> None:
    settings = cfg["figure"]
    # a zero mean leaves no g2 to sweep
    M, nbar, r = settings["m"], _at_least(cfg, "nbar", 1), settings["r"]
    try:
        squeezed = math.sinh(r) ** 2  # the mean photon number of the squeezing alone
    except OverflowError:  # from |r| ~ 355.4 on
        squeezed = math.inf
    if not squeezed <= nbar:  # r = nan too
        raise ConfigError(f"[figure] r = {r}: sinh(r)**2 must be a number <= nbar = {nbar}")
    alpha_mag = settings["alpha_mag"] = math.sqrt(nbar - squeezed)
    rows = []
    for theta in np.linspace(0.0, 2.0 * math.pi, 65):
        state = SqueezedCoherent(alpha_mag, settings["alpha_phase"], r, float(theta))
        source = input_pmf(state)
        g2_in = correlation_report(source, 2).g2
        g2_out = correlation_report(scatter_pmf(source, M), 2).g2
        rows.append([float(theta), g2_in, g2_out, g2_out_predicted(g2_in, M)])
    header = ["theta", "g2_in", "g2_out", "g2_out_law"]
    _write_csv(out / "fig3d.csv", cfg, header, zip(*rows))


# recipe: (function, {[figure] key: default}); fig2 deliberately has no default M
_FIGURES = {
    "fig2": (_fig2, {"m": _REQUIRED, "nbar": 200}),
    "fig3a": (_fig3a, {"m": 8, "nbar": 8}),
    "fig3b": (_fig3b, {"m_max": 64}),
    "fig3c": (_fig3c, {"m": 200, "n_sweep_max": 50}),
    "fig3d": (_fig3d, {"m": 200, "nbar": 8, "r": 1.0, "alpha_phase": 0.0}),
    "fig5a": (_limit, {"n": 60, "m": 60}),
    "fig5b": (_limit, {"n": 60, "m": 200}),
}

# subcommand: (function, reads [input], {section: {key: default}}, help).  The
# figure row lists every recipe's keys; the chosen recipe's own defaults apply.
_COMMANDS = {
    "scatter": (
        cmd_scatter, True,
        {"scatter": {"m": _REQUIRED, "stages": 1, "approx": False}},
        "single-cell pmf after scattering",
    ),
    "gn": (
        cmd_gn, True,
        {"scatter": {"m": _REQUIRED, "stages": 1}, "gn": {"order": 3}},
        "correlation report: exact vs. law vs. limit",
    ),
    "plimit": (
        _limit, False,
        {"plimit": {"n": _REQUIRED, "m": _REQUIRED}},
        "single stage vs. deep-cascade limit",
    ),
    "mc": (
        cmd_mc, True,
        {"scatter": {"m": _REQUIRED},
         "mc": {"frames": 100_000, "seed": 0, "order": 2}},
        "Monte Carlo sampler with jackknife errors",
    ),
    "figure": (
        None, False,
        {"figure": {key: None for _, keys in _FIGURES.values() for key in keys}},
        "canned parameter recipes",
    ),
}


def _accepted_keys() -> dict[str, set[str]]:
    """Every config section some subcommand reads, with the keys it accepts."""
    accepted = {"input": set(_INPUT_KEYS)}
    for _, _, sections, _ in _COMMANDS.values():
        for section, keys in sections.items():
            accepted.setdefault(section, set()).update(keys)
    return accepted


# --- resolution -------------------------------------------------------------------


def _load_config(path: str | None) -> configparser.ConfigParser | None:
    if path is None:
        return None
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with file.open(encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        detail = " ".join(str(exc).split())  # configparser's messages span lines
        raise ConfigError(f"cannot parse config file {path}: {detail}") from exc
    if parser.defaults():  # configparser would lend its keys to every section
        keys = ", ".join(sorted(parser.defaults()))
        raise ConfigError(f"config section [DEFAULT] is not read ({keys}); "
                          "set each key in the section that reads it")
    return parser


def _settings(cp, args, section: str, defaults: dict) -> dict:
    """Flag beats config beats default."""
    values = {}
    given = cp[section] if cp is not None and cp.has_section(section) else {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None and key in given:
            raw = given[key]
            kind = _KEYS[key][0]
            try:
                value = given.getboolean(key) if kind is bool else kind(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required setting [{section}] {key} (or its flag)")
            value = default
        low, high = _BOUNDS.get(key, (None, None))
        if high is not None and _as_int(f"[{section}] {key}", value, low) > high:
            raise ConfigError(f"[{section}] {key} must be <= {high}, got {value}")
        values[key] = value
    return values


def _resolve(args) -> tuple:
    """Return the command function, the resolved configuration and the input state."""
    cp = _load_config(args.config)
    func, reads_input, sections, _ = _COMMANDS[args.command]
    context = args.command
    if args.command == "figure":
        func, keys = _FIGURES[args.name]
        sections, context = {"figure": keys}, f"figure {args.name}"
    if cp is not None:
        accepted = _accepted_keys()
        unknown = sorted(set(cp.sections()) - set(accepted))
        if unknown:
            raise ConfigError(f"unknown config section(s): [{'], ['.join(unknown)}]")
        for section in [*sections, "input"] if reads_input else sections:
            stray = sorted(set(cp[section]) - accepted[section]) if section in cp else []
            if stray:
                raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(stray)}")

    if reads_input:
        kind = _settings(cp, args, "input", {"kind": _REQUIRED})["kind"]
        if kind not in _KINDS:
            *others, last = _KINDS
            expected = f"{', '.join(others)} or {last}"
            raise ConfigError(f"unknown input kind {kind!r}; expected {expected}")
        make, keys = _KINDS[kind]
        sections, context = {"input": keys, **sections}, f"input kind {kind}"
    read = {"kind"}.union(*sections.values())
    unread = [flag for key, (_, flag, _) in _KEYS.items()
              if key not in read and getattr(args, key, None) is not None]
    if unread:
        raise ConfigError(f"flag(s) {', '.join(unread)} not read by {context}")

    cfg = {name: _settings(cp, args, name, defaults) for name, defaults in sections.items()}
    spec = None
    if reads_input:
        try:
            spec = make(**cfg["input"])
        except ValueError as exc:
            raise ConfigError(f"invalid input state: {exc}") from exc
        cfg["input"]["kind"] = kind
    if args.command == "figure":
        cfg["figure"]["name"] = args.name
    return func, cfg, spec


# --- argument parsing ---------------------------------------------------------------


def _add_flags(group, defaults: dict) -> None:
    for key, default in defaults.items():
        kind, flag, help = _KEYS[key]
        if flag is None:
            continue
        if kind is bool:
            action = argparse.BooleanOptionalAction
            group.add_argument(flag, dest=key, action=action, help=help)
            continue
        if default is not None and default is not _REQUIRED:
            help = f"{help} (default {default})"
        choices = list(_KINDS) if key == "kind" else None
        group.add_argument(flag, dest=key, type=kind, choices=choices, help=help)


def _bound(section: str, key: str) -> str:
    low, high = _BOUNDS[key]
    return f"[{section}] {key} " + (f"at most {high}" if low is None else f"from {low} to {high}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rggstats",
        description="Photon statistics of light scattered by a rotating ground glass.",
    )
    parser.add_argument("--version", action="version", version=f"rggstats {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, reads_input, sections, help) in _COMMANDS.items():
        read = {"input": _INPUT_KEYS, **sections} if reads_input else sections
        bounds = ", ".join(_bound(section, key)
                           for section, keys in read.items() for key in keys if key in _BOUNDS)
        p = sub.add_parser(command, help=help, epilog=bounds and f"bounds: {bounds}")
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if command == "figure":
            p.add_argument("name", choices=list(_FIGURES))
        if reads_input:
            _add_flags(p.add_argument_group("input state"), _INPUT_KEYS)
        for defaults in sections.values():
            _add_flags(p, defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        func, cfg, spec = _resolve(args)
        func(cfg, spec, Path(args.out))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"numeric failure: out of memory{detail}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
