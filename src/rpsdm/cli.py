"""Reproducibility harness: experiments as subcommands with config files and
machine-readable output.

Every value a command needs can come from a ``key = value`` config file
(``--config``); command-line flags override file entries. Both go through
the same parser, declared once per option in ``OPTIONS``. Stochastic
commands require an explicit ``--seed`` (no wall-clock seeding) and rerunning
with the same configuration produces byte-identical files. A config-file
key that names no option is an error, as a misspelled flag is. BER trials
run serially; ``--workers`` is validated but selects nothing. The parser is
built once per process, on the first ``main`` call, and serves every later
call: parsing does not change it.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .channel import circulant_matrix, draw_channel, effective_channel, structure_report
from .detection import Detector, QamConstellation
from .metrics import (ber_curves, complexity_report, noise_variance, papr_ccdfs,
                      worst_case_papr)
# unused here: the benchmark tracer (bench/spans.py) looks both up in this module
from .metrics import ber_curve, papr_ccdf  # noqa: F401
from .ramanujan import NumericalError, build_transform, dft_support
from .transforms import Scheme

VALID_QAM_ORDERS = (4, 16, 64)


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# value parsing: each parser raises ValueError on bad input


def _parse_n_list(text: str) -> list[int]:
    """Comma-separated block lengths, each >= 1."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise ValueError(f"expected comma-separated integers >= 1, got {text!r}")
    return values


def _parse_at_least(low: int):
    """Parser of an integer >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"expected an integer >= {low}, got {value}")
        return value
    return parse


def _parse_one_of(convert, choices: tuple):
    """Parser of a value ``convert(text)`` that must be one of ``choices``."""
    def parse(text: str):
        value = convert(text)
        if value not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value
    return parse


def _parse_grid(text: str) -> np.ndarray:
    """Finite float grid, either 'start:stop:step' (inclusive stop) or 'a,b,c'."""
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3 or not all(map(math.isfinite, parts)):
                raise ValueError
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return start + step * np.arange(count)
        values = np.array([float(p) for p in text.split(",") if p.strip()])
        if values.size == 0 or not np.isfinite(values).all():
            raise ValueError
        return values
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"expected 'start:stop:step' or comma-separated finite floats, "
                         f"got {text!r}") from exc


def _parse_snr(text: str) -> np.ndarray:
    """SNR grid (dB) whose every noise variance 10^(-SNR/10) is positive and finite."""
    grid = _parse_grid(text)
    noise_variance(grid)
    return grid


def _parse_both(kind):
    """Parser of 'both' (every member of the enum ``kind``) or one member's value."""
    def parse(text: str) -> list:
        key = text.strip().lower()
        return list(kind) if key == "both" else [kind(key)]
    return parse


#: every option: (parser for its flag and its config-file entry, help text)
OPTIONS = {
    "config": (str, "flat key = value config file; flags override"),
    "n": (_parse_n_list, "block length(s), comma separated"),
    "output": (str, "output file path (prefix for dump-basis)"),
    "format": (_parse_one_of(str, ("csv", "json")), "output file format: csv or json"),
    "seed": (_parse_at_least(0), "master RNG seed (required)"),
    "thresholds": (_parse_grid, "dB grid start:stop:step or list"),
    "snr": (_parse_snr, "SNR dB grid start:stop:step or list"),
    "l": (int, "multipath count"),
    "m": (_parse_one_of(int, VALID_QAM_ORDERS), "QAM order (4, 16, 64)"),
    "trials": (_parse_at_least(1), "Monte Carlo trials (per SNR point for ber)"),
    "scheme": (_parse_both(Scheme), "ofdm, rpsdm, or both (decompose: one)"),
    "detector": (_parse_both(Detector), "zf, mmse, or both"),
    "workers": (_parse_at_least(1), "accepted and validated (>= 1) but unused: "
                "trials run serially"),
}


def read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment, blank lines ignored."""
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
                entries[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _parse(key: str, text: str, error=ConfigError):
    """Option ``key``'s value from ``text``; a ValueError becomes ``error``."""
    try:
        return OPTIONS[key][0](text)
    except ValueError as exc:
        raise error(f"{key} = {text}: {exc}") from exc


def _resolve(args: argparse.Namespace, key: str, default=None, required=False):
    """Flag value if given, else the config-file entry (parsed as the flag
    is), else default."""
    value = getattr(args, key)
    raw = (args.file_config or {}).get(key)
    if value is None and raw is not None:
        value = _parse(key, raw)
    if value is None:
        if required:
            raise ConfigError(f"missing required option --{key}")
        return default
    return value


def _single_n(args) -> int:
    n_list = _resolve(args, "n", required=True)
    if len(n_list) != 1:
        raise ConfigError(f"{args.command} takes a single block length")
    return n_list[0]


def _multipath_count(args, n: int) -> int:
    l = _resolve(args, "l", required=True)
    if not 1 <= l <= n:
        raise ConfigError(f"need 1 <= l <= n, got l={l}, n={n}")
    return l


# ---------------------------------------------------------------------------
# output formatting


def _fmt(value) -> str:
    if type(value) is float:
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_all(files: dict[str, str]) -> None:
    """Write every file or none: each text goes to a temporary file beside
    its path, and the renames start only once every temporary file is
    written and no path names a directory. Every temporary file left over
    is removed, and an OSError becomes a ConfigError naming the path."""
    temps = []
    try:
        for path, text in files.items():
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        # a rename onto a directory fails: look before the first rename
        for path in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, tmp in zip(files, temps):
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _table_files(args, header: list[str], rows: list[list], payload: dict) -> dict[str, str]:
    """The requested output file: ``payload`` as JSON, or ``rows`` under
    ``header`` as CSV (the default). Empty without ``--output``."""
    fmt = _resolve(args, "format", default="csv")
    output = _resolve(args, "output")
    if not output:
        return {}
    return {output: _json_text(payload) if fmt == "json" else _csv_text(header, rows)}


def _curve_files(args, config: dict, curves: list, header: list[str]) -> dict[str, str]:
    """One CSV row per curve point, led by the identity columns (every header
    entry before grid, value, ci_low, ci_high); one JSON entry per curve.
    Only the requested format is built."""
    rows, payload = [], None
    if _resolve(args, "format", default="csv") == "json":
        payload = {"command": args.command, "config": config, "curves": [{
            "config": curve.config_echo(),
            "grid": [float(v) for v in curve.grid],
            "values": [float(v) for v in curve.values],
            "ci_low": [float(v) for v in curve.ci_low],
            "ci_high": [float(v) for v in curve.ci_high],
            "metadata": curve.metadata,
        } for curve in curves]}
    else:
        for curve in curves:
            echo = curve.config_echo()
            identity = [echo[key] for key in header[:-4]]
            columns = (curve.grid, curve.values, curve.ci_low, curve.ci_high)
            rows.extend(identity + list(point) for point in zip(*(c.tolist() for c in columns)))
    return _table_files(args, header, rows, payload)


# ---------------------------------------------------------------------------
# command handlers; each returns (stdout text, {path: file text})


def _cmd_spectrum(args) -> tuple[str, dict[str, str]]:
    n = _single_n(args)
    transform = build_transform(n)
    subspaces = []
    for q, phi, offset in transform.layout.blocks():
        column = transform.e_t[:, offset].astype(np.float64)
        magnitude = np.abs(np.fft.fft(column))
        support = sorted(dft_support(q, n))
        subspaces.append({"q": q, "subcarriers": phi, "support": support,
                          "magnitude": [float(v) for v in magnitude]})
    lines = [f"subspace spectra for n={n}"]
    for entry in subspaces:
        lines.append(f"  S_{entry['q']}: {entry['subcarriers']} subcarrier(s), "
                     f"DFT support {entry['support']}")
    rows = [[entry["q"], k, mag] for entry in subspaces
            for k, mag in enumerate(entry["magnitude"])]
    payload = {"command": "spectrum", "config": {"n": n}, "subspaces": subspaces}
    return "\n".join(lines) + "\n", _table_files(args, ["q", "k", "magnitude"], rows, payload)


def _cmd_decompose(args) -> tuple[str, dict[str, str]]:
    n = _single_n(args)
    l = _multipath_count(args, n)
    seed = _resolve(args, "seed", required=True)
    schemes = _resolve(args, "scheme", required=True)
    if len(schemes) != 1:
        raise ConfigError("decompose takes a single scheme (ofdm or rpsdm)")
    scheme = schemes[0]
    if _resolve(args, "format", default="json") != "json":
        raise ConfigError("decompose emits json only")
    ch = draw_channel(seed, l, n)
    if scheme is Scheme.RPSDM:
        # the dense product, so the report shows the blocks emerging from it
        transform = build_transform(n)
        matrix = transform.e_r @ circulant_matrix(ch) @ transform.forward
        report = structure_report(matrix, transform.layout)
    else:
        matrix = effective_channel(scheme, ch).matrix
        report = structure_report(matrix)
    payload = {
        "command": "decompose",
        "config": {"n": n, "l": l, "seed": seed, "scheme": scheme.value},
        "taps": [[float(t.real), float(t.imag)] for t in ch.taps],
        "matrix_real": [[float(v) for v in row] for row in matrix.real],
        "matrix_imag": [[float(v) for v in row] for row in matrix.imag],
        "report": report,
    }
    stdout = f"decomposed n={n} l={l} scheme={scheme.value}: {report['structure']}\n"
    if scheme is Scheme.RPSDM:
        stdout += (f"  off-block residual {report['off_block_residual']:.3e}, "
                   f"blocks {[b['size'] for b in report['blocks']]}\n")
    else:
        stdout += f"  off-diagonal residual {report['off_diagonal_residual']:.3e}\n"
    output = _resolve(args, "output")
    return stdout, {output: _json_text(payload)} if output else {}


def _cmd_papr_worst(args) -> tuple[str, dict[str, str]]:
    n_list = _resolve(args, "n", required=True)
    m = _resolve(args, "m", default=16)
    constellation = QamConstellation.from_order(m)
    rows = []
    lines = [f"worst-case PAPR (dB), {m}-QAM", f"{'n':>6} {'ofdm':>8} {'rpsdm':>8}"]
    for n in n_list:
        ofdm_db, rpsdm_db = (worst_case_papr(scheme, n, constellation)
                             for scheme in (Scheme.OFDM, Scheme.RPSDM))
        rows += [[n, Scheme.OFDM.value, ofdm_db], [n, Scheme.RPSDM.value, rpsdm_db]]
        lines.append(f"{n:>6} {ofdm_db:>8.2f} {rpsdm_db:>8.2f}")
    # the JSON rows name the value papr_db; the CSV header keeps the longer name
    payload = {"command": "papr-worst", "config": {"n": n_list, "m": m},
               "rows": [{"n": r[0], "scheme": r[1], "papr_db": r[2]} for r in rows]}
    return "\n".join(lines) + "\n", _table_files(
        args, ["n", "scheme", "worst_case_papr_db"], rows, payload)


def _cmd_papr_ccdf(args) -> tuple[str, dict[str, str]]:
    n_list = _resolve(args, "n", required=True)
    m = _resolve(args, "m", default=16)
    trials = _resolve(args, "trials", default=100000)
    seed = _resolve(args, "seed", required=True)
    schemes = _resolve(args, "scheme", default=list(Scheme))
    thresholds = _resolve(args, "thresholds", default=_parse_grid("0:14:0.25"))
    constellation = QamConstellation.from_order(m)
    curves = papr_ccdfs(schemes, n_list, constellation, thresholds, trials, seed)
    lines = [f"PAPR CCDF, {m}-QAM, {trials} trials, seed {seed}"]
    for curve in curves:
        lines.append(f"  {curve.scheme.value:>5} n={curve.n}")
    config = {"n": n_list, "m": m, "trials": trials, "seed": seed,
              "schemes": [s.value for s in schemes],
              "thresholds": [float(t) for t in thresholds]}
    return "\n".join(lines) + "\n", _curve_files(
        args, config, curves, ["scheme", "n", "threshold_db", "ccdf", "ci_low", "ci_high"])


def _cmd_ber(args) -> tuple[str, dict[str, str]]:
    n = _single_n(args)
    l = _multipath_count(args, n)
    m = _resolve(args, "m", default=16)
    trials = _resolve(args, "trials", default=1000)
    seed = _resolve(args, "seed", required=True)
    schemes = _resolve(args, "scheme", default=list(Scheme))
    detectors = _resolve(args, "detector", default=list(Detector))
    snr = _resolve(args, "snr", default=_parse_grid("0:30:5"))
    _resolve(args, "workers")  # validated only: trials run serially
    constellation = QamConstellation.from_order(m)
    curves = ber_curves(schemes, detectors, n, l, constellation, snr, trials, seed)
    lines = [f"BER, n={n}, l={l}, {m}-QAM, {trials} trials/point, seed {seed}"]
    for curve in curves:
        summary = " ".join(f"{v:.3e}" for v in curve.values)
        lines.append(f"  {curve.scheme.value:>5}-{curve.detector.value}: {summary}")
    config = {"n": n, "l": l, "m": m, "trials": trials, "seed": seed,
              "schemes": [s.value for s in schemes],
              "detectors": [d.value for d in detectors],
              "snr": [float(v) for v in snr]}
    return "\n".join(lines) + "\n", _curve_files(
        args, config, curves,
        ["scheme", "detector", "n", "l", "m", "snr_db", "ber", "ci_low", "ci_high"])


def _cmd_complexity(args) -> tuple[str, dict[str, str]]:
    n_list = _resolve(args, "n", required=True)
    rows = [[n, row.operation, row.scheme.value, row.real_mults, row.real_adds]
            for n in n_list for row in complexity_report(n)]
    lines = ["real operation counts",
             f"{'n':>6} {'operation':>18} {'scheme':>7} {'mults':>10} {'adds':>10}"]
    for r in rows:
        lines.append(f"{r[0]:>6} {r[1]:>18} {r[2]:>7} {r[3]:>10} {r[4]:>10}")
    header = ["n", "operation", "scheme", "real_mults", "real_adds"]
    payload = {"command": "complexity", "config": {"n": n_list},
               "rows": [dict(zip(header, r)) for r in rows]}
    return "\n".join(lines) + "\n", _table_files(args, header, rows, payload)


def _cmd_dump_basis(args) -> tuple[str, dict[str, str]]:
    n = _single_n(args)
    prefix = _resolve(args, "output", required=True)
    if _resolve(args, "format", default="csv") != "csv":
        raise ConfigError("dump-basis emits csv only")
    transform = build_transform(n)
    et_text = "\n".join(",".join(str(int(v)) for v in row) for row in transform.e_t) + "\n"
    qnorm_text = "\n".join(_fmt(v) for v in transform.q_norm) + "\n"
    er_text = "\n".join(",".join(_fmt(v) for v in row) for row in transform.e_r) + "\n"
    files = {f"{prefix}_et.csv": et_text,
             f"{prefix}_qnorm.csv": qnorm_text,
             f"{prefix}_er.csv": er_text}
    stdout = (f"wrote integer basis, normalization diagonal, and demodulation "
              f"matrix for n={n} to {prefix}_*.csv\n")
    return stdout, files


#: command: (handler, help, options beyond config, n, output and format)
COMMANDS = {
    "spectrum": (_cmd_spectrum, "per-subspace DFT magnitude spectra", ()),
    "decompose": (_cmd_decompose, "effective channel and structure report",
                  ("seed", "l", "scheme")),
    "papr-worst": (_cmd_papr_worst, "closed-form worst-case PAPR table", ("m",)),
    "papr-ccdf": (_cmd_papr_ccdf, "Monte Carlo PAPR CCDF curves",
                  ("seed", "thresholds", "m", "trials", "scheme")),
    "ber": (_cmd_ber, "Monte Carlo BER curves",
            ("seed", "snr", "l", "m", "trials", "scheme", "detector", "workers")),
    "complexity": (_cmd_complexity, "operation-count table", ()),
    "dump-basis": (_cmd_dump_basis, "write E_t, normalization, E_r as CSV", ()),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpsdm",
        description="RPSDM / OFDM link experiments with deterministic, reproducible output.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, extra) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key in ("config", "n", "output", "format") + extra:
            p.add_argument(f"--{key}", help=OPTIONS[key][1],
                           type=functools.partial(_parse, key, error=argparse.ArgumentTypeError))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.file_config = read_config_file(args.config) if args.config else None
        stdout, files = COMMANDS[args.command][0](args)
        _write_all(files)
        sys.stdout.write(stdout)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
