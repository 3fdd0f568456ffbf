"""Reproducibility harness: experiments as subcommands with config files and
machine-readable output.

Every value a command needs can come from a ``key = value`` config file
(``--config``); command-line flags override file entries. Stochastic
commands require an explicit ``--seed`` (no wall-clock seeding) and rerunning
with the same configuration produces byte-identical files regardless of the
worker count (RPSDM_THREADS or ``--workers``).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .channel import (EffectiveChannel, circulant_matrix, draw_channel, effective_channel,
                      structure_report)
from .detection import Detector, QamConstellation
from .metrics import CurveResult, ber_curve, complexity_report, papr_ccdf, worst_case_papr
from .ramanujan import NumericalError, build_transform, dft_support
from .transforms import Scheme

VALID_QAM_ORDERS = (4, 16, 64)


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# value parsing


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"expected at least one integer, got {text!r}")
    return values


def _parse_grid(text: str) -> np.ndarray:
    """Float grid, either 'start:stop:step' (inclusive stop) or 'a,b,c'."""
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return start + step * np.arange(count)
        values = np.array([float(p) for p in text.split(",") if p.strip()])
        if values.size == 0:
            raise ValueError
        return values
    except ValueError as exc:
        raise ConfigError(f"expected 'start:stop:step' or comma-separated floats, got {text!r}") from exc


def _parse_schemes(text: str) -> list[Scheme]:
    key = text.strip().lower()
    if key == "both":
        return [Scheme.OFDM, Scheme.RPSDM]
    try:
        return [Scheme(key)]
    except ValueError as exc:
        raise ConfigError(f"scheme must be ofdm, rpsdm, or both, got {text!r}") from exc


def _parse_detectors(text: str) -> list[Detector]:
    key = text.strip().lower()
    if key == "both":
        return [Detector.ZF, Detector.MMSE]
    try:
        return [Detector(key)]
    except ValueError as exc:
        raise ConfigError(f"detector must be zf, mmse, or both, got {text!r}") from exc


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
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _resolve(args: argparse.Namespace, key: str, parser=None, default=None, required=False):
    """Flag value if given, else config-file entry, else default."""
    value = getattr(args, key, None)
    if value is None and args.file_config is not None:
        raw = args.file_config.get(key)
        if raw is not None:
            value = parser(raw) if parser else raw
    if value is None:
        if required:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return default
    return value


# ---------------------------------------------------------------------------
# output formatting


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _curve_rows(curve: CurveResult) -> list[list]:
    rows = []
    for g, v, lo, hi in zip(curve.grid, curve.values, curve.ci_low, curve.ci_high):
        rows.append([g, v, lo, hi])
    return rows


def _curve_json(curve: CurveResult) -> dict:
    return {
        "config": curve.config_echo(),
        "grid": [float(v) for v in curve.grid],
        "values": [float(v) for v in curve.values],
        "ci_low": [float(v) for v in curve.ci_low],
        "ci_high": [float(v) for v in curve.ci_high],
        "metadata": curve.metadata,
    }


# ---------------------------------------------------------------------------
# command handlers; each returns (stdout text, {path: file text})


def _cmd_spectrum(args) -> tuple[str, dict[str, str]]:
    n_list = _resolve(args, "n", _parse_int_list, required=True)
    if len(n_list) != 1:
        raise ConfigError("spectrum takes a single block length")
    n = n_list[0]
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    fmt = _resolve(args, "format", str, default="csv")
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
    stdout = "\n".join(lines) + "\n"
    files = {}
    output = _resolve(args, "output", str)
    if output:
        if fmt == "json":
            files[output] = _json_text({"command": "spectrum", "config": {"n": n},
                                        "subspaces": subspaces})
        else:
            rows = [[entry["q"], k, mag] for entry in subspaces
                    for k, mag in enumerate(entry["magnitude"])]
            files[output] = _csv_text(["q", "k", "magnitude"], rows)
    return stdout, files


def _cmd_decompose(args) -> tuple[str, dict[str, str]]:
    n = _single_n(args)
    l = _resolve(args, "l", int, required=True)
    seed = _resolve(args, "seed", int, required=True)
    schemes = _resolve(args, "scheme", _parse_schemes, required=True)
    if len(schemes) != 1:
        raise ConfigError("decompose takes a single scheme (ofdm or rpsdm)")
    scheme = schemes[0]
    if not 1 <= l <= n:
        raise ConfigError(f"need 1 <= l <= n, got l={l}, n={n}")
    fmt = _resolve(args, "format", str, default="json")
    if fmt != "json":
        raise ConfigError("decompose emits json only")
    ch = draw_channel(seed, l, n)
    if scheme is Scheme.RPSDM:
        # the dense product, so the report shows the blocks emerging from it
        transform = build_transform(n)
        eff = EffectiveChannel(scheme=scheme, layout=transform.layout,
                               matrix=transform.e_r @ circulant_matrix(ch) @ transform.forward)
    else:
        eff = effective_channel(scheme, ch)
    report = structure_report(eff)
    payload = {
        "command": "decompose",
        "config": {"n": n, "l": l, "seed": seed, "scheme": scheme.value},
        "taps": [[float(t.real), float(t.imag)] for t in ch.taps],
        "matrix_real": [[float(v) for v in row] for row in eff.matrix.real],
        "matrix_imag": [[float(v) for v in row] for row in eff.matrix.imag],
        "report": report,
    }
    stdout = f"decomposed n={n} l={l} scheme={scheme.value}: {report['structure']}\n"
    if scheme is Scheme.RPSDM:
        stdout += (f"  off-block residual {report['off_block_residual']:.3e}, "
                   f"blocks {[b['size'] for b in report['blocks']]}\n")
    else:
        stdout += f"  off-diagonal residual {report['off_diagonal_residual']:.3e}\n"
    files = {}
    output = _resolve(args, "output", str)
    if output:
        files[output] = _json_text(payload)
    return stdout, files


def _cmd_papr_worst(args) -> tuple[str, dict[str, str]]:
    n_list = _resolve(args, "n", _parse_int_list, required=True)
    m = _qam_order(args)
    constellation = QamConstellation.from_order(m)
    rows = []
    for n in n_list:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        for scheme in (Scheme.OFDM, Scheme.RPSDM):
            rows.append([n, scheme.value, worst_case_papr(scheme, n, constellation)])
    lines = [f"worst-case PAPR (dB), {m}-QAM", f"{'n':>6} {'ofdm':>8} {'rpsdm':>8}"]
    for n in n_list:
        ofdm_db = next(r[2] for r in rows if r[0] == n and r[1] == "ofdm")
        rpsdm_db = next(r[2] for r in rows if r[0] == n and r[1] == "rpsdm")
        lines.append(f"{n:>6} {ofdm_db:>8.2f} {rpsdm_db:>8.2f}")
    stdout = "\n".join(lines) + "\n"
    files = {}
    output = _resolve(args, "output", str)
    if output:
        fmt = _resolve(args, "format", str, default="csv")
        if fmt == "json":
            payload = {"command": "papr-worst", "config": {"n": n_list, "m": m},
                       "rows": [{"n": r[0], "scheme": r[1], "papr_db": r[2]} for r in rows]}
            files[output] = _json_text(payload)
        else:
            files[output] = _csv_text(["n", "scheme", "worst_case_papr_db"], rows)
    return stdout, files


def _cmd_papr_ccdf(args) -> tuple[str, dict[str, str]]:
    n_list = _resolve(args, "n", _parse_int_list, required=True)
    m = _qam_order(args)
    trials = _resolve(args, "trials", int, default=100000)
    seed = _resolve(args, "seed", int, required=True)
    schemes = _resolve(args, "scheme", _parse_schemes, default=[Scheme.OFDM, Scheme.RPSDM])
    thresholds = _resolve(args, "thresholds", _parse_grid, default=_parse_grid("0:14:0.25"))
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    constellation = QamConstellation.from_order(m)
    curves = []
    for n in n_list:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        for scheme in schemes:
            curves.append(papr_ccdf(scheme, n, constellation, thresholds, trials, seed))
    lines = [f"PAPR CCDF, {m}-QAM, {trials} trials, seed {seed}"]
    for curve in curves:
        lines.append(f"  {curve.scheme.value:>5} n={curve.n}")
    stdout = "\n".join(lines) + "\n"
    files = {}
    output = _resolve(args, "output", str)
    if output:
        fmt = _resolve(args, "format", str, default="csv")
        if fmt == "json":
            files[output] = _json_text({"command": "papr-ccdf",
                                        "config": {"n": n_list, "m": m, "trials": trials,
                                                   "seed": seed,
                                                   "schemes": [s.value for s in schemes],
                                                   "thresholds": [float(t) for t in thresholds]},
                                        "curves": [_curve_json(c) for c in curves]})
        else:
            rows = []
            for curve in curves:
                for row in _curve_rows(curve):
                    rows.append([curve.scheme.value, curve.n] + row)
            files[output] = _csv_text(
                ["scheme", "n", "threshold_db", "ccdf", "ci_low", "ci_high"], rows)
    return stdout, files


def _cmd_ber(args) -> tuple[str, dict[str, str]]:
    n = _single_n(args)
    l = _resolve(args, "l", int, required=True)
    m = _qam_order(args)
    trials = _resolve(args, "trials", int, default=1000)
    seed = _resolve(args, "seed", int, required=True)
    schemes = _resolve(args, "scheme", _parse_schemes, default=[Scheme.OFDM, Scheme.RPSDM])
    detectors = _resolve(args, "detector", _parse_detectors, default=[Detector.ZF, Detector.MMSE])
    snr = _resolve(args, "snr", _parse_grid, default=_parse_grid("0:30:5"))
    workers = _workers(args)
    if not 1 <= l <= n:
        raise ConfigError(f"need 1 <= l <= n, got l={l}, n={n}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    constellation = QamConstellation.from_order(m)
    curves = []
    for scheme in schemes:
        for detector in detectors:
            curves.append(ber_curve(scheme, detector, n, l, constellation,
                                    snr, trials, seed, workers=workers))
    lines = [f"BER, n={n}, l={l}, {m}-QAM, {trials} trials/point, seed {seed}"]
    for curve in curves:
        summary = " ".join(f"{v:.3e}" for v in curve.values)
        lines.append(f"  {curve.scheme.value:>5}-{curve.detector.value}: {summary}")
    stdout = "\n".join(lines) + "\n"
    files = {}
    output = _resolve(args, "output", str)
    if output:
        fmt = _resolve(args, "format", str, default="csv")
        if fmt == "json":
            files[output] = _json_text({"command": "ber",
                                        "config": {"n": n, "l": l, "m": m, "trials": trials,
                                                   "seed": seed,
                                                   "schemes": [s.value for s in schemes],
                                                   "detectors": [d.value for d in detectors],
                                                   "snr": [float(v) for v in snr]},
                                        "curves": [_curve_json(c) for c in curves]})
        else:
            rows = []
            for curve in curves:
                for row in _curve_rows(curve):
                    rows.append([curve.scheme.value, curve.detector.value,
                                 curve.n, curve.l, curve.m] + row)
            files[output] = _csv_text(
                ["scheme", "detector", "n", "l", "m", "snr_db", "ber", "ci_low", "ci_high"],
                rows)
    return stdout, files


def _cmd_complexity(args) -> tuple[str, dict[str, str]]:
    n_list = _resolve(args, "n", _parse_int_list, required=True)
    rows = []
    for n in n_list:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        for row in complexity_report(n):
            rows.append([n, row.operation, row.scheme.value, row.real_mults, row.real_adds])
    lines = ["real operation counts",
             f"{'n':>6} {'operation':>18} {'scheme':>7} {'mults':>10} {'adds':>10}"]
    for r in rows:
        lines.append(f"{r[0]:>6} {r[1]:>18} {r[2]:>7} {r[3]:>10} {r[4]:>10}")
    stdout = "\n".join(lines) + "\n"
    files = {}
    output = _resolve(args, "output", str)
    if output:
        fmt = _resolve(args, "format", str, default="csv")
        if fmt == "json":
            payload = {"command": "complexity", "config": {"n": n_list},
                       "rows": [{"n": r[0], "operation": r[1], "scheme": r[2],
                                 "real_mults": r[3], "real_adds": r[4]} for r in rows]}
            files[output] = _json_text(payload)
        else:
            files[output] = _csv_text(["n", "operation", "scheme", "real_mults", "real_adds"], rows)
    return stdout, files


def _cmd_dump_basis(args) -> tuple[str, dict[str, str]]:
    n = _single_n(args)
    prefix = _resolve(args, "output", str, required=True)
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


# ---------------------------------------------------------------------------
# shared argument resolution


def _single_n(args) -> int:
    n_list = _resolve(args, "n", _parse_int_list, required=True)
    if len(n_list) != 1:
        raise ConfigError("this command takes a single block length")
    if n_list[0] < 1:
        raise ConfigError(f"n must be >= 1, got {n_list[0]}")
    return n_list[0]


def _qam_order(args) -> int:
    m = _resolve(args, "m", int, default=16)
    if m not in VALID_QAM_ORDERS:
        raise ConfigError(f"m must be one of {VALID_QAM_ORDERS}, got {m}")
    return m


def _workers(args) -> int:
    value = _resolve(args, "workers", int)
    if value is None:
        env = os.environ.get("RPSDM_THREADS")
        if env is not None:
            try:
                value = int(env)
            except ValueError as exc:
                raise ConfigError(f"RPSDM_THREADS must be an integer, got {env!r}") from exc
    value = 1 if value is None else value
    if value < 1:
        raise ConfigError(f"worker count must be >= 1, got {value}")
    return value


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "decompose": _cmd_decompose,
    "papr-worst": _cmd_papr_worst,
    "papr-ccdf": _cmd_papr_ccdf,
    "ber": _cmd_ber,
    "complexity": _cmd_complexity,
    "dump-basis": _cmd_dump_basis,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpsdm",
        description="RPSDM / OFDM link experiments with deterministic, reproducible output.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, seeded=False, grids=()):
        p.add_argument("--config", help="flat key = value config file; flags override")
        p.add_argument("--n", type=_parse_int_list, help="block length(s), comma separated")
        p.add_argument("--output", help="output file path (prefix for dump-basis)")
        p.add_argument("--format", choices=("csv", "json"), help="output file format")
        if seeded:
            p.add_argument("--seed", type=int, help="master RNG seed (required)")
        for grid in grids:
            p.add_argument(grid[0], type=grid[1], help=grid[2])

    add_common(sub.add_parser("spectrum", help="per-subspace DFT magnitude spectra"))
    p = sub.add_parser("decompose", help="effective channel and structure report")
    add_common(p, seeded=True)
    p.add_argument("--l", type=int, help="multipath count")
    p.add_argument("--scheme", type=_parse_schemes, help="ofdm or rpsdm")
    p = sub.add_parser("papr-worst", help="closed-form worst-case PAPR table")
    add_common(p)
    p.add_argument("--m", type=int, help="QAM order (4, 16, 64)")
    p = sub.add_parser("papr-ccdf", help="Monte Carlo PAPR CCDF curves")
    add_common(p, seeded=True,
               grids=(("--thresholds", _parse_grid, "dB grid start:stop:step or list"),))
    p.add_argument("--m", type=int, help="QAM order (4, 16, 64)")
    p.add_argument("--trials", type=int, help="Monte Carlo trials (default 100000)")
    p.add_argument("--scheme", type=_parse_schemes, help="ofdm, rpsdm, or both")
    p = sub.add_parser("ber", help="Monte Carlo BER curves")
    add_common(p, seeded=True, grids=(("--snr", _parse_grid, "SNR dB grid start:stop:step or list"),))
    p.add_argument("--l", type=int, help="multipath count")
    p.add_argument("--m", type=int, help="QAM order (4, 16, 64)")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per SNR point")
    p.add_argument("--scheme", type=_parse_schemes, help="ofdm, rpsdm, or both")
    p.add_argument("--detector", type=_parse_detectors, help="zf, mmse, or both")
    p.add_argument("--workers", type=int, help="trial worker threads (or RPSDM_THREADS)")
    add_common(sub.add_parser("complexity", help="operation-count table"))
    add_common(sub.add_parser("dump-basis", help="write E_t, normalization, E_r as CSV"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.file_config = read_config_file(args.config) if args.config else None
        stdout, files = _HANDLERS[args.command](args)
        for path, text in files.items():
            _write_atomic(path, text)
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
