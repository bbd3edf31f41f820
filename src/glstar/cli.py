"""Command-line front end.

Subcommands: ``construct`` (validate a configuration), ``verify`` (run the
check suite and print a report), ``export`` (line samples as CSV, profile
surfaces as OBJ, H-line samples as CSV), ``parallel`` (answer a parallel
query), ``demo`` (verify the built-in worked example).

Exit codes: 0 all checks pass, 1 check failures, 2 construction or
validation failure, 3 query failure.  All floats are printed with 17
significant digits so reports and exports round-trip losslessly.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import constructions as cons
from . import parallelism as par
from . import verify as ver
from .errors import (
    ConfigError,
    GlStarError,
    InvalidInput,
    ParseError,
)
from .functions import from_spec, is_number
from .projgeom import (
    PLine,
    QuadricForm,
    join,
    line_points,
    line_sphere_intersect,
    pow2_scaled,
)
from .star import Handedness, homogenize, surface_mesh


_SPHERE = QuadricForm.unit_sphere()


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class StarConfig:
    family: str
    tol: float | None = None  # None: each check's own default
    seed: int = 0
    samples: int | None = None
    handedness: Handedness = Handedness.RIGHT
    center: tuple = (0.0, 0.0, 0.0)
    fns: dict = field(default_factory=dict)
    eps: float = -1.0
    parabolas: list | None = None


# What each star family reads besides family, tol, seed and samples: its
# function fields, its other fields, and the builder of its StarConfig
_FAMILIES = {
    "clifford": ((), ("center",), lambda cfg: cons.clifford(cfg.center)),
    "symmetric": (("a",), ("handedness",), lambda cfg: cons.symmetric_star(
        cfg.fns["a"], handedness=cfg.handedness)),
    "fg": (("f", "g"), ("eps",), lambda cfg: cons.fg_star(
        cfg.fns["f"], cfg.fns["g"], eps=cfg.eps)),
    "eqn": (("b", "c"), ("handedness",), lambda cfg: cons.eqn_star(
        cfg.fns["b"], cfg.fns["c"], hand=cfg.handedness)),
    "param": (("t", "s"), ("handedness",), lambda cfg: cons.param_star(
        cfg.fns["t"], cfg.fns["s"], hand=cfg.handedness)),
    "latitudinal": (("mu",), (), lambda cfg: cons.latitudinal(
        cons.pencil_from_mu(cfg.fns["mu"]))),
    "parabola": ((), ("parabolas", "handedness"), lambda cfg:
                 cons.parabola_star(cons.ParabolaSeq(
                     *(np.array(col) for col in zip(*cfg.parabolas))),
                     hand=cfg.handedness)),
}
FAMILIES = tuple(_FAMILIES)
_COMMON_KEYS = ("family", "tol", "seed", "samples")


def parse_config(text: str) -> StarConfig:
    """Validate a JSON configuration.

    Semantic problems are collected and reported together, each prefixed
    with its field path; a key the family does not read is one of them.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", position=exc.pos) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object", field="$")
    family = raw.get("family")
    if family not in FAMILIES:
        raise ConfigError(f"family must be one of {FAMILIES}", field="family")
    cfg = StarConfig(family=family)
    functions, others, _ = _FAMILIES[family]
    problems = []

    def bad(field, message):
        problems.append(f"{field}: {message}")

    # a value must be a json number (no bool, no string) and a count an
    # integral one; json reads long integer literals as ints, which float()
    # cannot take (OverflowError; the finite-number tests on center and
    # parabolas keep them out)
    if "tol" in raw:
        try:
            if not is_number(raw["tol"]):
                raise TypeError
            cfg.tol = float(raw["tol"])
        except (TypeError, OverflowError):
            bad("tol", "must be a number")
    for key in ("seed", "samples"):
        v = raw.get(key)
        if type(v) is int or (type(v) is float and v.is_integer()):
            setattr(cfg, key, int(v))
        elif key in raw:
            bad(key, "must be an integer")
    try:
        ver.check_sampling(cfg.samples, cfg.tol, cfg.seed)
    except InvalidInput as exc:
        problems.append(str(exc))
    if "handedness" in others:
        hand = raw.get("handedness", "right")
        if hand not in ("left", "right"):
            bad("handedness", "must be 'left' or 'right'")
        else:
            cfg.handedness = (Handedness.LEFT if hand == "left"
                              else Handedness.RIGHT)

    for name in functions:
        if name not in raw:
            bad(f"{family}.{name}", "missing")
            continue
        try:
            cfg.fns[name] = from_spec(raw[name], path=f"{family}.{name}")
        except ConfigError as exc:
            problems.append(str(exc))

    if "center" in others:
        center = raw.get("center", [0.0, 0.0, 0.0])
        if (not isinstance(center, (list, tuple)) or len(center) != 3
                or not all(is_number(v) and abs(v) <= sys.float_info.max
                           for v in center)):
            bad("center", "must be a 3-vector")
        else:
            cfg.center = tuple(float(v) for v in center)
    if "eps" in others:
        eps = raw.get("eps", -1)
        if not is_number(eps) or eps not in (-1, 1):
            bad("fg.eps", "must be -1 or 1")
        else:
            cfg.eps = float(eps)
    if "parabolas" in others:
        rows = raw.get("parabolas")
        if (not isinstance(rows, list) or not rows
                or not all(isinstance(r, (list, tuple)) and len(r) == 3
                           and all(is_number(v) and abs(v) <= sys.float_info.max
                                   for v in r)
                           for r in rows)):
            bad("parabola.parabolas", "must be a list of [alpha, beta, gamma]")
        else:
            cfg.parabolas = [[float(v) for v in r] for r in rows]
    for key in raw:
        if key not in _COMMON_KEYS + functions + others:
            bad(key, f"not read by the {family} family")
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def build_star(cfg: StarConfig):
    return _FAMILIES[cfg.family][2](cfg)


def _build_or_report(cfg: StarConfig, out):
    """build_star, or None after a CONSTRUCTION FAILED line on out."""
    try:
        return build_star(cfg)
    except GlStarError as exc:
        print(f"CONSTRUCTION FAILED: {exc}", file=out)
        return None


def check_names(selected):
    """Raise ConfigError unless every selected name is a known check."""
    unknown = [s for s in selected if s not in ver.CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {','.join(unknown)}",
                          field="--checks")


def run_all_checks(star, cfg: StarConfig, selected=None):
    names = ver.applicable_checks(star) + list(ver.KLEIN_CHECKS)
    if selected:
        check_names(selected)
        names = [n for n in names if n in selected]
    return ver.run_star_checks(star, checks=names, samples=cfg.samples,
                               tol=cfg.tol, seed=cfg.seed)


def cmd_verify(cfg: StarConfig, checks=None, out=None) -> int:
    out = out or sys.stdout
    star = _build_or_report(cfg, out)
    if star is None:
        return 2
    reports = run_all_checks(star, cfg, selected=checks)
    # the requested checks in the requested order, each inapplicable one
    # on a SKIP line
    ran = {r.name: r for r in reports}
    for name in dict.fromkeys(checks) if checks else ran:
        print(ran[name].render() if name in ran else
              f"CHECK {name}: SKIP not applicable to this star", file=out)
    ok = sum(r.passed for r in reports)
    status = "PASS" if ok == len(reports) else "FAIL"
    print(f"RESULT: {status} ({ok}/{len(reports)})", file=out)
    return 0 if ok == len(reports) else 1


def cmd_construct(cfg: StarConfig, out=None) -> int:
    out = out or sys.stdout
    star = _build_or_report(cfg, out)
    if star is None:
        return 2
    print(f"OK family={cfg.family} label={star.label} "
          f"tags={','.join(star.tags) or '-'}", file=out)
    return 0


def _line_rows(star, n: int):
    """(t, theta, sphere chord) rows on a grid of about n samples, t-major:
    an (m, 8) array."""
    n_theta = 16
    n_t = max(2, n // n_theta)
    t, th = np.meshgrid(np.linspace(0.0, 1.0, n_t),
                        np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False),
                        indexing="ij")
    t, th = t.ravel(), th.ravel()
    q, m = star.sphere_chord(t, th)
    return np.column_stack([t, th, q, m])


def _digits_text(rows, sep, prefix):
    """_rows_text of an integer array with field "{}", built as bytes.  Each
    value gets a cell of the prefix, '-', its digits at the widest value's
    width, the separator and a newline.  A mask keeps the prefix of a row's
    first value, the newline of its last and the separator of the others,
    the '-' of negative values, and no leading zero; the kept bytes are the
    text.  The digits are taken in int32 where every magnitude fits, else
    in uint64 (the magnitude of -2**63 is 2**63)."""
    n, c = rows.shape
    neg = rows < 0
    mag = rows.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)
    top = int(mag.max(initial=0))
    mag = (mag.astype(np.int32) if top < 2 ** 31 else mag).ravel()
    head, width = prefix.encode(), len(str(top))
    units = len(head) + width  # the units digit's place in a cell
    cell = head + b"-" + b"0" * width + sep.encode() + b"\n"
    line = np.ones((c, len(cell)), bool)  # the mask of one row's cells
    line[1:, :len(head)] = False
    line[:-1, -1] = False
    line[-1, units + 1:-1] = False
    text = np.frombuffer(bytearray(cell * (n * c)), np.uint8)
    kept = np.frombuffer(bytearray(line.tobytes() * n), bool)
    text, kept = text.reshape(-1, len(cell)), kept.reshape(-1, len(cell))
    kept[:, len(head)] = neg.ravel()
    for j in range(units, len(head), -1):
        np.not_equal(mag, 0, out=kept[:, j])
        q = mag // 10
        text[:, j] = mag - 10 * q + ord("0")
        mag = q
    kept[:, units] = True  # 0 is written "0"
    return text[kept].tobytes().decode()


def _rows_text(rows, field="{:.17g}", sep=",", prefix=""):
    """One line per row of a 2-d array, each value formatted by ``field``
    (the default matches _g17).  An integer array with field "{}" (and a
    column) is written from its digits by ``_digits_text``.  Otherwise each
    distinct value is formatted once, all in one ``str.format`` call (no
    number's text holds a newline); floats are told apart by their bits,
    so -0.0 and every NaN keep their text."""
    if field == "{}" and rows.dtype.kind in "iu" and rows.shape[1]:
        return _digits_text(rows, sep, prefix)
    flat = rows.ravel()
    keys = flat.view(f"u{flat.itemsize}") if flat.dtype.kind == "f" else flat
    distinct, inverse = np.unique(keys, return_inverse=True)
    text = np.array("\n".join([field] * distinct.size).format(
        *distinct.view(flat.dtype).tolist()).split("\n"), dtype=object)
    line = prefix + sep.join(["%s"] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(text[inverse].tolist())


def cmd_export(cfg: StarConfig, lines=None, mesh=None, hfd=None,
               out=None) -> int:
    out = out or sys.stdout
    ver.check_sampling(cfg.samples)
    star = _build_or_report(cfg, out)
    if star is None:
        return 2
    n = 512 if cfg.samples is None else cfg.samples
    try:
        if lines:
            with open(lines, "w", newline="\n") as fh:
                fh.write("t,theta,x1,y1,z1,x2,y2,z2\n")
                fh.write(_rows_text(_line_rows(star, n)))
            print(f"wrote {lines}", file=out)
        if mesh:
            profile = star.line_profile
            if profile is None:
                print("CONSTRUCTION FAILED: star has no rotational profile "
                      "to mesh", file=out)
                return 2
            with open(mesh, "w", newline="\n") as fh:
                offset = 0
                # each t in (0, 1) is a cone or a hyperboloid
                for t in np.linspace(0.1, 0.9, 8):
                    entry = profile.entry_at(float(t))
                    verts, faces = surface_mesh(entry, 24, 48)
                    fh.write(f"o surface_t{t:.3f}\n")
                    fh.write(_rows_text(verts, sep=" ", prefix="v "))
                    fh.write(_rows_text(faces + 1 + offset, field="{}",
                                        sep=" ", prefix="f "))
                    offset += len(verts)
            print(f"wrote {mesh}", file=out)
        if hfd:
            p = par.make_parallelism(star)
            rows = _line_rows(star, n)
            spans = p.hfd.polar(homogenize(rows[:, 2:5]),
                                homogenize(rows[:, 5:]))
            with open(hfd, "w", newline="\n") as fh:
                fh.write("t,theta," +
                         ",".join(f"a{i}" for i in range(1, 7)) + "," +
                         ",".join(f"b{i}" for i in range(1, 7)) + "\n")
                fh.write(_rows_text(np.column_stack(
                    [rows[:, :2], spans.reshape(len(rows), 12)])))
            print(f"wrote {hfd}", file=out)
    except OSError as exc:
        print(f"IO ERROR: {exc}", file=sys.stderr)
        return 2
    return 0


def _parse_point(text: str, field: str = "--point"):
    """(1, x, y, z) scaled by a power of two to a largest |entry| in
    [1/2, 1): exact, and no product of two points overflows."""
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3 or not all(np.isfinite(parts)):
        raise ConfigError("expected x,y,z, three finite numbers", field=field)
    return pow2_scaled([1.0, *parts])


def _parse_line(text: str) -> PLine:
    halves = text.split(";")
    if len(halves) != 2:
        raise ConfigError("expected x,y,z;x,y,z", field="--line")
    return join(*(_parse_point(h, field="--line") for h in halves))


def cmd_parallel(cfg: StarConfig, line_text: str, point_text: str,
                 out=None) -> int:
    out = out or sys.stdout
    star = _build_or_report(cfg, out)
    if star is None:
        return 2
    try:
        L = _parse_line(line_text)
        p = _parse_point(point_text)
    except (ConfigError, ValueError) as exc:
        print(f"CONFIG ERROR: {exc}", file=sys.stderr)
        return 2
    try:
        result = par.parallel_through(par.make_parallelism(star), p, L)
    except GlStarError as exc:
        print(f"QUERY FAILED: {exc}", file=out)
        return 3
    basis = line_points(result)
    pts = line_sphere_intersect(tuple(pt.coords for pt in basis), _SPHERE)
    if len(pts) == 2:
        affine = [pt.coords[1:] / pt.coords[0] for pt in pts]
        print(";".join(",".join(_g17(v) for v in a) for a in affine), file=out)
    else:
        print(";".join(",".join(_g17(v) for v in pt.coords)
                       for pt in basis), file=out)
    return 0


DEMO_CONFIG = ('{"family":"param","t":{"kind":"phi_r","r":1.5},'
               '"s":{"kind":"phi_r","r":2.0}}')


# argparse reads a value that starts with "-" and a digit or "." as an
# option unless it is attached with "=": a negative coordinate or number.
_VALUE_OPTIONS = ("--point", "--line", "--samples", "--tol", "--seed")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _attach_negative_values(argv):
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_OPTIONS and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="glstar",
        description="Construct, verify and query generalized line stars "
                    "and the parallelisms they induce.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a JSON star configuration")
        p.add_argument("--samples", type=int, default=None,
                       help="override per-check sample counts")
        p.add_argument("--tol", type=float, default=None,
                       help="override every check's tolerance "
                            "(default: each check's own)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")

    p_construct = sub.add_parser("construct", help="validate a configuration")
    add_common(p_construct)
    p_verify = sub.add_parser("verify", help="run the check suite")
    add_common(p_verify)
    p_verify.add_argument("--checks", default=None,
                          help="comma-separated subset of checks to run")
    p_export = sub.add_parser("export", help="export samples and meshes")
    add_common(p_export)
    p_export.add_argument("--lines", metavar="OUT.csv")
    p_export.add_argument("--mesh", metavar="OUT.obj")
    p_export.add_argument("--hfd", metavar="OUT.csv")
    p_parallel = sub.add_parser("parallel", help="answer a parallel query")
    add_common(p_parallel)
    p_parallel.add_argument("--line", required=True, metavar="x,y,z;x,y,z")
    p_parallel.add_argument("--point", required=True, metavar="x,y,z")
    p_demo = sub.add_parser("demo", help="verify the built-in example")
    add_common(p_demo)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "demo":
            text = DEMO_CONFIG
        elif args.config:
            with open(args.config) as fh:
                text = fh.read()
        else:
            parser.error("--config is required for this command")
        cfg = parse_config(text)
        if args.samples is not None:
            cfg.samples = args.samples
        if args.tol is not None:
            cfg.tol = args.tol
        if args.seed is not None:
            cfg.seed = args.seed
        ver.check_sampling(cfg.samples, cfg.tol, cfg.seed)
        checks = None
        if getattr(args, "checks", None):
            checks = [c.strip() for c in args.checks.split(",") if c.strip()]
            check_names(checks)
    except (ParseError, ConfigError, InvalidInput) as exc:
        print(f"CONFIG ERROR: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IO ERROR: {exc}", file=sys.stderr)
        return 2

    if args.command == "construct":
        return cmd_construct(cfg)
    if args.command in ("verify", "demo"):
        return cmd_verify(cfg, checks=checks)
    if args.command == "export":
        if not (args.lines or args.mesh or args.hfd):
            print("CONFIG ERROR: nothing to export (use --lines/--mesh/--hfd)",
                  file=sys.stderr)
            return 2
        return cmd_export(cfg, lines=args.lines, mesh=args.mesh, hfd=args.hfd)
    return cmd_parallel(cfg, args.line, args.point)  # the one command left


if __name__ == "__main__":
    sys.exit(main())
