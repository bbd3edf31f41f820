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
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import constructions as cons
from . import parallelism as par
from . import verify as ver
from .errors import (
    ConditionFailed,
    ConfigError,
    GlStarError,
    InvalidInput,
    ParseError,
)
from .functions import from_spec
from .projgeom import PLine, QuadricForm, join, line_points, line_sphere_intersect
from .star import Handedness, surface_mesh

FAMILIES = ("clifford", "symmetric", "fg", "eqn", "param", "latitudinal",
            "parabola")


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class StarConfig:
    family: str
    tol: float = 1e-9
    seed: int = 0
    samples: int | None = None
    handedness: Handedness = Handedness.RIGHT
    center: tuple = (0.0, 0.0, 0.0)
    fns: dict = field(default_factory=dict)
    eps: float = -1.0
    parabolas: list | None = None


def parse_config(text: str) -> StarConfig:
    """Validate a JSON configuration.

    Semantic problems are collected and reported together, each prefixed
    with its field path.
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
    problems = []

    def bad(field, message):
        problems.append(f"{field}: {message}")

    # json reads 1e400 as inf, which int() cannot take, and long integer
    # literals as ints, which float() cannot take: both raise OverflowError
    # (and the finite-number tests on center and parabolas keep them out)
    try:
        cfg.tol = float(raw.get("tol", 1e-9))
    except (TypeError, ValueError, OverflowError):
        bad("tol", "must be a number")
    try:
        cfg.seed = int(raw.get("seed", 0))
    except (TypeError, ValueError, OverflowError):
        bad("seed", "must be an integer")
    if "samples" in raw:
        try:
            cfg.samples = int(raw["samples"])
        except (TypeError, ValueError, OverflowError):
            bad("samples", "must be an integer")
    try:
        ver.check_sampling(cfg.samples, cfg.tol, cfg.seed)
    except InvalidInput as exc:
        problems.append(str(exc))
    hand = raw.get("handedness", "right")
    if hand not in ("left", "right"):
        bad("handedness", "must be 'left' or 'right'")
    else:
        cfg.handedness = Handedness.LEFT if hand == "left" else Handedness.RIGHT

    required = {
        "clifford": (), "symmetric": ("a",), "fg": ("f", "g"),
        "eqn": ("b", "c"), "param": ("t", "s"), "latitudinal": ("mu",),
        "parabola": (),
    }[family]
    for name in required:
        if name not in raw:
            bad(f"{family}.{name}", "missing")
            continue
        try:
            cfg.fns[name] = from_spec(raw[name], path=f"{family}.{name}")
        except ConfigError as exc:
            problems.append(str(exc))

    if family == "clifford":
        center = raw.get("center", [0.0, 0.0, 0.0])
        if (not isinstance(center, (list, tuple)) or len(center) != 3
                or not all(isinstance(v, (int, float))
                           and abs(v) <= sys.float_info.max for v in center)):
            bad("center", "must be a 3-vector")
        else:
            cfg.center = tuple(float(v) for v in center)
    if family == "fg":
        eps = raw.get("eps", -1)
        if eps not in (-1, 1):
            bad("fg.eps", "must be -1 or 1")
        else:
            cfg.eps = float(eps)
    if family == "parabola":
        rows = raw.get("parabolas")
        if (not isinstance(rows, list) or not rows
                or not all(isinstance(r, (list, tuple)) and len(r) == 3
                           and all(isinstance(v, (int, float))
                                   and abs(v) <= sys.float_info.max for v in r)
                           for r in rows)):
            bad("parabola.parabolas", "must be a list of [alpha, beta, gamma]")
        else:
            cfg.parabolas = [[float(v) for v in r] for r in rows]
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def build_star(cfg: StarConfig):
    if cfg.family == "clifford":
        return cons.clifford(cfg.center)
    if cfg.family == "symmetric":
        return cons.symmetric_star(cfg.fns["a"], handedness=cfg.handedness)
    if cfg.family == "fg":
        return cons.fg_star(cfg.fns["f"], cfg.fns["g"], eps=cfg.eps)
    if cfg.family == "eqn":
        return cons.eqn_star(cfg.fns["b"], cfg.fns["c"], hand=cfg.handedness)
    if cfg.family == "param":
        return cons.param_star(cfg.fns["t"], cfg.fns["s"], hand=cfg.handedness)
    if cfg.family == "latitudinal":
        return cons.latitudinal(cons.pencil_from_mu(cfg.fns["mu"]))
    if cfg.family == "parabola":
        seq = cons.ParabolaSeq(*(np.array(col) for col in zip(*cfg.parabolas)))
        return cons.parabola_star(seq, hand=cfg.handedness)
    raise ConfigError(f"unhandled family {cfg.family}")  # pragma: no cover


KLEIN_CHECKS = ("zero_secants", "hfd", "torus_fixes_classes")


def check_names(selected):
    """Raise ConfigError unless every selected name is a known check."""
    unknown = [s for s in selected if s not in ver.GEOMETRY_CHECKS
               and s not in KLEIN_CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {','.join(unknown)}",
                          field="--checks")


def run_all_checks(star, cfg: StarConfig, selected=None):
    names = ver.applicable_checks(star) + list(KLEIN_CHECKS)
    if selected:
        check_names(selected)
        names = [n for n in names if n in selected]
    ver.check_sampling(cfg.samples, cfg.tol, cfg.seed)
    size = lambda default: default if cfg.samples is None else cfg.samples  # noqa: E731
    geo = [n for n in names if n in ver.GEOMETRY_CHECKS]
    reports = ver.run_star_checks(star, checks=geo, samples=cfg.samples,
                                  tol=cfg.tol, seed=cfg.seed) if geo else []
    if any(n in names for n in KLEIN_CHECKS):
        p = par.make_parallelism(star)
        if "zero_secants" in names:
            reports.append(par.check_zero_secants(p.hfd, n=size(200),
                                                  seed=cfg.seed))
        if "hfd" in names:
            reports.append(par.check_hfd(p, n=size(100), seed=cfg.seed))
        if "torus_fixes_classes" in names:
            reports.append(par.check_torus_fixes_classes(p.es, n=size(50),
                                                         seed=cfg.seed))
    return reports


def cmd_verify(cfg: StarConfig, checks=None, out=None) -> int:
    out = out or sys.stdout
    try:
        star = build_star(cfg)
    except (ConditionFailed, GlStarError) as exc:
        print(f"CONSTRUCTION FAILED: {exc}", file=out)
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
    try:
        star = build_star(cfg)
    except (ConditionFailed, GlStarError) as exc:
        print(f"CONSTRUCTION FAILED: {exc}", file=out)
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


def _rows_text(rows, field="{:.17g}", sep=",", prefix=""):
    """One line per row of a 2-d array, each value formatted by ``field``
    (the default matches _g17)."""
    line = prefix + sep.join([field] * rows.shape[1]) + "\n"
    return (line * len(rows)).format(*rows.ravel().tolist())


def cmd_export(cfg: StarConfig, lines=None, mesh=None, hfd=None,
               out=None) -> int:
    out = out or sys.stdout
    ver.check_sampling(cfg.samples)
    try:
        star = build_star(cfg)
    except (ConditionFailed, GlStarError) as exc:
        print(f"CONSTRUCTION FAILED: {exc}", file=out)
        return 2
    n = 512 if cfg.samples is None else cfg.samples
    try:
        if lines:
            with open(lines, "w", newline="\n") as fh:
                fh.write("t,theta,x1,y1,z1,x2,y2,z2\n")
                fh.write(_rows_text(_line_rows(star, n)))
            print(f"wrote {lines}", file=out)
        if mesh:
            if star.profile is None:
                print("CONSTRUCTION FAILED: star has no rotational profile "
                      "to mesh", file=out)
                return 2
            with open(mesh, "w", newline="\n") as fh:
                offset = 0
                for t in np.linspace(0.1, 0.9, 8):
                    entry = star.profile.entry_at(float(t))
                    if entry.kind not in ("cone", "hyperboloid"):
                        continue
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
            spans = p.hfd.span_at(rows[:, 0], rows[:, 1])
            with open(hfd, "w", newline="\n") as fh:
                fh.write("t,theta," +
                         ",".join(f"a{i}" for i in range(1, 7)) + "," +
                         ",".join(f"b{i}" for i in range(1, 7)) + "\n")
                fh.write(_rows_text(np.column_stack(
                    [rows[:, :2], spans.reshape(len(rows), 12)])))
            print(f"wrote {hfd}", file=out)
    except OSError as exc:
        print(f"IO ERROR: {exc}", file=out)
        return 2
    return 0


def _parse_affine_point(text: str, field: str = "--point"):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3 or not all(np.isfinite(parts)):
        raise ConfigError("expected x,y,z, three finite numbers", field=field)
    return np.array([1.0, *parts])


def _parse_affine_line(text: str) -> PLine:
    halves = text.split(";")
    if len(halves) != 2:
        raise ConfigError("expected x,y,z;x,y,z", field="--line")
    return join(*(_parse_affine_point(h, field="--line") for h in halves))


def cmd_parallel(cfg: StarConfig, line_text: str, point_text: str,
                 out=None) -> int:
    out = out or sys.stdout
    try:
        star = build_star(cfg)
    except (ConditionFailed, GlStarError) as exc:
        print(f"CONSTRUCTION FAILED: {exc}", file=out)
        return 2
    try:
        L = _parse_affine_line(line_text)
        p = _parse_affine_point(point_text)
    except (ConfigError, ValueError) as exc:
        print(f"CONFIG ERROR: {exc}", file=out)
        return 2
    try:
        result = par.parallel_through(par.make_parallelism(star), p, L)
    except GlStarError as exc:
        print(f"QUERY FAILED: {exc}", file=out)
        return 3
    pts = line_sphere_intersect(result, QuadricForm.unit_sphere())
    if len(pts) == 2:
        affine = [pt.coords[1:] / pt.coords[0] for pt in pts]
        print(";".join(",".join(_g17(v) for v in a) for a in affine), file=out)
    else:
        a, b = line_points(result)
        print(";".join(",".join(_g17(v) for v in pt.coords)
                       for pt in (a, b)), file=out)
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


def main(argv=None) -> int:
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
                       help="override the check tolerance")
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
    if args.command == "parallel":
        return cmd_parallel(cfg, args.line, args.point)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
