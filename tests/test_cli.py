import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from glstar import cli
from glstar.cli import (
    DEMO_CONFIG,
    build_star,
    cmd_construct,
    cmd_export,
    cmd_parallel,
    cmd_verify,
    main,
    parse_config,
    run_all_checks,
)
from glstar.constructions import example_parabola_sequence
from glstar.errors import ConfigError, InvalidInput, ParseError
from glstar.projgeom import join, projective_distance
from glstar.star import Handedness
from glstar.verify import KLEIN_CHECKS, applicable_checks, run_star_checks

BUILTIN_CFG = ('{"family":"param","t":{"kind":"phi_r","r":1.5},'
               '"s":{"kind":"phi_r","r":2.0}}')


# --- config parsing -------------------------------------------------------------


def test_parse_builtin_config():
    cfg = parse_config(BUILTIN_CFG)
    assert cfg.family == "param"
    assert np.isclose(cfg.fns["t"](1.0), 0.625)
    assert np.isclose(cfg.fns["s"](1.0), 0.6)


def test_parse_defaults():
    cfg = parse_config('{"family":"clifford"}')
    assert cfg.center == (0.0, 0.0, 0.0)
    assert cfg.tol is None and cfg.seed == 0


def test_parse_missing_function():
    with pytest.raises(ConfigError) as err:
        parse_config('{"family":"fg","f":{"kind":"power","p":2}}')
    assert "fg.g" in str(err.value)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_config('{"family": clifford}')
    assert err.value.position is not None


def test_parse_bad_family_and_fields():
    with pytest.raises(ConfigError):
        parse_config('{"family":"nope"}')
    with pytest.raises(ConfigError):
        parse_config('{"family":"clifford","center":[1,2]}')
    with pytest.raises(ConfigError):
        parse_config('{"family":"fg","f":{"kind":"power","p":2},'
                     '"g":{"kind":"affine","a":1,"b":-1},"eps":3}')


def test_parse_parabola_rows():
    cfg = parse_config('{"family":"parabola","parabolas":'
                       '[[16.0,0.0,0.0],[1.0,0.01,0.001]]}')
    assert cfg.parabolas == [[16.0, 0.0, 0.0], [1.0, 0.01, 0.001]]
    with pytest.raises(ConfigError):
        parse_config('{"family":"parabola","parabolas":[[1.0,0.0]]}')


# --- verify ----------------------------------------------------------------------


def test_cmd_verify_pass_and_exit_code():
    cfg = parse_config('{"family":"clifford"}')
    cfg.samples = 60
    out = io.StringIO()
    code = cmd_verify(cfg, out=out)
    text = out.getvalue()
    assert code == 0
    assert "RESULT: PASS" in text
    assert text.splitlines()[0].startswith("CHECK involution: PASS")


def test_cmd_verify_construction_failure_exit_2():
    # table breaking monotonicity is rejected at parse time already
    with pytest.raises(ConfigError):
        parse_config('{"family":"symmetric","a":{"kind":"table",'
                     '"knots":[0,0.5,0.99],"values":[0,2.0,1.0]}}')
    # a monotone but inadmissible slope function fails at build: exit 2
    cfg = parse_config('{"family":"symmetric","a":{"kind":"table",'
                       '"knots":[0,0.5,0.99],"values":[0,1.0,2.0]}}')
    out = io.StringIO()
    assert cmd_verify(cfg, out=out) == 2
    assert "CONSTRUCTION FAILED" in out.getvalue()


def test_cmd_verify_checks_subset():
    cfg = parse_config('{"family":"clifford"}')
    cfg.samples = 50
    out = io.StringIO()
    code = cmd_verify(cfg, checks=["involution", "coverage"], out=out)
    lines = out.getvalue().splitlines()
    assert code == 0
    assert [l.split()[1].rstrip(":") for l in lines[:-1]] == ["involution",
                                                              "coverage"]


def test_cmd_verify_reports_reproducible():
    cfg = parse_config(BUILTIN_CFG)
    cfg.samples = 80
    out1, out2 = io.StringIO(), io.StringIO()
    cmd_verify(cfg, out=out1)
    cmd_verify(cfg, out=out2)
    assert out1.getvalue() == out2.getvalue()


def test_cmd_construct():
    out = io.StringIO()
    assert cmd_construct(parse_config('{"family":"clifford"}'), out=out) == 0
    assert "OK family=clifford" in out.getvalue()


# --- export ----------------------------------------------------------------------


def test_export_lines_csv(tmp_path):
    cfg = parse_config('{"family":"clifford"}')
    path = tmp_path / "lines.csv"
    out = io.StringIO()
    assert cmd_export(cfg, lines=str(path), out=out) == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "t,theta,x1,y1,z1,x2,y2,z2"
    assert len(rows) == 513  # header + 512 samples
    # the axis row: poles joined
    assert "1,0,0,0,1,0,0,-1" in rows
    assert path.read_bytes().count(b"\r") == 0


def test_export_mesh_obj(tmp_path):
    cfg = parse_config(BUILTIN_CFG)
    path = tmp_path / "star.obj"
    out = io.StringIO()
    assert cmd_export(cfg, mesh=str(path), out=out) == 0
    text = path.read_text().splitlines()
    vs = [l for l in text if l.startswith("v ")]
    fs = [l for l in text if l.startswith("f ")]
    assert vs and fs
    idx = np.array([[int(tok) for tok in l.split()[1:]] for l in fs])
    assert idx.min() >= 1 and idx.max() <= len(vs)
    assert idx.shape[1] == 3


def test_export_hfd_csv(tmp_path):
    cfg = parse_config('{"family":"clifford"}')
    cfg.samples = 64
    path = tmp_path / "hfd.csv"
    out = io.StringIO()
    assert cmd_export(cfg, hfd=str(path), out=out) == 0
    rows = path.read_text().splitlines()
    assert rows[0].startswith("t,theta,a1,")
    assert len(rows[1].split(",")) == 14


def test_export_hfd_evaluates_sigma_once(tmp_path, monkeypatch):
    # one sigma pass over the grid: the rows and the H-lines share it
    calls = []

    def build(cfg):
        star = build_star(cfg)

        def sigma_fn(q):
            calls.append(np.shape(q))
            return star.sigma_fn(q)

        return replace(star, sigma_fn=sigma_fn)

    monkeypatch.setattr(cli, "build_star", build)
    cfg = parse_config(BUILTIN_CFG)
    assert cmd_export(cfg, hfd=str(tmp_path / "hfd.csv"),
                      out=io.StringIO()) == 0
    assert calls == [(512, 3)]


def test_export_unwritable_path(capsys):
    cfg = parse_config('{"family":"clifford"}')
    out = io.StringIO()
    assert cmd_export(cfg, lines="/nonexistent-dir/x.csv", out=out) == 2
    assert "IO ERROR" not in out.getvalue()
    err = capsys.readouterr().err
    assert err.startswith("IO ERROR: ") and err.count("\n") == 1


def _parabola_cfg():
    """The example parabola sequence as a config."""
    seq = example_parabola_sequence()
    return json.dumps({"family": "parabola", "parabolas": np.stack(
        [seq.alphas, seq.betas, seq.gammas], axis=1).tolist()})


# sha256 of each export at the default samples: any change to the writer or
# to the exported geometry that moves a byte fails
EXPORT_SHA256 = {
    ("builtin", "lines"):
        "b8e7d5364ff4654b8eaf7cd5ffa33cd1929803ad07d33ff0d62b94dd3ec1e068",
    ("builtin", "mesh"):
        "351070876d62297a6174ce305b9cde4cdebb4a9673f3dc49c9f4ad6964e628cc",
    ("builtin", "hfd"):
        "0ad8dd2b6b387c9e3b2c075802d02759c7c262c02be041191c62fce9d49b28dc",
    ("parabola", "lines"):
        "5c57d82aa9b76509474e3a92b8319013219b713cbf088d0b3e7a11b6e2ea5d59",
    ("parabola", "mesh"):
        "d8cebfd139e2088277c6b1e7abba692a8a6ee9c0f169de363fa75a0409debced",
    ("parabola", "hfd"):
        "469e0df3cda74234d1bbe518dafaff0bde55f5df101aa7616ab1936c661125a1",
    ("clifford", "lines"):
        "db8485fa347767e307230adcf7671bdc182ab1f976e90f77234d2d00b5bdbd20",
    ("clifford", "mesh"):
        "7083468133711b4d779ba4c7df88104f4359ffb216f9020d93c90fba6d989a87",
    ("clifford", "hfd"):
        "fb43391ab14f84c54d17e12859af961ef87bdedad5ccd5d7c1dcb130a4fcf614",
}


@pytest.mark.parametrize("name,kind", sorted(EXPORT_SHA256))
def test_export_bytes_are_pinned(tmp_path, name, kind):
    cfg = parse_config({"builtin": BUILTIN_CFG, "parabola": _parabola_cfg(),
                        "clifford": '{"family":"clifford"}'}[name])
    path = tmp_path / f"export.{kind}"
    assert cmd_export(cfg, **{kind: str(path)}, out=io.StringIO()) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == EXPORT_SHA256[name, kind]


def _star_set_configs():
    """The configs of the benchmark's seven stars (bench/run.py), seed 0,
    but for latitudinal: its arc map is a 33-knot piecewise-linear table of
    the benchmark's smooth th^2 2/pi, which the CLI config cannot name.
    tests/test_verify.py's SUITE_SHA256 pins the benchmark's own stars."""
    knots = np.linspace(0.0, np.pi / 2, 33)
    return {
        "clifford": '{"family":"clifford"}',
        "symmetric": '{"family":"symmetric","a":{"kind":"moebius01"}}',
        "fg": '{"family":"fg","f":{"kind":"power","p":2},'
              '"g":{"kind":"affine","a":1,"b":-1},"eps":-1}',
        "builtin": BUILTIN_CFG,
        "latitudinal": json.dumps({"family": "latitudinal", "mu": {
            "kind": "table", "knots": knots.tolist(),
            "values": (knots ** 2 * (2.0 / np.pi)).tolist()}}),
        "parabola": _parabola_cfg(),
        "clifford-off": '{"family":"clifford","center":[0.5,0,0]}',
    }


# sha256 of the verify report of each star of the benchmark's set at the
# default samples and seed 0: any change to a check or to the report's text
# that moves a byte fails
VERIFY_SHA256 = {
    "clifford":
        "b60ec0dd732a7279429e5b1e3c9e3b6a18d6271ed02e7a7b1f0f7c9d39faa7a3",
    "symmetric":
        "ba834352b4c857bf37a13cc43a813c4660ef42102ed15651e69b72a40d4d620b",
    "fg": "a32762520f4b45a59e26a2c404ae3498ae3a7f1b2b12d469fca5f62f6c5962a2",
    "builtin":
        "2dc6b29cb39d316f5892ecd06f11fa4a3cb092c3f2f40b18b2ab2ca93ab769ac",
    "latitudinal":
        "faa3307234326533d0cf3307c6405c3544f197551f1d1c3ce1dd7ce9173358f7",
    "parabola":
        "e292261c9f2b9eecb94bc4bd3db5f36c13f4f4d2fef1d4e0f5ae60767bec9083",
    "clifford-off":
        "eeeca4ee82c2c9d6a158b33ec443f5ef920be823ec4ab346bc089063ce50f698",
}


@pytest.mark.parametrize("name", sorted(VERIFY_SHA256))
def test_verify_reports_are_pinned(name):
    out = io.StringIO()
    assert cmd_verify(parse_config(_star_set_configs()[name]), out=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == VERIFY_SHA256[name]


@pytest.mark.parametrize("name", sorted(VERIFY_SHA256))
def test_verify_reports_equal_the_library_defaults(name):
    # a config with no tol key leaves every check at its own tolerance, as
    # run_star_checks does
    cfg = parse_config(_star_set_configs()[name])
    assert cfg.tol is None
    out = io.StringIO()
    cmd_verify(cfg, out=out)
    star = build_star(cfg)
    reports = run_star_checks(
        star, checks=applicable_checks(star) + list(KLEIN_CHECKS))
    ok = sum(r.passed for r in reports)
    status = "PASS" if ok == len(reports) else "FAIL"
    assert out.getvalue().splitlines() == [r.render() for r in reports] + [
        f"RESULT: {status} ({ok}/{len(reports)})"]


def _parallel_queries():
    """(--line, --point) texts: the benchmark's fixed query, then four
    random affine lines and points."""
    def text(*points):
        return ";".join(",".join(repr(v) for v in p.tolist()) for p in points)

    rng = np.random.default_rng(7)
    drawn = [rng.normal(size=(3, 3)) for _ in range(4)]
    return [("0.16544,0.119572,-0.168525;-0.472403,1.092162,-0.405832",
             "-0.037437,0.588276,-0.462042"),
            *[(text(a, b), text(p)) for a, b, p in drawn]]


# sha256 of the exit codes and standard output of ``glstar parallel`` over
# _parallel_queries() on each star of the benchmark's set: any change to the
# search, the H-lines or the spread line that moves an answer byte fails.
# tests/oracle.py measures the answers against exact ones, so that a change
# that moves them can show it loses no accuracy before it re-pins them.
PARALLEL_SHA256 = {
    "clifford":
        "11c28d5309c89dbc8749e929a5fe9df28a09d1dab326d3756180d88bfd46d28d",
    "symmetric":
        "62d3057db2eed6194febad550b9f19a5efa86b8fef9d7369afbdb47acb705a84",
    "fg": "9c1e24726bc5191b58d55b8470d8b7e51e37ec70a2b69df2c5c3dcf8c1a717aa",
    "builtin":
        "c81f224c5cbd8afaa9cb54764f8e0fe8401fc01b061c174f8a2addd06a48de64",
    "latitudinal":
        "5ddb449a56b09897628d47eba546c7660c7e6b93fe138f639d7b59ad4af53386",
    "parabola":
        "aaaec92179e52f80c3a2319594302948971c8801c05eecf4de33bd944c5b5490",
    "clifford-off":
        "a971820a1f9c891cb295f60ca5d9fdc993c75cc9c5a24cf546ae93a1292cdc40",
}


@pytest.mark.parametrize("name", sorted(PARALLEL_SHA256))
def test_parallel_answers_are_pinned(tmp_path, capsys, name):
    cfg = _config_file(tmp_path, _star_set_configs()[name])
    text = ""
    for line, point in _parallel_queries():
        code = main(["parallel", "--config", cfg, f"--line={line}",
                     f"--point={point}"])
        text += f"{code}\n{capsys.readouterr().out}"
    assert hashlib.sha256(text.encode()).hexdigest() == PARALLEL_SHA256[name]


def _per_value_text(rows, field, sep, prefix):
    """The writer's text, one value at a time."""
    render = cli._g17 if field == "{:.17g}" else str
    return "".join(prefix + sep.join(render(v) for v in row) + "\n"
                   for row in rows.tolist())


def test_rows_text_equals_per_value_rendering():
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import example, given

    def bits(u):
        return float(np.array([u], np.uint64).view(np.float64)[0])

    special = [0.0, -0.0, np.nan, -np.nan, bits(0x7FF8000000000001),
               bits(0xFFF0000000000F00), np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072009e-308, 2.2250738585072014e-308]
    for edge in (1e16, 1e17, 1e-4, 1e-5):
        special += [edge, -edge, np.nextafter(edge, 0.0),
                    np.nextafter(edge, np.inf)]
    values = st.sampled_from(special) | st.floats(allow_subnormal=True)

    @st.composite
    def rows_of(draw, pool_values, dtype):
        # a few values drawn once and repeated over the array
        pool = draw(st.lists(pool_values, min_size=1, max_size=6))
        n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(1, 5))
        pick = draw(st.lists(st.integers(0, len(pool) - 1),
                             min_size=n_rows * n_cols,
                             max_size=n_rows * n_cols))
        return np.array([pool[i] for i in pick],
                        dtype).reshape(n_rows, n_cols)

    layouts = st.sampled_from([("{:.17g}", ",", ""),
                               ("{:.17g}", " ", "v ")])

    @given(rows_of(values, np.float64), layouts)
    @example(np.array([special[:4], special[4:8], special[8:12],
                       special[-4:], [-0.0, 0.0, -0.0, 0.0]]),
             ("{:.17g}", ",", ""))
    def floats(rows, layout):
        field, sep, prefix = layout
        assert (cli._rows_text(rows, field=field, sep=sep, prefix=prefix)
                == _per_value_text(rows, field, sep, prefix))

    @given(rows_of(st.integers(0, 2 ** 20), np.int64),
           st.integers(0, 2 ** 40))
    def ints(rows, offset):
        # face indices: 0-based, shifted by one and an object offset
        rows = rows + 1 + offset
        assert (cli._rows_text(rows, field="{}", sep=" ", prefix="f ")
                == _per_value_text(rows, "{}", " ", "f "))

    floats()
    ints()


def test_integer_rows_text_equals_per_value_str():
    # digits in int32 below 2**31, in uint64 from there: every width, the
    # extremes of int64 and uint64, 0, negative values, one column and no rows
    top = 2 ** 63 - 1
    arrays = [np.array([[top, -top - 1, -top, 0]]), np.array([[0]]),
              np.array([[-7], [0], [12]]), np.zeros((0, 3), np.int64),
              np.array([[2 ** 64 - 1, 0, 2 ** 63]], np.uint64),
              np.array([[-5, 2 ** 31 - 1, -(2 ** 31)]], np.int32)]
    for width in range(1, 20):
        lo, hi = 10 ** (width - 1), min(10 ** width - 1, top)
        arrays.append(np.array([[lo, -hi, 0], [-lo, hi, lo + 1]]))
    for rows in arrays:
        for sep, prefix in ((" ", "f "), (",", "")):
            assert (cli._rows_text(rows, field="{}", sep=sep, prefix=prefix)
                    == _per_value_text(rows, "{}", sep, prefix)), rows


# --- parallel --------------------------------------------------------------------


def test_cmd_parallel_point_on_line():
    cfg = parse_config('{"family":"clifford"}')
    out = io.StringIO()
    code = cmd_parallel(cfg, "0,0,-1;0,0,1", "0,0,0.5", out=out)
    assert code == 0
    pts = [np.array([float(v) for v in h.split(",")])
           for h in out.getvalue().strip().split(";")]
    got = join(np.r_[1.0, pts[0]], np.r_[1.0, pts[1]])
    Z = join((1, 0, 0, 0), (0, 0, 0, 1))
    assert projective_distance(got.p, Z.p) < 1e-9


def test_cmd_parallel_clifford_parallel_of_z():
    # the parallel of Z through (1,0,0) is tangent to the sphere, so the
    # output falls back to two spanning homogeneous 4-vectors
    cfg = parse_config('{"family":"clifford"}')
    out = io.StringIO()
    code = cmd_parallel(cfg, "0,0,-1;0,0,1", "1,0,0", out=out)
    assert code == 0
    pts = [np.array([float(v) for v in h.split(",")])
           for h in out.getvalue().strip().split(";")]
    span = np.vstack([p if p.size == 4 else np.r_[1.0, p] for p in pts])
    p = np.array([1.0, 1.0, 0.0, 0.0])
    rej = p - span.T @ np.linalg.lstsq(span.T, p, rcond=None)[0]
    assert np.linalg.norm(rej) < 1e-8


def test_cmd_parallel_bad_line_spec(capsys):
    cfg = parse_config('{"family":"clifford"}')
    assert cmd_parallel(cfg, "0,0,-1", "1,0,0") == 2
    captured = capsys.readouterr()
    assert "CONFIG ERROR" in captured.err
    assert captured.out == ""


# --- main entry ------------------------------------------------------------------


def test_main_demo(capsys):
    code = main(["demo", "--samples", "40"])
    captured = capsys.readouterr()
    assert code == 0
    assert "RESULT: PASS" in captured.out


def test_main_requires_config(capsys):
    with pytest.raises(SystemExit):
        main(["verify"])


def test_main_with_config_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"family":"clifford"}')
    code = main(["construct", "--config", str(path)])
    assert code == 0
    assert "OK family=clifford" in capsys.readouterr().out


def test_main_bad_config_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"family":"fg","f":{"kind":"power","p":2}}')
    assert main(["construct", "--config", str(path)]) == 2
    assert "CONFIG ERROR" in capsys.readouterr().err


def test_main_unknown_check(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"family":"clifford"}')
    assert main(["verify", "--config", str(path), "--checks", "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG ERROR") and "bogus" in err
    assert len(err.splitlines()) == 1


def test_demo_config_is_builtin():
    assert json.loads(DEMO_CONFIG)["family"] == "param"


def test_parse_collects_all_violations():
    with pytest.raises(ConfigError) as err:
        parse_config('{"family":"fg","eps":3,"handedness":"up"}')
    msg = str(err.value)
    assert "fg.f" in msg and "fg.g" in msg
    assert "eps" in msg and "handedness" in msg


# --- input boundary --------------------------------------------------------------


def _config_file(tmp_path, text='{"family":"clifford"}'):
    path = tmp_path / "c.json"
    path.write_text(text)
    return str(path)


def test_parse_reports_keys_the_family_does_not_read(tmp_path, capsys):
    # a misspelled handedness would otherwise build a right-handed star;
    # the problems come in the config's key order
    text = ('{"family":"fg","f":{"kind":"power","p":2},'
            '"g":{"kind":"affine","a":1,"b":-1},'
            '"handednes":"left","center":[0.5,0,0]}')
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == ("handednes: not read by the fg family; "
                              "center: not read by the fg family")
    assert main(["construct", "--config", _config_file(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"CONFIG ERROR: {err.value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config('{"family":"latitudinal","handedness":"left",'
                     '"mu":{"kind":"identity"}}')
    assert str(err.value) == "handedness: not read by the latitudinal family"
    # and every key a family reads parses
    cfg = parse_config('{"family":"parabola","handedness":"left","seed":3,'
                       '"tol":1e-8,"samples":40,"parabolas":[[16,0,0]]}')
    assert cfg.handedness is Handedness.LEFT and cfg.samples == 40


def test_main_negative_point_coordinate(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    line = "0,0,-1;0,0,1"
    assert main(["parallel", "--config", cfg, "--line", line,
                 "--point", "-0.03,1,0"]) == 0
    spaced = capsys.readouterr().out
    assert main(["parallel", "--config", cfg, f"--line={line}",
                 "--point=-0.03,1,0"]) == 0
    assert spaced == capsys.readouterr().out


def test_main_negative_line_coordinate(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    assert main(["parallel", "--config", cfg, "--line", "-0.1,0,0;1,0,0",
                 "--point", "0,0.5,0"]) == 0
    spaced = capsys.readouterr().out
    assert main(["parallel", "--config", cfg, "--line=-0.1,0,0;1,0,0",
                 "--point=0,0.5,0"]) == 0
    assert spaced == capsys.readouterr().out


@pytest.mark.parametrize("option", [
    ["--samples", "0"], ["--samples", "-5"], ["--tol", "0"], ["--tol", "-1e-9"],
    ["--tol", "nan"], ["--tol", "inf"], ["--tol", "1e-2"],
    ["--tol", "0.0010000000000000002"], ["--seed", "-1"],
])
def test_main_rejects_bad_samples_and_tol(tmp_path, capsys, option):
    assert main(["verify", "--config", _config_file(tmp_path), *option]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG ERROR") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("fields", [
    '"samples":0', '"samples":-5', '"tol":0', '"tol":-1', '"tol":NaN',
    '"tol":Infinity', '"seed":-1', '"seed":1e400', '"samples":1e400',
    '"tol":1e400', '"tol":0.01', '"samples":2.7', '"seed":1.9',
    '"seed":true', '"samples":"12"', '"tol":"1e-9"', '"center":[true,0,0]',
    '"center":["1",0,0]',
    pytest.param('"center":[1' + '0' * 400 + ',0,0]', id="center-10^400"),
])
def test_config_rejects_bad_samples_and_tol(tmp_path, capsys, fields):
    text = '{"family":"clifford",' + fields + '}'
    with pytest.raises(ConfigError):
        parse_config(text)
    assert main(["verify", "--config", _config_file(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG ERROR") and err.count("\n") == 1


@pytest.mark.parametrize("query,field", [
    (["--point=nan,0,0", "--line=0,0,-1;0,0,1"], "--point"),
    (["--point=inf,0,0", "--line=0,0,-1;0,0,1"], "--point"),
    (["--point=0,1e400,0", "--line=0,0,-1;0,0,1"], "--point"),
    (["--point=1,0,0", "--line=nan,0,0;1,1,1"], "--line"),
    (["--point=1,0,0", "--line=0,0,0;1,-inf,1"], "--line"),
])
def test_main_parallel_rejects_non_finite_coordinates(tmp_path, capsys, query,
                                                      field):
    assert main(["parallel", "--config", _config_file(tmp_path), *query]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    text = captured.err
    assert text.startswith(f"CONFIG ERROR: {field}: expected x,y,z")
    assert text.count("\n") == 1
    assert "Traceback" not in text


@pytest.mark.parametrize("line,point", [
    ("0,0,0;1,1,1", "1e300,0,0"),
    ("0,0,0;1,1,1", "1e150,0,0"),
    ("1e200,0,0;0,1e200,0", "1,2,3"),
])
def test_main_parallel_answers_far_points(tmp_path, capsys, line, point):
    # products of the raw coordinates would overflow; the parsed points are
    # scaled by powers of two, so the answer is the same line
    cfg = _config_file(tmp_path, BUILTIN_CFG)
    assert main(["parallel", "--config", cfg, f"--line={line}",
                 f"--point={point}"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    span = [np.array([float(v) for v in h.split(",")])
            for h in out.strip().split(";")]
    span = [v if v.size == 4 else np.r_[1.0, v] for v in span]
    p = np.array([1.0, *(float(v) for v in point.split(","))])
    p /= np.abs(p).max()
    # p is on the line when the unit rows span a plane only
    rows = np.array([v / np.linalg.norm(v) for v in (*span, p)])
    s = np.linalg.svd(rows, compute_uv=False)
    assert s[2] < 1e-9 * s[0], s


@pytest.mark.parametrize("text,field", [
    ('{"family":"symmetric","a":{"kind":"power","p":NaN}}', "symmetric.a"),
    ('{"family":"fg","f":{"kind":"power","p":NaN},'
     '"g":{"kind":"affine","a":1,"b":-1}}', "fg.f"),
    ('{"family":"fg","f":{"kind":"power","p":2},'
     '"g":{"kind":"affine","a":NaN,"b":-1}}', "fg.g"),
    ('{"family":"param","t":{"kind":"phi_r","r":NaN},'
     '"s":{"kind":"phi_r","r":2}}', "param.t"),
], ids=["symmetric-a", "fg-f", "fg-g", "param-t"])
@pytest.mark.parametrize("command", ["construct", "verify"])
def test_main_rejects_nan_function_parameters(tmp_path, capsys, command, text,
                                              field):
    assert main([command, "--config", _config_file(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"CONFIG ERROR: {field}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text,line", [
    ('{"family":"param","t":{"kind":"phi_r","r":1e400},'
     '"s":{"kind":"phi_r","r":2}}',
     "CONFIG ERROR: param.t: parameter 'r' must be a finite number"),
    ('{"family":"param","t":{"kind":"phi_r","r":1.5},'
     '"s":{"kind":"affine","a":Infinity,"b":0}}',
     "CONFIG ERROR: param.s: parameter 'a' must be a finite number"),
    ('{"family":"fg","f":{"kind":"power","p":-Infinity},'
     '"g":{"kind":"affine","a":1,"b":-1}}',
     "CONFIG ERROR: fg.f: parameter 'p' must be a finite number"),
    ('{"family":"latitudinal","mu":{"kind":"table","knots":[0,1,Infinity],'
     '"values":[0,0.5,0.9]}}',
     "CONFIG ERROR: latitudinal.mu: table knots must be finite numbers"),
    ('{"family":"symmetric","a":{"kind":"table","knots":[0,0.5,1],'
     '"values":[0,1,1e400]}}',
     "CONFIG ERROR: symmetric.a: table values must be finite numbers"),
    ('{"family":"param","t":{"kind":"phi_r","r":"1.5"},'
     '"s":{"kind":"phi_r","r":2}}',
     "CONFIG ERROR: param.t: parameter 'r' must be a finite number"),
    ('{"family":"param","t":{"kind":"phi_r","r":1.5},'
     '"s":{"kind":"phi_r","r":true}}',
     "CONFIG ERROR: param.s: parameter 'r' must be a finite number"),
    ('{"family":"latitudinal","mu":{"kind":"table","knots":[0,"0.5",1],'
     '"values":[0,0.5,0.9]}}',
     "CONFIG ERROR: latitudinal.mu: table knots must be finite numbers"),
    ('{"family":"symmetric","a":{"kind":"table","knots":[0,0.5,1],'
     '"values":[0,true,1]}}',
     "CONFIG ERROR: symmetric.a: table values must be finite numbers"),
    ('{"family":"fg","f":{"kind":"power","p":2},'
     '"g":{"kind":"affine","a":1,"b":-1},"eps":true}',
     "CONFIG ERROR: fg.eps: must be -1 or 1"),
    ('{"family":"parabola","parabolas":[[1,0,"0"]]}',
     "CONFIG ERROR: parabola.parabolas: must be a list of [alpha, beta, "
     "gamma]"),
    ('{"family":"parabola","parabolas":[[1e308,0,0],[1,0.1,0.2]]}',
     "CONSTRUCTION FAILED: (3): parabola must meet the circle arc in two "
     "points (witness: 0)"),
    # finite, but phi_r overflows to inf and NaN on the a-grid
    ('{"family":"param","t":{"kind":"phi_r","r":1e308},'
     '"s":{"kind":"phi_r","r":2}}',
     "CONSTRUCTION FAILED: t is not increasing (witness: 0.7946862426485708)"),
], ids=["phi_r", "affine", "power", "table-knots", "table-values",
        "phi_r-string", "phi_r-bool", "table-string", "table-bool",
        "eps-bool", "parabola-string", "parabola-1e308", "phi_r-1e308"])
def test_main_rejects_infinite_numbers_in_one_line(tmp_path, capsys, text,
                                                   line):
    # one line and no warning (tier-1 turns warnings into errors)
    assert main(["construct", "--config", _config_file(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out + captured.err == line + "\n"


def test_main_huge_tol_prints_no_warning(tmp_path, capsys):
    # a tol above verify.MAX_TOL, at which a known-bad star could pass, is
    # one CONFIG ERROR line and no check runs (tier-1 turns warnings into
    # errors)
    sym = '{"family":"symmetric","a":{"kind":"moebius01"}}'
    assert main(["verify", "--config", _config_file(tmp_path, sym),
                 "--checks", "no_exterior_meet", "--tol=1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("CONFIG ERROR: tol must be positive and at most 0.001")


def test_zero_samples_is_not_replaced_by_defaults(tmp_path):
    cfg = parse_config('{"family":"clifford"}')
    cfg.samples = 0
    star = build_star(cfg)
    with pytest.raises(InvalidInput):
        run_all_checks(star, cfg, selected=["zero_secants"])
    with pytest.raises(InvalidInput):
        cmd_export(cfg, lines=str(tmp_path / "x.csv"), out=io.StringIO())


def test_fixed_fault_query_answered_on_fg(tmp_path, capsys):
    cfg = _config_file(tmp_path, '{"family":"fg","f":{"kind":"power","p":2},'
                                 '"g":{"kind":"affine","a":1,"b":-1},"eps":-1}')
    assert main(["parallel", "--config", cfg,
                 "--line=0.165440,0.119572,-0.168525;"
                 "-0.472403,1.092162,-0.405832",
                 "--point=-0.037437,0.588276,-0.462042"]) == 0
    assert "QUERY FAILED" not in capsys.readouterr().out


def test_main_tol_reaches_the_klein_checks(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    assert main(["verify", "--config", cfg, "--checks",
                 "torus_fixes_classes,involution,hfd", "--tol", "1e-20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "CHECK torus_fixes_classes", "CHECK involution", "CHECK hfd"]
    assert all(": FAIL " in line for line in lines[:3])
    assert lines[3] == "RESULT: FAIL (0/3)"


def test_run_all_checks_rejects_negative_seed():
    cfg = parse_config('{"family":"clifford"}')
    cfg.seed = -1
    with pytest.raises(InvalidInput):
        run_all_checks(build_star(cfg), cfg, selected=["zero_secants"])


def test_inapplicable_check_is_reported_as_skipped():
    # clifford((0, 0, 0.5)) is rotational and axial, not symmetric
    cfg = parse_config('{"family":"clifford","center":[0,0,0.5],"samples":40}')
    out = io.StringIO()
    assert cmd_verify(cfg, checks=["symmetric", "involution"], out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "CHECK symmetric: SKIP not applicable to this star"
    assert lines[1].startswith("CHECK involution: PASS")
    assert lines[2] == "RESULT: PASS (1/1)"
    out = io.StringIO()
    cmd_verify(cfg, out=out)
    assert "SKIP" not in out.getvalue()


def test_main_reuses_one_parser(tmp_path, capsys):
    # the same calls on a parser built afresh for each, then on the one
    # cached parser: the same exit, output and files, and no option of one
    # call (--samples, --lines) reaches the next
    cfg = _config_file(tmp_path)
    lines, mesh = str(tmp_path / "l.csv"), str(tmp_path / "m.obj")
    calls = [["export", "--lines", lines],
             ["export", "--config", cfg, "--lines", lines, "--samples", "64"],
             ["export", "--config", cfg, "--mesh", mesh],
             ["export", "--config", cfg, "--lines", lines]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        written = {}
        for path in (tmp_path / "l.csv", tmp_path / "m.obj"):
            if path.exists():
                written[path.name] = path.read_bytes()
                path.unlink()
        return code, capsys.readouterr(), written

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    parser = cli._parser()
    reused = [run(argv) for argv in calls]
    assert cli._parser() is parser
    assert reused == fresh
    code, captured, _ = fresh[0]
    assert code == "exit 2" and "--config is required" in captured.err
    assert [sorted(w) for _, _, w in fresh] == [[], ["l.csv"], ["m.obj"],
                                                ["l.csv"]]
    assert fresh[1][2]["l.csv"].count(b"\n") == 1 + 64
    assert fresh[3][2]["l.csv"].count(b"\n") == 1 + 512


def test_export_out_option_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        main(["export", "--config", _config_file(tmp_path),
              "--out", str(tmp_path / "x.csv")])


# --- the error paths of each command -------------------------------------------


BAD_CENTER_CFG = '{"family":"clifford","center":[2,0,0]}'


@pytest.mark.parametrize("command", ["export", "parallel"])
def test_commands_report_a_failed_construction(tmp_path, command):
    cfg, out = parse_config(BAD_CENTER_CFG), io.StringIO()
    if command == "export":
        code = cmd_export(cfg, lines=str(tmp_path / "x.csv"), out=out)
    else:
        code = cmd_parallel(cfg, "0,0,2;1,0,2", "0,3,0", out=out)
    assert code == 2
    assert out.getvalue() == ("CONSTRUCTION FAILED: center [2.0, 0.0, 0.0] "
                              "is not strictly interior\n")
    assert not (tmp_path / "x.csv").exists()


def test_export_mesh_of_a_star_without_a_profile(tmp_path):
    # an off-axis Clifford star has no rotational profile
    cfg, out = parse_config('{"family":"clifford","center":[0.3,0,0]}'), \
        io.StringIO()
    assert cmd_export(cfg, mesh=str(tmp_path / "m.obj"), out=out) == 2
    assert out.getvalue() == ("CONSTRUCTION FAILED: star has no rotational "
                              "profile to mesh\n")
    assert not (tmp_path / "m.obj").exists()


def test_parallel_reports_a_failed_query(monkeypatch):
    from glstar.errors import SearchFailed

    def fail(*args):
        raise SearchFailed("no H-line found in the tangent hyperplane")

    monkeypatch.setattr(cli.par, "parallel_through", fail)
    out = io.StringIO()
    assert cmd_parallel(parse_config(BUILTIN_CFG), "0,0,2;1,0,2", "0,3,0",
                        out=out) == 3
    assert out.getvalue() == ("QUERY FAILED: no H-line found in the tangent "
                              "hyperplane\n")


def test_main_reports_an_unreadable_config(tmp_path, capsys):
    assert main(["construct", "--config", str(tmp_path / "none.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("IO ERROR: ") and err.count("\n") == 1


def test_main_export_needs_something_to_write(tmp_path, capsys):
    assert main(["export", "--config", _config_file(tmp_path)]) == 2
    assert capsys.readouterr().err == ("CONFIG ERROR: nothing to export (use "
                                       "--lines/--mesh/--hfd)\n")


def test_module_runs_as_a_script(tmp_path, monkeypatch, capsys):
    import runpy
    import sys
    import warnings

    monkeypatch.setattr(sys, "argv", ["glstar", "construct", "--config",
                                      _config_file(tmp_path)])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as done:
        # runpy warns that it runs glstar.cli, imported already, again
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module("glstar.cli", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("OK family=clifford ")
