import io
import json

import numpy as np
import pytest

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
from glstar.errors import ConfigError, InvalidInput, ParseError
from glstar.projgeom import join, projective_distance

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
    assert cfg.tol == 1e-9 and cfg.seed == 0


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


def test_export_unwritable_path():
    cfg = parse_config('{"family":"clifford"}')
    out = io.StringIO()
    assert cmd_export(cfg, lines="/nonexistent-dir/x.csv", out=out) == 2


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


def test_cmd_parallel_bad_line_spec():
    cfg = parse_config('{"family":"clifford"}')
    out = io.StringIO()
    assert cmd_parallel(cfg, "0,0,-1", "1,0,0", out=out) == 2
    assert "CONFIG ERROR" in out.getvalue()


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
    ["--tol", "nan"], ["--tol", "inf"], ["--seed", "-1"],
])
def test_main_rejects_bad_samples_and_tol(tmp_path, capsys, option):
    assert main(["verify", "--config", _config_file(tmp_path), *option]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG ERROR") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("fields", [
    '"samples":0', '"samples":-5', '"tol":0', '"tol":-1', '"tol":NaN',
    '"tol":Infinity', '"seed":-1', '"seed":1e400', '"samples":1e400',
    '"tol":1e400',
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
    text = captured.out + captured.err
    assert text.startswith(f"CONFIG ERROR: {field}: expected x,y,z")
    assert text.count("\n") == 1
    assert "Traceback" not in text


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


def test_export_out_option_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        main(["export", "--config", _config_file(tmp_path),
              "--out", str(tmp_path / "x.csv")])
