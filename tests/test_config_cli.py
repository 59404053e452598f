import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergomix.cli import main
from ergomix import harness
from ergomix.config import EXPERIMENTS, Config, MapBlock, parse_config, render_config
from ergomix.errors import ConfigError, ErgomixError
from ergomix.scalar import GridField, InitialDatum, make_initial, sample_scalar, save_grid
from ergomix.fields import CATALOG, VelocityFieldSpec, make_field

MINIMAL_MIXING = """
experiment = mixing
seed = 11

[field]
kind = alternating_shear

[datum]
kind = checkerboard
"""


def test_minimal_config_materializes_documented_defaults():
    config = parse_config(MINIMAL_MIXING)
    assert config.resolution == 512
    assert config.horizon == 20
    assert config.kappa == pytest.approx(1.0 / 3.0)
    assert config.seed == 11
    assert config.field.kind == "alternating_shear"
    assert config.field.amplitude == 1.0


def test_kappa_range_error_names_key():
    with pytest.raises(ConfigError, match=r"kappa must lie in \(0.0, 1.0\)"):
        parse_config(MINIMAL_MIXING.replace("seed = 11", "seed = 11\nkappa = 1.5"))


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="wavenumbr"):
        parse_config(MINIMAL_MIXING + "\n[field]\nwavenumbr = 2\n")


def test_missing_seed_is_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("experiment = mixing\n[field]\nkind = zero\n[datum]\nkind = stripe\n")


def test_experiment_routing_requires_blocks():
    with pytest.raises(ConfigError, match="map.kind"):
        parse_config("experiment = ruelle\nseed = 1\n")
    with pytest.raises(ConfigError, match="field"):
        parse_config("experiment = ruelle\nseed = 1\n[map]\nkind = time_one_flow\n")


def test_overrides_compose_textually():
    config = parse_config(MINIMAL_MIXING, overrides=["field.amplitude=1.25", "resolution=128"])
    assert config.field.amplitude == 1.25
    assert config.resolution == 128
    with pytest.raises(ConfigError):
        parse_config(MINIMAL_MIXING, overrides=["nonsense"])


def _resolved_data(resolution):
    """The catalog data a grid of this resolution resolves: 4 nodes per half period (the datum's rule)."""
    finest = resolution.bit_length() - 1  # floor(log2 N): a checkerboard level m needs N >= 2^(m+2)
    k = min(4, resolution // 8)
    return st.one_of(
        st.builds(
            make_initial,
            st.just("sinusoid"),
            wavevector=st.tuples(st.integers(-k, k), st.integers(-k, k)).filter(any),
        ),
        st.builds(make_initial, st.just("checkerboard"), level=st.integers(1, min(12, finest - 2))),
        st.builds(make_initial, st.just("stripe"), level=st.integers(0, min(12, finest - 3))),
    )


# the resolution is drawn first, and the datum from those it resolves
valid_configs = st.integers(16, 2048).flatmap(
    lambda resolution: st.builds(
        Config,
        experiment=st.sampled_from(["mixing", "regularity"]),
        seed=st.integers(0, 2**31),
        output_dir=st.sampled_from(["runs", "out/x", "r2"]),
        n=st.integers(1, 40),
        level=st.integers(1, 8),
        samples=st.integers(1, 10**7),
        lyapunov_samples=st.integers(1, 5000),
        lyapunov_n=st.integers(1, 400),
        probes_per_cell=st.integers(16, 256),
        horizon=st.integers(1, 60),
        resolution=st.just(resolution),
        kappa=st.floats(1e-6, 1.0 - 1e-6, allow_nan=False),
        burn_in_fraction=st.floats(0.0, 0.9, allow_nan=False),
        field=st.sampled_from(["zero", "steady_shear", "alternating_shear", "cellular"]).flatmap(
            lambda kind: st.builds(
                VelocityFieldSpec,
                kind=st.just(kind),
                amplitude=st.floats(0.0, 8.0, allow_nan=False),
                phases=st.lists(st.floats(0.0, 0.999), max_size=CATALOG[kind].phases).map(tuple),
                wavenumber=st.integers(1, 5),
            )
        ),
        datum=_resolved_data(resolution),
        map=st.builds(MapBlock, kind=st.just("cat")),
    )
)


@given(valid_configs)
@settings(max_examples=1000, deadline=None)
def test_config_round_trip(config):
    assert parse_config(render_config(config)) == config


def test_resolved_config_echoes_the_datum_used():
    sinusoid = MINIMAL_MIXING.replace("checkerboard", "sinusoid\nwavevector = 2, -1")
    text = render_config(parse_config(sinusoid))
    assert text.endswith("[datum]\nkind = sinusoid\nwavevector = 2, -1\n")
    assert "[map]" not in text  # an absent section echoes no block
    text = render_config(parse_config(MINIMAL_MIXING))
    assert text.endswith("[datum]\nkind = checkerboard\nlevel = 2\n")
    assert parse_config(text).datum == make_initial("checkerboard", level=2)
    for datum in ("sinusoid\nwavevector = 2, -1\nlevel = 5", "checkerboard\nwavevector = 3, 4"):
        with pytest.raises(ConfigError, match="reads no"):
            parse_config(MINIMAL_MIXING.replace("checkerboard", datum))


# --- CLI ---------------------------------------------------------------------


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RUELLE_SMALL = """
experiment = ruelle
seed = 12
n = 8
level = 4
samples = 200000
lyapunov_samples = 30
lyapunov_n = 10
output_dir = {out}

[map]
kind = baker
"""


def test_cli_run_ruelle_writes_report(tmp_path, capsys):
    out = tmp_path / "results"
    path = _write(tmp_path, "ruelle.cfg", RUELLE_SMALL.format(out=out))
    code = main(["run", path])
    assert code == 0
    report = json.loads((out / "ruelle_report.json").read_text())
    assert report["pass"] is True
    assert (out / "resolved_config.cfg").exists()
    stdout = capsys.readouterr().out
    assert "ruelle:" in stdout
    assert "samples = 200000" in stdout


def test_cli_missing_config_exits_2(capsys):
    assert main(["run", "does/not/exist.cfg"]) == 2
    assert "does/not/exist.cfg" in capsys.readouterr().err


def _assert_one_line_file_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


@pytest.mark.parametrize(
    "overrides",
    [
        ["field.amplitude=-1"],
        ["field.wavenumber=0"],
        ["field.phases=1.0"],
        ["field.phases=0.1, 0.2, 0.3"],
        ["field.kind=bogus"],
        ["field.kind=steady_shear", "field.phases=0.1, 0.5"],
        ["field.kind=zero", "field.phases=0.1"],
        ["datum.level=13"],
        ["datum.level=0"],
        ["datum.kind=blob"],
        ["datum.kind=sinusoid", "datum.wavevector=0, 0"],
        ["datum.kind=sinusoid", "datum.wavevector=1"],
        ["datum.kind=sinusoid", "datum.wavevector=1, 2, 3"],
        ["datum.wavevector=1, 0"],
        ["datum.kind=stripe", "datum.wavevector=0, 1"],
        ["datum.kind=sinusoid", "datum.level=3"],
        ["experiment=ruelle", "map.kind=cat", "datum.kind=", "datum.level=3"],
    ],
    ids=lambda overrides: " ".join(overrides),
)
def test_cli_bad_field_or_datum_exits_2_before_echo(tmp_path, capsys, overrides):
    path = _write(tmp_path, "m.cfg", MINIMAL_MIXING)
    argv = ["run", path, "--set", f"output_dir={tmp_path / 'o'}"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("override", ["map.kind=bogus", "field.kind=bogus"])
def test_cli_ruelle_bad_kind_exits_2_before_echo(tmp_path, capsys, override):
    # a [field] the ruelle run never reads is still checked against the catalog
    path = os.path.join(CONFIG_DIR, "ruelle_cat.cfg")
    assert main(["run", path, "--set", f"output_dir={tmp_path / 'o'}", "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith(f"config error: unknown {override.split('.')[0]} kind 'bogus'; valid kinds: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override", ["field.amplitude=-1", "field.amplitude=2.0"])
def test_cli_section_key_without_a_kind_exits_2(tmp_path, capsys, override):
    # ruelle_cat has no [field] block, so a field key there is a mistake, not an older echo's default
    path = os.path.join(CONFIG_DIR, "ruelle_cat.cfg")
    assert main(["run", path, "--set", f"output_dir={tmp_path / 'o'}", "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: field.amplitude is given without field.kind\n"
    assert not (tmp_path / "o").exists()


def test_cli_undersampled_entropy_exits_2(tmp_path, capsys):
    path = os.path.join(CONFIG_DIR, "ruelle_cat.cfg")
    argv = ["run", path, "--set", f"output_dir={tmp_path / 'o'}", "--set", "samples=2000", "--set", "level=5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: undersampled")
    assert not (tmp_path / "o").exists()


def test_section_types_reject_a_kind_outside_their_catalog():
    for kind in ("", "bogus"):
        with pytest.raises(ConfigError, match=rf"^unknown field kind '{kind}'; valid kinds: zero, "):
            VelocityFieldSpec(kind=kind)
        with pytest.raises(ConfigError, match=rf"^unknown map kind '{kind}'; valid kinds: cat, "):
            MapBlock(kind=kind)


@pytest.mark.parametrize(
    "override",
    [
        "seed=-1",
        "n=0",
        "level=13",
        "samples=0",
        "probes_per_cell=15",
        "horizon=0",
        "resolution=8",
        "kappa=1.0",
        "burn_in_fraction=0.95",
        "experiment=blob",
    ],
)
def test_cli_bad_root_key_exits_2_before_echo(tmp_path, capsys, override):
    path = _write(tmp_path, "m.cfg", MINIMAL_MIXING)
    assert main(["run", path, "--set", f"output_dir={tmp_path / 'o'}", "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("config error: " + override.split("=")[0])
    assert not (tmp_path / "o").exists()


def test_config_built_in_python_checks_itself():
    mixing = dict(
        experiment="mixing",
        seed=1,
        field=VelocityFieldSpec(kind="alternating_shear"),
        datum=make_initial("checkerboard"),
    )
    assert Config(**mixing).kappa == pytest.approx(1.0 / 3.0)
    for key, value in (("kappa", 5.0), ("seed", -1), ("resolution", 8), ("burn_in_fraction", 0.95)):
        with pytest.raises(ConfigError, match=f"^{key} must"):
            Config(**{**mixing, key: value})
    with pytest.raises(ConfigError, match=r"^experiment mixing requires datum.kind$"):
        Config(**{**mixing, "datum": None})
    with pytest.raises(ConfigError, match=r"^experiment ruelle requires map.kind$"):
        Config(experiment="ruelle", seed=1)
    with pytest.raises(ConfigError, match=r"time_one_flow requires a \[field\] block"):
        Config(experiment="lyapunov", seed=1, map=MapBlock(kind="time_one_flow"))
    with pytest.raises(ConfigError, match="experiment must be one of"):
        Config(experiment="blob", seed=1)


_MIXING_WITHOUT_DATUM = dict(experiment="mixing", seed=1, field=VelocityFieldSpec(kind="alternating_shear"))


@pytest.mark.parametrize(
    "kind, parameters, shown",
    [
        ("bogus", {"level": 2}, "unknown datum kind 'bogus'; valid kinds: sinusoid, checkerboard, stripe"),
        ("checkerboard", {"level": -3}, "checkerboard level must lie in [1, 12], got -3"),
        ("stripe", {"level": 13}, "stripe level must lie in [0, 12], got 13"),
        ("checkerboard", {"level": 2.0}, "checkerboard level must be an integer, got 2.0"),
        ("sinusoid", {"wavevector": (0, 0)}, "sinusoid wavevector must be nonzero (zero mode is not mean-free)"),
        ("sinusoid", {"wavevector": 5}, "sinusoid wavevector must be a tuple, got 5"),
        ("sinusoid", {"wavevector": "ab"}, "sinusoid wavevector must be a tuple, got 'ab'"),
        ("sinusoid", {"wavevector": [1, 0]}, "sinusoid wavevector must be a tuple, got [1, 0]"),
        ("checkerboard", {"wavevector": (1, 0)}, "datum kind checkerboard reads no wavevector, only level"),
        ("sinusoid", {"level": 0}, "datum kind sinusoid reads no level, only wavevector"),
    ],
)
def test_datum_built_in_python_checks_itself(kind, parameters, shown):
    with pytest.raises(ConfigError, match=f"^{re.escape(shown)}$"):
        InitialDatum(kind, **parameters)


def test_datum_norms_are_derived_not_passed():
    assert [f.name for f in dataclasses.fields(InitialDatum) if not f.init] == ["sup_norm", "l2_norm", "bv_seminorm"]
    with pytest.raises(TypeError, match="sup_norm"):
        InitialDatum("checkerboard", level=2, sup_norm=5.0)
    datum = InitialDatum("sinusoid", wavevector=(3, 4))
    assert (datum.sup_norm, datum.l2_norm, datum.bv_seminorm) == (1.0, 1.0 / np.sqrt(2.0), 20.0)
    assert (datum.level, InitialDatum("stripe").wavevector) == (0, (1, 0))  # the unread parameter


_ANY_DATUM = st.builds(
    InitialDatum,
    st.sampled_from(["sinusoid", "checkerboard", "stripe", "bogus"]),
    wavevector=st.one_of(
        st.none(), st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.just(5), st.just("ab"), st.just([1, 0])
    ),
    level=st.one_of(st.none(), st.integers(-3, 13), st.just(2.0), st.just(True)),
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_every_datum_is_rejected_or_round_trips_in_a_config(data):
    try:
        datum = data.draw(_ANY_DATUM)
    except ConfigError:
        return
    config = Config(**_MIXING_WITHOUT_DATUM, datum=datum, resolution=max(16, datum.coarsest_resolution()))
    assert parse_config(render_config(config)) == config


@pytest.mark.parametrize(
    "datum, coarsest",
    [
        (make_initial("checkerboard", level=3), 32),
        (make_initial("checkerboard", level=12), 2**14),
        (make_initial("stripe", level=2), 32),
        (make_initial("sinusoid", wavevector=(-3, 2)), 24),
        (make_initial("sinusoid", wavevector=(16, 0)), 128),
    ],
    ids=lambda value: str(value) if isinstance(value, int) else f"{value.kind}",
)
def test_config_rejects_a_datum_the_grid_cannot_resolve(datum, coarsest):
    # 4 nodes per half period along each axis
    mixing = dict(experiment="mixing", seed=1, field=VelocityFieldSpec(kind="alternating_shear"), datum=datum)
    assert Config(**mixing, resolution=coarsest).resolution == coarsest
    with pytest.raises(ConfigError, match=f"needs resolution >= {coarsest} .*, got {coarsest - 1}$"):
        Config(**mixing, resolution=coarsest - 1)


def test_config_built_in_python_rejects_wrong_types():
    with pytest.raises(ConfigError, match=r"^seed must be an integer, got '1'$"):
        Config(experiment="ruelle", seed="1")
    ruelle = dict(experiment="ruelle", seed=1, map=MapBlock(kind="cat"))
    for key, value in (("kappa", "0.5"), ("experiment", 3), ("output_dir", None), ("level", 4.0)):
        with pytest.raises(ConfigError, match=f"^{key} must be an? "):
            Config(**{**ruelle, key: value})
    # a section given as its kind, or as another section's type, fails before any section is read
    for key, value, owner in (
        ("map", "cat", "MapBlock"),
        ("datum", "checkerboard", "InitialDatum"),
        ("field", MapBlock(kind="cat"), "VelocityFieldSpec"),
    ):
        with pytest.raises(ConfigError, match=rf"^{key} must be {owner} or None, got "):
            Config(**{**ruelle, key: value})


def test_a_bool_is_not_a_number():
    # render_config would echo "seed = True", which parse_config rejects
    ruelle = dict(experiment="ruelle", seed=1, map=MapBlock(kind="cat"))
    for key, value, kind in (
        ("seed", True, "an integer"), ("n", True, "an integer"), ("burn_in_fraction", False, "a number"),
        ("kappa", True, "a number"),
    ):
        with pytest.raises(ConfigError, match=f"^{key} must be {kind}, got {value}$"):
            Config(**{**ruelle, key: value})
    for key, value, shown in (("amplitude", True, True), ("wavenumber", True, True), ("phases", (False,), False)):
        with pytest.raises(ConfigError, match=f"^field {key} must .*, got {shown}$"):
            VelocityFieldSpec(kind="steady_shear", **{key: value})


@pytest.mark.parametrize(
    "key, value, shown",
    [
        ("wavenumber", 2.0, "2.0"),
        ("wavenumber", "2", "'2'"),
        ("phases", [0.1], "[0.1]"),
        ("phases", 0.1, "0.1"),
        ("phases", ("0.1",), "'0.1'"),
        ("amplitude", "1", "'1'"),
    ],
)
def test_field_spec_rejects_a_value_of_the_wrong_type(key, value, shown):
    # each would echo as text that parse_config rejects, or fail later with a bare TypeError
    with pytest.raises(ConfigError, match=rf"^field {key} must .*, got {re.escape(shown)}$"):
        VelocityFieldSpec(kind="alternating_shear", **{key: value})


def test_kappa_range_reads_the_same_from_diagnose_and_run(tmp_path, capsys):
    grid = sample_scalar(
        make_field(VelocityFieldSpec(kind="zero")), make_initial("checkerboard", level=1), 0.0, 32
    )
    stem = str(tmp_path / "grid")
    save_grid(grid, stem)
    path = _write(tmp_path, "r.cfg", RUELLE_SMALL.format(out=tmp_path / "o"))
    for argv in (["diagnose", stem, "--kappa", "1.5"], ["run", path, "--set", "kappa=1.5"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: kappa must lie in (0.0, 1.0), got 1.5\n"


def test_experiments_match_the_harness_runners():
    assert set(EXPERIMENTS) == set(harness._RUNNERS)


def test_datum_is_checked_for_experiments_that_do_not_read_it():
    with pytest.raises(ConfigError, match="blob"):
        parse_config(RUELLE_SMALL.format(out="o") + "\n[datum]\nkind = blob\n")


def test_datum_keys_without_a_kind_are_rejected():
    for block in ("level = 3\nwavevector = 5, 5\n", "kind =\nlevel = 3\n"):
        with pytest.raises(ConfigError, match=r"^datum.level is given without datum.kind$"):
            parse_config(RUELLE_SMALL.format(out="o") + "\n[datum]\n" + block)
    assert parse_config(RUELLE_SMALL.format(out="o") + "\n[datum]\nkind =\n").datum is None


def test_cli_config_directory_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    assert str(tmp_path) in _assert_one_line_file_error(capsys)


def test_cli_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"experiment = ruelle\nseed = \xff\n")
    assert main(["run", str(path)]) == 2
    assert "bad.cfg" in _assert_one_line_file_error(capsys)


def _run_under_the_c_locale(path, *overrides):
    """``ergomix run`` in a child process whose locale encoding is ASCII."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    argv = [sys.executable, "-m", "ergomix.cli", "run", path]
    for item in overrides:
        argv += ["--set", item]
    return subprocess.run(argv, env=env, capture_output=True)


def test_cli_reads_a_utf8_config_under_an_ascii_locale(tmp_path):
    out = tmp_path / "o"
    path = tmp_path / "r.cfg"
    path.write_bytes(("# caf\u00e9\n" + RUELLE_SMALL.format(out=out)).encode("utf-8"))
    result = _run_under_the_c_locale(str(path))
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""
    assert (out / "ruelle_report.json").exists()


@pytest.mark.parametrize("where", ["config", "override"])
def test_cli_non_ascii_output_dir_under_an_ascii_locale_exits_2_in_one_line(tmp_path, where):
    # an override reaches argv as surrogate escapes, the config file as decoded UTF-8
    out = tmp_path / "caf\u00e9"
    overrides = [f"output_dir={out}"] if where == "override" else []
    path = tmp_path / "r.cfg"
    path.write_bytes(RUELLE_SMALL.format(out=tmp_path / "o" if overrides else out).encode("utf-8"))
    result = _run_under_the_c_locale(str(path), *overrides)
    assert result.returncode == 2, result.stderr
    assert b"Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert result.stderr.startswith(b"file error: ")
    assert b"output_dir = " in result.stdout


def test_cli_output_dir_under_a_file_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("ergomix.cli.run_experiment", lambda config: ({"pass": True}, True, None))
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = _write(tmp_path, "r.cfg", RUELLE_SMALL.format(out=tmp_path / "o"))
    assert main(["run", path, "--set", f"output_dir={blocker / 'sub'}"]) == 2
    assert "Not a directory" in _assert_one_line_file_error(capsys)


def test_cli_bad_override_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "r.cfg", RUELLE_SMALL.format(out=tmp_path / "o"))
    assert main(["run", path, "--set", "kappa=1.5"]) == 2
    assert "kappa" in capsys.readouterr().err


def test_cli_override_reflected_in_echo(tmp_path, capsys):
    path = _write(tmp_path, "r.cfg", RUELLE_SMALL.format(out=tmp_path / "o"))
    code = main(["run", path, "--set", "samples=150000"])
    assert code == 0
    assert "samples = 150000" in capsys.readouterr().out


def test_cli_numeric_divergence_exits_3(tmp_path, capsys):
    text = """
experiment = lyapunov
seed = 13
n = 2
samples = 10
output_dir = {out}

[map]
kind = time_one_flow

[field]
kind = cellular
amplitude = 1000000000.0
""".format(out=tmp_path / "o")
    path = _write(tmp_path, "diverge.cfg", text)
    assert main(["run", path]) == 3
    assert "numeric" in capsys.readouterr().err


def test_cli_gate_failure_exits_1(tmp_path, monkeypatch):
    def failing_run(config):
        payload = {
            "pass": False,
            "entropy_estimate": 1.0,
            "sum_positive_exponents": 0.5,
        }
        return payload, False, None

    monkeypatch.setattr("ergomix.cli.run_experiment", failing_run)
    path = _write(tmp_path, "r.cfg", RUELLE_SMALL.format(out=tmp_path / "o"))
    assert main(["run", path]) == 1
    assert (tmp_path / "o" / "ruelle_report.json").exists()


def test_cli_short_fit_window_exits_2_without_traceback(tmp_path, capsys):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "mixing_alternating.cfg")
    overrides = ["horizon=3", "resolution=32", f"output_dir={tmp_path / 'o'}"]
    argv = ["run", config]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "need at least 4 points" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_cli_unresolved_datum_exits_2_with_no_warning(tmp_path):
    # data finer than the grid alias: once they ran to an H^-1 of exactly 0, an inf ratio and
    # a numpy RuntimeWarning; under -W error a warning would be a traceback here
    shipped = os.path.join(CONFIG_DIR, "mixing_alternating.cfg")
    with open(shipped) as handle:
        text = handle.read().replace("kind = checkerboard\nlevel = 2", "kind = sinusoid\nwavevector = 16, 0")
    sinusoid = _write(tmp_path, "s.cfg", text)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    for path, overrides in (
        (shipped, ["datum.level=6"]),
        (shipped, ["datum.kind=stripe", "datum.level=12"]),
        (sinusoid, []),
    ):
        out = tmp_path / "o"
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "ergomix.cli", "run", path]
        for item in overrides + ["resolution=32", "horizon=5", f"output_dir={out}"]:
            argv += ["--set", item]
        result = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert result.returncode == 2, result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert result.stderr.startswith("config error: datum ") and "needs resolution >=" in result.stderr
        assert not out.exists()


def test_cli_non_finite_report_value_exits_3_naming_the_key(tmp_path, monkeypatch, capsys):
    def infinite_run(config):
        payload = {"pass": True, "entropy_estimate": 1.0, "sum_positive_exponents": 1.0, "ratios": [0.5, math.inf]}
        return payload, True, None

    monkeypatch.setattr("ergomix.cli.run_experiment", infinite_run)
    path = _write(tmp_path, "r.cfg", RUELLE_SMALL.format(out=tmp_path / "o"))
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.strip() == "numeric failure: report key ratios[1] is not a finite number, which JSON cannot hold"
    assert not (tmp_path / "o" / "ruelle_report.json").exists()


def test_cli_other_package_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken_run(config):
        raise ErgomixError("all samples hit the singular set")

    monkeypatch.setattr("ergomix.cli.run_experiment", broken_run)
    path = _write(tmp_path, "r.cfg", RUELLE_SMALL.format(out=tmp_path / "o"))
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.strip() == "numeric failure: all samples hit the singular set"
    assert not (tmp_path / "o" / "ruelle_report.json").exists()


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "alternating_shear" in out
    assert "baker" in out
    assert "checkerboard" in out


def test_cli_diagnose_roundtrip(tmp_path, capsys):
    grid = sample_scalar(
        make_field(VelocityFieldSpec(kind="zero")), make_initial("checkerboard", level=1), 0.0, 64
    )
    stem = str(tmp_path / "grid")
    save_grid(grid, stem)
    assert main(["diagnose", stem]) == 0
    out = capsys.readouterr().out
    assert "h_minus_one" in out
    assert main(["diagnose", str(tmp_path / "missing")]) == 2


def test_cli_diagnose_bad_grid_exits_2_without_traceback(tmp_path, capsys):
    grid = sample_scalar(
        make_field(VelocityFieldSpec(kind="zero")), make_initial("checkerboard", level=1), 0.0, 32
    )
    stem = str(tmp_path / "grid")
    save_grid(grid, stem)
    with open(stem + ".bin", "r+b") as handle:
        handle.truncate(100)
    assert main(["diagnose", stem]) == 2
    with open(stem + ".json", "w") as handle:
        handle.write('{"resolution": 32')
    assert main(["diagnose", stem]) == 2
    # a boolean resolution with a one-value file used to reach reshape
    with open(stem + ".bin", "wb") as handle:
        handle.write(bytes(8))
    with open(stem + ".json", "w") as handle:
        handle.write('{"resolution": true, "values_file": "grid.bin", "time": 0.0}')
    assert main(["diagnose", stem]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 3
    assert all(line.startswith("config error: ") for line in err)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cli_diagnose_non_finite_grid_exits_2(tmp_path, capsys, bad):
    values = np.zeros((16, 16))
    values[3, 5] = bad
    stem = str(tmp_path / "grid")
    save_grid(GridField(16, values, 0.0, {}), stem)
    assert main(["diagnose", stem]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: grid values {stem}.bin are not all finite\n"


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".cfg")))
def test_shipped_config_parses_and_round_trips(name):
    with open(os.path.join(CONFIG_DIR, name)) as handle:
        config = parse_config(handle.read())
    assert parse_config(render_config(config)) == config


# the blocks an echo carried for an absent section before absent sections became None
_EMPTY_BLOCKS = {
    "field": "[field]\nkind = \namplitude = 1.0\nphases = \nwavenumber = 1",
    "datum": "[datum]\nkind = ",
    "map": "[map]\nkind = ",
}


def _echo_with_empty_blocks(text):
    """The echo in its older form: every section, an absent one as an empty-kind block."""
    root, *blocks = text.rstrip("\n").split("\n\n")
    present = {block[1 : block.index("]")]: block for block in blocks}
    return "\n\n".join([root] + [present.get(name, empty) for name, empty in _EMPTY_BLOCKS.items()]) + "\n"


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".cfg")))
def test_echo_in_the_older_form_with_empty_blocks_parses_to_the_same_config(name):
    with open(os.path.join(CONFIG_DIR, name)) as handle:
        config = parse_config(handle.read())
    text = render_config(config)
    assert [line for line in text.splitlines() if line.startswith("[")] == [
        f"[{section}]" for section in _EMPTY_BLOCKS if getattr(config, section) is not None
    ]
    older = _echo_with_empty_blocks(text)
    assert older.count("kind = \n") == sum(getattr(config, section) is None for section in _EMPTY_BLOCKS)
    assert parse_config(older) == config


_SMALL_RUN = [
    "resolution=64", "horizon=6", "samples=50000", "n=6", "level=2", "lyapunov_samples=40", "lyapunov_n=20",
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_cli_path_runs_without_a_numpy_warning(tmp_path, capsys):
    # a RuntimeWarning raised as an error here would escape main as a traceback
    for name in sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".cfg")):
        argv = ["run", os.path.join(CONFIG_DIR, name), "--set", f"output_dir={tmp_path / name}"]
        for item in _SMALL_RUN:
            argv += ["--set", item]
        assert main(argv) in (0, 1), name  # ruelle_cat fails its gate at these sizes
        assert "Traceback" not in capsys.readouterr().err
    # level 3 at depth 11 is 66 bits, so the baker's codes span two segments, as no shipped config's do
    argv = ["run", os.path.join(CONFIG_DIR, "ruelle_baker.cfg"), "--set", f"output_dir={tmp_path / 'segments'}"]
    for item in ("level=3", "n=11", "samples=120000", "lyapunov_samples=40", "lyapunov_n=20"):
        argv += ["--set", item]
    assert main(argv) == 0
    # level 7 has 16,384 cells, so nu_log_bound's log table is read in two pieces
    argv = ["run", os.path.join(CONFIG_DIR, "ruelle_cat.cfg"), "--set", f"output_dir={tmp_path / 'cells'}"]
    for item in ("level=7", "n=1", "samples=50000", "lyapunov_samples=40", "lyapunov_n=20"):
        argv += ["--set", item]
    assert main(argv) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    grid = sample_scalar(
        make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=0.95)), make_initial("checkerboard"), 3.0, 64
    )
    stem = str(tmp_path / "grid")
    save_grid(grid, stem)
    assert main(["diagnose", stem]) == 0
    assert main(["catalog"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, ergomix.cli; print('scipy.stats' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
