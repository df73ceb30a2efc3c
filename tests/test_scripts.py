"""The command-line scripts under scripts/, called through their main(argv)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--count", "-1"], ["--width", "40"]],
                         ids=["negative-seed", "negative-count", "too-narrow"])
def test_make_scenes_bad_input_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "scenes"
    assert load("make_scenes").main(["--out", str(out), *argv]) == 3
    assert_one_error_line(capsys)
    assert not out.exists()


def test_make_scenes_writes_scenes(tmp_path):
    assert load("make_scenes").main(["--out", str(tmp_path), "--count", "2", "--seed", "7"]) == 0
    assert len(list(tmp_path.glob("scene_*.json"))) == 4  # scenes and junction files
    assert len(list(tmp_path.glob("scene_*.wfhm"))) == 2


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--count", "-1"], ["--width", "40"],
                                  ["--omega", "nan"]],
                         ids=["negative-seed", "negative-count", "too-narrow", "nan-omega"])
def test_roundtrip_bad_input_exits_3(capsys, argv):
    assert load("roundtrip_experiment").main(argv) == 3
    assert_one_error_line(capsys)


def test_roundtrip_runs(capsys):
    assert load("roundtrip_experiment").main(["--count", "1", "--seed", "7"]) == 0
    assert "line px:" in capsys.readouterr().out


def test_bench_record_needs_a_checkout(tmp_path, capsys):
    assert load("bench_record").main(["--pr", "0", "--label", "x", "--tree", str(tmp_path)]) == 3
    assert "wfbench/run.py" in capsys.readouterr().err
