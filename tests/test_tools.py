import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "tools", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_preset_digests_expect_reports_each_mismatch(tmp_path, capsys):
    tool = _load("preset_digests")
    assert tool.main(["bernis_n1"]) == 0
    saved = capsys.readouterr().out
    lines = saved.splitlines()
    assert len(lines) >= 2 and all(len(line.split("  ")[0]) == 64 for line in lines)
    expect = tmp_path / "digests.txt"
    expect.write_text(saved)
    assert tool.main(["bernis_n1", "--expect", str(expect)]) == 0
    assert "MISMATCH" not in capsys.readouterr().out

    # only the named presets' files are compared: the list's line for
    # another preset is neither run nor reported
    digest, path = lines[0].split("  ")
    tampered = (["0" * 64 + "  " + path] + lines[1:]
                + ["0" * 64 + "  bernis_n1/gone.csv", "0" * 64 + "  heat_sanity/meters.csv"])
    expect.write_text("\n".join(tampered) + "\n")
    assert tool.main(["bernis_n1", "--expect", str(expect)]) == 1
    report = capsys.readouterr().out.splitlines()
    assert report[:2] == [  # sorted by path
        "MISMATCH bernis_n1/gone.csv: expected %s, got no file" % ("0" * 64),
        "MISMATCH %s: expected %s, got %s" % (path, "0" * 64, digest),
    ]
    assert report[2].startswith("2 of %d files differ" % (len(lines) + 1))
    assert len(report) == 3


def test_preset_digests_lists_a_config_file_under_its_name(tmp_path, capsys):
    # No preset reaches the quadrature-backed primitives; a config file
    # does, and runs as `entroflow run` runs it: a config without a name
    # is named after its file.
    tool = _load("preset_digests")
    cfg = {"kind": "diffusion", "model": {"family": "shifted_power_law", "m": 2.0},
           "grid": {"dim": 1, "cells": 16},
           "run": {"t_end": 0.001, "record_every": 5}}
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(cfg))
    assert tool.main([str(path)]) == 0
    saved = capsys.readouterr().out
    assert [line.split("  ")[1] for line in saved.splitlines()] == [
        os.path.join("shifted", "meters.csv"), os.path.join("shifted", "summary.json")]
    expect = tmp_path / "digests.txt"
    expect.write_text(saved)
    assert tool.main([str(path), "--expect", str(expect)]) == 0
    assert capsys.readouterr().out == "0 of 2 files differ from %s\n" % expect

    with pytest.raises(SystemExit):
        tool.main([str(tmp_path / "missing.json")])
    assert "missing.json" in capsys.readouterr().err


def test_presets_but_the_long_ks_run_write_their_listed_bytes(capsys):
    # Byte-identical outputs of every preset but ks_critical_21, which
    # takes about 16 s and stays a manual check.
    tool = _load("preset_digests")
    from entroflow.presets import PRESETS

    names = sorted(set(PRESETS) - {"ks_critical_21"})
    assert len(names) == 7
    expect = os.path.join(ROOT, "tools", "preset_digests.sha256")
    assert tool.main(names + ["--expect", expect]) == 0
    assert capsys.readouterr().out == "0 of 14 files differ from %s\n" % expect


def test_preset_digests_diff_src_of_a_tree_against_itself_finds_no_change(capsys):
    tool = _load("preset_digests")
    src = os.path.join(ROOT, "src")
    assert tool.main(["heat_sanity", "--diff-src", src]) == 0
    assert capsys.readouterr().out == "0 of 2 files differ from %s\n" % src


def test_preset_digests_changes_are_relative_per_column_and_number(tmp_path):
    tool = _load("preset_digests")
    for side, (b, k, s) in {"old": ("2.0", 2.0, "x"), "new": ("2.000002", 2.0000002, "y")}.items():
        (tmp_path / side / "run").mkdir(parents=True)
        (tmp_path / side / "run" / "m.csv").write_text("t,a,b\n0,1,\n1,%s,\n" % b)
        (tmp_path / side / "run" / "s.json").write_text(
            json.dumps({"k": k, "s": s, "l": [1, 2]}))
        (tmp_path / side / "run" / "same.csv").write_text("t\n0\n")
    assert tool.changes(str(tmp_path / "old"), str(tmp_path / "new")) == [
        (os.path.join("run", "m.csv"), [("a", "1e-06")]),
        (os.path.join("run", "s.json"), [("k", "1e-07"), ("s", "'x' -> 'y'")]),
    ]
