"""The scripts under scripts/ run end to end: ``reproduce_table.py`` as a
subprocess, ``run_dk6.py`` in-process on the recorded k = 6 counts."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_table_k3():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_table.py"), "--k-max", "3", "--threads", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    status_lines = [line for line in proc.stdout.splitlines() if line.startswith("k=")]
    assert len(status_lines) == 3
    assert all(line.endswith("[ok]") for line in status_lines)


def test_run_dk6_record_from_recorded_counts(tmp_path, monkeypatch, capsys):
    recorded = json.loads((ROOT / "dk6_result.json").read_text())
    run_dk6 = _load_script("run_dk6")

    def recorded_count(curve, m, threads=None):
        return recorded["counts"][m - 1]

    monkeypatch.setattr(run_dk6, "count_points", recorded_count)
    out = tmp_path / "dk6.json"
    assert run_dk6.main(["--out", str(out)]) == 0
    assert json.loads(out.read_text()) == recorded
    assert "B = 8t^2 - 4t + 1" in capsys.readouterr().out
