import importlib.util
import subprocess
import sys

from conftest import REPO

SCRIPT = REPO / "scripts" / "run_offline_analysis.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_offline_analysis", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def conflict(severity):
    return {"class": "Invalidity-candidate", "entity": {"kind": "qid", "value": "Q43512"},
            "attribute": "height", "severity": severity,
            "values": {"en": {"kind": "number", "original": "0"}, "de": {"missing": True},
                       "it": {"kind": "number", "original": "5"}}}


def test_record_line_prints_na_for_a_null_severity():
    line = load_script().record_line("fam", conflict(None))
    assert line == ("  Invalidity-candidate: fam / Q43512 / height -> "
                    "{'en': '0', 'it': '5'} (severity n/a)")


def test_record_line_keeps_four_significant_digits():
    assert load_script().record_line("fam", conflict(0.113636)).endswith("(severity 0.1136)")


def test_offline_analysis_script_runs(tmp_path):
    result = subprocess.run([sys.executable, str(SCRIPT)], cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "== geography ==" in result.stdout and "== climbers ==" in result.stdout
    for name in ("geography", "climbers"):
        assert (tmp_path / "tablediff-out" / name / "report.json").is_file()
