"""What the CLI writes to stdout and stderr when it writes no file: a solve
without ``--out`` and the help texts."""

import json
import math

import pytest

from platelab.cli import _COMMANDS, main


@pytest.mark.parametrize("flags", [["--grid", "33"], ["--radial", "--nr", "64"]],
                         ids=["2d", "radial"])
def test_solve_without_out_prints_one_report_on_stdout(tmp_path, capsys, flags):
    # the report goes to stdout and nothing else does: no progress or
    # warning ever shares the stream with the JSON
    argv = ["solve", "--domain", "disk", "--h", "1", "--H", "2",
            "--mass", repr(1.5 * math.pi), *flags]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    printed = json.loads(out)  # the whole stream is one JSON document
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr() == ("", "")
    written = json.loads((tmp_path / "report.json").read_text())
    assert printed.pop("timestamp") and written.pop("timestamp")
    assert printed == written


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in _COMMANDS)],
                         ids=["plate-lab", *_COMMANDS])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: plate-lab") and err == ""
