import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def test_correlate_konstanz_on_tiny_inputs(tmp_path, monkeypatch, capsys):
    # pv uses half of each day's TMAX; the heat pump has a single daily
    # value; the freezer column is not requested and gets dropped.
    household = tmp_path / "household.csv"
    household.write_text(
        "utc_timestamp,DE_KN_industrial1_pv_1,DE_KN_residential1_freezer,DE_KN_residential1_heat_pump\n"
        "2016-05-01T23:00:00Z,100.0,5.0,\n"
        "2016-05-02T23:00:00Z,111.15,5.5,\n"
        "2016-05-03T23:00:00Z,123.65,6.0,40.0\n"
        "2016-05-04T23:00:00Z,132.7,6.5,47.5\n"
    )
    ghcnd = tmp_path / "ghcnd.csv"
    ghcnd.write_text(
        "station,date,datatype,value\n"
        "GHCND:GME00102404,2016-05-02,TMAX,22.3\n"
        "GHCND:GME00102404,2016-05-03,TMAX,25.0\n"
        "GHCND:GME00102404,2016-05-04,TMAX,18.1\n"
        "GHCND:GME00102404,2016-05-04,PRCP,7.1\n"
    )
    argv = [
        "correlate_konstanz.py",
        "--household-csv", str(household),
        "--ghcnd-csv", str(ghcnd),
        "--devices", "DE_KN_industrial1_pv_1", "DE_KN_residential1_heat_pump",
    ]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / "correlate_konstanz.py"), run_name="__main__")
    assert capsys.readouterr().out == (
        "device\tTMAX_pcc\tdays\n"
        "DE_KN_industrial1_pv_1\t1.00\t3\n"
        "DE_KN_residential1_heat_pump\tn/a\t1\n"
    )


def test_src_lines_counts_code_without_docstrings_comments_or_blank_lines(tmp_path, capsys):
    module = tmp_path / "module.py"
    module.write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# A comment.\n"
        "import os  # code with a comment\n"
        "\n"
        "\n"
        "class Thing:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def method(self):\n"
        "        '''Method\n"
        "        docstring.'''\n"
        "        text = '''a string\n"
        "        that is not a docstring'''\n"
        "        return (text,\n"
        "                os.sep)\n"
    )
    (tmp_path / "notes.txt").write_text("not a module\n")
    runpy.run_path(str(SCRIPTS / "src_lines.py"), run_name="not_main")["main"]([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    # import, class, def, the string's two lines and the return's two lines.
    assert lines[1].split()[:2] == ["17", "7"]
    assert lines[1].endswith("module.py")
    assert lines[-1].split() == ["17", "7", "total"]
    assert len(lines) == 3
