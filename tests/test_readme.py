"""The README's library example, its AR delta sweep and its command lines check out."""

import csv
import re
import shlex
from pathlib import Path

from opcausal.cli import DEFAULTS, build_parser, main
from opcausal.errors import SETTINGS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("Metrics(")


def test_ar_delta_sweep_line_runs(tmp_path, exp_probe):
    # the documented T=1e4, R=10 sweep, shortened to T=2000, R=2; these F1
    # means were recorded with every delta cell reading the same realizations
    (line,) = re.findall(r"`(opcausal sweep --system ar --delta [^`]*)`", README.read_text())
    argv = shlex.split(line)[1:]
    for flag, value in (("--T", "2000"), ("--R", "2"), ("--out", str(tmp_path / "ar_delta"))):
        argv[argv.index(flag) + 1] = value
    assert main(argv) == 0
    with open(tmp_path / "ar_delta.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["delta"] for row in rows] == ["0.02", "0.05", "0.1", "0.15", "0.2", "0.3"]
    f1 = [f"{float(row['f1_mean']):.3f}" for row in rows]
    assert f1 == ["0.052", "0.053", "0.615", "0.900", "0.947", "0.871"], exp_probe


def test_command_lines_parse():
    # every opcausal line of a shell block, and every inline opcausal command
    # with flags; parsed, not run
    text = README.read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("opcausal ")]
    lines += re.findall(r"`(opcausal [a-z]+ --[^`]*)`", text)
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == {"simulate", "infer", "sweep", "windowed"}


def test_config_keys_match_the_defaults():
    pattern = r"A `--config` file may hold only the keys (.*?);"
    (keys,) = re.findall(pattern, README.read_text(), flags=re.S)
    assert re.findall(r"`([^`]+)`", keys) == list(DEFAULTS)


def test_settings_list_matches_the_table():
    # one bullet per SETTINGS row, in its order, stating the row's message
    # up to the value it reports
    (block,) = re.findall(r"in the words of their errors:\n\n((?:- .*\n)+)", README.read_text())
    rules = re.findall(r"^- `(\w+)` \(.*?\): (.*)$", block, flags=re.M)
    table = [(name, message.partition(", got")[0]) for name, (_, message) in SETTINGS.items()]
    assert rules == table
