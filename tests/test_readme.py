"""The README's config sketch, run summary table and library example stay in
step with the code."""

import json
import re
from pathlib import Path

import pytest

from dwelldos import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after `heading`."""
    after = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def _table_fields(obj) -> set[str]:
    """The keys of every field table (a dict of readers) in obj, looking
    through dicts and tuples."""
    if isinstance(obj, tuple):
        return set().union(*map(_table_fields, obj))
    if not isinstance(obj, dict):
        return set()
    own = set(obj) if all(callable(read) for read in obj.values()) else set()
    return own.union(*map(_table_fields, obj.values()))


def test_config_sketch_names_every_field():
    sketch = set(re.findall(r'"(\w+)"\s*:', _block("### Config sketch", "json")))
    tables = [value for name, value in vars(cli).items() if name[1:].isupper()]
    fields = set().union(*map(_table_fields, tables))
    assert "n_layers" in fields and "identity" in fields  # the walk reaches nested tables
    # an old config may carry grid.threshold_margin; the sketch leaves it out
    assert sketch == fields - {"threshold_margin"}


def test_library_example_runs():
    exec(compile(_block("## Library entry points", "python"), "README.md", "exec"), {})


def _summary_table() -> dict:
    """The README's run summary table: key -> (commands, palindromic only)."""
    table = README[README.index("### Run summary"):README.index("### Config sketch")]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, re.M)
    return {key: (set(re.findall(r"scan|verify|resonances", written)), "palindromic" in written)
            for key, written in rows}


@pytest.mark.parametrize("config", ["stack_scan.json", "lattice_verify.json"])
def test_summary_table_names_every_key(config, tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "configs" / config
    palindromic = cli.load_config(path).system.is_palindromic()
    table = _summary_table()
    for command in ("scan", "verify", "resonances"):
        out = [] if command == "verify" else ["--out", str(tmp_path / command)]
        assert cli.main([command, "--config", str(path), *out]) == 0
        # verify's report is its last stdout line; the others write summary.json
        report = capsys.readouterr().out.splitlines()[-1]
        summary = json.loads((tmp_path / command / "summary.json").read_text(encoding="utf-8")
                             if out else report)
        assert set(summary) == {key for key, (commands, only) in table.items()
                                if command in commands and (palindromic or not only)}
