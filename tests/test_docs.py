"""The tables README.md and PAPER.md restate match what they restate: the
configuration table matches ``config.KEYS``, and PAPER.md's package-layout
table is README's, whose rows stay short and name only what exists."""
import importlib
import re
from pathlib import Path

import pytest

from biphoton.cli import build_parser
from biphoton.config import KEYS

ROOT = Path(__file__).resolve().parents[1]


def table(doc: str, header: str) -> list[str]:
    """The rows of the Markdown table in ``doc`` that starts at ``header``,
    the header and its rule left out."""
    lines = (ROOT / doc).read_text().splitlines()
    start = lines.index(header) + 2
    end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
    return lines[start:end]


def test_configuration_table_is_keys():
    rows = [
        [cell.strip() for cell in row.strip("|").split("|")]
        for row in table("README.md", "| key | default | allowed |")
    ]
    names = [f"{section}.{key}" for section, keys in KEYS.items() for key in keys]
    assert [name.strip("`") for name, _, _ in rows] == names
    for (_, shown_default, shown_allowed), name in zip(rows, names):
        section, key = name.split(".")
        default, allowed = KEYS[section][key]
        if isinstance(default, str):
            assert shown_default == f'`"{default}"`', name
            assert shown_allowed == ", ".join(f'`"{c}"`' for c in allowed), name
        else:
            assert float(shown_default) == default, name
            integer = isinstance(default, int)
            assert shown_allowed == (f"integer in {allowed}" if integer else allowed)


LAYOUT_HEADER = "| module | contents |"
LAYOUT = table("README.md", LAYOUT_HEADER)
MAX_ROW_WORDS = 40


def test_package_layout_table_matches_readme():
    assert LAYOUT and table("PAPER.md", LAYOUT_HEADER) == LAYOUT


def layout_row(row: str) -> tuple[str, str]:
    """A package-layout row's module name and its contents cell."""
    module, contents = row.strip("| ").split(" | ", 1)
    return module.strip("`"), contents


def is_config_key(name: str) -> bool:
    """``name`` is a ``section.key`` of ``config.KEYS``."""
    section, _, key = name.partition(".")
    return key in KEYS.get(section, {})


def is_subcommand(name: str) -> bool:
    try:
        return build_parser().parse_args([name]).command == name
    except SystemExit:
        return False


def resolves(module, name: str) -> bool:
    """``name`` or ``Class.attr`` is an attribute of ``module``; a
    dataclass's fields count as its attributes."""
    obj = module
    for part in name.split("."):
        if not (hasattr(obj, part) or part in getattr(obj, "__dataclass_fields__", {})):
            return False
        obj = getattr(obj, part, None)
    return True


@pytest.mark.parametrize("row", LAYOUT, ids=lambda row: layout_row(row)[0])
def test_package_layout_row_is_short(row):
    _, contents = layout_row(row)
    assert len(contents.split()) <= MAX_ROW_WORDS


@pytest.mark.parametrize("row", LAYOUT, ids=lambda row: layout_row(row)[0])
def test_package_layout_row_names_resolve(row):
    # a stale-name guard: every backticked identifier or Class.attr a row
    # names is an attribute of that row's module, a config key or a subcommand
    module_name, contents = layout_row(row)
    module = importlib.import_module(module_name)
    names = [
        name
        for name in re.findall(r"`([^`]+)`", contents)
        if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)?", name)
    ]
    stale = [
        name
        for name in names
        if not (resolves(module, name) or is_config_key(name) or is_subcommand(name))
    ]
    assert not stale, f"{module_name} row names {stale}"
