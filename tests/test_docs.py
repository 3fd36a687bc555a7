"""The tables README.md and PAPER.md restate match what they restate: the
configuration table matches ``config.KEYS``, and PAPER.md's package-layout
table is README's."""
from pathlib import Path

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


def test_package_layout_table_matches_readme():
    header = "| module | contents |"
    rows = table("README.md", header)
    assert rows and table("PAPER.md", header) == rows
