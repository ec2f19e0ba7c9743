"""Plain-text table rendering for benchmark output.

Every benchmark prints an aligned table mirroring one of the paper's
tables, with a paper-reference column next to each measured column, and
appends the rendered table to ``benchmarks/results/``, so every
paper-vs-measured comparison comes from a real run.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.envvars import read_env_str

__all__ = ["render_table", "emit", "results_dir", "fmt_ms", "fmt_bytes", "fmt_count"]

Cell = Union[str, int, float, None]


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
) -> str:
    """Render an aligned monospace table with a title rule."""
    cells = [[_to_str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * max(len(title), sum(widths) + 2 * (len(widths) - 1))]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def results_dir() -> Path:
    """Where rendered benchmark tables are saved (created on demand)."""
    override = read_env_str("REPRO_RESULTS_DIR")
    if override:
        path = Path(override)
    else:
        path = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(name: str, table: str) -> None:
    """Print a table and persist it under ``benchmarks/results/<name>.txt``."""
    print("\n" + table + "\n")
    (results_dir() / f"{name}.txt").write_text(table + "\n", encoding="utf-8")


def fmt_ms(value: Optional[float]) -> str:
    """Milliseconds with adaptive precision (paper style)."""
    if value is None:
        return "-"
    if value < 0.01:
        return f"{value:.4f}"
    return f"{value:.2f}"


def fmt_bytes(num: Optional[float]) -> str:
    if num is None:
        return "-"
    for unit in ("B", "KB", "MB", "GB"):
        if abs(num) < 1024.0 or unit == "GB":
            return f"{int(num)} {unit}" if unit == "B" else f"{num:.1f} {unit}"
        num /= 1024.0
    raise AssertionError("unreachable")


def fmt_count(value: Optional[Union[int, float]]) -> str:
    if value is None:
        return "-"
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 10_000:
        return f"{value / 1_000:.0f}K"
    return str(value)


def _to_str(cell: Cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
