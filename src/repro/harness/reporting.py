"""Result containers and paper-style text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Series:
    """One line of a figure: label + (x, y) points."""

    label: str
    x: list
    y: list

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("series x and y must have equal length")


@dataclass
class ExperimentResult:
    """Everything one experiment produced.

    Attributes
    ----------
    exp_id:
        Paper artifact id, e.g. ``"fig7"`` or ``"table1"``.
    title:
        The figure/table caption (abbreviated).
    series:
        Figure lines (empty for tables).
    rows:
        Table rows as dicts (empty for figures).
    paper:
        The paper's reference values/bands for the headline numbers.
    measured:
        This reproduction's headline numbers, aligned with `paper`.
    notes:
        Free-form remarks (substitutions, scaling).
    """

    exp_id: str
    title: str
    series: list[Series] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    paper: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        out = [f"== {self.exp_id}: {self.title} =="]
        if self.rows:
            out.append(format_table(self.rows))
        for s in self.series:
            pts = "  ".join(f"({xi}, {_fmt(yi)})" for xi, yi in zip(s.x, s.y))
            out.append(f"  {s.label}: {pts}")
        if self.paper:
            out.append("  paper vs measured:")
            for key, ref in self.paper.items():
                got = self.measured.get(key, "—")
                out.append(f"    {key}: paper={_fmt(ref)}  measured={_fmt(got)}")
        if self.notes:
            out.append(f"  notes: {self.notes}")
        return "\n".join(out)


def fmt_value(v) -> str:
    """Compact number/tuple formatting for the result tables."""
    if isinstance(v, float):
        if v == 0 or (1e-3 <= abs(v) < 1e5):
            return f"{v:.4g}"
        return f"{v:.3e}"
    if isinstance(v, tuple):
        return "[" + ", ".join(fmt_value(x) for x in v) + "]"
    return str(v)


_fmt = fmt_value


def format_table(rows: list[dict]) -> str:
    """Plain-text table of dict rows (shared key order from first row)."""
    if not rows:
        return "  (empty)"
    keys = list(rows[0].keys())
    cells = [[_fmt(r.get(k, "")) for k in keys] for r in rows]
    widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
    header = "  " + "  ".join(k.ljust(w) for k, w in zip(keys, widths))
    lines = [header, "  " + "  ".join("-" * w for w in widths)]
    for c in cells:
        lines.append("  " + "  ".join(v.ljust(w) for v, w in zip(c, widths)))
    return "\n".join(lines)
