"""Text renderers for Table 1 and Table 2."""

from __future__ import annotations

from repro.eda.toolchain import Language
from repro.eval.literature import LITERATURE, headline_improvement
from repro.eval.runner import ConfigResult


def _fmt(value: float | None, *, digits: int = 2) -> str:
    if value is None:
        return "N/A"
    return f"{value:.{digits}f}"


def _pct(result: ConfigResult | None, attr: str) -> str:
    """A pass-rate cell: ``-`` for a missing config, ``N/A`` for one with
    no evaluated record (every task an error record)."""
    if result is None:
        return "-"
    return _fmt(getattr(result, attr) if result.evaluated else None)


def _pair(results: list[ConfigResult], model: str) -> dict[Language, ConfigResult]:
    return {r.language: r for r in results if r.model == model}


def render_table1(results: list[ConfigResult]) -> str:
    """Table 1: pass-rate summary with the Δ_F improvement columns.

    Expects one :class:`ConfigResult` per (model, language); models appear
    in first-seen order, baseline rows first then AIVRIL2 rows, as in the
    paper.
    """
    models: list[str] = []
    for result in results:
        if result.model not in models:
            models.append(result.model)
    header = (
        f"{'Technology':<32} | {'V pass@1_S':>10} {'V pass@1_F':>10} "
        f"{'V dF%':>8} | {'VH pass@1_S':>11} {'VH pass@1_F':>11} {'VH dF%':>8}"
    )
    rule = "-" * len(header)
    lines = [header, rule]

    def row(label, vs, vf, vd, hs, hf, hd):
        lines.append(
            f"{label:<32} | {vs:>10} {vf:>10} {vd:>8} | {hs:>11} {hf:>11} "
            f"{hd:>8}"
        )

    for model in models:
        pair = _pair(results, model)
        verilog = pair.get(Language.VERILOG)
        vhdl = pair.get(Language.VHDL)
        display = (verilog or vhdl).model_display
        row(
            display,
            _pct(verilog, "baseline_syntax_pct"),
            _pct(verilog, "baseline_functional_pct"),
            "-",
            _pct(vhdl, "baseline_syntax_pct"),
            _pct(vhdl, "baseline_functional_pct"),
            "-",
        )
    lines.append(rule)
    verilog_deltas: list[float] = []
    vhdl_deltas: list[float] = []
    vhdl_has_na = False
    for model in models:
        pair = _pair(results, model)
        verilog = pair.get(Language.VERILOG)
        vhdl = pair.get(Language.VHDL)
        display = (verilog or vhdl).model_display
        v_delta = verilog.delta_functional_pct if verilog else None
        h_delta = vhdl.delta_functional_pct if vhdl else None
        if verilog and v_delta is not None:
            verilog_deltas.append(v_delta)
        if vhdl:
            if h_delta is None:
                vhdl_has_na = True
            else:
                vhdl_deltas.append(h_delta)
        row(
            f"AIVRIL2 ({display})",
            _pct(verilog, "aivril_syntax_pct"),
            _pct(verilog, "aivril_functional_pct"),
            _fmt(v_delta) if verilog else "-",
            _pct(vhdl, "aivril_syntax_pct"),
            _pct(vhdl, "aivril_functional_pct"),
            _fmt(h_delta) if vhdl else "-",
        )
    lines.append(rule)
    verilog_avg = (
        _fmt(sum(verilog_deltas) / len(verilog_deltas))
        if verilog_deltas
        else "-"
    )
    if vhdl_deltas:
        vhdl_avg = _fmt(sum(vhdl_deltas) / len(vhdl_deltas))
        if vhdl_has_na:
            vhdl_avg = ">> " + vhdl_avg  # the paper's '≫' for the N/A case
    else:
        vhdl_avg = "-"
    row("Average dF", "", "", verilog_avg, "", "", vhdl_avg)
    return "\n".join(lines)


def render_table2(results: list[ConfigResult]) -> str:
    """Table 2: comparison with published techniques (Verilog only)."""
    verilog = {
        r.model: r for r in results if r.language is Language.VERILOG
    }
    header = f"{'Technology':<34} {'Model License':<15} {'pass@1_F (%)':>12}"
    rule = "-" * len(header)
    lines = [header, rule]
    for entry in LITERATURE:
        value = entry.pass1_functional_pct
        note = ""
        if entry.measured_model and entry.measured_model in verilog:
            measured = _pct(
                verilog[entry.measured_model], "baseline_functional_pct"
            )
            note = f"  (measured: {measured})"
        lines.append(
            f"{entry.technology:<34} {entry.license:<15} {value:>12.2f}{note}"
        )
    lines.append(rule)
    best = 0.0
    for model, result in verilog.items():
        best = max(best, result.aivril_functional_pct)
        license_label = "Open Source" if model == "llama3-70b" else "Closed Source"
        lines.append(
            f"{'AIVRIL2 (' + result.model_display + ')':<34} "
            f"{license_label:<15} "
            f"{_pct(result, 'aivril_functional_pct'):>12}"
        )
    if best:
        lines.append(rule)
        lines.append(
            f"Best AIVRIL2 vs ChipNemo-13B: {headline_improvement(best):.1f}x "
            "(paper: 3.4x)"
        )
    return "\n".join(lines)
