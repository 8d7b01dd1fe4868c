"""Vector programs: the batch tier's codegen.

The two-state emits (:mod:`.twostate`) are Python expression strings over
masked int locals, one evaluation per stimulus vector. A vector program
embeds those strings verbatim in one plain ``for`` loop over the stimulus
set: ``program(columns, n)`` takes ``{var: [int] * n}`` for every binding
and returns ``{var: [int] * n}`` for every result. It computes with
Python's unbounded ints, so it is exact at every width the emitters accept.
"""

from __future__ import annotations

from typing import Callable

#: generated source text → compiled ``_run``; programs are fully determined
#: by their source, so structurally identical designs share code objects
_SOURCE_CACHE: dict[str, Callable] = {}
_SOURCE_CACHE_LIMIT = 1024


def _compile(source: str) -> Callable:
    fn = _SOURCE_CACHE.get(source)
    if fn is None:
        if len(_SOURCE_CACHE) >= _SOURCE_CACHE_LIMIT:
            _SOURCE_CACHE.clear()
        scope: dict = {}
        exec(compile(source, "<vector>", "exec"), scope)
        fn = scope["_run"]
        _SOURCE_CACHE[source] = fn
    return fn


def _source(bindings, assigns, results) -> str:
    lines = ["def _run(_e, _n):"]
    for var, _width in bindings:
        lines.append(f"    _in_{var} = _e[{var!r}]")
    for var, _width in results:
        lines.append(f"    _out_{var} = [0] * _n")
    lines.append("    for _k in range(_n):")
    for var, _width in bindings:
        lines.append(f"        {var} = _in_{var}[_k]")
    result_vars = {var for var, _width in results}
    body_emitted = False
    for var, width, src, src_width in assigns:
        if src_width > width:
            src = f"({src} & {(1 << width) - 1})"
        lines.append(f"        {var} = {src}")
        if var in result_vars:
            lines.append(f"        _out_{var}[_k] = {var}")
        body_emitted = True
    if not body_emitted:
        lines.append("        pass")
    lines.append(
        f"    return {{{', '.join(f'{var!r}: _out_{var}' for var, _w in results)}}}"
    )
    lines.append("")
    return "\n".join(lines)


def build_program(
    bindings: list[tuple[str, int]],
    assigns: list[tuple[str, int, str, int]],
    results: list[tuple[str, int]],
) -> Callable | None:
    """Compile a vector program from scalar emit sources.

    *bindings* are the input columns ``(var, width)``; *assigns* are the
    ordered member lowerings ``(var, target_width, scalar_source,
    emitted_width)``; *results* name the assigned columns to return.
    ``None`` when the generated source fails to compile.
    """
    try:
        return _compile(_source(bindings, assigns, results))
    except Exception:
        return None
