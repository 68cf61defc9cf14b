"""Run one explainrank CLI command with a span around each layer call.

Usage: python3 trace_cli.py SPANS_JSON PEAK_FILE COMMAND [ARGS...]

Every function of an ``explainrank.*`` module that ``explainrank.cli``
reaches from its own namespace, directly or through a module attribute
(``scorer.load_scores``), is wrapped before ``cli.main`` runs, so each call
the command makes into a layer becomes one span named
``<module>.<function>`` under the root span ``cmd.<COMMAND>``. Calls inside
the layers are not wrapped. Spans stay in memory and are written to
SPANS_JSON as one JSON list when the command returns; ``start`` and ``end``
are ``time.perf_counter()`` readings and ``parent`` is the index of the
enclosing span. PEAK_FILE gets the peak RSS at exit, as with entry.py.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import types

from entry import record_peak_rss
from explainrank import cli
from run import Recorder

_recorder = Recorder()


def _tags(args, kwargs) -> dict:
    """Scalar fields of dataclass arguments, e.g. a PrepConfig's task."""
    tags = {}
    for value in (*args, *kwargs.values()):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            for field in dataclasses.fields(value):
                item = getattr(value, field.name)
                if isinstance(item, (str, int, float, bool)):
                    tags[field.name] = item
    return tags


def _wrap(fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with _recorder.span(name, **_tags(args, kwargs)):
            return fn(*args, **kwargs)

    return traced


def _layer_function(value) -> bool:
    return inspect.isfunction(value) and value.__module__.startswith("explainrank.")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class _TracedModule(types.ModuleType):
    """Module stand-in whose layer functions come back wrapped."""

    def __init__(self, module: types.ModuleType):
        super().__init__(module.__name__)
        self._module = module

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if _layer_function(value) and value.__module__ == self._module.__name__:
            return _wrap(value, _span_name(value))
        return value


def install() -> None:
    namespace = vars(cli)
    for key, value in list(namespace.items()):
        if isinstance(value, types.ModuleType) and value.__name__.startswith("explainrank."):
            namespace[key] = _TracedModule(value)
        elif _layer_function(value) and value.__module__ != cli.__name__:
            namespace[key] = _wrap(value, _span_name(value))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[3:]
    record_peak_rss(sys.argv[2])
    install()
    try:
        with _recorder.span(f"cmd.{argv[0]}"):
            return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(_recorder.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main())
