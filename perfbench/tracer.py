"""Run one `superfrob` CLI command with spans around the public layer functions.

Usage: python3 tracer.py SPANS_JSON ARGV...

Every function named in layers.json is wrapped, and the wrapper is bound
under every name that refers to it in any loaded `superfrob` module: a
from-import binds the function at import time, so patching only the defining
module would miss calls such as `characters.solve_linear_exact`.  Spans stay
in memory with their parent ids and are written to SPANS_JSON at exit.  The
command's own stdout and exit code pass through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from pathlib import Path

LAYERS = Path(__file__).resolve().parent / "layers.json"


def _terms(args, result):
    return {"terms": len(result.terms)}


# Sizes recorded per call, as in the layer table: they need the arguments or
# the result, so each traced function that reports one has its own reader.
SIZES = {
    "exact.solve_linear_exact": lambda args, result: {
        "rows": len(args[0]),
        "cols": len(args[0][0]) if args[0] else 0,
    },
    "symfunc.q_bmu": _terms,
    "symfunc.super_schur": _terms,
    "symfunc.colored_power_sum_product": _terms,
    "symfunc.coordinates_on_degree": lambda args, result: {"rows": len(result)},
    "characters.verify_orthogonality": lambda args, result: {"pairs": result.pairs_checked},
    "characters.verify_column_orthogonality": lambda args, result: {
        "pairs": result.pairs_checked
    },
    "tensorrep.trace_D_word": lambda args, result: {"columns": args[0].size ** args[0].n},
}


class Tracer:
    def __init__(self):
        # span: [id, parent id, name, start, end, self seconds, sizes]
        self.spans: list[list] = []
        # open spans: [id, seconds covered by finished child spans]
        self.stack: list[list] = []
        self.ids = itertools.count(1)

    def wrap(self, name: str, fn):
        sizes = SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self.ids)
            parent = self.stack[-1][0] if self.stack else 0
            frame = [span_id, 0.0]
            self.stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                self.stack.pop()
                duration = end - start
                if self.stack:
                    self.stack[-1][1] += duration
                size = sizes(args, result) if sizes and result is not None else None
                self.spans.append(
                    [span_id, parent, name, start, end, duration - frame[1], size]
                )

        return traced


def install(tracer: Tracer, names) -> tuple[dict, list]:
    """Wrap each `module.function`; return its bindings and the names not found."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "superfrob"]
    bindings: dict[str, list[str]] = {}
    unbound: list[str] = []
    for name in names:
        module_name, function = name.split(".")
        try:
            original = getattr(importlib.import_module(f"superfrob.{module_name}"), function, None)
        except ImportError:
            original = None
        if original is None:
            unbound.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        bindings[name] = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    bindings[name].append(f"{module.__name__}.{attr}")
    return bindings, unbound


def main(argv: list[str]) -> int:
    spans_path, command = Path(argv[0]), argv[1:]
    from superfrob import cli

    names = json.loads(LAYERS.read_text())["functions"]
    tracer = Tracer()
    bindings, unbound = install(tracer, names)
    try:
        return cli.main(command)
    finally:
        sys.stdout.flush()
        spans_path.write_text(
            json.dumps(
                {
                    "argv": command,
                    "bindings": bindings,
                    "unbound": unbound,
                    "spans": tracer.spans,
                }
            )
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
