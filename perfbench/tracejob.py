"""Run one paritylab command line with spans around the calls into each layer.

    python3 perfbench/tracejob.py SPANS_FILE ARG...

behaves like `python -m paritylab ARG...` (same stdout, stderr and exit
code) and, on the way out, writes the spans it kept in memory to SPANS_FILE
as one JSON object:

    {"spans": [[id, parent_id, name, start_s, end_s, attrs], ...],
     "counts": {name: calls}}

A span wraps a public function as the CLI sees it: the name bound in the
calling module, so `paritylab.cli.pd_distribution` is the DP as `count`,
`dist` and `bias` call it.  Cheap functions called once per row are only
counted.  The original functions are restored before the spans are written.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (module, attribute, span name)
SPANNED = (
    ("paritylab.cli", "main", "cli.main"),
    ("paritylab.cli", "pd_distribution", "exact.pd_distribution"),
    ("paritylab.cli", "pd_distribution_family", "exact.pd_distribution_family"),
    ("paritylab.cli", "estimate_thm2", "asymptotics.estimate_thm2"),
    ("paritylab.cli", "histogram_of", "distribution.histogram_of"),
    ("paritylab.cli", "bias_profile_of", "distribution.bias_profile_of"),
    ("paritylab.checks", "run_suite", "checks.run_suite"),
    ("paritylab.checks", "euler_maclaurin", "specialfn.euler_maclaurin"),
)
COUNTED = (
    ("paritylab.cli", "gaussian_density", "distribution.density"),
    ("paritylab.cli", "bias_density", "distribution.density"),
    ("paritylab.distribution", "erfc", "specialfn.erfc"),
    ("paritylab.asymptotics", "erfc", "specialfn.erfc"),
)


def _attrs(name: str, args: tuple, result) -> dict:
    """What a span records besides its times: sizes the cost model needs."""
    if name == "exact.pd_distribution":
        return {"n": args[0], "out": 1}
    if name == "exact.pd_distribution_family":
        return {"n": args[0], "out": len(result)}
    if name == "checks.run_suite":
        return {"run": len(result), "failed": sum(not r.passed for r in result)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._count_lock = threading.Lock()  # rows may run in worker threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span belongs to the span that started it
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            attrs: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                attrs = _attrs(name, args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([span_id, parent, name, start, end, attrs])

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._count_lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import paritylab.cli

    tracer = Tracer()
    tracer.install()
    try:
        return paritylab.cli.main(argv)
    finally:
        tracer.restore()
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
