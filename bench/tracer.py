"""Spans around calls into vblink's modules, recorded from outside.

The tracer replaces module attributes through which callers reach a
function (``vblink.cli.fit``, ``vblink.engine.update_phi``, ...) with a
wrapper that records a span: name, start, end and the index of the span
that caused it.  The package itself is not changed.  A call made on a
worker thread takes as parent the innermost span open on the thread that
installed the tracer, which is the call that started the workers.
"""

import functools
import importlib
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.calls = Counter()
        self.kept = {}  # span name -> (args, kwargs, result) of its last call
        self.absent = []
        self._patched = []
        self._main_ident = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module_name, attr, span, keep=False):
        """Trace ``module_name.attr`` as ``span``; a missing one is recorded
        as absent, so the benchmark survives refactors of the package."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([span, time.perf_counter(), None, parent])
                tracer.calls[span] += 1
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[index][2] = time.perf_counter()
            if keep:
                tracer.kept[span] = (args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def total(self, span, parent=None):
        """Summed duration of the spans named ``span``; with ``parent``, only
        those caused directly by a span of that name."""
        return sum(
            end - start
            for name, start, end, up in self.spans
            if name == span
            and (parent is None or (up is not None and self.spans[up][0] == parent))
        )

    def self_time(self, span):
        """Summed self time of the spans named ``span``: each span's duration
        minus the part of its interval that its child spans cover."""
        children = {}
        for name, start, end, up in self.spans:
            if up is not None:
                children.setdefault(up, []).append((start, end))
        total = 0.0
        for index, (name, start, end, _) in enumerate(self.spans):
            if name != span:
                continue
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(index, [])):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += (end - start) - covered
        return total
