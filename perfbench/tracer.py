"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds it in
every loaded ``fcdiag`` module that imported it, and patches the
``FCElement`` and ``Diagram`` constructors and ``Diagram.components`` at the
class level.  ``uninstall`` restores every original binding.

A span has a layer name, a start, an end, a parent span and an op id.  The
benchmark opens one root span per op, so every span belongs to an op.  A
layer's self time is its span's duration minus the durations of its child
spans; the self times of an op's spans therefore add up to the op's root
duration, which ``close_op`` checks.  Spans are kept in flat arrays and
written out by ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

ROOT = "op"
# Public functions, by the module that defines them, and their layer name.
LAYERS = {
    "fcdiag.fc": {"parse_fc": "fc.parse", "enumerate_fc": "fc.enumerate"},
    "fcdiag.diagram": {"concatenate": "diagram.concatenate"},
    "fcdiag.bijection": {
        "fc_to_diagram": "bijection.draw",
        "diagram_to_fc": "bijection.read",
        "fc_to_diagram_reference": "bijection.reference",
    },
    "fcdiag.tl": {"monomial_product": "tl.product", "census": "tl.census", "multiply": "tl.multiply"},
    "fcdiag.counting": {
        **dict.fromkeys(
            (
                "catalan",
                "narayana",
                "triangle_start",
                "triangle_end",
                "count_first_block",
                "count_last_block",
                "count_start_size",
                "count_size_end",
            ),
            "counting.closed",
        ),
        "count_start_end": "counting.start_end",
    },
    "fcdiag.cli": {"main": "cli.main"},
}
# Callers that keep only part of the enumeration they consume; how many
# elements they kept is read off their result (``_count_start_end``,
# ``_count_census``).  Every other caller keeps all it receives.
FILTERING_CALLERS = ("counting.start_end", "tl.census")


class Tracer:
    def __init__(self):
        self.layers: list[str] = [ROOT]
        self._layer_id = {ROOT: 0}
        self.self_s: list[float] = [0.0]
        self.total_s: list[float] = [0.0]
        self.calls: list[int] = [0]
        self.counters = {"loops": 0, "letters": 0, "yielded": 0, "yielded_filtered": 0, "kept_filtered": 0, "closed": 0}
        self.unbalanced_ops = 0
        # Open spans: [layer id, start, child duration, span index].
        self._stack: list[list] = []
        self._op = -1
        self._op_self = 0.0
        self.span_layer = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def layer_id(self, name: str) -> int:
        if name not in self._layer_id:
            self._layer_id[name] = len(self.layers)
            self.layers.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return self._layer_id[name]

    def enter(self, layer: int) -> None:
        if not self._stack and layer:
            raise RuntimeError(f"span {self.layers[layer]} opened outside an op")
        index = len(self.span_start)
        self.span_layer.append(layer)
        self.span_parent.append(self._stack[-1][3] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([layer, start, 0.0, index])

    def leave(self) -> None:
        end = time.perf_counter()
        layer, start, child, index = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[layer] += duration - child
        self.total_s[layer] += duration
        self.calls[layer] += 1
        self._op_self += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def open_op(self) -> None:
        self._op += 1
        self._op_self = 0.0
        self.enter(0)

    def close_op(self) -> None:
        index = self._stack[-1][3]
        self.leave()
        if self._stack:
            raise RuntimeError("op closed with spans still open")
        duration = self.span_end[index] - self.span_start[index]
        if abs(self._op_self - duration) > 1e-9 * (1 + len(self.span_start) - index):
            self.unbalanced_ops += 1

    def _parent_layer(self) -> str:
        return self.layers[self._stack[-1][0]] if self._stack else ROOT

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, name: str, fn):
        layer = self.layer_id(name)
        if name == "fc.enumerate":

            @functools.wraps(fn)
            def enumerate_wrapper(*args, **kwargs):
                key = "yielded_filtered" if self._parent_layer() in FILTERING_CALLERS else "yielded"
                return self._traced_generator(layer, key, fn(*args, **kwargs))

            return enumerate_wrapper

        enter, leave = self.enter, self.leave
        before = self._count_letters if name == "bijection.draw" else None
        after = {
            "diagram.concatenate": self._count_loops,
            "counting.start_end": self._count_start_end,
            "tl.census": self._count_census,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(*args)
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after:
                after(result)
            return result

        return wrapper

    # Counts taken outside the span, so their cost lands in the caller's self time.

    def _count_letters(self, w) -> None:
        self.counters["letters"] += sum(j - i + 1 for i, j in w.pairs)

    def _count_loops(self, result) -> None:
        self.counters["loops"] += result[1]

    def _count_start_end(self, result) -> None:
        self.counters["closed"] += result.closed_form
        if not result.closed_form:
            self.counters["kept_filtered"] += result.value

    def _count_census(self, result) -> None:
        self.counters["kept_filtered"] += sum(size for _, size in result)

    def _traced_generator(self, layer: int, key: str, gen):
        counters = self.counters
        while True:
            self.enter(layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.leave()
            counters[key] += 1
            yield item

    def install(self) -> None:
        """Wrap every layer function and rebind it wherever it was imported."""
        import fcdiag.diagram
        import fcdiag.fc

        modules = [m for name, m in sys.modules.items() if name == "fcdiag" or name.startswith("fcdiag.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules[module_name]
            for attr, layer in functions.items():
                original = getattr(home, attr)
                wrapped = self._wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapped)
        for cls, attr, layer in (
            (fcdiag.fc.FCElement, "__post_init__", "fc.construct"),
            (fcdiag.diagram.Diagram, "__post_init__", "diagram.validate"),
            (fcdiag.diagram.Diagram, "components", "diagram.components"),
        ):
            self._patch(cls, attr, self._wrap(layer, getattr(cls, attr)))

    def install_suites(self, suites: dict) -> None:
        """Give each verify suite its own span, ``verify.<suite>``."""
        for name, fn in list(suites.items()):
            self._patch(suites, name, self._wrap(f"verify.{name}", fn))

    def _patch(self, target, name: str, value) -> None:
        if isinstance(target, dict):
            self._restore.append((target, name, target[name]))
            target[name] = value
        else:
            self._restore.append((target, name, getattr(target, name)))
            setattr(target, name, value)

    def uninstall(self) -> None:
        for target, name, value in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = value
            else:
                setattr(target, name, value)
        self._restore.clear()

    # ------------------------------------------------------------------
    # results

    def layer_self(self, name: str) -> float:
        return self.self_s[self._layer_id[name]] if name in self._layer_id else 0.0

    def layer_total(self, name: str) -> float:
        return self.total_s[self._layer_id[name]] if name in self._layer_id else 0.0

    def layer_calls(self, name: str) -> int:
        return self.calls[self._layer_id[name]] if name in self._layer_id else 0

    def write(self, path: Path, header: dict) -> None:
        """Write the spans as ``<path>.json`` (layout) and ``<path>.bin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("span_layer", "span_parent", "span_op", "span_start", "span_end")
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        layout = {
            **header,
            "spans": len(self.span_start),
            "layers": self.layers,
            "columns": [[c.removeprefix("span_"), getattr(self, c).typecode] for c in columns],
            "note": "columns are stored one after another in .bin, native byte order; "
            "parent -1 marks an op's root span; times are time.perf_counter seconds",
        }
        path.with_suffix(".json").write_text(json.dumps(layout, indent=1) + "\n")
