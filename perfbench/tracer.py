"""Span tracer that times emmatch's public functions from outside.

The tracer replaces a function at the module attribute its callers look
up (``emmatch.matchmap.total_force`` is what ``match_images`` calls), so
the program itself is untouched.  Spans stay in memory as plain lists:
``[name, start, end, parent, op, counts]`` with ``perf_counter`` times,
the parent's index (or None), the benchmark's op id and a dict of counts
computed from the call's arguments and result.

Only the standard library is imported here: the traced CLI launcher loads
this module before it times ``import emmatch.cli``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter


def _current_counts(args, current):
    return {"elements": len(current), "dropped": current.dropped}


def _lattice_counts(args, fmap):
    # force_map_fast's lattice spans c1's bounding box widened by the map,
    # and every map cell takes one multiply-add per c1 element.
    c1, c2 = args[0], args[1]
    wl = int(c1.xs.max()) - int(c1.xs.min()) + fmap.width
    hl = int(c1.ys.max()) - int(c1.ys.min()) + fmap.height
    return {"lattice_pair_evals": wl * hl * len(c2),
            "window_madds": len(c1) * fmap.width * fmap.height}


def _match_counts(args, result):
    return {"steps": result.steps, "cells": len(set(result.path.positions))}


# (module, attribute, span name, counts).  A function reached through two
# modules is listed under both, because each caller looks up its own name.
WRAPPED = (
    ("emmatch.edgecurrent", "sobel_field", "gradient.sobel_field", None),
    ("emmatch.edgecurrent", "extract_current", "edgecurrent.extract_current", _current_counts),
    ("emmatch.emforce", "force_map_fast", "emforce.force_map_fast", _lattice_counts),
    ("emmatch.matchmap", "extract_current", "edgecurrent.extract_current", _current_counts),
    ("emmatch.matchmap", "total_force", "emforce.total_force",
     lambda args, f: {"pair_evals": len(args[0]) * len(args[1])}),
    ("emmatch.matchmap", "follow_path", "matchmap.follow_path",
     lambda args, trace: {"steps": trace.steps}),
    ("emmatch.matchmap", "classify_map", "matchmap.classify_map", None),
    ("emmatch.matchmap", "match_images", "matchmap.match_images", _match_counts),
    ("emmatch.cli", "main", "cli.main", None),
    ("emmatch.cli", "load_pgm", "raster.load_pgm", lambda args, img: {"bytes": len(args[0])}),
    ("emmatch.cli", "save_pgm", "raster.save", None),
    ("emmatch.cli", "save_ppm", "raster.save", None),
    ("emmatch.cli", "render_direction_glyphs", "cli.render", None),
    ("emmatch.cli", "render_classification_ppm", "cli.render", None),
    ("emmatch.cli", "extract_current", "edgecurrent.extract_current", _current_counts),
    ("emmatch.cli", "force_map_fast", "emforce.force_map_fast", _lattice_counts),
    ("emmatch.cli", "force_map_tsv", "emforce.force_map_tsv", None),
    ("emmatch.cli", "classify_map", "matchmap.classify_map", None),
    ("emmatch.cli", "match_images", "matchmap.match_images", _match_counts),
)


class Tracer:
    """Records nested spans of wrapped calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields its index."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                           self.op, None])
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield idx
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = start, end

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if counts is not None:
                self.spans[idx][5] = counts(args, result)
            return result
        return traced

    def install(self) -> None:
        for modname, attr, name, counts in WRAPPED:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counts))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded by another process under span `parent`."""
        base = len(self.spans)
        for name, start, end, up, _, counts in spans:
            self.spans.append([name, start, end, parent if up is None else base + up,
                               self.spans[parent][4], counts])


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so children never overlap each other.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, covered)]
