"""Spans around the calls between the package's layers, recorded from outside.

`Tracer.install` replaces each function named in CALL_SITES, at the module
attribute through which the calling layer looks it up, with a wrapper that
records a span (id, parent id, item id, name, start, end).  Python resolves
a module-level name at call time, so calls made inside the package go
through the wrappers too.  `uninstall` puts the originals back.  A span's
name is `<layer>.<function>`, the layer being the module that defines the
function.
"""

import importlib
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) pairs through which one layer calls another
CALL_SITES = (
    ("blaschke", "cafd_cgd_result"),
    ("blaschke", "its_search"),
    ("blaschke", "project"),
    ("blaschke", "synthesize"),
    ("blaschke.pipeline", "its_search"),
    ("blaschke.pipeline", "cgd_refine"),
    ("blaschke.pipeline", "project"),
    ("blaschke.search", "feval_table"),
    ("blaschke.search", "reduce_chain"),
    ("blaschke.cgd", "energy_gradient"),
    ("blaschke.cgd", "error_energy"),
    ("blaschke.reduction", "reduce_chain"),
    ("blaschke.reduction", "reduce_step"),
    ("blaschke.reduction", "derivative_reduce_step"),
)

ITEM_SPAN = "bench.item"
SPAN_FIELDS = ("span", "parent", "item", "name", "start_s", "end_s")


def feval_table_bytes(f, grid):
    """Bytes feval_table writes to the arrays it allocates, from their sizes.

    Per radius ring: the float power table and the complex scaled spectrum
    (N entries each), then the folded spectrum, its transform, the output
    row and its rolled copy (angular entries each, complex).
    """
    return (grid.radial - 1) * (24 * f.n_samples + 64 * grid.angular)


class Tracer:
    def __init__(self):
        self.spans = []
        self.notes = {}
        self._ids = itertools.count(1)
        self._stack = [0]
        self._item = None
        self._saved = []

    def install(self):
        for modname, attr in CALL_SITES:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            layer = original.__module__.rsplit(".", 1)[-1]
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{layer}.{original.__name__}", original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        note = feval_table_bytes if name == "feval.feval_table" else None

        def traced(*args, **kwargs):
            span = next(self._ids)
            if note is not None:
                self.notes[span] = note(*args, **kwargs)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span, self._stack[-1], self._item, name, start, end))

        return traced

    @contextmanager
    def item(self, item_id):
        """Root span of one item execution; installs the wrappers around it."""
        self._item = item_id
        span = next(self._ids)
        self._stack.append(span)
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.spans.append((span, 0, item_id, ITEM_SPAN, start, end))
            self._item = None

    def write(self, path):
        """Write the spans as CSV, one line per span, in order of completion."""
        with open(path, "w") as out:
            out.write(",".join(SPAN_FIELDS) + "\n")
            for span, parent, item, name, start, end in self.spans:
                out.write(f"{span},{parent},{item},{name},{start!r},{end!r}\n")


def summarize(spans, notes):
    """Per-execution sums over one item's spans.

    Keys: `<name>.calls` and `<name>.s` per span name, `<layer>.self_s` per
    layer (a span's duration minus the durations of its child spans, which
    nest inside it), `cgd.line_search_evals` (error_energy calls made by
    cgd), `search.chain_s` (reduce_chain time under its_search) and
    `feval.bytes` (computed).
    """
    names = {s[0]: s[3] for s in spans}
    child = defaultdict(float)
    for span, parent, _, _, start, end in spans:
        child[parent] += end - start
    out = defaultdict(float)
    for span, parent, _, name, start, end in spans:
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name.split('.')[0]}.self_s"] += dur - child[span]
        caller = names.get(parent)
        if name == "reduction.error_energy" and caller == "cgd.cgd_refine":
            out["cgd.line_search_evals"] += 1
        if name == "reduction.reduce_chain" and caller == "search.its_search":
            out["search.chain_s"] += dur
        out["feval.bytes"] += notes.get(span, 0)
    return out
