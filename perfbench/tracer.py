"""Spans around the public functions of each designforge module.

The tracer patches module attributes from outside, so the program's source
is untouched: every module namespace that holds a reference to a traced
function gets the wrapper instead.  A span records its name, start, end,
parent span and invocation id.  A span is named after the per-layer metric
its self time feeds (`codebuild.sweep_s`, ...); self time is the span's
duration minus the time its child spans cover.

Counters: `codebuild.sweep_words` and `codebuild.stream_words` add 2^dim per
finished sweep or stream, `codebuild.basis_builds`, `designs.blocks` and
`gf2m.fields_built` count calls or yielded items.  `designs.increments` is
not measured: it is derived as b*C(k, t) from each report the design kernel
returns, so it only restates the kernel's b.

Generators (`stream_weight_class`, `blocks_of_weight`) are timed per
resumption: each `next()` is a child span of whoever called it, so the
consumer's self time excludes block production.  One generator can be
resumed millions of times, so its resumptions under one parent are merged
into a single span record that carries the resumption count.

Spans are kept in memory and handed back once, when the repetition ends.
Only the main thread is traced; the sweep's worker threads call no traced
function.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from math import comb
from time import perf_counter

import designforge.cli
import designforge.codebuild as codebuild
import designforge.designs as designs
import designforge.gf2m as gf2m
import designforge.invariance as invariance
import designforge.polyops as polyops
import designforge.spectrum as spectrum

MODULES = (designforge.cli, codebuild, designs, gf2m, invariance, polyops, spectrum)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open frames: [span id, child seconds]
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.swept: dict[tuple[tuple[int, ...], int], None] = {}  # (basis, length), in order
        self.untraced_sweep = codebuild.weight_histogram
        self.invocation = -1
        self._ids = 0
        self._main = threading.get_ident()

    # -- spans -------------------------------------------------------------------

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span."""
        if threading.get_ident() != self._main:
            return fn(*args, **kwargs)
        parent = self.stack[-1][0] if self.stack else None
        frame = [self._new_id(), 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += end - start
            self.spans.append({"id": frame[0], "name": name, "start": start, "end": end,
                               "parent": parent, "inv": self.invocation, "calls": 1,
                               "self": end - start - frame[1]})

    def generator(self, name, gen, item_counter=None, on_done=None):
        """Re-yield gen, timing each resumption as a child span of its caller.

        This runs once per block, so the bookkeeping lives in locals and is
        written to the merged span record only when the caller changes.
        """
        stack, clock = self.stack, perf_counter
        merged = None  # the merged record for the current caller
        calls, self_s, first, last = 0, 0.0, None, None

        def flush():
            if merged is not None:
                merged.update(start=first, end=last, calls=calls, self=self_s)

        items = 0
        try:
            while True:
                parent = stack[-1][0] if stack else None
                if merged is None or merged["parent"] != parent:
                    flush()
                    merged = {"id": self._new_id(), "name": name, "parent": parent,
                              "inv": self.invocation}
                    self.spans.append(merged)
                    calls, self_s, first = 0, 0.0, None
                frame = [merged["id"], 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    item = frame  # sentinel: no item is ever the frame itself
                finally:
                    last = clock()
                    stack.pop()
                    if stack:
                        stack[-1][1] += last - start
                    if first is None:
                        first = start
                    calls += 1
                    self_s += last - start - frame[1]
                if item is frame:
                    if on_done is not None:
                        on_done()
                    return
                items += 1
                yield item
        finally:
            flush()
            if item_counter is not None:
                self.counters[item_counter] += items
            gen.close()

    # -- patching ----------------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def wrap(self, name, original, before=None, after=None) -> None:
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._replace(original, wrapper)

    def wrap_generator(self, name, original, item_counter=None, on_done_factory=None) -> None:
        def wrapper(*args, **kwargs):
            on_done = on_done_factory(*args, **kwargs) if on_done_factory else None
            return self.generator(name, original(*args, **kwargs), item_counter, on_done)

        self._replace(original, wrapper)

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        c = self.counters

        def count(key):
            def bump(*_args, **_kwargs):
                c[key] += 1
            return bump

        def on_sweep(_result, basis, length, *_args, **_kwargs):
            c["codebuild.sweep_words"] += 1 << len(basis)
            self.swept.setdefault((tuple(basis), length))

        def on_stream_done(basis, *_args, **_kwargs):
            def done():
                c["codebuild.stream_words"] += 1 << len(basis)
            return done

        def on_report(reports, *_args, **_kwargs):
            for r in reports:
                c["designs.classes_skipped" if r.skipped else "designs.classes_verified"] += 1

        self.wrap("codebuild.sweep_s", codebuild.weight_histogram, after=on_sweep)
        self.wrap_generator("codebuild.stream_s", codebuild.stream_weight_class,
                            on_done_factory=on_stream_done)
        for fn in (codebuild.generator_basis, codebuild.cyclic_generator_basis):
            self.wrap("codebuild.basis_s", fn, before=count("codebuild.basis_builds"))
        self.wrap_generator("designs.blocks_self_s", designs.blocks_of_weight, item_counter="designs.blocks")

        verify = designs.verify_t_design

        def verify_traced(blocks, v, t, *args, **kwargs):
            report = self.call(f"designs.count_t{t}_s", verify, blocks, v, t, *args, **kwargs)
            c["designs.increments"] += report.b * comb(report.k, t)
            return report

        self._replace(verify, verify_traced)

        self.wrap("designs.report_s", designs.full_design_report, after=on_report)
        for fn in (spectrum.weight_distribution, spectrum.cyclic_weight_distribution):
            self.wrap("spectrum.distribution_s", fn)
        for fn in (spectrum.closed_form_c1, spectrum.closed_form_c2_extended,
                   spectrum.closed_form_c2_cyclic):
            self.wrap("spectrum.closed_form_s", fn)
        self.wrap("spectrum.pless_s", spectrum.pless_verify)
        self.wrap("invariance.orbit_s", invariance.affine_orbit_check)
        self.wrap("invariance.closure_s", invariance.closure_check)
        self.wrap("polyops.defining_set_s", polyops.defining_set_of_family)

        field_init = gf2m.Field.__init__

        def field_traced(field, *args, **kwargs):
            c["gf2m.fields_built"] += 1
            return self.call("gf2m.field_s", field_init, field, *args, **kwargs)

        gf2m.Field.__init__ = field_traced
