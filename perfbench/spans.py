"""In-memory span tracer that wraps coincalc's module attributes.

The benchmark installs it around its traced passes only; coincalc itself is
not edited.  A wrapper records one span per call (name, start, end, parent)
and adds the call's self time -- its duration minus the time its child spans
cover -- to its layer.  The wrappers' own bookkeeping is charged neither to
the layer nor to its parent: it is summed apart as ``overhead_s``.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from pathlib import Path

now = time.perf_counter


def digits(x: int) -> int:
    """Decimal digits of |x| without int-to-str (no 4,300-digit limit)."""
    x = abs(x)
    return int(math.log10(x)) + 1 if x else 1


def snf_band(size: int) -> str:
    for top, band in ((4, "le4"), (8, "5to8"), (16, "9to16"), (32, "17to32")):
        if size <= top:
            return band
    return "gt32"


SNF_BANDS = ("le4", "5to8", "9to16", "17to32")
SPANS_KEPT = 20_000  # spans written to the dump; the sums cover every call


class Tracer:
    """Spans and per-layer sums for the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.self_s = defaultdict(float)   # layer -> summed self time
        self.incl_s = defaultdict(float)   # layer -> summed inclusive time
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)   # counters set by the after-hooks
        self.overhead_s = 0.0
        self._stack: list[list] = []       # [span id, child s, child overhead s]
        self._next_id = 0
        self._in_engine = False
        self._patches: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, after=None, engine=False):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        tracer = self

        def traced(*args, **kwargs):
            if engine and tracer._in_engine:
                return fn(*args, **kwargs)  # nested engine: counted once
            t_in = now()
            parent = tracer._stack[-1][0] if tracer._stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0, 0.0]
            tracer._stack.append(frame)
            if engine:
                tracer._in_engine = True
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                if engine:
                    tracer._in_engine = False
                tracer._stack.pop()
            duration = t1 - t0
            tracer.self_s[layer] += duration - frame[1]
            tracer.incl_s[layer] += duration - frame[2]
            tracer.calls[layer] += 1
            if len(tracer.spans) < SPANS_KEPT:
                tracer.spans.append((span_id, parent, layer, t0, t1))
            if after is not None:
                after(tracer, args, result, duration - frame[1])
            t_out = now()
            own = (t_out - t_in) - duration
            tracer.overhead_s += own
            if tracer._stack:
                tracer._stack[-1][1] += t_out - t_in
                tracer._stack[-1][2] += own + frame[2]
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, t0, t1 in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "name": layer, "start": t0,
                                         "end": t1}) + "\n")


# -- coincalc's layer boundaries ----------------------------------------------


def _after_snf(tracer, args, result, self_s):
    a = args[0]
    band = snf_band(max(a.rows, a.cols))
    tracer.counts["snf_s." + band] += self_s
    tracer.counts["snf_calls." + band] += 1
    transforms = [m for m in (getattr(result, "u", None),
                              getattr(result, "v", None)) if m is not None]
    if transforms:
        top = max(max(abs(x) for x in m.entries) for m in transforms)
        tracer.counts["transform_digits"] += digits(top)
        tracer.counts["transform_calls"] += 1


def _after_chi(tracer, args, result, self_s):
    tracer.counts["chi_digits"] += digits(result)


def install_coincalc(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics need."""
    from coincalc import cli, lattice, sphere, spaceform, stiefel, torus, wecken

    tracer.wrap(cli, "run_query", "cli.dispatch")
    for family in ("torus", "sphere", "spaceform", "projective", "stiefel"):
        tracer.wrap(cli, f"_run_{family}", "cli.payload")
    tracer.wrap(cli, "_run_wecken_fact", "cli.payload")
    tracer.wrap(cli, "_run_fixedpoint_fact", "cli.payload")
    tracer.wrap(torus, "torus_invariants", "engine.torus", engine=True)
    tracer.wrap(torus, "bound_chain_note", "engine.torus", engine=True)
    tracer.wrap(sphere, "sphere_invariants", "engine.sphere", engine=True)
    tracer.wrap(spaceform, "spaceform_pair_invariants", "engine.spaceform",
                engine=True)
    tracer.wrap(cli, "projective_invariants", "engine.projective", engine=True)
    tracer.wrap(stiefel, "stiefel_selfcoincidence", "engine.stiefel",
                engine=True)
    tracer.wrap(wecken, "wecken_condition", "engine.wecken", engine=True)
    tracer.wrap(wecken, "fixed_point_wecken", "engine.fixedpoint", engine=True)
    tracer.wrap(cli, "validate_bundle", "verdict.validate")
    tracer.wrap(cli, "_dump", "serialize")
    tracer.wrap(lattice, "smith_normal_form", "lattice.snf", after=_after_snf)
    tracer.wrap(lattice.IntMatrix, "from_rows", "lattice.intmatrix")
    tracer.wrap(lattice.IntMatrix, "__post_init__", "lattice.intmatrix")
    tracer.wrap(stiefel, "grassmann_euler", "stiefel.chi", after=_after_chi)
