"""Per-layer tracing of the nss library, installed from outside the package.

``Tracer.install`` replaces each traced function under every name it is
bound to in the loaded ``nss`` modules (``braids`` imports ``f_matrix``,
``gates`` imports ``evaluate_word``, the package namespace re-exports most
of them), so no call can bypass its span.  Spans are kept as aggregates per
name: call count and self time, where self time is the span's duration minus
the time its child spans cover.  Counters that need the call's arguments or
result (memo hits, distinct basis inputs, search nodes, raw hits, check
statuses) are recorded at the same boundaries.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class CountingDict(dict):
    """A dict that counts item lookups; the search DFS does one per node."""

    def __init__(self, data, counter: Counter, key: str):
        super().__init__(data)
        self._counter = counter
        self._key = key

    def __getitem__(self, key):
        self._counter[self._key] += 1
        return dict.__getitem__(self, key)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.basis_inputs = set()
        self.raw_hits = []          # per search call, before its dedupe
        self._child_s = []          # per open span: time covered by its children

    def start(self):
        from nss import braids
        self.memo_start = len(braids._LETTER_MEMO)
        self.enabled = True

    def stop(self):
        from nss import braids
        self.enabled = False
        self.memo_growth = len(braids._LETTER_MEMO) - self.memo_start

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name_of, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``name_of(args, kwargs)`` names the span (e.g. by precision);
        ``after(name, args, kwargs, result, before)`` records counters, with
        ``before`` the value ``after(None, ...)`` returned ahead of the call.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            before = after(None, args, kwargs, None, None) if after else None
            stack = tracer._child_s
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
            if after:
                after(name, args, kwargs, result, before)
            return result

        return functools.update_wrapper(traced, fn)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the traced functions of anyon, spaces, braids, gates, verify."""
        from nss import anyon, braids, gates, spaces, verify

        float_ns = anyon.FLOAT_NS

        def by_ns(name, index):
            def name_of(args, kwargs):
                ns = kwargs.get("ns", args[index] if len(args) > index else float_ns)
                return f"{name}.{'float' if ns is float_ns else 'mp'}"
            return name_of

        def fixed(name):
            return lambda args, kwargs: name

        def letter_after(name, args, kwargs, result, before):
            size = len(braids._LETTER_MEMO)
            if name is None:
                return size
            if name.endswith(".float"):
                self.counts["braids.letter_matrix.memo_hits" if size == before
                            else "braids.letter_matrix.memo_misses"] += 1

        def basis_after(name, args, kwargs, result, before):
            if name is not None:
                leaves, charge = args[0], args[1] if len(args) > 1 else kwargs["charge"]
                self.basis_inputs.add((tuple(leaves), charge))

        def step_name(args, kwargs):
            w = args[0] if args else kwargs["w"]
            return ("gates.reichardt_step.mp" if getattr(w, "dtype", None) == object
                    else "gates.reichardt_step.float")

        def pool_wrap(fn):
            def pool(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not self.enabled:
                    return result
                return CountingDict(result, self.counts, "gates.search.nodes")
            return pool

        def raw_after(name, args, kwargs, result, before):
            if name is not None:
                self.raw_hits.append(len(result))

        def check_after(name, args, kwargs, result, before):
            if name is not None:
                self.counts[f"verify.checks.{result.status}"] += 1

        targets = [
            (anyon, "r_symbol", by_ns("anyon.r_symbol", 4), None),
            (anyon, "f_matrix", by_ns("anyon.f_matrix", 5), None),
            (anyon, "pentagon_sweep", fixed("anyon.pentagon_sweep"), None),
            (spaces, "enumerate_basis", fixed("spaces.enumerate_basis"), basis_after),
            (spaces, "control_basis_transform",
             fixed("spaces.control_basis_transform"), None),
            (braids, "letter_matrix", by_ns("braids.letter_matrix", 5), letter_after),
            (braids, "evaluate_word", by_ns("braids.evaluate_word", 4), None),
            (braids, "matrix_order", fixed("braids.matrix_order"), None),
            (braids, "pseudo_unitarity_defect",
             fixed("braids.pseudo_unitarity_defect"), None),
            (gates, "reichardt_step", step_name, None),
            (gates, "controlled_gate", fixed("gates.controlled_gate"), None),
            (gates, "search_low_leakage", fixed("gates.search_low_leakage"), None),
            (gates, "_search_range", fixed("gates.search.range"), raw_after),
            (verify, "run_all", fixed("verify.run_all"), None),
        ]
        for module, attr, name_of, after in targets:
            orig = getattr(module, attr)
            rebind(orig, self.wrap(orig, name_of, after))
        orig = gates._letter_pool
        rebind(orig, pool_wrap(orig))

        build = spaces.IndefSpace.__dict__["build"].__func__
        spaces.IndefSpace.build = classmethod(
            self.wrap(build, fixed("spaces.IndefSpace.build")))

        verify._CHECKS[:] = [self.wrap(fn, fixed("verify.check"), check_after)
                             for fn in verify._CHECKS]


def rebind(orig, replacement) -> int:
    """Replace ``orig`` under every name bound to it in the nss modules."""
    bound = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "nss" or modname.startswith("nss.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)
                bound += 1
    if bound == 0:
        raise RuntimeError(f"{orig.__qualname__} is bound nowhere")
    return bound
