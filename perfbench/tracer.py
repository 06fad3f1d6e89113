"""In-memory spans around the public functions of each ``haar_riesz`` layer.

The tracer patches every module of the package that holds a traced function
under its name, so calls made from inside the package (``verify_bessel`` →
``build_gram``, ``certified_lower_bound`` → ``psd_certificate``) become child
spans of the caller.  ``uninstall`` puts the original functions back, so
untraced rounds run the unmodified program.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function): a span per call
SPANNED = (
    ("haar", "enumerate_family"),
    ("haar", "combination"),
    ("haar", "norm_sq"),
    ("gram", "build_gram"),
    ("gram", "psd_certificate"),
    ("gram", "verify_bessel"),
    ("gram", "eig_bounds"),
    ("search", "certified_lower_bound"),
    ("search", "random_stepset"),
    ("search", "search_extremal"),
    ("weights", "verify_grid"),
    ("weights", "telescope_check"),
    ("weights", "induction_step_check"),
    ("weights", "weighted_norm_sq"),
    ("counterexample", "counterexample_table"),
)

# (module, function): a call count only; these run millions of times
COUNTED = (("measure", "intersect_measure"),)

PACKAGE = "haar_riesz"


class Tracer:
    """Spans as [name, start, end, parent index]; parent −1 for a root span."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.family_sizes: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.setup_mark = (0, {}, 0)

    def end_setup(self):
        """Mark the end of set-up: later work belongs to the traced rounds."""
        self.setup_mark = (len(self.spans), dict(self.counts), len(self.family_sizes))

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, function in SPANNED:
            self._patch(module, function, self._spanned(f"{module}.{function}"))
        for module, function in COUNTED:
            self._patch(module, function, self._counted(f"{module}.{function}.calls"))

    def uninstall(self):
        for holder, attribute, original in reversed(self._patches):
            setattr(holder, attribute, original)
        self._patches.clear()

    def _patch(self, module: str, function: str, make_wrapper):
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], function)
        wrapper = make_wrapper(original)
        for name, holder in list(sys.modules.items()):
            if holder is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attribute, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attribute, wrapper)
                    self._patches.append((holder, attribute, original))

    def _counted(self, name: str):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def _spanned(self, name: str):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)

        def make(original):
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(index)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index][1] = start
                    spans[index][2] = end
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result

            return wrapper

        return make

    def _add(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount


def _observe_family(tracer: Tracer, args, kwargs, result):
    tracer.family_sizes.append(len(result))


def _observe_gram(tracer: Tracer, args, kwargs, result):
    tracer._add("gram.build_gram.entries", result.size * result.size)


def _observe_certificate(tracer: Tracer, args, kwargs, result):
    if result:
        tracer._add("gram.psd_certificate.true", 1)


def _observe_grid(tracer: Tracer, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs.get("grid", 256)
    tracer._add("weights.verify_grid.pairs", (grid + 1) * (grid + 1))


_OBSERVERS = {
    "haar.enumerate_family": _observe_family,
    "gram.build_gram": _observe_gram,
    "gram.psd_certificate": _observe_certificate,
    "weights.verify_grid": _observe_grid,
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures for one set-up plus one round.

    Work recorded before :meth:`Tracer.end_setup` counts once; work recorded
    after it comes from ``rounds`` traced rounds and counts as their mean.
    Self time is span time minus the time of direct child spans
    (single-threaded, so children never overlap).
    """
    spans = tracer.spans
    first_round_span, setup_counts, setup_families = tracer.setup_mark

    def combined(setup_part, total):
        return setup_part + (total - setup_part) / rounds

    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0, 0, 0.0])
        self_s = (end - start) - child_time[index]
        entry[0] += 1
        entry[1] += self_s
        if index < first_round_span:
            entry[2] += 1
            entry[3] += self_s

    out = {}
    for module, function in SPANNED:
        name = f"{module}.{function}"
        calls, self_s, setup_calls, setup_self_s = totals.get(name, (0, 0.0, 0, 0.0))
        out[f"{name}.calls"] = combined(setup_calls, calls)
        out[f"{name}.self_s"] = combined(setup_self_s, self_s)
    for counter in (
        "measure.intersect_measure.calls",
        "gram.build_gram.entries",
        "gram.psd_certificate.true",
        "weights.verify_grid.pairs",
    ):
        out[counter] = combined(
            setup_counts.get(counter, 0), tracer.counts.get(counter, 0)
        )

    brackets = 0
    psd_in_brackets = 0
    for name, start, end, parent in spans:
        if name == "search.certified_lower_bound":
            brackets += 1
        elif name == "gram.psd_certificate" and parent >= 0:
            psd_in_brackets += spans[parent][0] == "search.certified_lower_bound"
    out["search.certified_lower_bound.psd_per_bracket"] = (
        psd_in_brackets / brackets if brackets else 0.0
    )
    sizes = tracer.family_sizes
    out["family_size.max"] = max(sizes, default=0)
    out["family_size.sum"] = combined(sum(sizes[:setup_families]), sum(sizes))
    return out
