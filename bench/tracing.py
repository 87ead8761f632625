"""Outside-in tracing of hierpower's public functions.

Each listed function is replaced, in every ``hierpower`` namespace that
binds it (module globals and module-level dicts such as the CLI's measure
table), by a wrapper that records a span: name, start, end, parent span
and query id. Spans stay in memory until the run ends. A generator
function gets one span per resume, so its self time is the time spent
producing items. The wrappers come off again between traced queries.

``coalitions`` and ``rationals`` are not wrapped: they are leaf helpers
called once per coalition, so a span would cost more than the call; their
cost shows in their callers' self time. ``hull`` is not called at run
time and ``generators`` is on no query path.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = {
    "documents": ("load_document", "document_from_edge_list", "document_from_json",
                  "NetworkDocument.to_network"),
    "networks": ("HierNet.__init__", "partition", "classify", "simple_subnetworks"),
    "games": ("successor_game", "strong_successor_game", "dual", "harsanyi_dividends",
              "shapley", "shapley_permutation", "is_convex", "is_concave", "gately",
              "propensity_to_disrupt", "coalition_payoffs", "find_core_violation", "in_core"),
    "measures": ("beta_measure", "gately_measure", "restricted_egalitarian",
                 "proportional_measure", "degree_measure", "core_violation", "core_vertices"),
    "verification": ("verify_theorems", "check_axioms", "shapley_oracle_agrees"),
    "cli": ("main",),
}


def _table_size(args):
    return 1 << args[0].n


def _pair_scan(args):
    size = 1 << args[0].n
    return size * (size + 1) // 2


# Work counts computed from a call's arguments, not counted by the program:
# traced name -> (counter, amount of work the call implies).
WORK = {
    "games.successor_game": ("games.coalitions_tabulated", _table_size),
    "games.strong_successor_game": ("games.coalitions_tabulated", _table_size),
    "games.is_convex": ("games.pair_checks", _pair_scan),
    "games.is_concave": ("games.pair_checks", _pair_scan),
    "games.shapley_permutation": ("games.permutations_averaged",
                                  lambda args: math.factorial(args[0].n)),
    "networks.simple_subnetworks": ("networks.subnetworks_enumerated",
                                    lambda args: math.prod(m.bit_count()
                                                           for m in args[0].pred_masks if m)),
}
WORK_COUNTERS = tuple(dict.fromkeys(counter for counter, _ in WORK.values()))


def traced_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.work_failed: set[str] = set()
        self.query = -1
        self._patches: list = []
        modules = [m for key, m in sys.modules.items()
                   if key == "hierpower" or key.startswith("hierpower.")]
        for full in traced_names():
            module_name, _, attr = full.partition(".")
            module = sys.modules.get(f"hierpower.{module_name}")
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                original = vars(cls).get(method) if isinstance(cls, type) else None
                bindings = [(cls, method, False)] if original else []
            else:
                original = getattr(module, attr, None)
                bindings = _bindings(modules, original) if callable(original) else []
            if not bindings:
                continue
            wrapper = self._wrap(len(self.names), full, original)
            self.names.append(full)
            for target, key, is_dict in bindings:
                self._patches.append((target, key, is_dict, original, wrapper))

    def install(self) -> None:
        for target, key, is_dict, _, wrapper in self._patches:
            _set(target, key, is_dict, wrapper)

    def uninstall(self) -> None:
        for target, key, is_dict, original, _ in self._patches:
            _set(target, key, is_dict, original)

    def _wrap(self, nid: int, full: str, original):
        work = WORK.get(full)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def count(args) -> None:
            self.calls[nid] += 1
            if work:
                counter, amount = work
                try:
                    self.work[counter] += amount(args)
                except (AttributeError, IndexError, TypeError):
                    self.work_failed.add(counter)

        def resumes(gen):
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    spans[idx] = (nid, start, clock(), parent, self.query)
                yield item

        if inspect.isgeneratorfunction(original):
            def traced_generator(*args, **kwargs):
                count(args)
                return resumes(original(*args, **kwargs))
            return traced_generator

        def traced(*args, **kwargs):
            count(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (nid, start, clock(), parent, self.query)
        return traced

    def times(self, queries=None) -> tuple[dict[str, float], dict[str, float]]:
        """Self and inclusive seconds per traced name, over the given query ids.

        Self time is a span's duration minus that of its child spans; the
        stack discipline keeps children of one span disjoint.
        """
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        for idx, (nid, start, end, _, query) in enumerate(self.spans):
            if queries is None or query in queries:
                own[self.names[nid]] += end - start - child[idx]
                inclusive[self.names[nid]] += end - start
        return own, inclusive

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "query"],
                       "spans": self.spans}, fh)


def _bindings(modules, original) -> list:
    found = []
    for module in modules:
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key, False))
            elif type(value) is dict:
                found.extend((value, k, True) for k, v in value.items() if v is original)
    return found


def _set(target, key, is_dict, value) -> None:
    if is_dict:
        target[key] = value
    else:
        setattr(target, key, value)
