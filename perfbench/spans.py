"""Spans around the calls the benchmark's workloads make into each layer.

A traced run patches the public functions listed in ``TARGETS`` with
wrappers that record one span per call: name, start, end, parent span and
op id. Spans stay in memory and are written out once, when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# (module, function, namespaces to patch). None patches every tnncells module
# that binds the function, so calls from other layers and from inside the
# layer are both caught. matrices.minor is patched only where the CLI calls
# it (the Lindstrom sweep): inside is_tnn_bruteforce and
# exact_vanishing_minors the QQ Bareiss minors are those callers' own work.
TARGETS: tuple[tuple[str, str, tuple[str, ...] | None], ...] = (
    ("cauchon", "vanishing_family", None),
    ("cauchon", "tnn_test", None),
    ("cauchon", "build_TC", None),
    ("matrices", "is_tnn_bruteforce", None),
    ("matrices", "minor", ("cli",)),
    ("cells", "cell_of", None),
    ("cells", "exact_vanishing_minors", None),
    ("cells", "unifying_check", None),
    ("permutations", "pipe_dream", None),
    ("permutations", "minor_family", None),
    ("networks", "postnikov_network", None),
    ("networks", "path_matrix", None),
    ("networks", "nonintersecting_count", None),
    ("diagrams", "enumerate_diagrams", None),
    ("quantum", "quantum_minor", None),
    ("quantum", "commutator", None),
    ("quantum", "defining_relations_hold", None),
    ("poisson", "semiclassical_poly", None),
    ("poisson", "bracket", None),
    ("poisson", "jacobi_check", None),
    ("poisson", "semiclassical_check", None),
    ("poisson", "verify_flow", None),
    ("guards", "ensure_enumerable", None),
)

# Generator functions get one span per resumption, so the consumer's work
# between items is not charged to the generator.
GENERATORS = {"enumerate_diagrams"}

# The root span of every CLI op: click parsing, the command body, output.
CLI_SPAN = "cli.main"

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TARGETS) + (CLI_SPAN,)


class Tracer:
    """In-memory span recorder for one traced run.

    Each span is one list [name, op, parent, start, end], appended in a
    single step, so a timeout that interrupts the bookkeeping leaves at worst
    an unfinished span (end None, counted as empty) and a stale stack entry,
    which begin_op clears before the next op.
    """

    def __init__(self) -> None:
        self.op_id = -1
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.raised: Counter[tuple[str, str]] = Counter()
        self._patched: list[tuple[Any, str, Any]] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack.clear()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        span = [name, self.op_id, self.stack[-1] if self.stack else -1, perf_counter(), None]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: list[Any]) -> None:
        span[4] = perf_counter()
        self.stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run fn inside a span called name."""
        self.calls[name] += 1
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.raised[(name, type(exc).__name__)] += 1
            raise
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_generator(self, name: str, fn: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException as exc:
                    self.raised[(name, type(exc).__name__)] += 1
                    raise
                finally:
                    self._close(span)
                yield item

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target in the loaded tnncells modules.

        A target the program no longer has is skipped and reports zero.
        """
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("tnncells.")]
        for mod_name, fn_name, scope in TARGETS:
            owner = sys.modules.get(f"tnncells.{mod_name}")
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            name = f"{mod_name}.{fn_name}"
            wrapper = (
                self.wrap_generator(name, original)
                if fn_name in GENERATORS
                else self.wrap(name, original)
            )
            for module in loaded:
                short = module.__name__.rsplit(".", 1)[-1]
                if scope is not None and short not in scope:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def _durations(self) -> list[float]:
        return [0.0 if end is None else end - start for _, _, _, start, end in self.spans]

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name: duration minus child spans."""
        took = self._durations()
        own = list(took)
        for (_, _, parent, _, _), t in zip(self.spans, took):
            if parent >= 0:
                own[parent] -= t
        totals: dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def root_seconds(self) -> float:
        """Time covered by top-level spans, that is by any layer at all."""
        return sum(t for span, t in zip(self.spans, self._durations()) if span[2] < 0)

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated rows, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with path.open("w") as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for idx, (name, op, parent, start, end) in enumerate(self.spans):
                end_s = "" if end is None else f"{end - t0:.9f}"
                out.write(f"{idx}\t{parent}\t{op}\t{name}\t{start - t0:.9f}\t{end_s}\n")
