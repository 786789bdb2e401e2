"""Operation accounting: every call into wigosc is counted, checked, and never aborts a run.

An *operation* is one call whose outcome the benchmark judges.  It fails when
it raises or when its output fails its check; either way the run goes on.
Some operations are *gated*: their outputs have a recorded reference or an
oracle verdict that holds at the commit that defined the benchmark, so a
failure there means the program regressed and the run is reported as not
correct.  Ungated operations cover the open parameter domain.  There a
failure that matches a *known defect* of the program (an exception type or
a check outcome named at the call) is counted apart from the other
failures: it lowers the success share and shows per function, but it is
not an unexpected failure.  Every other failure, gated or not, is.

An *item* is the workload's unit of latency (a sweep point, an operator
call, an ensemble); its wall time feeds ``item_p50_ms``/``item_p99_ms``.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter

REL_TOL = 1e-12


def columns_of(rows) -> list:
    """Normalise a table (list of equal-length rows) into columns.

    A column whose every field parses as a float is numeric; any other column
    is kept as strings and compared exactly.
    """
    cols = []
    for col in zip(*rows):
        try:
            cols.append([float(x) for x in col])
        except ValueError:
            cols.append([str(x) for x in col])
    return cols


def csv_columns(text: str) -> list:
    """Columns of a CLI CSV body; ``#`` metadata lines (git hash included) are dropped.

    The header's field names come first, as one string column, so a renamed
    column is a mismatch.
    """
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = [ln.split(",") for ln in lines[1:]]
    return [lines[0].split(",")] + columns_of(rows) if lines else []


def compare(expected: list, got: list) -> str | None:
    """Compare normalised outputs; ``None`` when they agree.

    Numbers agree to ``REL_TOL`` relative to the larger of the two values
    and the column's largest magnitude, so entries near zero (eigenvalues,
    a phase mean at t = 0) are judged on the column's scale.  Strings must
    match exactly.
    """
    if len(expected) != len(got):
        return f"shape {len(got)} columns, reference {len(expected)}"
    for j, (ec, gc) in enumerate(zip(expected, got)):
        if len(ec) != len(gc):
            return f"column {j}: {len(gc)} entries, reference {len(ec)}"
        if ec and isinstance(ec[0], str):
            if list(ec) != [str(x) for x in gc]:
                return f"column {j}: text differs"
            continue
        scale = max((abs(x) for x in ec), default=0.0)
        for i, (e, g) in enumerate(zip(ec, gc)):
            if not math.isfinite(g) or abs(e - g) > REL_TOL * max(abs(e), abs(g), scale):
                return f"column {j} row {i}: {g!r} vs reference {e!r}"
    return None


class Tally:
    """Counts operations and items of one measured phase.

    ``reference`` maps reference names to normalised outputs; ``None``
    switches to record mode, where outputs are collected in ``recorded``
    instead of compared.
    """

    def __init__(self, reference: dict | None = None, tracer=None):
        self.reference = reference
        self.recorded: dict = {}
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0                     # unexpected failures
        self.known = 0                      # failures that match a known defect
        self.fail_by_key: Counter = Counter()   # every failure, known or not
        self.known_by_key: Counter = Counter()
        self.examples: dict = {}
        self.gate_failures: list = []
        self.items: list = []          # (kind, tag, seconds, work)
        self.notes: dict = {}

    @property
    def correct(self) -> bool:
        return not self.gate_failures

    def op(self, key: str, fn, *args, check=None, ref=None, gate=False, known=(), **kwargs):
        """Call ``fn(*args, **kwargs)``; return its value, or ``None`` if it failed.

        ``check(value)`` returns a problem string or ``None``.  ``ref`` is a
        ``(name, normalise)`` pair: ``normalise(value)`` is compared against
        ``reference[name]``; a reference check always gates.  ``known``
        lists the starts of problem strings (``"OverflowError:"``, or a
        check's wording) that are known defects of an ungated operation.
        """
        self.attempted += 1
        gate = gate or ref is not None
        assert not (gate and known), "a gated operation has no known defects"
        try:
            value = fn(*args, **kwargs)
            problem = check(value) if check is not None else None
            if problem is None and ref is not None:
                name, normalise = ref
                if self.reference is None:
                    self.recorded[name] = normalise(value)
                elif name not in self.reference:
                    problem = f"no reference named {name!r}"
                else:
                    problem = compare(self.reference[name], normalise(value))
        except Exception as exc:  # counted, never propagated: the run must go on
            value, problem = None, f"{type(exc).__name__}: {exc}"
        if problem is None:
            return value
        self.fail_by_key[key] += 1
        self.examples.setdefault(key, problem[:300])
        if problem.startswith(tuple(known)):
            self.known += 1
            self.known_by_key[key] += 1
            return None
        self.failed += 1
        if gate:
            self.gate_failures.append(f"{key}: {problem[:300]}")
        return None

    def skip(self, keys, reason: str) -> None:
        """Count operations that could not run because an input op failed."""
        for key in keys:
            self.attempted += 1
            self.failed += 1
            self.fail_by_key[key] += 1
            self.examples.setdefault(key, reason)

    @contextlib.contextmanager
    def item(self, kind: str, tag: str = "", work: float = 0.0):
        """Time one item; in a traced phase, spans opened inside carry its index."""
        if self.tracer is not None:
            self.tracer.begin_item(kind, tag)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.items.append((kind, tag, time.perf_counter() - start, work))
            if self.tracer is not None:
                self.tracer.end_item()
