"""Frontend-neutral IR for tane-analyzer.

Both frontends (clang.cindex and the token-level micro reader) lower a
translation unit to one `SourceFile`. Rules consume a `Program` — the whole
set of SourceFiles plus cross-file name indexes — and never look at raw
text except to anchor findings to a line.

Everything here is deliberately name-based rather than type-based: the
micro frontend cannot do full type resolution, and the rules are written to
be correct under over-approximation (an op we mistakenly treat as atomic
becomes a finding a human reviews, never a silent pass).
"""

from dataclasses import dataclass, field


# std::atomic member functions, with the number of memory_order arguments a
# fully explicit call must name. compare_exchange must spell both the
# success and the failure order; the single-order overload derives a
# failure order silently (and `acq_rel`'s derived failure order is
# `acquire`, which is easy to misread).
ATOMIC_OPS = {
    "load": 1,
    "store": 1,
    "exchange": 1,
    "fetch_add": 1,
    "fetch_sub": 1,
    "fetch_and": 1,
    "fetch_or": 1,
    "fetch_xor": 1,
    "compare_exchange_strong": 2,
    "compare_exchange_weak": 2,
    # atomic_flag's test_and_set/clear are omitted on purpose: the repo
    # does not use atomic_flag, and `clear` collides with every container
    # in a name-based frontend.
    # wait takes an order; the notify pair takes none.
    "wait": 1,
    "notify_one": 0,
    "notify_all": 0,
}

ORDER_NAMES = ("relaxed", "consume", "acquire", "release", "acq_rel",
               "seq_cst")

# Orders at least as strong as `release` for a store side, and at least as
# strong as `acquire` for a load side. acq_rel on a pure load/store is
# ill-formed, so it only appears in the RMW sets.
RELEASE_OR_STRONGER = {"release", "acq_rel", "seq_cst"}
ACQUIRE_OR_STRONGER = {"acquire", "acq_rel", "seq_cst"}


@dataclass
class AtomicOp:
    op: str                      # "load", "store", "fetch_add", ...
    obj: str                     # receiver expression, e.g. "slot.seq"
    words: tuple                 # identifiers inside obj, e.g. ("slot","seq")
    orders: tuple                # normalized order names found in the args
    n_args: int                  # total argument count (for CAS forms)
    line: int
    offset: int                  # position in the stripped text
    is_fence: bool = False

    @property
    def explicit_orders(self):
        return len(self.orders)


@dataclass
class Fence:
    order: str                   # normalized order name, "" if unknown
    line: int
    offset: int


@dataclass
class Call:
    name: str                    # last identifier: "Append"
    scope: str                   # explicit qualifier as written: "FlightRecorder"
    receiver: str                # receiver base identifier: "out" ("" if free)
    receiver_type: str           # resolved local/param type name, "" unknown
    line: int
    offset: int
    receiver_words: tuple = ()   # all identifiers in the receiver expression


@dataclass
class LocalStatic:
    line: int
    offset: int
    constinit: bool
    text: str                    # one-line declaration excerpt


@dataclass
class RangeLoop:
    container: str               # container expression text
    words: tuple                 # identifiers inside the expression
    line: int
    offset: int
    is_iterator_loop: bool = False


@dataclass
class FunctionInfo:
    name: str                    # "Render"
    qual: str                    # "FlightRecorder::Render" (best effort)
    cls: str                     # enclosing/explicit class name, "" if free
    line: int
    start: int                   # offset of the body '{'
    end: int                     # offset of the matching '}'
    calls: list = field(default_factory=list)
    atomic_ops: list = field(default_factory=list)
    fences: list = field(default_factory=list)
    range_loops: list = field(default_factory=list)
    local_statics: list = field(default_factory=list)
    uses_new: list = field(default_factory=list)     # lines with `new`
    local_types: dict = field(default_factory=dict)  # var name -> type name

    def contains(self, offset):
        return self.start <= offset <= self.end


@dataclass
class Protocol:
    kind: str                    # "seqlock" | "single-writer"
    words: tuple                 # protected word names, may be empty
    line: int


@dataclass
class SourceFile:
    rel_path: str
    raw_lines: list
    protocol: object = None              # Protocol or None
    functions: list = field(default_factory=list)
    atomic_decls: dict = field(default_factory=dict)     # name -> line
    unordered_decls: dict = field(default_factory=dict)  # name -> (kind, line)
    handler_regs: list = field(default_factory=list)     # (func name, line)
    # Operator-form accesses to declared-atomic names (`x++`, `x = v`):
    # implicit seq_cst, collected by the frontend with class-aware
    # disambiguation (same name may be atomic in one class and plain in
    # another).
    implicit_atomic_ops: list = field(default_factory=list)
    # Ops/loops that fell outside any recognized function body (at file
    # scope, or in a body the frontend failed to delimit). Rules still see
    # them for the per-op checks; function-shaped checks skip them.
    orphan_atomic_ops: list = field(default_factory=list)
    orphan_range_loops: list = field(default_factory=list)

    def all_atomic_ops(self):
        for func in self.functions:
            for op in func.atomic_ops:
                yield func, op
        for op in self.orphan_atomic_ops:
            yield None, op

    def all_range_loops(self):
        for func in self.functions:
            for loop in func.range_loops:
                yield func, loop
        for loop in self.orphan_range_loops:
            yield None, loop

    def function_at(self, offset):
        """Innermost recorded function containing `offset` (bodies of
        in-class definitions nest inside nothing else we record, so the
        smallest span wins)."""
        best = None
        for func in self.functions:
            if func.contains(offset):
                if best is None or func.end - func.start < best.end - best.start:
                    best = func
        return best


class Program:
    """The analyzed tree: every SourceFile plus cross-file indexes."""

    def __init__(self, files):
        self.files = files  # rel_path -> SourceFile
        self.atomic_names = set()
        self.unordered_names = set()
        self.functions_by_name = {}   # last component -> [(SourceFile, FunctionInfo)]
        for source in files.values():
            self.atomic_names.update(source.atomic_decls)
            self.unordered_names.update(source.unordered_decls)
            for func in source.functions:
                self.functions_by_name.setdefault(func.name, []).append(
                    (source, func))

    def resolve_call(self, source, caller, call):
        """Candidate (SourceFile, FunctionInfo) definitions for a call.
        Empty list means external. Resolution prefers, in order: an
        explicit `A::B` qualifier, a typed receiver, the caller's own
        class, then any definition with the same name (over-approximate on
        purpose — for signal-safety a missed edge is worse than an extra
        one)."""
        candidates = self.functions_by_name.get(call.name, [])
        if not candidates or call.scope == "std":
            return []
        if call.scope:
            scoped = [(s, f) for s, f in candidates
                      if f.cls == call.scope.split("::")[-1]]
            if scoped:
                return scoped
        if call.receiver:
            if call.receiver_type:
                typed = [(s, f) for s, f in candidates
                         if f.cls == call.receiver_type]
                # A typed receiver that matches no known class is a call
                # into an external type (std::string out; out.size()):
                # don't smear it over every same-named method.
                return typed
            return candidates
        if caller is not None and caller.cls:
            own = [(s, f) for s, f in candidates if f.cls == caller.cls]
            if own:
                return own
        # Free call with no qualifier: a free function (or
        # anonymous-namespace helper) in any file.
        free = [(s, f) for s, f in candidates if not f.cls]
        return free or candidates
