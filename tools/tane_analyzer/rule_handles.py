"""handle-discipline: Acquire/Release pairing for partition handles.

`PartitionAccessor::Acquire` (`src/core/tane.cc`) serves a partition the
store cannot lend — a spilled slot, whose `Peek` is null — by copying it
out of the store with `Get` into the worker's small LRU. The copy is keyed
by a store handle, and the discipline in `src/core/tane.cc` is that every
function that calls `Acquire` either releases in the same function
(`Release` / `ReleaseHandles`) or carries a waiver naming who releases and
when (the level driver releases the handles, and clears the accessor
LRUs, at level boundaries, for example).

The check is deliberately flow-insensitive — presence of a paired release
anywhere in the enclosing function, not on every path. That is the same
bargain tane-lint strikes: cheap, and zero false negatives for the
forgot-to-release-entirely class; a handle leaked on an early return stays
in the store until the run ends.
"""

RULE = "handle-discipline"

SCOPED_FILES = ("src/core/tane.cc",)

ACQUIRE_NAMES = {"Acquire"}
RELEASE_NAMES = {"Release", "ReleaseHandles", "ReleaseAll"}


def run(program, emit):
    for rel_path in SCOPED_FILES:
        source = program.files.get(rel_path)
        if source is None:
            continue
        for func in source.functions:
            if func.name in ACQUIRE_NAMES:
                continue  # the definition that implements acquisition
            acquires = [call for call in func.calls
                        if call.name in ACQUIRE_NAMES]
            if not acquires:
                continue
            has_release = any(call.name in RELEASE_NAMES
                              for call in func.calls)
            if has_release:
                continue
            for call in acquires:
                emit(RULE, source, call.line,
                     f"`{func.qual}` acquires a partition handle but "
                     "never calls Release/ReleaseHandles; pair it in this "
                     "function or waive with the rationale naming the "
                     "owner that releases it")
