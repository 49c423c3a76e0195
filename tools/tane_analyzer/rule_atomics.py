"""atomics-contract: explicit memory_order everywhere, plus per-file
lock-free protocol contracts declared with `// tane-atomics: <protocol>`.

Base checks (every file):
  * every std::atomic load/store/RMW names its memory_order — a silent
    seq_cst is either a missed relaxation on a hot path or, worse, a spot
    where the author never decided what ordering the algorithm needs;
  * compare_exchange names both the success AND the failure order — the
    single-order overload derives the failure order silently (acq_rel
    degrades to acquire, release to relaxed), which readers routinely get
    wrong;
  * no operator-form atomic accesses (`x++`, `x = v`): they are seq_cst by
    definition and invisible to a memory-order audit.

Protocol checks (declared files — see DESIGN.md §16 for the invariants):
  seqlock(seq_words...)
      Writers: every write to the sequence word is release-or-stronger,
      and the FIRST bump in a function with two or more bumps (the
      begin-bump that makes the sequence odd) must be acq_rel/seq_cst — a
      release RMW does not stop the payload stores that follow it in
      program order from being reordered ahead of it on weak hardware.
      Readers (functions that load the sequence word, then payload
      atomics, and never write the sequence word): first sequence read is
      acquire-or-stronger, a second read exists, and an acquire fence sits
      between the payload loads and the re-read (a load-acquire re-read
      does NOT order the earlier payload loads; only the fence does).
  single-writer(published_words...)
      Stores may be relaxed (one writer, no self-races), but cross-thread
      readers of the named published words — loads in functions that never
      store any atomic — must acquire. Files may declare the protocol with
      no words when every cell is an independent monotonic value that
      readers only aggregate.
"""

from . import model

RULE = "atomics-contract"

PROTOCOLS = ("seqlock", "single-writer")


def _is_atomic(program, source, op):
    """An op is atomic if any identifier in its receiver is a name declared
    std::atomic anywhere in the tree, or a declared protocol word."""
    if not op.words:
        return False
    words = set(op.words)
    if words & program.atomic_names:
        return True
    if source.protocol and words & set(source.protocol.words):
        return True
    return False


def _required_orders(op):
    return model.ATOMIC_OPS.get(op.op, 1)


def _base_checks(program, source, emit):
    for func, op in source.all_atomic_ops():
        if not _is_atomic(program, source, op):
            continue
        need = _required_orders(op)
        have = op.explicit_orders
        if need == 0 or have >= need:
            continue
        if op.op in ("compare_exchange_strong", "compare_exchange_weak"):
            if have == 1:
                emit(RULE, source, op.line,
                     f"compare_exchange on `{op.obj}` names only the "
                     "success order; the derived failure order is silent "
                     "(acq_rel degrades to acquire) — spell both orders")
                continue
        emit(RULE, source, op.line,
             f"atomic {op.op} on `{op.obj}` defaults to seq_cst; name the "
             "memory_order explicitly (seq_cst included, if that is the "
             "contract)")


def _touches(op, words):
    return bool(set(op.words) & set(words))


def _check_seqlock(source, emit):
    words = source.protocol.words
    if not words:
        emit(RULE, source, source.protocol.line,
             "seqlock protocol header names no sequence word; declare it "
             "as `// tane-atomics: seqlock(<word>)`")
        return
    for func in source.functions:
        seq_writes = [op for op in func.atomic_ops
                      if _touches(op, words) and op.op != "load"]
        seq_loads = [op for op in func.atomic_ops
                     if _touches(op, words) and op.op == "load"]
        if seq_writes:
            for i, op in enumerate(seq_writes):
                orders = set(op.orders)
                if i == 0 and len(seq_writes) >= 2:
                    # The begin-bump: must keep later payload stores from
                    # floating above it.
                    if orders and not orders & {"acq_rel", "seq_cst"}:
                        emit(RULE, source, op.line,
                             f"seqlock begin-bump on `{op.obj}` is "
                             f"{'/'.join(sorted(orders))}; it must be "
                             "acq_rel or seq_cst — a release bump does not "
                             "stop the payload stores after it from being "
                             "reordered ahead on weakly-ordered hardware")
                elif orders and not orders & model.RELEASE_OR_STRONGER:
                    emit(RULE, source, op.line,
                         f"seqlock sequence-word write on `{op.obj}` must "
                         "be release or stronger so the payload written "
                         "before it is published with it")
            continue
        if not seq_loads:
            continue
        first_load = min(seq_loads, key=lambda op: op.offset)
        payload_loads = [op for op in func.atomic_ops
                         if not _touches(op, words) and op.op == "load"
                         and op.offset > first_load.offset]
        if not payload_loads:
            continue
        if len(seq_loads) < 2:
            emit(RULE, source, first_load.line,
                 f"seqlock reader loads `{first_load.obj}` only once; "
                 "re-read the sequence word after the payload loads (and "
                 "retry on mismatch) or a torn read goes undetected")
            continue
        if set(first_load.orders) and \
                not set(first_load.orders) & model.ACQUIRE_OR_STRONGER:
            emit(RULE, source, first_load.line,
                 f"first seqlock read of `{first_load.obj}` must be "
                 "acquire or stronger so the payload loads cannot start "
                 "before it")
        last_load = max(seq_loads, key=lambda op: op.offset)
        last_payload = max(payload_loads, key=lambda op: op.offset)
        if last_payload.offset < last_load.offset:
            fence_between = any(
                f.order in model.ACQUIRE_OR_STRONGER
                for f in func.fences
                if last_payload.offset < f.offset < last_load.offset)
            payload_all_acquire = all(
                set(op.orders) & model.ACQUIRE_OR_STRONGER
                for op in payload_loads if op.orders)
            if not fence_between and not (
                    payload_loads and payload_all_acquire and
                    all(op.orders for op in payload_loads)):
                emit(RULE, source, last_load.line,
                     "seqlock re-read needs "
                     "std::atomic_thread_fence(memory_order_acquire) "
                     "between the payload loads and the sequence re-read; "
                     "an acquire on the re-read itself does not order the "
                     "loads that precede it")


def _check_single_writer(source, emit):
    words = source.protocol.words
    if not words:
        return  # value-only counter file: base checks are the contract
    for func in source.functions:
        stores_any = any(op.op != "load" for op in func.atomic_ops)
        if stores_any:
            continue  # the writer side may do as it pleases (one thread)
        for op in func.atomic_ops:
            if op.op != "load" or not _touches(op, words):
                continue
            orders = set(op.orders)
            if orders and not orders & model.ACQUIRE_OR_STRONGER:
                emit(RULE, source, op.line,
                     f"cross-thread read of single-writer word `{op.obj}` "
                     "must be acquire or stronger: the reader needs the "
                     "writes that preceded the publication, not just the "
                     "word itself")


def _check_operator_forms(source, emit):
    """Operator-form atomic accesses (`x++`, `x += v`, `x = v`), collected
    class-aware by the frontend."""
    for op in source.implicit_atomic_ops:
        emit(RULE, source, op.line,
             f"operator-form atomic access `{op.obj} "
             f"{op.op.replace('operator', '')}` is seq_cst by definition; "
             "use explicit .store/.load/.fetch_* with a named order")


def run(program, emit):
    for source in program.files.values():
        _base_checks(program, source, emit)
        _check_operator_forms(source, emit)
        if source.protocol is None:
            continue
        kind = source.protocol.kind
        if kind == "seqlock":
            _check_seqlock(source, emit)
        elif kind == "single-writer":
            _check_single_writer(source, emit)
        else:
            emit(RULE, source, source.protocol.line,
                 f"unknown tane-atomics protocol `{kind}`; expected one "
                 f"of {', '.join(PROTOCOLS)}")
