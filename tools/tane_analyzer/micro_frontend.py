"""Token-level C++ frontend for tane-analyzer.

Lowers a translation unit to `model.SourceFile` using the shared
comment/string stripper plus paren-balanced scanning — no preprocessor, no
type checker. The design rule throughout: prefer over-approximation (treat
an ambiguous site as checkable) so a parser miss surfaces as a reviewable
finding rather than a silent pass.

Known, accepted approximations (all covered by fixture tests or documented
in DESIGN.md §16):
  * function bodies are found by `name(args) [stuff] {`-shaped scanning;
    lambdas are deliberately not recorded, so their contents attribute to
    the enclosing function (what the signal-safety and seqlock rules want);
  * receivers are typed only via same-body declarations and parameters;
  * atomic-ness of `x.load(...)` is decided by a cross-file set of names
    declared with std::atomic<...> anywhere in the tree.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import cpptext  # noqa: E402

from . import model  # noqa: E402

# Statement keywords that look like `name ( ... ) {` but are not calls or
# function definitions.
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "else", "do", "case", "goto", "new", "delete", "throw", "co_return",
    "co_await", "co_yield", "static_assert", "decltype", "alignas",
    "noexcept", "defined", "assert", "constexpr", "consteval", "constinit",
    "requires", "typeid",
}

PROTOCOL_RE = re.compile(
    r"//\s*tane-atomics:\s*([a-z-]+)\s*(?:\(([^)\n]*)\))?")
ATOMIC_DECL_RE = re.compile(
    r"\bstd\s*::\s*atomic\s*<")
ATOMIC_FLAG_DECL_RE = re.compile(
    r"\bstd\s*::\s*atomic_flag\b\s*[&*]?\s*([A-Za-z_]\w*)")
UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(map|set|multimap|multiset)\s*<")
HANDLER_REG_RES = (
    re.compile(r"\.\s*sa_handler\s*=\s*&?\s*([A-Za-z_][\w:]*)"),
    re.compile(r"\.\s*sa_sigaction\s*=\s*&?\s*([A-Za-z_][\w:]*)"),
    re.compile(r"\bsignal\s*\(\s*[\w+\s]+,\s*&?\s*([A-Za-z_][\w:]*)\s*\)"),
)
FENCE_RE = re.compile(
    r"\b(?:std\s*::\s*)?atomic_(?:thread|signal)_fence\s*\(")
MEMBER_OP_RE = re.compile(
    r"(?:\.|->)\s*(" + "|".join(sorted(model.ATOMIC_OPS)) + r")\s*\(")
ORDER_IN_ARG_RE = re.compile(
    r"\bmemory_order(?:_|\s*::\s*)(relaxed|consume|acquire|release|"
    r"acq_rel|seq_cst)\b")
CALL_RE = re.compile(
    r"([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_~]\w*)*)\s*\(")
STATIC_RE = re.compile(r"\bstatic\b(?!_cast|_assert)")
NEW_RE = re.compile(r"(?<![\w.])new\b")
FOR_RE = re.compile(r"\bfor\s*\(")
LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}(]|\bconst\s)\s*"
    r"([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*(?:\s*<[^;<>]*>)?)"
    r"(?:\s+[&*]?|\s*[&*])\s*([A-Za-z_]\w*)\s*(?:=|\(|\{|;|,)")

DECL_KEYWORDS = CONTROL_KEYWORDS | {
    "const", "auto", "void", "int", "bool", "char", "float", "double",
    "unsigned", "signed", "long", "short", "struct", "class", "enum",
    "using", "typedef", "namespace", "template", "typename", "public",
    "private", "protected", "virtual", "override", "final", "inline",
    "static", "extern", "mutable", "volatile", "friend", "operator",
    "break", "continue", "default", "try", "this",
}


def _identifier_words(expr):
    return tuple(re.findall(r"[A-Za-z_]\w*", expr))


def _prev_nonspace(text, i):
    j = i - 1
    while j >= 0 and text[j] in " \t\n":
        j -= 1
    return j


def _receiver_before(text, dot_index):
    """Walk backwards from the `.`/`->` of a member access and return the
    receiver expression, e.g. `rings_[r].slots[s]` for
    `rings_[r].slots[s].seq`. Balanced `]`/`)` groups are skipped whole."""
    j = dot_index - 1
    end = None
    while j >= 0:
        c = text[j]
        if c in " \t\n":
            j -= 1
            continue
        if end is None:
            end = j + 1
        if c in ")]":
            depth = 0
            while j >= 0:
                if text[j] in ")]":
                    depth += 1
                elif text[j] in "([":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            j -= 1
            continue
        if c.isalnum() or c == "_":
            while j >= 0 and (text[j].isalnum() or text[j] == "_"):
                j -= 1
            # keep walking only through chained accesses
            k = _prev_nonspace(text, j + 1)
            if k >= 0 and (text[k] == "." or
                           (k >= 1 and text[k - 1:k + 1] == "->") or
                           (k >= 1 and text[k - 1:k + 1] == "::")):
                if text[k] == ".":
                    j = k - 1
                else:
                    j = k - 2
                continue
            break
        break
    if end is None:
        return ""
    return text[j + 1:end].strip()


def _find_class_spans(code):
    """[(start, end, name)] body spans of class/struct/union definitions."""
    spans = []
    for match in re.finditer(r"\b(class|struct|union)\s+([A-Za-z_]\w*)",
                             code):
        i = match.end()
        # Skip base-class lists and attributes up to '{', bailing on ';'
        # (forward declaration) or '(' (e.g. `struct tm` parameter usage).
        depth_guard = 0
        while i < len(code):
            c = code[i]
            if c == "{":
                close = _match_brace(code, i)
                if close != -1:
                    spans.append((i, close, match.group(2)))
                break
            if c in ";)(=" and depth_guard == 0:
                break
            if c == "<":
                depth_guard += 1
            elif c == ">":
                depth_guard = max(0, depth_guard - 1)
            i += 1
    return spans


def _match_brace(code, open_index):
    depth = 0
    for i in range(open_index, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _find_functions(code):
    """Detect function definitions: `qualified-name ( args ) trailers {`.
    Returns [(name_offset, qual_name, body_start, body_end)]."""
    results = []
    for match in CALL_RE.finditer(code):
        qual = re.sub(r"\s+", "", match.group(1))
        last = qual.split("::")[-1].lstrip("~")
        if last in CONTROL_KEYWORDS or qual.split("::")[0] in (
                "if", "for", "while", "switch"):
            continue
        open_paren = match.end() - 1
        close_paren = cpptext.matching_paren(code, open_paren)
        if close_paren == -1:
            continue
        i = close_paren + 1
        is_def = False
        # Consume trailers: const, noexcept(...), ->type, annotation
        # macros like TANE_REQUIRES(mu), and a ctor initializer list.
        while i < len(code):
            c = code[i]
            if c in " \t\n":
                i += 1
            elif c == "{":
                is_def = True
                break
            elif c in ";=," or c in ")]":
                break
            elif c == ":":
                if i + 1 < len(code) and code[i + 1] == ":":
                    break  # unexpected `::`, not a def
                # ctor initializer list: consume balanced (), {} pairs
                # until the body '{'.
                i += 1
                while i < len(code):
                    c2 = code[i]
                    if c2 == "(":
                        nxt = cpptext.matching_paren(code, i)
                        if nxt == -1:
                            break
                        i = nxt + 1
                    elif c2 == "{":
                        # `{}` member-init vs body: a body brace follows
                        # whitespace after a ')' or '}' or identifier; a
                        # member-init brace directly follows an identifier.
                        k = _prev_nonspace(code, i)
                        if k >= 0 and (code[k].isalnum() or code[k] == "_"):
                            nxt = _match_brace(code, i)
                            if nxt == -1:
                                break
                            i = nxt + 1
                        else:
                            break
                    elif c2 == ";":
                        break
                    else:
                        i += 1
                if i < len(code) and code[i] == "{":
                    is_def = True
                break
            elif c == "(":
                nxt = cpptext.matching_paren(code, i)
                if nxt == -1:
                    break
                i = nxt + 1
            elif c.isalnum() or c == "_" or c in "<>&*-":
                i += 1
            else:
                break
        if not is_def:
            continue
        body_start = i
        body_end = _match_brace(code, body_start)
        if body_end == -1:
            continue
        # Reject statements like `Foo bar{...}` misread via `bar(...)`:
        # a definition's name must not be preceded by `.`/`->` (member
        # call followed by a braced arg is not valid anyway).
        k = _prev_nonspace(code, match.start(1))
        if k >= 0 and code[k] in ".":
            continue
        results.append((match.start(1), qual, body_start, body_end))
    return results


def _parse_args(code, open_paren):
    close = cpptext.matching_paren(code, open_paren)
    if close == -1:
        return [], open_paren
    return cpptext.split_top_level_args(code[open_paren + 1:close]), close


def _scan_unordered_decls(code, decls):
    for match in UNORDERED_DECL_RE.finditer(code):
        kind = "unordered_" + match.group(1)
        i = match.end() - 1  # at '<'
        depth = 0
        while i < len(code):
            c = code[i]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    break
            elif c == ";":
                break
            i += 1
        tail = code[i + 1:i + 80]
        name_match = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)", tail)
        if name_match:
            name = name_match.group(1)
            if name not in DECL_KEYWORDS:
                decls[name] = (kind, cpptext.line_of_offset(code, match.start()))


def _scan_atomic_decls(code, decls, decl_offsets):
    for match in ATOMIC_DECL_RE.finditer(code):
        i = match.end() - 1  # at '<'
        depth = 0
        while i < len(code):
            c = code[i]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    break
            elif c == ";":
                break
            i += 1
        tail = code[i + 1:i + 80]
        name_match = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)", tail)
        if name_match:
            name = name_match.group(1)
            if name not in DECL_KEYWORDS:
                decls[name] = cpptext.line_of_offset(code, match.start())
                decl_offsets.setdefault(name, []).append(match.start())
    for match in ATOMIC_FLAG_DECL_RE.finditer(code):
        name = match.group(1)
        if name not in DECL_KEYWORDS:
            decls[name] = cpptext.line_of_offset(code, match.start())
            decl_offsets.setdefault(name, []).append(match.start())


def _scan_local_types(code, func):
    """Very light declaration typing inside one body: `Type name(...)`,
    `Type name = ...`, `Type* name = ...`, plus parameters from the
    signature. Enough to resolve `out.Append(...)` to SigsafeWriter."""
    body = code[func.start:func.end]
    for match in LOCAL_DECL_RE.finditer(body):
        type_name = match.group(1)
        base = type_name.split("<")[0].split("::")[-1].strip()
        var = match.group(2)
        if base in DECL_KEYWORDS or var in DECL_KEYWORDS or not base:
            continue
        # Two identifiers in a row is declaration-shaped; lowercase types
        # (size_t, string_view) are kept so member calls on them resolve
        # to "external std type", not to every same-named repo method.
        func.local_types.setdefault(var, base)


def _scan_signature_types(code, name_offset, body_start, func):
    sig = code[name_offset:body_start]
    open_paren = sig.find("(")
    if open_paren == -1:
        return
    close = cpptext.matching_paren(sig, open_paren)
    if close == -1:
        return
    for param in cpptext.split_top_level_args(sig[open_paren + 1:close]):
        tokens = re.findall(r"[A-Za-z_][\w:]*", param)
        if len(tokens) < 2:
            continue
        type_base = tokens[-2].split("::")[-1]
        if type_base in DECL_KEYWORDS:
            continue
        func.local_types.setdefault(tokens[-1], type_base)


def parse_file(root, rel_path):
    with open(os.path.join(root, rel_path), encoding="utf-8") as handle:
        raw = handle.read()
    code = cpptext.strip_comments_and_strings(raw)
    source = model.SourceFile(rel_path=rel_path, raw_lines=raw.splitlines())

    proto = PROTOCOL_RE.search(raw)
    if proto:
        words = tuple(w.strip() for w in (proto.group(2) or "").split(",")
                      if w.strip())
        source.protocol = model.Protocol(
            kind=proto.group(1), words=words,
            line=raw.count("\n", 0, proto.start()) + 1)

    atomic_decl_offsets = {}
    _scan_atomic_decls(code, source.atomic_decls, atomic_decl_offsets)
    _scan_unordered_decls(code, source.unordered_decls)

    for pattern in HANDLER_REG_RES:
        for match in pattern.finditer(code):
            name = match.group(1).split("::")[-1]
            if name not in ("SIG_DFL", "SIG_IGN"):
                source.handler_regs.append(
                    (name, cpptext.line_of_offset(code, match.start())))

    class_spans = _find_class_spans(code)

    def class_of(offset):
        best = ""
        best_len = None
        for start, end, name in class_spans:
            if start <= offset <= end:
                if best_len is None or end - start < best_len:
                    best, best_len = name, end - start
        return best

    defs = _find_functions(code)
    def_name_offsets = {d[0] for d in defs}
    for name_offset, qual, body_start, body_end in defs:
        parts = qual.split("::")
        cls = parts[-2] if len(parts) >= 2 else class_of(name_offset)
        name = parts[-1].lstrip("~")
        func = model.FunctionInfo(
            name=name,
            qual=(cls + "::" + name) if cls else name,
            cls=cls,
            line=cpptext.line_of_offset(code, name_offset),
            start=body_start,
            end=body_end)
        _scan_signature_types(code, name_offset, body_start, func)
        _scan_local_types(code, func)
        source.functions.append(func)

    # Keep only outermost bodies for "orphan" attribution, but note that
    # in-class method definitions are separate spans, not nested in a
    # recorded function (the class body is not a function).
    def func_at(offset):
        return source.function_at(offset)

    # --- atomic fences ---------------------------------------------------
    for match in FENCE_RE.finditer(code):
        args, _ = _parse_args(code, match.end() - 1)
        order = ""
        for arg in args:
            m = ORDER_IN_ARG_RE.search(arg)
            if m:
                order = m.group(1)
        fence = model.Fence(order=order,
                            line=cpptext.line_of_offset(code, match.start()),
                            offset=match.start())
        func = func_at(match.start())
        if func is not None:
            func.fences.append(fence)

    # --- atomic member operations ---------------------------------------
    atomic_names_here = set(source.atomic_decls)
    for match in MEMBER_OP_RE.finditer(code):
        op_name = match.group(1)
        receiver = _receiver_before(code, match.start())
        words = _identifier_words(receiver)
        op_offset = match.start(1)
        args, _ = _parse_args(code, match.end() - 1)
        orders = []
        for arg in args:
            m = ORDER_IN_ARG_RE.search(arg)
            if m:
                orders.append(m.group(1))
        op = model.AtomicOp(
            op=op_name, obj=receiver, words=words, orders=tuple(orders),
            n_args=len(args),
            line=cpptext.line_of_offset(code, op_offset),
            offset=op_offset)
        # Attach to the op stream only if the receiver is plausibly
        # atomic; the atomic-ness decision against the *global* name set
        # happens in the rule (cross-file members). Stash everything and
        # let the rule filter.
        func = func_at(op_offset)
        if func is not None:
            func.atomic_ops.append(op)
        else:
            source.orphan_atomic_ops.append(op)
    del atomic_names_here

    # --- loops -----------------------------------------------------------
    for match in FOR_RE.finditer(code):
        open_paren = match.end() - 1
        close = cpptext.matching_paren(code, open_paren)
        if close == -1:
            continue
        header = code[open_paren + 1:close]
        loop = None
        if ";" not in header:
            colon = _range_for_colon(header)
            if colon != -1:
                container = header[colon + 1:].strip()
                loop = model.RangeLoop(
                    container=container,
                    words=_identifier_words(container),
                    line=cpptext.line_of_offset(code, match.start()),
                    offset=match.start())
        else:
            begin = re.search(r"([A-Za-z_][\w.\->\[\]]*)\s*(?:\.|->)\s*"
                              r"c?begin\s*\(", header)
            if begin:
                container = begin.group(1)
                loop = model.RangeLoop(
                    container=container,
                    words=_identifier_words(container),
                    line=cpptext.line_of_offset(code, match.start()),
                    offset=match.start(),
                    is_iterator_loop=True)
        if loop is None:
            continue
        func = func_at(match.start())
        if func is not None:
            func.range_loops.append(loop)
        else:
            source.orphan_range_loops.append(loop)

    # --- calls, local statics, `new` -------------------------------------
    # Atomic-op sites stay in the call stream on purpose: whether
    # `x.wait(...)` is an atomic wait or a condition-variable wait depends
    # on the cross-file atomic name set, which only the rules have. The
    # signal-safety rule filters true atomic ops; everything else resolves
    # as an ordinary call.
    for match in CALL_RE.finditer(code):
        qual = re.sub(r"\s+", "", match.group(1))
        parts = qual.split("::")
        name = parts[-1].lstrip("~")
        if name in CONTROL_KEYWORDS or name in (
                "static_cast", "dynamic_cast", "const_cast",
                "reinterpret_cast"):
            continue
        if match.start(1) in def_name_offsets:
            continue  # that's a definition header, not a call
        func = func_at(match.start(1))
        if func is None:
            continue
        k = _prev_nonspace(code, match.start(1))
        receiver = ""
        receiver_type = ""
        rec_words = ()
        is_member = False
        if k >= 0 and (code[k] == "." or (k >= 1 and
                                          code[k - 1:k + 1] == "->")):
            is_member = True
            dot = k if code[k] == "." else k - 1
            receiver_expr = _receiver_before(code, dot)
            rec_words = _identifier_words(receiver_expr)
            receiver = rec_words[0] if rec_words else ""
            receiver_type = func.local_types.get(receiver, "")
        elif k >= 0 and (code[k].isalnum() or code[k] == "_"):
            # `Type name(...)`: a declaration whose initializer calls the
            # Type constructor. Record the construction, and type the
            # variable for later member-call resolution.
            j = k
            while j >= 0 and (code[j].isalnum() or code[j] == "_"):
                j -= 1
            prev_token = code[j + 1:k + 1]
            if prev_token in DECL_KEYWORDS:
                if prev_token == "return":
                    pass  # plain call in a return statement
                else:
                    continue
            else:
                # declaration: Type var(...) — the "call" target is the
                # type's constructor; the variable name is what we
                # matched. Two identifiers in a row cannot be a call.
                base = prev_token.split("::")[-1]
                if base:
                    func.local_types.setdefault(name, base)
                    source_call = model.Call(
                        name=base, scope="", receiver="", receiver_type="",
                        line=cpptext.line_of_offset(code, match.start(1)),
                        offset=match.start(1))
                    func.calls.append(source_call)
                continue
        scope = "::".join(parts[:-1]) if len(parts) > 1 else ""
        if not is_member and not scope and name in func.local_types:
            continue  # variable used as functor? treat as unknown-but-local
        call = model.Call(
            name=name, scope=scope, receiver=receiver,
            receiver_type=receiver_type,
            line=cpptext.line_of_offset(code, match.start(1)),
            offset=match.start(1),
            receiver_words=rec_words)
        func.calls.append(call)

    for match in STATIC_RE.finditer(code):
        func = func_at(match.start())
        if func is None:
            continue
        stmt_end = code.find(";", match.start())
        if stmt_end == -1:
            stmt_end = match.start() + 120
        window = code[max(func.start, match.start() - 32):stmt_end]
        text_line = cpptext.line_of_offset(code, match.start())
        func.local_statics.append(model.LocalStatic(
            line=text_line, offset=match.start(),
            constinit="constinit" in window,
            text=" ".join(code[match.start():stmt_end].split())[:80]))

    for match in NEW_RE.finditer(code):
        func = func_at(match.start())
        if func is not None:
            func.uses_new.append(
                cpptext.line_of_offset(code, match.start()))

    _scan_implicit_atomic_ops(code, source, atomic_decl_offsets,
                              class_spans)

    return source


def _scan_implicit_atomic_ops(code, source, atomic_decl_offsets,
                              class_spans):
    """Operator-form accesses (`x = v`, `x++`, `x += v`) to names declared
    std::atomic in this file. Class-aware: a name that is atomic in one
    class and a plain member in another (a `pool_` atomic in one class and
    lock-guarded in the next) only counts inside the class that declared
    it atomic."""
    if not atomic_decl_offsets:
        return

    def innermost_class(offset):
        best = None
        best_len = None
        for start, end, name in class_spans:
            if start <= offset <= end:
                if best_len is None or end - start < best_len:
                    best, best_len = name, end - start
        return best

    decl_classes = {name: {innermost_class(off) for off in offsets}
                    for name, offsets in atomic_decl_offsets.items()}
    pattern = re.compile(
        r"(?<![\w.>])(" +
        "|".join(re.escape(n) for n in sorted(atomic_decl_offsets)) +
        r")\s*(\+\+|--|\+=|-=|\|=|&=|\^=|=(?![=]))")
    for match in pattern.finditer(code):
        name = match.group(1)
        k = _prev_nonspace(code, match.start(1))
        # A type token, `*`, `&` or `,` before the name makes this a
        # declaration (with initializer) or a shadowing local, not an
        # atomic access.
        if k >= 0 and (code[k].isalnum() or code[k] in "_>&*,"):
            continue
        # Class attribution of the use site: the surrounding class body,
        # or — for out-of-class method definitions — the class named in
        # the enclosing function's qualifier. A file-scope atomic (None
        # in decl_classes) matches a use anywhere.
        use_cls = innermost_class(match.start(1))
        if use_cls is None:
            func = source.function_at(match.start(1))
            if func is not None and func.cls:
                use_cls = func.cls
        if None not in decl_classes[name] and \
                use_cls not in decl_classes[name]:
            continue
        source.implicit_atomic_ops.append(model.AtomicOp(
            op="operator" + match.group(2).strip(),
            obj=name, words=(name,), orders=(), n_args=0,
            line=cpptext.line_of_offset(code, match.start(1)),
            offset=match.start(1)))


def _range_for_colon(header):
    """Index of the range-for `:` in a for-header, skipping `::`."""
    depth = 0
    i = 0
    while i < len(header):
        c = header[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < len(header) and header[i + 1] == ":":
                i += 2
                continue
            if i > 0 and header[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


def load_program(root, rel_paths):
    files = {}
    for rel_path in rel_paths:
        files[rel_path] = parse_file(root, rel_path)
    return model.Program(files)
