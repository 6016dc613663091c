"""The five plan9lint checks, run over the Program IR."""

import re
from typing import Dict, List, Optional, Set, Tuple

from . import blockcheck, config
from .model import Finding, Function, Program, Token
from .textparse import FileIndex

# --------------------------------------------------------------------------
# MAY_BLOCK propagation.
# --------------------------------------------------------------------------


def propagate_may_block(program: Program) -> Set[str]:
    """Transitive closure: a function may block if it is annotated, is a
    seed, or calls (by resolved qualified name) a function that may block."""
    blocking: Set[str] = set(config.MAY_BLOCK_SEEDS)
    for q, fn in program.functions.items():
        if fn.may_block_declared:
            blocking.add(q)
    changed = True
    while changed:
        changed = False
        for q, fn in program.functions.items():
            if q in blocking or not fn.has_body:
                continue
            for call in fn.calls:
                if call.callee in blocking:
                    blocking.add(q)
                    changed = True
                    break
    return blocking


# --------------------------------------------------------------------------
# Check 1: blocking-under-lock.
# --------------------------------------------------------------------------


def _norm(expr: str) -> str:
    return expr.replace(" ", "")


def check_blocking_under_lock(program: Program, blocking: Set[str]) -> List[Finding]:
    out: List[Finding] = []
    for q, fn in program.functions.items():
        if not fn.has_body:
            continue
        for call in fn.calls:
            if not call.held:
                continue
            if call.callee not in blocking:
                continue
            held = list(call.held)
            if call.sleep_lock is not None:
                # The rendez-own-lock idiom: Sleep(l, ...) atomically
                # releases l, so holding l itself is the point, not a bug.
                own = _norm(call.sleep_lock)
                held = [h for h in held if _norm(h[0]) != own]
            offenders = [h for h in held
                         if h[1] not in config.SLEEPABLE_CLASSES]
            for expr, cls in offenders:
                shown = cls if cls else expr
                out.append(Finding(
                    check="blocking-under-lock",
                    file=fn.file, line=call.line, function=q,
                    message=(f"call to {call.callee} (MAY_BLOCK) while "
                             f"holding qlock {expr!r}"
                             + (f" (class \"{cls}\")" if cls else "")
                             + "; only the rendez's own lock or a sleepable"
                               " class may be held across a sleep"),
                    detail=f"callee={call.callee};held={shown}"))
    return out


# --------------------------------------------------------------------------
# Check 2: lock-order vs the declared ranks.
# --------------------------------------------------------------------------


def _declared_reach() -> Dict[str, Set[str]]:
    adj: Dict[str, Set[str]] = {}
    for a, b in config.DECLARED_ORDER:
        adj.setdefault(a, set()).add(b)
    # Floyd–Warshall-ish closure over the small DAG.
    reach: Dict[str, Set[str]] = {k: set(v) for k, v in adj.items()}
    changed = True
    while changed:
        changed = False
        for a in list(reach):
            for b in list(reach[a]):
                for c in reach.get(b, ()):
                    if c not in reach[a]:
                        reach[a].add(c)
                        changed = True
    return reach


def check_lock_order(program: Program) -> List[Finding]:
    reach = _declared_reach()
    out: List[Finding] = []
    for q, fn in program.functions.items():
        for acq in fn.acquisitions:
            b = acq.cls
            if not b:
                continue
            for _expr, a in acq.held:
                if not a or a == b:
                    continue
                if a in reach.get(b, ()):  # declared b-before-a, doing a->b
                    out.append(Finding(
                        check="lock-order",
                        file=fn.file, line=acq.line, function=q,
                        message=(f"acquires \"{b}\" while holding \"{a}\","
                                 f" but the declared order is"
                                 f" \"{b}\" before \"{a}\""),
                        detail=f"acquire={b};held={a}"))
    return out


# --------------------------------------------------------------------------
# Check 3: fd-guard.  Raw fds from P9_ASSIGN_OR_RETURN(int X, ...Source...)
# must be consumed (FdCloser, Close, or returned) before the next statement
# that can return early.
# --------------------------------------------------------------------------

_EARLY_RETURN_MACROS = {"P9_ASSIGN_OR_RETURN", "P9_RETURN_IF_ERROR"}


def _match(toks: List[Token], i: int, open_t: str, close_t: str) -> int:
    depth = 0
    n = len(toks)
    while i < n:
        if toks[i].text == open_t:
            depth += 1
        elif toks[i].text == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def check_fd_guard(program: Program, raw_bodies) -> List[Finding]:
    """raw_bodies: iterable of (qname, file, body tokens)."""
    out: List[Finding] = []
    for qname, path, toks in raw_bodies:
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            if not (t.kind == "id" and t.text == "P9_ASSIGN_OR_RETURN"
                    and i + 1 < n and toks[i + 1].text == "("):
                i += 1
                continue
            end = _match(toks, i + 1, "(", ")")
            macro = toks[i + 2 : end - 1]
            # Form: int NAME , <expr containing an fd source call>
            if len(macro) < 4 or macro[0].text != "int" or macro[1].kind != "id":
                i = end
                continue
            name = macro[1].text
            if not any(x.kind == "id" and x.text in config.FD_SOURCES
                       for x in macro[3:]):
                i = end
                continue
            # Scan forward for consumption vs. early return.
            j = end
            guarded = False
            leak_line = None
            while j < n:
                u = toks[j]
                if u.kind == "id" and u.text == name:
                    # Consumption: any statement naming the fd together with
                    # a guard type, a Close call, or returning it.
                    s = j
                    while s > end and toks[s - 1].text not in (";", "{", "}"):
                        s -= 1
                    e = j
                    while e < n and toks[e].text not in (";", "{", "}"):
                        e += 1
                    stmt = toks[s:e]
                    names = {x.text for x in stmt if x.kind == "id"}
                    if (names & config.FD_GUARD_TYPES or "Close" in names
                            or any(x.text == "return" for x in stmt)):
                        guarded = True
                        break
                    # A plain use (read/write on the fd) neither guards nor
                    # leaks; keep scanning past this statement.
                    j = e
                    continue
                if u.kind == "id" and u.text == "return":
                    leak_line = u.line
                    break
                if (u.kind == "id" and u.text in _EARLY_RETURN_MACROS):
                    leak_line = u.line
                    break
                j += 1
            if not guarded and leak_line is not None:
                out.append(Finding(
                    check="fd-guard",
                    file=path, line=leak_line, function=qname,
                    message=(f"raw fd {name!r} can leak: an early return is"
                             f" reachable before it is wrapped in FdCloser,"
                             f" closed, or returned"),
                    detail=f"fd={name}"))
            i = end
        # next function
    return out


# --------------------------------------------------------------------------
# Check 4: fmt-arity for StrFormat-style printf wrappers.
# --------------------------------------------------------------------------

_CONV_RE = re.compile(
    r"%(?P<flags>[-+ #0]*)(?P<width>\*|\d+)?(?:\.(?P<prec>\*|\d+))?"
    r"(?:hh|h|ll|l|j|z|t|L)?(?P<conv>[diouxXeEfFgGaAcspn%])")


def _count_conversions(fmt: str) -> int:
    count = 0
    for m in _CONV_RE.finditer(fmt):
        if m.group("conv") == "%":
            continue
        count += 1
        if m.group("width") == "*":
            count += 1
        if m.group("prec") == "*":
            count += 1
    return count


def check_fmt_arity(files: List[FileIndex]) -> List[Finding]:
    out: List[Finding] = []
    for fi in files:
        toks = fi.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if not (t.kind == "id" and t.text in config.FORMAT_FUNCTIONS
                    and i + 1 < n and toks[i + 1].text == "("):
                continue
            j = i + 2
            if j >= n or toks[j].kind != "str":
                continue  # non-literal format: out of scope
            fmt = ""
            while j < n and toks[j].kind == "str":
                fmt += toks[j].text
                j += 1
            expected = _count_conversions(fmt)
            # Count the remaining top-level arguments.
            if j < n and toks[j].text == ")":
                got = 0
            elif j < n and toks[j].text == ",":
                got = 1
                depth = 0
                k = j + 1
                while k < n:
                    u = toks[k].text
                    if u in "([{":
                        depth += 1
                    elif u in ")]}":
                        if depth == 0:
                            break
                        depth -= 1
                    elif u == "," and depth == 0:
                        got += 1
                    elif u == "<" and toks[k - 1].kind == "id":
                        pass  # templates in args don't nest commas we count
                    k += 1
            else:
                continue  # adjacent-literal split across macros etc.
            if got != expected:
                out.append(Finding(
                    check="fmt-arity",
                    file=fi.path, line=t.line, function="",
                    message=(f"format string {fmt!r} expects {expected}"
                             f" argument(s) but {got} passed"),
                    detail=f"fmt={fmt};expected={expected};got={got}"))
    return out


# --------------------------------------------------------------------------
# Check 5: metric-name grammar.
# --------------------------------------------------------------------------

_METRIC_RE = re.compile(
    r"^(?:%s)(?:\.%s){2,}$" % ("|".join(config.METRIC_FAMILIES),
                               config.METRIC_SEGMENT))


def _metric_name_index(toks, i: int) -> int:
    """Index of the name literal a metric declaration at toks[i] names, or
    -1.  Two forms: a registry lookup, `CounterNamed("net.il.rtt")`, and a
    stats-struct member declared once with its name,
    `obs::Counter msgs_sent{this, "net.il.msgs-sent"};`."""
    n = len(toks)
    t = toks[i]
    if t.kind != "id":
        return -1
    if t.text in config.METRIC_FACTORIES:
        j = i + 2
        if not (j < n and toks[i + 1].text == "("):
            return -1
    elif t.text in config.METRIC_MEMBER_TYPES:
        j = i + 5
        if not (j < n and toks[i + 1].kind == "id" and toks[i + 2].text == "{"
                and toks[i + 3].text == "this" and toks[i + 4].text == ","):
            return -1
    else:
        return -1
    if toks[j].kind != "str":
        return -1  # declaration or computed name
    if j + 1 < n and toks[j + 1].kind == "str":
        return -1  # concatenated literals: dynamic enough to skip
    return j


def check_metric_names(files: List[FileIndex]) -> List[Finding]:
    out: List[Finding] = []
    for fi in files:
        toks = fi.tokens
        for i, t in enumerate(toks):
            j = _metric_name_index(toks, i)
            if j < 0:
                continue
            name = toks[j].text
            if not _METRIC_RE.match(name):
                out.append(Finding(
                    check="metric-name",
                    file=fi.path, line=t.line, function="",
                    message=(f"metric name {name!r} violates the grammar"
                             f" <family>.<subsystem>.<name> with family in "
                             + "{" + ",".join(config.METRIC_FAMILIES) + "}"
                             + " and lowercase dash-separated segments"
                               " (DESIGN.md section 9)"),
                    detail=f"name={name}"))
    return out


# --------------------------------------------------------------------------
# Check 6: span-op-name grammar.  Dotted op names are what the trace9
# stitcher groups per-hop latency by (DESIGN.md section 12); a misspelled
# family silently falls out of the attribution tables.
# --------------------------------------------------------------------------

_SPAN_RE = re.compile(
    r"^(?:%s)(?:\.%s)+$" % ("|".join(config.SPAN_FAMILIES),
                            config.METRIC_SEGMENT))


def check_span_names(files: List[FileIndex]) -> List[Finding]:
    out: List[Finding] = []
    for fi in files:
        toks = fi.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if not (t.kind == "id" and t.text in config.SPAN_FACTORIES):
                continue
            j = i + 1
            # ScopedSpan is a constructor: `ScopedSpan span("op", ...)` puts
            # the variable name between the type and the open paren.
            if j < n and toks[j].kind == "id":
                j += 1
            if not (j < n and toks[j].text == "("):
                continue
            j += 1
            if j >= n or toks[j].kind != "str":
                continue  # computed op (FcallSpanOp's table) or a declaration
            name = toks[j].text
            if j + 1 < n and toks[j + 1].kind == "str":
                continue  # concatenated literals: dynamic enough to skip
            if not _SPAN_RE.match(name):
                out.append(Finding(
                    check="span-op-name",
                    file=fi.path, line=t.line, function="",
                    message=(f"span op {name!r} violates the grammar"
                             f" <family>(.<segment>)+ with family in "
                             + "{" + ",".join(config.SPAN_FAMILIES) + "}"
                             + " and lowercase dash-separated segments"
                               " (DESIGN.md section 12)"),
                    detail=f"op={name}"))
    return out


# --------------------------------------------------------------------------
# Driver entry.
# --------------------------------------------------------------------------


def run_all(program: Program, files: List[FileIndex]) -> List[Finding]:
    blocking = propagate_may_block(program)
    findings: List[Finding] = []
    findings += check_blocking_under_lock(program, blocking)
    findings += check_lock_order(program)
    raw_bodies = []
    for fi in files:
        for raw in fi.raw_functions:
            if raw.has_body:
                raw_bodies.append((raw.qname, raw.file, raw.body))
    findings += check_fd_guard(program, raw_bodies)
    findings += check_fmt_arity(files)
    findings += check_metric_names(files)
    findings += check_span_names(files)
    findings += blockcheck.run(program, files)
    findings.sort(key=lambda f: (f.file, f.line, f.check, f.detail))
    return findings
