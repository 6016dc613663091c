"""The always-available text frontend.

A purpose-built tokenizer + pragmatic declaration scanner for this
repository's C++ subset.  It is not a C++ parser; it understands exactly as
much structure as the checks need:

  * class/struct scopes and namespace nesting (for qualified names);
  * member declarations (types, and QLock members with their class names);
  * function definitions/declarations, their trailing annotation macros
    (MAY_BLOCK, REQUIRES(...)), and their body token slices;
  * base classes (with template arguments), class template parameters and
    constructor mem-initializers, so a QLock declared unnamed in a shared
    base resolves to the class name each derived constructor passes it;
  * within bodies: QLockGuard scopes (including mid-scope Unlock()/Lock()),
    local variable types for receiver resolution, and call sites with
    receiver chains (`a->b()`, `x.y()`, `A::B()`, chained `p()->q()`).

Phase 1 (parse_file) builds per-file raw records; phase 2 (analyze) runs
with the whole-program indexes complete, so cross-file receiver types and
lock classes resolve.
"""

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .model import CallSite, Function, LockAcq, Program, Token

# Multi-character punctuators the scanner must keep whole.  '>>' is NOT
# here: splitting it into two '>' makes template-argument tracking easy and
# shift expressions do not occur at declaration scope.
_PUNCTS = [
    "::", "->", "<<=", ">>=", "<=", ">=", "==", "!=", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", "...", "++", "--",
]
_PUNCTS.sort(key=len, reverse=True)

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"(?:0[xX][0-9a-fA-F']+|[0-9][0-9a-fA-F'.eExXpPuUlLfF]*)")

KEYWORDS = {
    "if", "else", "while", "for", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "sizeof", "alignof", "new",
    "delete", "throw", "try", "catch", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "co_await", "co_return", "co_yield",
    "and", "or", "not", "this", "nullptr", "true", "false", "operator",
}

_DECL_QUALIFIERS = {
    "virtual", "static", "inline", "constexpr", "explicit", "friend",
    "mutable", "typename", "const", "volatile", "extern", "thread_local",
    "noexcept", "override", "final", "public", "private", "protected",
}

_SMART_WRAPPERS = {"unique_ptr", "shared_ptr", "weak_ptr"}

_ANNOTATION_MACROS = {
    "REQUIRES", "EXCLUDES", "ACQUIRE", "RELEASE", "TRY_ACQUIRE",
    "ASSERT_CAPABILITY", "RETURN_CAPABILITY", "GUARDED_BY", "PT_GUARDED_BY",
}

# Data-path ownership annotations (src/base/block_annotations.h).  The
# parenthesized ones name a parameter; P9_HOT_PATH is bare like MAY_BLOCK.
_OWNERSHIP_MACROS = {"P9_CONSUMES", "P9_BORROWS"}


def lex(text: str) -> List[Token]:
    """Tokenize, dropping comments, preprocessor lines and whitespace.

    String literals are kept as single tokens (kind "str") holding the raw
    characters between the quotes; adjacent literals are NOT merged here.
    """
    toks: List[Token] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\v\f":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    break
                line += text.count("\n", i, j)
                i = j + 2
                continue
        if c == "#":
            # Preprocessor line (with continuations).
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\":
                    j = k + 1
                    continue
                j = k
                break
            line += text.count("\n", i, j)
            i = j
            continue
        if c == '"':
            # Raw strings appear only in tests; handle the common form anyway.
            if toks and toks[-1].kind == "id" and toks[-1].text == "R":
                j = text.find('"', i + 1)
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j : j + 2])
                    j += 2
                    continue
                buf.append(text[j])
                j += 1
            toks.append(Token("str", "".join(buf), line))
            line += text.count("\n", i, j)
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            toks.append(Token("chr", text[i + 1 : j], line))
            i = j + 1
            continue
        m = _ID_RE.match(text, i)
        if m:
            toks.append(Token("id", m.group(), line))
            i = m.end()
            continue
        m = _NUM_RE.match(text, i)
        if m:
            toks.append(Token("num", m.group(), line))
            i = m.end()
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            toks.append(Token("punct", c, line))
            i += 1
    return toks


@dataclass
class RawFunction:
    qname: str
    cls: Optional[str]
    file: str
    line: int
    may_block: bool
    requires: List[str]
    body: List[Token]  # empty for bare declarations
    has_body: bool
    hot: bool = False  # P9_HOT_PATH on this declaration/definition
    consumes: List[str] = field(default_factory=list)  # P9_CONSUMES(param)
    borrows: List[str] = field(default_factory=list)  # P9_BORROWS(param)
    params: List[Tuple[Optional[str], str]] = field(default_factory=list)


@dataclass
class FileIndex:
    path: str
    raw_functions: List[RawFunction] = field(default_factory=list)
    # All tokens, for the token-stream checks (fmt-arity, metric-name).
    tokens: List[Token] = field(default_factory=list)


def _match_forward(toks: List[Token], i: int, open_t: str, close_t: str) -> int:
    """Index just past the token matching the opener at toks[i]."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _init_name(toks: List[Token], k: int) -> Optional[str]:
    """The mem-initializer name ending at toks[k]: `Base` of `Base(...)`, and
    of `Base<C>(...)`, the spelling a class template needs for its base."""
    if toks[k].text == ">":
        depth = 0
        while k >= 0:
            if toks[k].text == ">":
                depth += 1
            elif toks[k].text == "<":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        k -= 1
    return toks[k].text if k >= 0 and toks[k].kind == "id" else None


class _Parser:
    def __init__(self, program: Program, path: str, toks: List[Token]):
        self.program = program
        self.path = path
        self.toks = toks
        self.i = 0
        self.n = len(toks)
        # `template <class C>` just seen: the parameters of the next declaration.
        self._tparams: List[str] = []

    # ---- helpers ---------------------------------------------------------

    def _tok(self, k: int = 0) -> Optional[Token]:
        j = self.i + k
        return self.toks[j] if 0 <= j < self.n else None

    def _skip_to(self, stop: str) -> None:
        """Skip to just past `stop` at depth 0, balancing (), {} and []."""
        depth = 0
        while self.i < self.n:
            t = self.toks[self.i].text
            if t in "({[":
                depth += 1
            elif t in ")}]":
                depth -= 1
            elif t == stop and depth <= 0:
                self.i += 1
                return
            self.i += 1

    def _skip_template_args(self) -> None:
        """self.i at '<': skip balanced template arguments."""
        depth = 0
        while self.i < self.n:
            t = self.toks[self.i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return
            elif t in ";{":
                return  # not actually template args; bail
            self.i += 1

    # ---- declaration scope ----------------------------------------------

    def parse(self) -> List[RawFunction]:
        out: List[RawFunction] = []
        self._parse_scope(None, out, top=True)
        return out

    def _parse_scope(self, cls: Optional[str], out: List[RawFunction], top: bool = False) -> None:
        while self.i < self.n:
            t = self.toks[self.i]
            text = t.text
            # Template parameters apply to the declaration right after them.
            tparams, self._tparams = self._tparams, []
            if text == "}":
                if not top:
                    self.i += 1
                    return
                self.i += 1
                continue
            if text == ";":
                self.i += 1
                continue
            if text == "namespace":
                self.i += 1
                while self._tok() and self._tok().kind == "id":
                    self.i += 1
                    if self._tok() and self._tok().text == "::":
                        self.i += 1
                if self._tok() and self._tok().text == "{":
                    self.i += 1
                    self._parse_scope(cls, out)
                else:
                    self._skip_to(";")
                continue
            if text in ("class", "struct"):
                self._parse_class(out, tparams)
                continue
            if text == "enum":
                # enum [class] Name [: type] { ... };
                while self.i < self.n and self.toks[self.i].text != "{":
                    if self.toks[self.i].text == ";":
                        break
                    self.i += 1
                if self.i < self.n and self.toks[self.i].text == "{":
                    self.i = _match_forward(self.toks, self.i, "{", "}")
                self._skip_to(";")
                continue
            if text == "template":
                self.i += 1
                if self._tok() and self._tok().text == "<":
                    start = self.i
                    self._skip_template_args()
                    self._tparams = _template_param_names(self.toks[start:self.i])
                continue
            if text in ("using", "typedef", "static_assert", "extern"):
                self._skip_to(";")
                continue
            if text in ("public", "private", "protected"):
                self.i += 1
                if self._tok() and self._tok().text == ":":
                    self.i += 1
                continue
            if text == "friend":
                self._skip_to(";")
                continue
            self._parse_declaration(cls, out)

    def _parse_class(self, out: List[RawFunction], tparams: List[str]) -> None:
        self.i += 1  # past class/struct
        # Skip attributes like CAPABILITY("qlock") / SCOPED_CAPABILITY.
        name = None
        while self._tok():
            t = self._tok()
            if t.kind == "id":
                nxt = self._tok(1)
                if t.text == "final" and name is not None:
                    self.i += 1  # `class Name final : ...`
                    continue
                if t.text.isupper() is False and nxt and nxt.text in ("{", ":", ";", "<"):
                    name = t.text
                    self.i += 1
                    break
                if nxt and nxt.text == "(":
                    # annotation macro with args
                    self.i += 1
                    self.i = _match_forward(self.toks, self.i, "(", ")")
                    continue
                name = t.text
                self.i += 1
                if self._tok() and self._tok().text not in ("{", ":", ";", "<"):
                    continue  # previous id was a macro; keep the latest
                break
            else:
                break
        # Template specialization args on the name.
        if self._tok() and self._tok().text == "<":
            self._skip_template_args()
        if self._tok() and self._tok().text == ":":
            # base clause
            start = self.i + 1
            while self.i < self.n and self.toks[self.i].text != "{":
                if self.toks[self.i].text == ";":
                    self.i += 1
                    return
                self.i += 1
            if name:
                self.program.bases[name] = _base_clause(self.toks[start:self.i])
        if name and tparams:
            self.program.template_params[name] = tparams
        if self._tok() and self._tok().text == "{":
            self.i += 1
            self._parse_scope(name, out)
            self._skip_to(";")
        else:
            self._skip_to(";")

    # ---- a single declaration at class/namespace scope -------------------

    def _parse_declaration(self, cls: Optional[str], out: List[RawFunction]) -> None:
        start = self.i
        depth = 0
        head_end = None  # index of the structural token
        kind = None
        j = self.i
        while j < self.n:
            tt = self.toks[j].text
            if (tt == "<" and self.toks[j - 1].kind == "id"
                    and self.toks[j - 1].text != "operator"):
                # template args in a type: skip balanced
                d = 0
                while j < self.n:
                    u = self.toks[j].text
                    if u == "<":
                        d += 1
                    elif u == ">":
                        d -= 1
                        if d == 0:
                            break
                    elif u in ";{(":
                        d = 0
                        j -= 1
                        break
                    j += 1
                j += 1
                continue
            if tt == "(" and depth == 0:
                kind, head_end = "func", j
                break
            if tt == "{" and depth == 0:
                kind, head_end = "var_brace", j
                break
            if tt == "=" and depth == 0:
                kind, head_end = "var_eq", j
                break
            if tt == ";" and depth == 0:
                kind, head_end = "var_plain", j
                break
            j += 1
        if kind is None:
            self.i = self.n
            return

        if kind != "func":
            slice_end = head_end
            if kind == "var_brace":
                close = _match_forward(self.toks, head_end, "{", "}")
                self._record_member(cls, self.toks[start:head_end], self.toks[head_end:close])
                self.i = close
                self._skip_to(";")
            elif kind == "var_eq":
                self._record_member(cls, self.toks[start:head_end], [])
                self.i = head_end
                self._skip_to(";")
            else:
                self._record_member(cls, self.toks[start:head_end], [])
                self.i = head_end + 1
            return

        # Function-ish.  Name = id sequence just before '('.
        name_idx = head_end - 1
        if name_idx < start or self.toks[name_idx].kind != "id":
            # e.g. `operator<(...)`: still function-shaped, so consume the
            # params and tail (incl. a possible body) without recording —
            # _skip_to(";") here would eat the enclosing class's brace.
            self.i = _match_forward(self.toks, head_end, "(", ")")
            self._paren_then_tail(cls, None, None, start, record=False)
            return
        name = self.toks[name_idx].text
        qual = cls
        k = name_idx - 1
        if k > start and self.toks[k].text == "~":
            name = "~" + name
            k -= 1
        # A::B( — out-of-class definition: innermost explicit qualifier wins.
        if k > start and self.toks[k].text == "::" and self.toks[k - 1].kind == "id":
            qual = self.toks[k - 1].text
        if name == "operator" or self.toks[name_idx - 1].text == "operator":
            self.i = head_end
            self._paren_then_tail(cls, None, None, start, record=False)
            return

        params_end = _match_forward(self.toks, head_end, "(", ")")
        params = _parse_params(self.toks[head_end + 1 : params_end - 1])
        self.i = params_end
        self._paren_then_tail(cls, qual, name, start, record=True, head_start=start,
                              name_line=self.toks[name_idx].line, params=params,
                              ctor_params=self.toks[head_end + 1 : params_end - 1])

    def _paren_then_tail(self, cls, qual, name, start, record, head_start=0, name_line=0,
                         params=None, ctor_params=None):
        """self.i just past the parameter ')': consume qualifiers + body/;."""
        may_block = False
        hot = False
        requires: List[str] = []
        consumes: List[str] = []
        borrows: List[str] = []
        while self.i < self.n:
            t = self.toks[self.i]
            tt = t.text
            if tt == "MAY_BLOCK":
                may_block = True
                self.i += 1
                continue
            if tt == "P9_HOT_PATH":
                hot = True
                self.i += 1
                continue
            if t.kind == "id" and tt in _OWNERSHIP_MACROS:
                self.i += 1
                if self._tok() and self._tok().text == "(":
                    arg_start = self.i + 1
                    end = _match_forward(self.toks, self.i, "(", ")")
                    arg = "".join(x.text for x in self.toks[arg_start : end - 1])
                    (consumes if tt == "P9_CONSUMES" else borrows).append(arg)
                    self.i = end
                continue
            if t.kind == "id" and tt in _ANNOTATION_MACROS:
                self.i += 1
                if self._tok() and self._tok().text == "(":
                    arg_start = self.i + 1
                    end = _match_forward(self.toks, self.i, "(", ")")
                    if tt == "REQUIRES":
                        requires.append(
                            "".join(x.text for x in self.toks[arg_start : end - 1]))
                    self.i = end
                continue
            if t.kind == "id" and (tt in _DECL_QUALIFIERS or tt == "MAY_BLOCK"):
                self.i += 1
                continue
            if tt == "(":  # noexcept(...)
                self.i = _match_forward(self.toks, self.i, "(", ")")
                continue
            if tt == "->":  # trailing return type
                self.i += 1
                while self._tok() and self._tok().text not in ("{", ";"):
                    self.i += 1
                continue
            break
        t = self._tok()
        if t is None:
            return
        body: List[Token] = []
        has_body = False
        if t.text == ";":
            self.i += 1
        elif t.text == "=":
            self._skip_to(";")  # = 0 / = default / = delete
        elif t.text == ":":
            # ctor init list: entries (id(..) or id{..}) up to the body.
            self.i += 1
            inits: List[Tuple[str, List[List[Token]]]] = []
            while self.i < self.n:
                u = self.toks[self.i]
                prev = self.toks[self.i - 1]
                if u.text == "(" or (u.text == "{" and prev.kind == "id"):
                    close = ")" if u.text == "(" else "}"
                    end = _match_forward(self.toks, self.i, u.text, close)
                    init = _init_name(self.toks, self.i - 1)
                    if init is not None:  # member(init) / Base(args) / Base<T>(args)
                        inits.append((init, _split_args(self.toks[self.i + 1 : end - 1])))
                    self.i = end
                elif u.text == "{":
                    break  # the body
                elif u.text == ";":
                    self.i += 1
                    return
                else:
                    self.i += 1
            if record and name is not None and name == qual:
                self.program.ctor_inits.setdefault(qual, []).append(
                    (_param_names(ctor_params or []), inits))
            if self.i < self.n and self.toks[self.i].text == "{":
                end = _match_forward(self.toks, self.i, "{", "}")
                body = self.toks[self.i + 1 : end - 1]
                has_body = True
                self.i = end
        elif t.text == "{":
            end = _match_forward(self.toks, self.i, "{", "}")
            body = self.toks[self.i + 1 : end - 1]
            has_body = True
            self.i = end
        else:
            self._skip_to(";")
            return
        if not record or name is None:
            return
        qname = f"{qual}::{name}" if qual else name
        # Leading MAY_BLOCK / P9_HOT_PATH (before the return type) also count.
        for x in self.toks[head_start : head_start + 6]:
            if x.text == "MAY_BLOCK":
                may_block = True
            if x.text == "P9_HOT_PATH":
                hot = True
        self.raw_out.append(
            RawFunction(qname=qname, cls=qual, file=self.path, line=name_line,
                        may_block=may_block, requires=requires, body=body,
                        has_body=has_body, hot=hot, consumes=consumes,
                        borrows=borrows, params=params or []))
        # Return type (for a()->b() chains): first useful id of the head.
        rt = _bare_type(self.toks[head_start : max(head_start, 0) + 0] or [])
        rt = _bare_type(self.toks[head_start:], stop_at=name)
        if rt:
            self.program.return_types.setdefault(qname, rt)

    def _record_member(self, cls: Optional[str], decl: List[Token], init: List[Token]) -> None:
        if cls is None or not decl:
            return
        ids = [t for t in decl if t.kind == "id"]
        if len(ids) < 2:
            return
        name = None
        for t in reversed(decl):
            if t.kind == "id" and t.text not in _DECL_QUALIFIERS:
                name = t.text
                break
        if name is None:
            return
        if ids[0].text == "QLock" or (ids[0].text in _DECL_QUALIFIERS and len(ids) > 1
                                      and ids[1].text == "QLock"):
            lock_class = ""
            for t in init:
                if t.kind == "str":
                    lock_class = t.text
                    break
            self.program.lock_classes[(cls, name)] = lock_class
            self.program.member_types[(cls, name)] = "QLock"
            return
        bt = _bare_type(decl, stop_at=name)
        if bt:
            self.program.member_types[(cls, name)] = bt

    # plumbing: the declaration parser appends here
    raw_out: List[RawFunction] = None


def _parse_params(toks: List[Token]) -> List[Tuple[Optional[str], str]]:
    """(bare type, name) per parameter; unnamed parameters are skipped.

    `BlockPtr b` -> ("BlockPtr", "b"); `const Bytes& msg` -> ("Bytes",
    "msg"); default arguments are ignored.
    """
    groups: List[List[Token]] = [[]]
    depth = 0
    for t in toks:
        if t.text in "([{<":
            depth += 1
        elif t.text in ")]}>":
            depth -= 1
        elif t.text == "," and depth == 0:
            groups.append([])
            continue
        groups[-1].append(t)
    out: List[Tuple[Optional[str], str]] = []
    for g in groups:
        # Drop a default argument: everything from a top-level '='.
        d = 0
        for k, t in enumerate(g):
            if t.text in "([{<":
                d += 1
            elif t.text in ")]}>":
                d -= 1
            elif t.text == "=" and d == 0:
                g = g[:k]
                break
        ids = [t for t in g if t.kind == "id" and t.text not in _DECL_QUALIFIERS
               and t.text != "std"]
        if len(ids) < 2:
            continue  # unnamed (`int`, `BlockPtr&&`) or empty
        name = ids[-1].text
        out.append((_bare_type(g, stop_at=name), name))
    return out


def _split_args(toks: List[Token]) -> List[List[Token]]:
    """Split an argument list at its top-level commas."""
    groups: List[List[Token]] = [[]]
    depth = 0
    for t in toks:
        if t.text in "([{<":
            depth += 1
        elif t.text in ")]}>":
            depth -= 1
        elif t.text == "," and depth == 0:
            groups.append([])
            continue
        groups[-1].append(t)
    return groups if toks else []


def _param_names(toks: List[Token]) -> List[Optional[str]]:
    """Positional parameter names; None for an unnamed parameter."""
    out: List[Optional[str]] = []
    for g in _split_args(toks):
        ids = [t.text for t in g if t.kind == "id" and t.text not in _DECL_QUALIFIERS]
        out.append(ids[-1] if len(ids) >= 2 else None)
    return out


def _template_param_names(toks: List[Token]) -> List[str]:
    """`< class C , typename T >` -> ["C", "T"]."""
    return [toks[k + 1].text for k, t in enumerate(toks[:-1])
            if t.text in ("class", "typename") and toks[k + 1].kind == "id"]


def _base_clause(toks: List[Token]) -> List[Tuple[str, List[str]]]:
    """`public A<B>, private C` -> [("A", ["B"]), ("C", [])]."""
    out: List[Tuple[str, List[str]]] = []
    for g in _split_args(toks):
        lt = next((k for k, t in enumerate(g) if t.text == "<"), len(g))
        ids = [t.text for t in g[:lt] if t.kind == "id"
               and t.text not in ("public", "private", "protected", "virtual")]
        if not ids:
            continue
        args = [_bare_type(a) for a in _split_args(g[lt + 1 : -1])] if lt < len(g) else []
        out.append((ids[-1], [a for a in args if a]))
    return out


def _bare_type(toks: List[Token], stop_at: Optional[str] = None) -> Optional[str]:
    """Best-effort bare type name from a declaration head.

    `std::unique_ptr<MsgTransport>` -> MsgTransport; `IlProto*` -> IlProto;
    `Result<size_t>` -> Result.  Stops before the declarator name.
    """
    ids: List[str] = []
    depth = 0
    wrapper = False
    inner: List[str] = []
    for t in toks:
        if t.text == "<":
            depth += 1
            continue
        if t.text == ">":
            depth -= 1
            continue
        if t.kind != "id":
            continue
        if t.text in _DECL_QUALIFIERS or t.text in ("std",):
            continue
        if stop_at and t.text == stop_at and depth == 0 and ids:
            break
        if depth == 0:
            ids.append(t.text)
            if t.text in _SMART_WRAPPERS:
                wrapper = True
        elif depth >= 1 and wrapper:
            inner.append(t.text)
    if wrapper and inner:
        return inner[-1]
    return ids[0] if ids else None


def parse_file(program: Program, path: str, text: str) -> FileIndex:
    toks = lex(text)
    fi = FileIndex(path=path, tokens=toks)
    p = _Parser(program, path, toks)
    p.raw_out = fi.raw_functions
    p.parse()
    return fi


# --------------------------------------------------------------------------
# Phase 2: body analysis with complete whole-program indexes.
# --------------------------------------------------------------------------

_CAST_NAMES = {"static_cast", "dynamic_cast", "reinterpret_cast", "const_cast"}


def _ancestry(program: Program, cls: str) -> List[str]:
    """cls, then its bases transitively, nearest first."""
    out: List[str] = []
    queue = [cls]
    while queue:
        c = queue.pop(0)
        if c not in out:
            out.append(c)
            queue.extend(b for b, _args in program.bases.get(c, ()))
    return out


def _lookup(program: Program, table: Dict[Tuple[str, str], str], cls: Optional[str],
            member: str) -> Optional[str]:
    """table[(cls, member)], or the nearest base's entry for an inherited member."""
    if cls is None:
        return None
    for c in _ancestry(program, cls):
        if (c, member) in table:
            return table[(c, member)]
    return None


def _find_method(program: Program, cls: str, name: str) -> Optional[str]:
    for c in _ancestry(program, cls):
        if f"{c}::{name}" in program.functions:
            return f"{c}::{name}"
    return None


def _resolve_lock_class(program: Program, cls: Optional[str], expr: str) -> Optional[str]:
    """Map a lock expression to its declared class name.

    `lock_` -> lock_classes[(cls, "lock_")]; `c->lock_` with c of type T ->
    lock_classes[(T, "lock_")], inherited members included.  Returns None
    when unknown, "" for unnamed.
    """
    expr = expr.strip()
    if "->" in expr or "." in expr:
        recv, _, member = expr.rpartition("->")
        if not recv:
            recv, _, member = expr.rpartition(".")
        recv = recv.split("->")[-1].split(".")[-1].strip("()*& ")
        rt = _lookup(program, program.member_types, cls, recv)
        if rt is None:
            rt = _LOCAL_TYPES.get(recv)
        return _lookup(program, program.lock_classes, rt, member)
    return _lookup(program, program.lock_classes, cls, expr)


def _bind_lock_classes(program: Program) -> None:
    """Name the QLocks a shared base declares unnamed.

    A base constructs its lock from a constructor parameter
    (`ConvCore(..., const char* lock_class, ...) : lock_(lock_class)`), and
    each derived class passes the name, directly or through intermediate
    bases (`IlConv(...) : IpConv(..., "il.conv", ...)`).  Records the name
    as lock_classes[(derived, member)].
    """
    param_of: Dict[Tuple[str, str], int] = {}  # (class, lock) -> ctor arg index

    def is_lock(c: str, member: str) -> bool:
        return program.member_types.get((c, member)) == "QLock"

    changed = True
    while changed:
        changed = False
        for cls, ctors in program.ctor_inits.items():
            bases = {b for b, _args in program.bases.get(cls, ())}
            for params, inits in ctors:
                for name, args in inits:
                    sources = []  # (lock member, the argument naming it)
                    if is_lock(cls, name) and len(args) == 1:
                        sources.append((name, args[0]))
                    elif name in bases:
                        sources += [(m, args[k]) for (b, m), k in param_of.items()
                                    if b == name and k < len(args)]
                    for member, arg in sources:
                        if len(arg) != 1:
                            continue
                        key = (cls, member)
                        if arg[0].kind == "str" and name in bases:
                            if program.lock_classes.get(key) != arg[0].text:
                                program.lock_classes[key] = arg[0].text
                                changed = True
                        elif arg[0].kind == "id" and arg[0].text in params:
                            k = params.index(arg[0].text)
                            if param_of.get(key) != k:
                                param_of[key] = k
                                changed = True


_LOCAL_TYPES: Dict[str, str] = {}


def analyze(program: Program, files: List[FileIndex]) -> None:
    """Fill Function records (calls, acquisitions) from the raw bodies.

    Two passes: first register every function shell so call resolution can
    see forward references and cross-file definitions, then walk the bodies.
    """
    pending: List[RawFunction] = []
    for fi in files:
        for raw in fi.raw_functions:
            fn = Function(qname=raw.qname, file=raw.file, line=raw.line,
                          may_block_declared=raw.may_block,
                          requires=list(raw.requires), has_body=raw.has_body)
            program.merge_function(fn)
            pending.append(raw)
    _bind_lock_classes(program)
    instances = _instances(program, pending)
    for inst_cls, _subst, raw in instances:
        name = raw.qname.rpartition("::")[2]
        program.merge_function(Function(
            qname=f"{inst_cls}::{name}", file=raw.file, line=raw.line,
            may_block_declared=program.functions[raw.qname].may_block_declared,
            requires=list(raw.requires), has_body=True))
    instantiated = {raw.cls for _c, _s, raw in instances}
    analyzed: set = set()
    for raw in pending:
        if not raw.has_body:
            continue
        if raw.qname in analyzed:
            # Colliding qname (e.g. anonymous-namespace `Module::DownPut`
            # across protocol files): the merged Function keeps the first
            # body, but the call graph must still see this body's edges —
            # hot-path propagation walks program.all_calls, not fn.calls.
            shadow = Function(qname=raw.qname, file=raw.file, line=raw.line)
            _analyze_body(program, raw, shadow)
            edges = program.all_calls.setdefault(raw.qname, set())
            edges.update(c.callee for c in shadow.calls if c.callee)
            continue
        # The surviving record is the first definition merge kept; analyzing
        # the first body raw per qname keeps them in step.
        analyzed.add(raw.qname)
        fn = program.functions[raw.qname]
        _analyze_body(program, raw, fn)
        if raw.cls in instantiated and _unnamed_lock(program, raw.cls):
            # Its locks have classes only in a derived class: the instances
            # below carry this body's acquisitions, resolved.
            fn.acquisitions = []
        edges = program.all_calls.setdefault(raw.qname, set())
        edges.update(c.callee for c in fn.calls if c.callee)
    for inst_cls, subst, raw in instances:
        qname = f"{inst_cls}::{raw.qname.rpartition('::')[2]}"
        fn = program.functions[qname]
        _analyze_body(program, raw, fn, cls=inst_cls, subst=subst)
        program.all_calls.setdefault(qname, set()).update(
            c.callee for c in fn.calls if c.callee)


def _unnamed_lock(program: Program, cls: str) -> bool:
    """Whether some lock of cls, declared or inherited, has no class name as
    seen from cls: an abstract layer of shared code."""
    ancestry = _ancestry(program, cls)
    return any(_lookup(program, program.lock_classes, cls, m) == ""
               for (c, m) in program.lock_classes if c in ancestry)


def _instances(program: Program, raws: List[RawFunction]):
    """Bodies a class inherits from a lock-bearing base, to be analyzed again
    in the derived class: (derived, template substitution, base body).

    Shared code such as the conversation core takes its lock classes and
    element types from the protocol that derives from it; analyzed in each
    protocol, its acquisitions resolve to that protocol's classes.
    """
    bodies: Dict[str, Dict[str, RawFunction]] = {}
    declared: Dict[str, set] = {}
    for raw in raws:
        if raw.cls is None:
            continue
        name = raw.qname.rpartition("::")[2]
        declared.setdefault(raw.cls, set()).add(name)
        if raw.has_body and name not in (raw.cls, "~" + raw.cls):
            bodies.setdefault(raw.cls, {}).setdefault(name, raw)
    locked = {c for (c, _m) in program.lock_classes}
    out = []
    for cls in program.bases:
        if _unnamed_lock(program, cls):
            continue  # abstract: its own derived classes get the instances
        seen = set(declared.get(cls, ()))
        for base, subst in _bases_with_args(program, cls):
            if any(c in locked for c in _ancestry(program, base)):
                out += [(cls, subst, raw) for name, raw in bodies.get(base, {}).items()
                        if name not in seen]
            seen |= declared.get(base, set())
    return out


def _bases_with_args(program: Program, cls: str) -> List[Tuple[str, Dict[str, str]]]:
    """cls's transitive bases, nearest first, each with the types its template
    parameters stand for here: IlProto -> [("ConvTable", {"C": "IlConv"}), ...]."""
    out: List[Tuple[str, Dict[str, str]]] = []
    queue: List[Tuple[str, Dict[str, str]]] = [(cls, {})]
    seen = {cls}
    while queue:
        c, subst = queue.pop(0)
        for b, args in program.bases.get(c, ()):
            if b not in seen:
                seen.add(b)
                b_subst = dict(zip(program.template_params.get(b, []),
                                   [subst.get(a, a) for a in args]))
                out.append((b, b_subst))
                queue.append((b, b_subst))
    return out


def _analyze_body(program: Program, raw: RawFunction, fn: Function,
                  cls: Optional[str] = None, subst: Optional[Dict[str, str]] = None) -> None:
    """Calls and acquisitions of raw's body, seen from class `cls` (raw's own
    by default) with template parameters replaced per `subst`."""
    subst = subst or {}
    toks = [Token(t.kind, subst[t.text], t.line) if t.kind == "id" and t.text in subst
            else t for t in raw.body]
    n = len(toks)
    cls = cls or raw.cls
    locals_types: Dict[str, str] = {}
    for ptype, pname in raw.params:
        if ptype:
            locals_types[pname] = subst.get(ptype, ptype)
    global _LOCAL_TYPES
    _LOCAL_TYPES = locals_types

    # guards: list of [var, expr, cls, depth, active]
    guards: List[list] = []
    base_held: List[Tuple[str, Optional[str]]] = []
    for expr in raw.requires:
        base_held.append((expr, _resolve_lock_class(program, cls, expr)))

    def held_now() -> List[Tuple[str, Optional[str]]]:
        out = list(base_held)
        for g in guards:
            if g[4]:
                out.append((g[1], g[2]))
        return out

    depth = 0
    i = 0
    known_types = {t for t in program.member_types.values()}
    known_types.update(c for (c, _m) in program.member_types.keys())
    known_types.update(program.bases)

    while i < n:
        t = toks[i]
        tt = t.text
        if tt == "{":
            depth += 1
            i += 1
            continue
        if tt == "}":
            depth -= 1
            guards[:] = [g for g in guards if g[3] <= depth]
            i += 1
            continue

        # Local declarations: Type[*&] name ( = | ; | ( | { )
        if (t.kind == "id" and tt in known_types and i + 1 < n):
            j = i + 1
            while j < n and toks[j].text in ("*", "&", "const"):
                j += 1
            if (j + 1 < n and toks[j].kind == "id"
                    and toks[j + 1].text in ("=", ";", "{")):
                locals_types[toks[j].text] = tt
            # Fall through: the same token may still start a call (Type(...)).

        # Casts carry types for locals: auto* x = static_cast<T*>(...)
        if t.kind == "id" and tt in _CAST_NAMES:
            # find target id between < >
            j = i + 1
            if j < n and toks[j].text == "<":
                k = j + 1
                tgt = None
                while k < n and toks[k].text != ">":
                    if toks[k].kind == "id" and toks[k].text not in _DECL_QUALIFIERS:
                        tgt = toks[k].text
                    k += 1
                # look back for `x =` immediately before the cast
                if tgt and i >= 2 and toks[i - 1].text == "=" and toks[i - 2].kind == "id":
                    locals_types[toks[i - 2].text] = tgt

        # QLockGuard scopes.
        if t.kind == "id" and tt == "QLockGuard" and i + 1 < n and toks[i + 1].kind == "id":
            var = toks[i + 1].text
            j = i + 2
            if j < n and toks[j].text in ("(", "{"):
                open_t = toks[j].text
                close_t = ")" if open_t == "(" else "}"
                end = _match_forward(toks, j, open_t, close_t)
                expr = "".join(x.text for x in toks[j + 1 : end - 1])
                lcls = _resolve_lock_class(program, cls, expr)
                acq = LockAcq(expr=expr, cls=lcls, line=t.line, held=held_now())
                fn.acquisitions.append(acq)
                guards.append([var, expr, lcls, depth, True])
                i = end
                continue

        # guard.Unlock() / guard.Lock() toggles.
        if (t.kind == "id" and i + 2 < n and toks[i + 1].text == "."
                and toks[i + 2].text in ("Unlock", "Lock")):
            for g in guards:
                if g[0] == tt:
                    g[4] = toks[i + 2].text == "Lock"
                    if g[4]:
                        fn.acquisitions.append(
                            LockAcq(expr=g[1], cls=g[2], line=t.line,
                                    held=[h for h in held_now() if h[0] != g[1]]))
                    break
            i += 3
            continue

        # Call sites: id '('
        if (t.kind == "id" and tt not in KEYWORDS and i + 1 < n
                and toks[i + 1].text == "("):
            callee = _resolve_call(program, cls, locals_types, toks, i)
            site = CallSite(callee=callee, name=tt, line=t.line, held=held_now())
            from .config import SLEEP_METHODS
            if tt in SLEEP_METHODS:
                arg_start = i + 2
                k = arg_start
                d = 0
                while k < n:
                    u = toks[k].text
                    if u in "([{":
                        d += 1
                    elif u in ")]}":
                        if d == 0:
                            break
                        d -= 1
                    elif u == "," and d == 0:
                        break
                    k += 1
                site.sleep_lock = "".join(x.text for x in toks[arg_start:k])
            fn.calls.append(site)
            i += 1
            continue

        i += 1
    _LOCAL_TYPES = {}


def _resolve_call(program: Program, cls: Optional[str],
                  locals_types: Dict[str, str], toks: List[Token], i: int) -> Optional[str]:
    """Qualified name for the call at toks[i] (an id followed by '(')."""
    name = toks[i].text

    def exists(q: str) -> Optional[str]:
        return q if q in program.functions else None

    if i >= 2 and toks[i - 1].text == "::" and toks[i - 2].kind == "id":
        q = f"{toks[i - 2].text}::{name}"
        return exists(q) or q
    if i >= 2 and toks[i - 1].text in ("->", "."):
        prev = toks[i - 2]
        if prev.kind == "id":
            recv = prev.text
            # receiver chain like a.b.c( — use the last link's type only.
            rt = locals_types.get(recv)
            if rt is None:
                rt = _lookup(program, program.member_types, cls, recv)
            if rt is None and i >= 4 and toks[i - 3].text in ("->", ".") \
                    and toks[i - 4].kind == "id":
                # x->member.Method( : member's type within x's class
                outer = toks[i - 4].text
                ot = locals_types.get(outer)
                if ot is None:
                    ot = _lookup(program, program.member_types, cls, outer)
                rt = _lookup(program, program.member_types, ot, recv)
            if rt:
                return _find_method(program, rt, name) or f"{rt}::{name}"
            return None
        if prev.text == ")":
            # chained: f(...)->Method( — find f, use its return type.
            d = 0
            k = i - 2
            while k >= 0:
                u = toks[k].text
                if u == ")":
                    d += 1
                elif u == "(":
                    d -= 1
                    if d == 0:
                        break
                k -= 1
            if k > 0 and toks[k - 1].kind == "id":
                inner = _resolve_call(program, cls, locals_types, toks, k - 1)
                if inner:
                    rt = program.return_types.get(inner)
                    if rt:
                        return _find_method(program, rt, name) or f"{rt}::{name}"
            return None
        return None
    # Bare call: method of the enclosing class or a base, else free function.
    if cls is not None and _find_method(program, cls, name):
        return _find_method(program, cls, name)
    return exists(name) or name
