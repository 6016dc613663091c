"""Intermediate representation shared by every frontend and check."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class Token:
    kind: str  # "id" | "num" | "str" | "punct"
    text: str
    line: int


@dataclass
class CallSite:
    """One resolved-or-not call inside a function body."""

    callee: Optional[str]  # qualified "Class::Name" or "Name"; None if unresolved
    name: str  # bare callee name as written
    line: int
    # Lock expressions textually held at the call (e.g. "lock_", "c->lock_"),
    # each paired with its resolved class name or None.
    held: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    # For rendez sleeps: the first-argument lock expression.
    sleep_lock: Optional[str] = None


@dataclass
class LockAcq:
    """A QLockGuard acquisition observed in a body."""

    expr: str
    cls: Optional[str]
    line: int
    held: List[Tuple[str, Optional[str]]] = field(default_factory=list)


@dataclass
class Function:
    qname: str  # "Class::Name" or "Name"
    file: str
    line: int
    may_block_declared: bool = False
    requires: List[str] = field(default_factory=list)  # REQUIRES(...) exprs
    calls: List[CallSite] = field(default_factory=list)
    acquisitions: List[LockAcq] = field(default_factory=list)
    has_body: bool = False


@dataclass
class Program:
    """Whole-program index the checks run over."""

    functions: Dict[str, Function] = field(default_factory=dict)
    # (class, member) -> bare type name, e.g. ("NinepClient","transport_") ->
    # "MsgTransport" (smart-pointer wrappers stripped).
    member_types: Dict[Tuple[str, str], str] = field(default_factory=dict)
    # (class, member) -> declared lock class, e.g. ("Queue","lock_") ->
    # "stream.queue"; "" for unnamed per-instance classes.
    lock_classes: Dict[Tuple[str, str], str] = field(default_factory=dict)
    # method qname -> bare return type (for a()->b() chains).
    return_types: Dict[str, str] = field(default_factory=dict)
    # class -> direct bases, each with its template arguments' bare type
    # names: ("IlProto") -> [("IpConvTable", ["IlConv"])].
    bases: Dict[str, List[Tuple[str, List[str]]]] = field(default_factory=dict)
    # class template -> its type parameter names: "ConvTable" -> ["C"].
    template_params: Dict[str, List[str]] = field(default_factory=dict)
    # class -> its constructors' parameter names (None when unnamed) and
    # mem-initializers, each an initialized name with its argument token
    # lists: `IlProto(IpStack* ip) : ConvTable("il.proto"), ip_(ip)`.
    ctor_inits: Dict[str, List[Tuple[List[Optional[str]],
                                     List[Tuple[str, List[List[Token]]]]]]] = \
        field(default_factory=dict)
    # qname -> resolved callee qnames, unioned over EVERY body with that
    # qname (colliding anonymous-namespace classes included) — the graph
    # hot-path propagation walks.  Function.calls keeps only the first body.
    all_calls: Dict[str, Set[str]] = field(default_factory=dict)
    findings_inputs: Dict[str, list] = field(default_factory=dict)

    def merge_function(self, fn: Function) -> None:
        prev = self.functions.get(fn.qname)
        if prev is None:
            self.functions[fn.qname] = fn
            return
        prev.may_block_declared = prev.may_block_declared or fn.may_block_declared
        # A definition (with body) supersedes a bare declaration for calls.
        if fn.has_body and not prev.has_body:
            fn.may_block_declared = fn.may_block_declared or prev.may_block_declared
            self.functions[fn.qname] = fn


@dataclass(frozen=True)
class Finding:
    check: str
    file: str
    line: int
    function: str
    message: str
    detail: str  # stable discriminator for the baseline key (no line numbers)

    def key(self) -> str:
        return f"{self.check}|{self.file}|{self.function}|{self.detail}"

    def render(self) -> str:
        where = f"{self.file}:{self.line}"
        fn = f" [{self.function}]" if self.function else ""
        return f"{where}: {self.check}{fn}: {self.message}"
