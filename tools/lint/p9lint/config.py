"""Project invariants plan9lint enforces.

This file is the single source of truth shared (by convention, checked in
review) with the runtime counterparts:

  * SLEEPABLE_CLASSES mirrors the `kSleepableClass` constructor tags in the
    tree (src/task/qlock.h); lockcheck::OnBlock enforces the same list at
    run time.
  * DECLARED_ORDER mirrors the lock hierarchy of DESIGN.md section 7, which
    src/task/lockcheck discovers dynamically; here it is declared so a
    *statically visible* contradiction fails CI before any test runs.
"""

# Lock classes that may legally be held while the owner blocks on an
# unrelated Rendez.  Keep this list short and deliberate: each entry is a
# documented hold-across-sleep idiom, not an exemption of convenience.
SLEEPABLE_CLASSES = {
    # Stream::Read/ReadMessage hold the per-stream read lock across
    # Queue::Get: later readers are *supposed* to park behind the blocked
    # one ("a per stream read lock ensures only one process...").
    "stream.read",
    # NinepServer::Reply holds the reply serialization lock across a
    # flow-controlled transport WriteMsg so concurrent repliers queue
    # behind a stalled frame write instead of interleaving frames.
    "9p.server.write",
}

# Declared lock ranks: "A -> B" means A may be held while acquiring B.
# Acquiring in an order whose reverse is declared is a finding.  Pairs with
# no declared path either way are left to the runtime checker (new nesting
# must pick a direction; see DESIGN.md).
DECLARED_ORDER = [
    ("stream.read", "stream.queue"),
    # Protocol lock pairs: proto (clone/alloc) outranks its conversations.
    ("il.proto", "il.conv"),
    ("tcp.proto", "tcp.conv"),
    ("udp.proto", "udp.conv"),
    ("dk.proto", "dk.conv"),
    ("ether.proto", "ether.conv"),
    ("cyclone.proto", "cyclone.conv"),
    # Conversation locks are held while emitting into the IP stack, putting
    # to stream queues, and scheduling timers.
    ("il.conv", "ip.stack"),
    ("tcp.conv", "ip.stack"),
    ("udp.conv", "ip.stack"),
    ("il.conv", "stream.queue"),
    ("tcp.conv", "stream.queue"),
    ("udp.conv", "stream.queue"),
    ("dk.conv", "stream.queue"),
    ("ether.conv", "stream.queue"),
    ("cyclone.conv", "stream.queue"),
    ("il.conv", "timer"),
    ("tcp.conv", "timer"),
    ("udp.conv", "timer"),
    ("dk.conv", "timer"),
    ("cyclone.conv", "timer"),
    # The IP stack emits onto simulated media through the ether driver,
    # whose medium schedules each frame's delivery on the timer wheel.
    ("ip.stack", "sim.wire"),
    ("ip.stack", "sim.ether"),
    ("ip.stack", "timer"),
]

# Functions that are blocking roots even without a MAY_BLOCK token visible
# to the frontend (names as the text frontend qualifies them).  Rendez's
# methods are annotated in rendez.h too; listing them here keeps the checker
# correct even if a frontend misses attribute tokens on templates.
MAY_BLOCK_SEEDS = {
    "Rendez::Sleep",
    "Rendez::SleepFor",
    "Rendez::SleepUntil",
}

# Callee base names treated as rendez sleeps: the first argument is the
# lock the sleep atomically releases (the rendez-own-lock idiom).
SLEEP_METHODS = {"Sleep", "SleepFor", "SleepUntil"}

# Registry factory functions whose first argument must satisfy the metric
# grammar (DESIGN.md section 9).
METRIC_FACTORIES = {"CounterNamed", "GaugeNamed", "HistogramNamed"}
# Metric types declared once, with their names, as stats-struct members:
# `obs::Counter msgs_sent{this, "net.il.msgs-sent"};` (obs::MetricSet).
METRIC_MEMBER_TYPES = {"Counter", "Histogram"}

# Dotted, lowercase, dash-separated words; at least family.subsystem.name.
METRIC_FAMILIES = ("net", "ninep", "stream", "sim", "chaos", "recovery", "obs")
METRIC_SEGMENT = r"[a-z0-9]+(?:-[a-z0-9]+)*"

# Span factories whose literal op argument must satisfy the span-op grammar
# (DESIGN.md section 12): <family>(.<segment>)+, lowercase dash-separated
# segments.  ScopedSpan is a constructor, so a variable name may sit between
# the type and the open paren; EmitPointSpan is a plain call.
SPAN_FACTORIES = {"ScopedSpan", "EmitPointSpan"}
SPAN_FAMILIES = ("dial", "cs", "il", "tcp", "9p", "import")

# printf-checked variadic formatters: (name, index of the format argument).
FORMAT_FUNCTIONS = {"StrFormat": 0}

# Functions returning a raw fd that the caller must guard with FdCloser (or
# consume) before any statement that can return early.
FD_SOURCES = {"Open", "Create", "Dial", "Accept", "Listen", "Announce", "Dup"}

# Consuming a raw fd: constructing a guard, returning it, or closing it.
FD_GUARD_TYPES = {"FdCloser"}

# ---------------------------------------------------------------------------
# Blockcheck (src/base/block_annotations.h, DESIGN.md section 13).
# ---------------------------------------------------------------------------

# Types whose locals/parameters the use-after-move check tracks.
BLOCK_PTR_TYPES = {"BlockPtr"}

# Extra hot-path roots beyond the P9_HOT_PATH annotations in the tree (names
# as the text frontend qualifies them).  Normally empty: annotate the source
# instead so the runtime hotcheck scope rides along.
HOT_SEEDS: set = set()

# Callees that clone or copy-build a block/buffer: banned in hot functions.
# AllocDataBlock is the sanctioned pooled allocator and is NOT here.
HOT_BANNED_CALLEES = {
    "CloneBlock", "MakeDataBlock", "MakeControlBlock", "MakeHangupBlock",
    "ToBytes",
}

# Copy/alloc constructors flagged in hot bodies: `Bytes(p, p + n)` is a
# whole-payload copy, `Bytes(n)` a fresh allocation.
HOT_COPY_CTORS = {"Bytes"}

# Statements mentioning these identifiers are cold error sub-paths of hot
# functions (building an error string on hangup is not per-message work).
HOT_COLD_MARKERS = {"Error", "err_"}

# Hot-reachable functions allowed to copy or allocate, mirroring the
# SLEEPABLE_CLASSES idea: each entry is a documented, *counted* exception
# (blockaudit::NoteCopy or a deliberate cold sub-path), not an exemption of
# convenience.
HOT_PATH_SAFE = {
    # The single sanctioned user-to-kernel copy: Stream::Write builds the
    # block payload from the caller's buffer (DESIGN.md section 13).
    "Stream::Write",
    # The pooled allocator itself: its miss path `new Block()` is what the
    # pool-miss counter measures; steady state never takes it.
    "AllocDataBlock",
    # Ether multicast: one extra payload copy per additional recipient,
    # counted via blockaudit::NoteCopy right at the copy.
    "EtherProto::Input",
    # CloneBlock is the *deliberate* copy primitive; it counts itself.
    "CloneBlock",
    # Retransmit-path serializers: EmitLocked builds the wire frame (header
    # + payload) it hands to IpStack::Send; the IL data path reuses the
    # sender's buffer for the retransmit queue, so this is the one framing
    # copy per message the protocol design requires.
    "IlConv::EmitLocked",
    "TcpConv::EmitLocked",
    "UdpConv::SendMessage",
    "CycloneConv::SendMessage",
    "UrpCircuit::SendMessage",
    # 9P framing: WriteMsg length-prefixes the serialized message in place
    # (one memmove); ReadMsg assembles a frame from the byte stream.
    "FramedMsgTransport::WriteMsg",
    "FramedMsgTransport::ReadMsg",
    # A deliberate cold sub-path: the hangup block is allocated once per
    # conversation, when it ends, never per message.  Reachable from the
    # protocols' input paths (peer close, reset) through the conversation
    # core's DeliverHangup.
    "Stream::Hangup",
    # Leak-singleton accessors: the `new` runs once per process, under the
    # first caller, never per message.
    "Context::Root",
    "TimerWheel::Default",
}
