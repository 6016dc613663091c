#!/usr/bin/env python3
"""plan9lint fixture self-tests.

Each fixture under fixtures/ is parsed with the text frontend and the full
check suite runs over it; the expected findings are asserted *exactly* (by
stable baseline key), so a regression that silences a check or invents a
false positive fails loudly.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))  # tools/lint

from p9lint import blockcheck, checks, textparse  # noqa: E402
from p9lint.model import Program  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")


def lint(*names):
    program = Program()
    indexes = []
    for name in names:
        path = os.path.join(FIXTURES, name)
        with open(path) as f:
            indexes.append(textparse.parse_file(program, name, f.read()))
    textparse.analyze(program, indexes)
    return [f.key() for f in checks.run_all(program, indexes)]


class BlockingUnderLock(unittest.TestCase):
    def test_bad(self):
        keys = lint("bad_blocking_under_lock.cc")
        self.assertEqual(sorted(keys), sorted([
            "blocking-under-lock|bad_blocking_under_lock.cc|Mux::BadSleep"
            "|callee=Rendez::Sleep;held=test.other",
            "blocking-under-lock|bad_blocking_under_lock.cc|Mux::Drive"
            "|callee=Chan::Send;held=test.mux",
            "blocking-under-lock|bad_blocking_under_lock.cc|Mux::DriveIndirect"
            "|callee=Mux::Step;held=test.mux",
        ]))

    def test_good_idioms_are_clean(self):
        self.assertEqual(lint("good_blocking_idioms.cc"), [])

    def test_transitive_propagation(self):
        program = Program()
        path = os.path.join(FIXTURES, "bad_blocking_under_lock.cc")
        with open(path) as f:
            idx = textparse.parse_file(program, "f.cc", f.read())
        textparse.analyze(program, [idx])
        blocking = checks.propagate_may_block(program)
        self.assertIn("Chan::Send", blocking)       # annotated
        self.assertIn("Mux::Step", blocking)        # one hop
        self.assertIn("Mux::Drive", blocking)       # two hops
        self.assertNotIn("Chan::Poke", blocking)


class LockOrder(unittest.TestCase):
    def test_bad(self):
        keys = lint("bad_lock_order.cc")
        self.assertEqual(keys, [
            "lock-order|bad_lock_order.cc|Conv::BadNesting"
            "|acquire=il.conv;held=ip.stack",
        ])


    def test_through_shared_core(self):
        # The classes exist only where a protocol derives from the core: the
        # core's bodies are checked once per protocol, resolved.
        keys = lint("bad_lock_order_core.cc")
        self.assertEqual(keys, [
            "lock-order|bad_lock_order_core.cc|IlProto::BadDrain"
            "|acquire=il.proto;held=il.conv",
        ])

    def test_shared_core_resolves_every_acquisition(self):
        program = Program()
        path = os.path.join(FIXTURES, "bad_lock_order_core.cc")
        with open(path) as f:
            idx = textparse.parse_file(program, "f.cc", f.read())
        textparse.analyze(program, [idx])
        seen = {(q, a.cls) for q, fn in program.functions.items()
                for a in fn.acquisitions}
        self.assertIn(("IlConv::Use", "il.conv"), seen)
        self.assertIn(("IlProto::GoodScan", "il.conv"), seen)
        # The shared layer's one-pass scan, two template levels down.
        self.assertIn(("IlProto::Demux", "il.proto"), seen)
        self.assertIn(("IlProto::Demux", "il.conv"), seen)
        self.assertNotIn(None, {cls for _q, cls in seen})
        self.assertNotIn("", {cls for _q, cls in seen})


class FdGuard(unittest.TestCase):
    def test_bad(self):
        keys = lint("bad_fd_guard.cc")
        self.assertEqual(sorted(keys), [
            "fd-guard|bad_fd_guard.cc|LeakyOpen|fd=fd",
            "fd-guard|bad_fd_guard.cc|LeakyViaMacro|fd=cfd",
        ])


class FmtArity(unittest.TestCase):
    def test_bad(self):
        keys = lint("bad_fmt_arity.cc")
        self.assertEqual(sorted(keys), [
            "fmt-arity|bad_fmt_arity.cc||fmt=conv %d of %d;expected=2;got=1",
            "fmt-arity|bad_fmt_arity.cc||fmt=hello %s;expected=1;got=2",
        ])


class MetricName(unittest.TestCase):
    def test_bad(self):
        keys = lint("bad_metric_name.cc")
        self.assertEqual(sorted(keys), [
            "metric-name|bad_metric_name.cc||name=foo.bar.baz",
            "metric-name|bad_metric_name.cc||name=il.lag",
            "metric-name|bad_metric_name.cc||name=net.badUpper",
            "metric-name|bad_metric_name.cc||name=net.il.Resends",
        ])


class SpanOpName(unittest.TestCase):
    def test_bad(self):
        keys = lint("bad_span_name.cc")
        self.assertEqual(sorted(keys), [
            "span-op-name|bad_span_name.cc||op=Dial.CS",
            "span-op-name|bad_span_name.cc||op=frobnicate.walk",
            "span-op-name|bad_span_name.cc||op=il",
        ])


class BlockUseAfterMove(unittest.TestCase):
    def test_bad_and_good(self):
        keys = lint("bad_block_use_after_move.cc")
        self.assertEqual(sorted(keys), sorted([
            "use-after-move|bad_block_use_after_move.cc|Sink::UseAfterMove"
            "|var=b",
            "use-after-move|bad_block_use_after_move.cc|Sink::DoubleMove"
            "|var=b",
        ]))


class ConsumeOnAllPaths(unittest.TestCase):
    def test_bad_and_good(self):
        keys = lint("bad_block_consume.cc")
        self.assertEqual(sorted(keys), sorted([
            "consume-on-all-paths|bad_block_consume.cc|Queue2::LeakyPut"
            "|var=b",
            "consume-on-all-paths|bad_block_consume.cc|Queue2::LeakyDownPut"
            "|var=b",
        ]))


class CopyInHotPath(unittest.TestCase):
    def test_bad_and_good(self):
        keys = lint("bad_hot_path_copy.cc")
        self.assertEqual(sorted(keys), sorted([
            "copy-in-hot-path|bad_hot_path_copy.cc|Conv2::HotRecv"
            "|callee=CloneBlock",
            "copy-in-hot-path|bad_hot_path_copy.cc|Conv2::HotHelper"
            "|callee=MakeDataBlock",
            "copy-in-hot-path|bad_hot_path_copy.cc|Conv2::HotHelper"
            "|callee=std::string",
        ]))

    def test_hot_propagation_is_transitive_and_callee_ward(self):
        program = Program()
        path = os.path.join(FIXTURES, "bad_hot_path_copy.cc")
        with open(path) as f:
            idx = textparse.parse_file(program, "f.cc", f.read())
        textparse.analyze(program, [idx])
        hot = blockcheck.propagate_hot(program, [idx])
        self.assertIn("Conv2::HotRecv", hot)    # annotated
        self.assertIn("HotEntry", hot)          # annotated free function
        self.assertIn("Glue", hot)              # one hop
        self.assertIn("Conv2::HotHelper", hot)  # two hops, via receiver type
        self.assertNotIn("Conv2::ColdStats", hot)


class BorrowEscape(unittest.TestCase):
    def test_bad_and_good(self):
        keys = lint("bad_borrow_escape.cc")
        self.assertEqual(keys, [
            "borrow-escape|bad_borrow_escape.cc|Peeker::KeepAddress"
            "|var=b;escape=address-of",
        ])


class RealTreeSmoke(unittest.TestCase):
    """The annotations the sweep added to the real headers must be visible
    to the text frontend and propagate into the core call graph."""

    def test_real_headers_parse(self):
        root = os.path.abspath(os.path.join(HERE, "..", "..", ".."))
        program = Program()
        indexes = []
        for rel in ("src/task/rendez.h", "src/stream/queue.h",
                    "src/stream/stream.h", "src/stream/block.h",
                    "src/ninep/client.h", "src/task/qlock.h"):
            path = os.path.join(root, rel)
            if not os.path.exists(path):
                self.skipTest(f"{rel} not found (fixture-only checkout)")
            with open(path) as f:
                indexes.append(textparse.parse_file(program, rel, f.read()))
        textparse.analyze(program, indexes)
        blocking = checks.propagate_may_block(program)
        self.assertIn("Queue::Put", blocking)
        self.assertIn("Queue::Get", blocking)
        self.assertIn("Stream::Read", blocking)
        self.assertIn("NinepClient::Rpc", blocking)
        # The sleepable whitelist classes must be declared on real locks.
        self.assertEqual(program.lock_classes.get(("Stream", "read_lock_")),
                         "stream.read")
        # The data-path annotations must be visible and propagate: the
        # queue entry points are hot roots, and everything Stream::Write
        # touches rides along.
        hot = blockcheck.propagate_hot(program, indexes)
        self.assertIn("Queue::Put", hot)
        self.assertIn("Stream::Write", hot)
        consumes = blockcheck.collect_consumes(indexes)
        self.assertEqual(consumes.get("Queue::Put"), {"b"})
        self.assertEqual(consumes.get("RecycleBlock"), {"b"})
        # And the good idioms must not fire in these headers.
        keys = [k for k in (f.key() for f in checks.run_all(program, indexes))
                if k.startswith("blocking-under-lock")]
        self.assertEqual(keys, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
