#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "src/ninep/client.h"
#include "src/ninep/fcall.h"
#include "src/ninep/ramfs.h"
#include "src/ninep/server.h"
#include "src/ninep/transport.h"
#include "src/task/kproc.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

namespace plan9 {
namespace {

TEST(Fcall, PackUnpackRoundTripsEveryType) {
  // One representative of each T message plus tricky R messages.
  std::vector<Fcall> msgs = {
      TnopMsg(),
      TsessionMsg(),
      TattachMsg(3, "presotto", ""),
      TcloneMsg(3, 4),
      TwalkMsg(4, "net"),
      TclwalkMsg(4, 9, "tcp"),
      TopenMsg(4, kORdWr),
      TcreateMsg(4, "data", 0664, kOWrite),
      TreadMsg(4, 1 << 20, 512),
      TwriteMsg(4, 7, ToBytes("hello, world")),
      TclunkMsg(4),
      TremoveMsg(4),
      TstatMsg(4),
      TflushMsg(77),
      RerrorMsg(5, "file does not exist"),
  };
  Dir d;
  d.name = "clone";
  d.uid = "bootes";
  d.gid = "bootes";
  d.qid = Qid{42, 7};
  d.mode = 0664;
  d.length = 123456789;
  d.type = 'I';
  msgs.push_back(TwstatMsg(4, d));

  for (auto& m : msgs) {
    m.tag = 99;
    auto packed = m.Pack();
    ASSERT_TRUE(packed.ok()) << FcallTypeName(m.type);
    auto back = Fcall::Unpack(*packed);
    ASSERT_TRUE(back.ok()) << FcallTypeName(m.type);
    EXPECT_EQ(back->type, m.type);
    EXPECT_EQ(back->tag, m.tag);
    EXPECT_EQ(back->fid, m.fid) << FcallTypeName(m.type);
    EXPECT_EQ(back->name, m.name);
    EXPECT_EQ(back->uname, m.uname);
    EXPECT_EQ(back->ename, m.ename);
    EXPECT_EQ(back->data, m.data);
    EXPECT_EQ(back->offset, m.offset);
    if (m.type == FcallType::kTwstat) {
      EXPECT_EQ(back->stat.name, d.name);
      EXPECT_EQ(back->stat.qid, d.qid);
      EXPECT_EQ(back->stat.length, d.length);
    }
  }
}

TEST(Fcall, UnpackRejectsGarbage) {
  EXPECT_FALSE(Fcall::Unpack(Bytes{}).ok());
  EXPECT_FALSE(Fcall::Unpack(Bytes{0x00, 0x01}).ok());
  EXPECT_FALSE(Fcall::Unpack(Bytes{54, 0, 0}).ok());  // Terror is illegal
  // Truncated Twalk.
  auto walk = TwalkMsg(1, "x");
  walk.tag = 1;
  auto packed = walk.Pack();
  ASSERT_TRUE(packed.ok());
  packed->resize(packed->size() - 5);
  EXPECT_FALSE(Fcall::Unpack(*packed).ok());
}

TEST(Fcall, DirPackIsExactly116Bytes) {
  Dir d;
  d.name = "helix";
  Bytes out;
  d.Pack(&out);
  EXPECT_EQ(out.size(), kDirLen);
}

TEST(Fcall, LongNamesTruncateSafely) {
  Fcall m = TwalkMsg(1, std::string(100, 'x'));
  m.tag = 1;
  auto packed = m.Pack();
  ASSERT_TRUE(packed.ok());
  auto back = Fcall::Unpack(*packed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name.size(), kNameLen - 1);
}

class ClientServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.MkdirAll("net/tcp").ok());
    ASSERT_TRUE(fs_.WriteFile("lib/ndb/local", "sys=helix\n").ok());
    auto [a, b] = PipeTransport::Make();
    server_ = std::make_unique<NinepServer>(&fs_, std::move(a));
    client_ = std::make_unique<NinepClient>(std::move(b));
  }

  RamFs fs_;
  std::unique_ptr<NinepServer> server_;
  std::unique_ptr<NinepClient> client_;
};

TEST_F(ClientServerTest, SessionAttachWalkReadWrite) {
  ASSERT_TRUE(client_->Session().ok());
  uint32_t root = client_->AllocFid();
  auto rq = client_->Attach(root, "philw", "");
  ASSERT_TRUE(rq.ok());
  EXPECT_TRUE(rq->IsDir());

  uint32_t f = client_->AllocFid();
  auto q = client_->CloneWalk(root, f, {"lib", "ndb", "local"});
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->IsDir());

  ASSERT_TRUE(client_->Open(f, kORead).ok());
  auto data = client_->Read(f, 0, 512);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "sys=helix\n");
  ASSERT_TRUE(client_->Clunk(f).ok());
}

TEST_F(ClientServerTest, CreateWriteReadBack) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  uint32_t f = client_->AllocFid();
  ASSERT_TRUE(client_->CloneWalk(root, f, {"net"}).ok());
  ASSERT_TRUE(client_->Create(f, "notes", 0664, kOWrite).ok());
  ASSERT_TRUE(client_->Write(f, 0, ToBytes("remember the milk")).ok());
  ASSERT_TRUE(client_->Clunk(f).ok());

  uint32_t g = client_->AllocFid();
  ASSERT_TRUE(client_->CloneWalk(root, g, {"net", "notes"}).ok());
  ASSERT_TRUE(client_->Open(g, kORead).ok());
  auto data = client_->Read(g, 9, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "the milk");
}

TEST_F(ClientServerTest, WalkToMissingFileFails) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  uint32_t f = client_->AllocFid();
  auto q = client_->CloneWalk(root, f, {"no", "such", "path"});
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.error().message(), kErrNotExist);
}

TEST_F(ClientServerTest, DirectoryReadListsEntries) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  ASSERT_TRUE(client_->Open(root, kORead).ok());
  auto data = client_->Read(root, 0, kDirLen * 16);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->size() % kDirLen, 0u);
  std::vector<std::string> names;
  ByteReader r(*data);
  while (r.remaining() >= kDirLen) {
    auto d = Dir::Unpack(&r);
    ASSERT_TRUE(d.ok());
    names.push_back(d->name);
  }
  EXPECT_EQ(names.size(), 2u);  // net, lib
  EXPECT_NE(std::find(names.begin(), names.end(), "net"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lib"), names.end());
}

TEST_F(ClientServerTest, UnalignedDirectoryReadFails) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  ASSERT_TRUE(client_->Open(root, kORead).ok());
  EXPECT_FALSE(client_->Read(root, 3, 100).ok());
}

TEST_F(ClientServerTest, RemoveAndRename) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());

  // Rename lib -> library via wstat.
  uint32_t f = client_->AllocFid();
  ASSERT_TRUE(client_->CloneWalk(root, f, {"lib"}).ok());
  auto d = client_->Stat(f);
  ASSERT_TRUE(d.ok());
  d->name = "library";
  ASSERT_TRUE(client_->Wstat(f, *d).ok());
  ASSERT_TRUE(client_->Clunk(f).ok());

  uint32_t g = client_->AllocFid();
  EXPECT_TRUE(client_->CloneWalk(root, g, {"library", "ndb"}).ok());
  ASSERT_TRUE(client_->Clunk(g).ok());

  // Remove a file.
  uint32_t h = client_->AllocFid();
  ASSERT_TRUE(client_->CloneWalk(root, h, {"library", "ndb", "local"}).ok());
  ASSERT_TRUE(client_->Remove(h).ok());
  uint32_t i = client_->AllocFid();
  EXPECT_FALSE(client_->CloneWalk(root, i, {"library", "ndb", "local"}).ok());
}

TEST_F(ClientServerTest, ConcurrentRpcsInterleave) {
  // The mount driver "demultiplexes among processes using the file server":
  // hammer the server from several threads over one connection.
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  constexpr int kThreads = 4;
  constexpr int kOps = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; i++) {
        uint32_t f = client_->AllocFid();
        std::string name = "f" + std::to_string(t) + "_" + std::to_string(i);
        ASSERT_TRUE(client_->CloneWalk(root, f, {"net"}).ok());
        ASSERT_TRUE(client_->Create(f, name, 0664, kOWrite).ok());
        ASSERT_TRUE(client_->Write(f, 0, ToBytes(name)).ok());
        ASSERT_TRUE(client_->Clunk(f).ok());
        uint32_t g = client_->AllocFid();
        ASSERT_TRUE(client_->CloneWalk(root, g, {"net", name}).ok());
        ASSERT_TRUE(client_->Open(g, kORead).ok());
        auto data = client_->Read(g, 0, 100);
        ASSERT_TRUE(data.ok());
        EXPECT_EQ(ToString(*data), name);
        ASSERT_TRUE(client_->Clunk(g).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

TEST_F(ClientServerTest, ServerShutdownFailsPendingRpcs) {
  uint32_t root = client_->AllocFid();
  ASSERT_TRUE(client_->Attach(root, "philw", "").ok());
  server_->Shutdown();
  uint32_t f = client_->AllocFid();
  EXPECT_FALSE(client_->CloneWalk(root, f, {"net"}).ok());
}

// Leader/follower semantics (server.h), driven by hand: requests are packed
// with explicit tags, and every reply the server writes is kept by tag.

// A file whose reads block until the test releases the latch.
class LatchFile : public Vnode {
 public:
  Qid qid() override { return Qid{7, 0}; }
  Result<Dir> Stat() override {
    Dir d;
    d.name = "slow";
    d.qid = qid();
    return d;
  }
  Result<std::shared_ptr<Vnode>> Walk(const std::string&) override {
    return Error(kErrNotDir);
  }
  Result<Bytes> Read(uint64_t, uint32_t) override {
    QLockGuard guard(lock_);
    blocked_++;
    changed_.Wakeup();
    changed_.Sleep(lock_, [&]() REQUIRES(lock_) { return released_; });
    return ToBytes("late");
  }

  // True once `n` reads are parked on the latch.
  bool WaitBlocked(int n) {
    QLockGuard guard(lock_);
    return changed_.SleepFor(lock_, std::chrono::seconds(10),
                             [&]() REQUIRES(lock_) { return blocked_ >= n; });
  }
  void Release() {
    {
      QLockGuard guard(lock_);
      released_ = true;
    }
    changed_.Wakeup();
  }

 private:
  QLock lock_;
  Rendez changed_;
  int blocked_ GUARDED_BY(lock_) = 0;
  bool released_ GUARDED_BY(lock_) = false;
};

// A latch file read as a stream's data file is: each read holds the file's
// read lock while it waits, so a second reader waits on that lock, not on
// the latch.
class LockedLatchFile : public LatchFile {
 public:
  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    QLockGuard guard(read_lock_);
    return LatchFile::Read(offset, count);
  }

 private:
  QLock read_lock_{"stream.read", kSleepableClass};
};

// A file whose reads run until the test lets them finish, without parking:
// they poll, as a long computation keeps its thread, so no block hook fires.
class SpinFile : public LatchFile {
 public:
  Result<Bytes> Read(uint64_t, uint32_t) override {
    reads_++;
    while (!finished_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ToBytes("spun");
  }

  // True once a read is running, within 10 s.
  bool WaitRunning() {
    for (int i = 0; i < 10000 && reads_ == 0; i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return reads_ > 0;
  }
  void Finish() { finished_ = true; }
  int reads() const { return reads_; }

 private:
  std::atomic<int> reads_{0};
  std::atomic<bool> finished_{false};
};

// Attaching with aname "slow" yields the latch file, "locked" the locked
// latch file, "spin" the spin file; anything else, a RamFs.
class LatchFs : public Vfs {
 public:
  Result<std::shared_ptr<Vnode>> Attach(const std::string& uname,
                                        const std::string& aname) override {
    if (aname == "slow") {
      return std::shared_ptr<Vnode>(slow);
    }
    if (aname == "locked") {
      return std::shared_ptr<Vnode>(locked);
    }
    if (aname == "spin") {
      return std::shared_ptr<Vnode>(spin);
    }
    return ram.Attach(uname, aname);
  }

  RamFs ram;
  std::shared_ptr<LatchFile> slow = std::make_shared<LatchFile>();
  std::shared_ptr<LatchFile> locked = std::make_shared<LockedLatchFile>();
  std::shared_ptr<SpinFile> spin = std::make_shared<SpinFile>();
};

struct Replies {
  QLock lock;
  Rendez arrived;
  std::map<uint16_t, Fcall> by_tag GUARDED_BY(lock);
  std::map<uint16_t, std::thread::id> writer_by_tag GUARDED_BY(lock);
  bool closed GUARDED_BY(lock) = false;

  // The reply to `tag`, or an Rerror if none arrives within 10 s.
  Fcall Wait(uint16_t tag) {
    QLockGuard guard(lock);
    if (!arrived.SleepFor(lock, std::chrono::seconds(10),
                          [&]() REQUIRES(lock) { return by_tag.count(tag) != 0; })) {
      return RerrorMsg(tag, "no reply");
    }
    return by_tag[tag];
  }
  bool Has(uint16_t tag) {
    QLockGuard guard(lock);
    return by_tag.count(tag) != 0;
  }
  // The thread that wrote the reply to `tag`.
  std::thread::id Writer(uint16_t tag) {
    QLockGuard guard(lock);
    return writer_by_tag[tag];
  }
  // True once the server has closed its transport, within 10 s.
  bool WaitClosed() {
    QLockGuard guard(lock);
    return arrived.SleepFor(lock, std::chrono::seconds(10),
                            [&]() REQUIRES(lock) { return closed; });
  }
};

// The server's end: requests come over a pipe, replies go to Replies.
class RecordingTransport : public MsgTransport {
 public:
  RecordingTransport(std::unique_ptr<MsgTransport> requests, std::shared_ptr<Replies> replies)
      : requests_(std::move(requests)), replies_(std::move(replies)) {}

  Result<Bytes> ReadMsg() override { return requests_->ReadMsg(); }
  Status WriteMsg(Bytes msg) override {
    auto reply = Fcall::Unpack(msg);
    if (!reply.ok()) {
      return reply.error();
    }
    {
      QLockGuard guard(replies_->lock);
      replies_->writer_by_tag[reply->tag] = std::this_thread::get_id();
      replies_->by_tag[reply->tag] = reply.take();
    }
    replies_->arrived.Wakeup();
    return Status::Ok();
  }
  void Close() override {
    {
      QLockGuard guard(replies_->lock);
      replies_->closed = true;
    }
    replies_->arrived.Wakeup();
    requests_->Close();
  }

 private:
  std::unique_ptr<MsgTransport> requests_;
  std::shared_ptr<Replies> replies_;
};

class LeaderFollowerTest : public ::testing::Test {
 protected:
  static constexpr int kBlocked = NinepServer::kWorkers - 1;
  static constexpr uint16_t kFirstRead = 100;

  void SetUp() override {
    ASSERT_TRUE(fs_.ram.WriteFile("fast", "quick").ok());
    auto [server_end, client_end] = PipeTransport::Make();
    requests_ = std::move(client_end);
    server_ = std::make_unique<NinepServer>(
        &fs_, std::make_unique<RecordingTransport>(std::move(server_end), replies_));
  }
  void TearDown() override {
    fs_.slow->Release();
    fs_.locked->Release();
    fs_.spin->Finish();
    server_->Shutdown();
  }

  void Send(uint16_t tag, Fcall req) {
    req.tag = tag;
    auto packed = req.Pack();
    ASSERT_TRUE(packed.ok());
    ASSERT_TRUE(requests_->WriteMsg(std::move(*packed)).ok());
  }
  Fcall Call(uint16_t tag, Fcall req) {
    Send(tag, std::move(req));
    return replies_->Wait(tag);
  }

  // Parks kBlocked reads of the latch file (tags kFirstRead...), leaving
  // one worker free.
  void BlockReads() {
    ASSERT_EQ(Call(1, TattachMsg(1, "philw", "slow")).type, FcallType::kRattach);
    ASSERT_EQ(Call(2, TopenMsg(1, kORead)).type, FcallType::kRopen);
    for (int i = 0; i < kBlocked; i++) {
      Send(static_cast<uint16_t>(kFirstRead + i), TreadMsg(1, 0, 64));
    }
    ASSERT_TRUE(fs_.slow->WaitBlocked(kBlocked));
  }

  // `stop` (EOF or Shutdown) must not return while reads are blocked, and
  // must have joined every worker once the latch opens.
  void ExpectStopWaitsForLatch(const std::function<void()>& stop) {
    BlockReads();
    int live = Kproc::LiveCount();
    std::atomic<bool> stopped{false};
    std::thread stopper([&] {
      stop();
      stopped = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(stopped.load());
    fs_.slow->Release();
    stopper.join();
    EXPECT_EQ(Kproc::LiveCount(), live - NinepServer::kWorkers);
  }

  LatchFs fs_;
  std::shared_ptr<Replies> replies_ = std::make_shared<Replies>();
  std::unique_ptr<MsgTransport> requests_;
  std::unique_ptr<NinepServer> server_;
};

TEST_F(LeaderFollowerTest, BlockedReadsLeaveAWorkerForOtherFids) {
  BlockReads();
  // The one free worker serves walks, stats and reads on other fids.
  EXPECT_EQ(Call(3, TattachMsg(2, "philw", "")).type, FcallType::kRattach);
  EXPECT_EQ(Call(4, TclwalkMsg(2, 3, "fast")).type, FcallType::kRclwalk);
  Fcall stat = Call(5, TstatMsg(3));
  ASSERT_EQ(stat.type, FcallType::kRstat);
  EXPECT_EQ(stat.stat.name, "fast");
  EXPECT_EQ(Call(6, TopenMsg(3, kORead)).type, FcallType::kRopen);
  EXPECT_EQ(ToString(Call(7, TreadMsg(3, 0, 64)).data), "quick");

  // A flush of a blocked read is answered while the read still blocks...
  EXPECT_EQ(Call(8, TflushMsg(kFirstRead)).type, FcallType::kRflush);
  EXPECT_FALSE(replies_->Has(kFirstRead));
  fs_.slow->Release();
  for (int i = 1; i < kBlocked; i++) {
    EXPECT_EQ(ToString(replies_->Wait(static_cast<uint16_t>(kFirstRead + i)).data), "late");
  }
  // ...and its late reply is never sent: at EOF every worker is joined, so
  // every reply the server would write has been written.
  requests_->Close();
  server_->Wait();
  EXPECT_FALSE(replies_->Has(kFirstRead));
}

TEST_F(LeaderFollowerTest, RequestsThatNeverBlockAreAnsweredByOneWorker) {
  ASSERT_EQ(Call(1, TattachMsg(1, "philw", "")).type, FcallType::kRattach);
  ASSERT_EQ(Call(2, TclwalkMsg(1, 2, "fast")).type, FcallType::kRclwalk);
  ASSERT_EQ(Call(3, TopenMsg(2, kORead)).type, FcallType::kRopen);
  // No request parks, so the worker that reads each one runs it and reads
  // the next: the reader role never moves.
  std::set<std::thread::id> writers;
  for (uint16_t tag = 10; tag < 60; tag++) {
    if (tag % 2 == 0) {
      ASSERT_EQ(Call(tag, TstatMsg(2)).type, FcallType::kRstat);
    } else {
      ASSERT_EQ(ToString(Call(tag, TreadMsg(2, 0, 64)).data), "quick");
    }
    writers.insert(replies_->Writer(tag));
  }
  EXPECT_EQ(writers.size(), 1u);
}

TEST_F(LeaderFollowerTest, AWorkerWaitingOnAContendedLockPassesTheRole) {
  ASSERT_EQ(Call(1, TattachMsg(1, "philw", "locked")).type, FcallType::kRattach);
  ASSERT_EQ(Call(2, TopenMsg(1, kORead)).type, FcallType::kRopen);
  // The first read parks on the latch holding the read lock; the second
  // waits on that lock.  Each worker's wait hands the reader role on.
  Send(kFirstRead, TreadMsg(1, 0, 64));
  ASSERT_TRUE(fs_.locked->WaitBlocked(1));
  Send(kFirstRead + 1, TreadMsg(1, 0, 64));
  EXPECT_EQ(Call(3, TattachMsg(2, "philw", "")).type, FcallType::kRattach);
  EXPECT_EQ(Call(4, TclwalkMsg(2, 3, "fast")).type, FcallType::kRclwalk);
  Fcall stat = Call(5, TstatMsg(3));
  ASSERT_EQ(stat.type, FcallType::kRstat);
  EXPECT_EQ(stat.stat.name, "fast");
  fs_.locked->Release();
  EXPECT_EQ(ToString(replies_->Wait(kFirstRead).data), "late");
  EXPECT_EQ(ToString(replies_->Wait(kFirstRead + 1).data), "late");
}

TEST_F(LeaderFollowerTest, ShutdownRunsNoRequestStillQueued) {
  BlockReads();
  ASSERT_EQ(Call(3, TattachMsg(2, "philw", "spin")).type, FcallType::kRattach);
  ASSERT_EQ(Call(4, TopenMsg(2, kORead)).type, FcallType::kRopen);
  // The one free worker runs a read that never parks, so it keeps the reader
  // role, and a second read waits unread behind it.
  Send(5, TreadMsg(2, 0, 64));
  ASSERT_TRUE(fs_.spin->WaitRunning());
  Send(6, TreadMsg(2, 0, 64));
  std::thread stopper([&] { server_->Shutdown(); });
  // The server closes its transport after it has begun to stop.
  EXPECT_TRUE(replies_->WaitClosed());
  fs_.spin->Finish();
  fs_.slow->Release();
  stopper.join();
  // The running requests finish; the queued read is never run.
  EXPECT_EQ(ToString(replies_->Wait(5).data), "spun");
  EXPECT_FALSE(replies_->Has(6));
  EXPECT_EQ(fs_.spin->reads(), 1);
}

TEST_F(LeaderFollowerTest, EofJoinsEveryWorkerOnceTheLatchOpens) {
  ExpectStopWaitsForLatch([&] {
    requests_->Close();
    server_->Wait();
  });
}

TEST_F(LeaderFollowerTest, ShutdownJoinsEveryWorkerOnceTheLatchOpens) {
  ExpectStopWaitsForLatch([&] { server_->Shutdown(); });
}

// The read half of a byte stream over a raw block queue, as a data file
// reads: 0 at EOF, kErrInterrupted when the reader's alarm rings first.
FramedMsgTransport::ReadFn QueueReader(std::shared_ptr<Queue> q) {
  return [q](uint8_t* buf, size_t n) -> Result<size_t> {
    auto b = q->Get();
    if (b == nullptr) {
      if (!q->closed()) {
        return Error(kErrInterrupted);
      }
      return size_t{0};
    }
    size_t take = std::min(n, b->size());
    memcpy(buf, b->payload(), take);
    b->rp += take;
    if (b->size() > 0) {
      q->PutBack(std::move(b));
    }
    return take;
  };
}

TEST(FramedTransport, RoundTripsOverByteStream) {
  // Simulate a TCP-ish byte channel with a raw byte queue.
  auto q = std::make_shared<Queue>();
  FramedMsgTransport tx(
      [](uint8_t*, size_t) -> Result<size_t> { return Error("write only"); },
      [q](const uint8_t* data, size_t n) -> Status {
        // Deliver bytes in awkward small chunks to prove reassembly works.
        for (size_t i = 0; i < n; i += 3) {
          size_t c = std::min<size_t>(3, n - i);
          (void)q->PutNoBlock(MakeDataBlock(Bytes(data + i, data + i + c)));
        }
        return Status::Ok();
      },
      nullptr);
  FramedMsgTransport rx(
      QueueReader(q), [](const uint8_t*, size_t) -> Status { return Error("read only"); },
      nullptr);

  auto msg = TwriteMsg(7, 0, ToBytes("framed message body"));
  msg.tag = 5;
  auto packed = msg.Pack();
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(tx.WriteMsg(*packed).ok());
  ASSERT_TRUE(tx.WriteMsg(*packed).ok());
  for (int i = 0; i < 2; i++) {
    auto got = rx.ReadMsg();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *packed);
  }
  q->Close();
  auto eof = rx.ReadMsg();
  ASSERT_TRUE(eof.ok());
  EXPECT_TRUE(eof->empty());
}

// --- reads cut short by the reader's alarm ---------------------------------

constexpr auto kAlarm = std::chrono::milliseconds(30);

ReadAlarm::Clock::time_point AlarmIn(std::chrono::milliseconds d) {
  return ReadAlarm::Clock::now() + d;
}

TEST(PipeTransportAlarm, ReadIsInterruptedThenReadsLaterData) {
  auto [a, b] = PipeTransport::Make();
  {
    ReadAlarm alarm(AlarmIn(kAlarm));
    auto r = b->ReadMsg();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().message(), kErrInterrupted);
  }
  ASSERT_TRUE(a->WriteMsg(ToBytes("late")).ok());
  auto r = b->ReadMsg();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToString(*r), "late");
  // A hangup still reads as EOF, even under an alarm that has rung.
  a->Close();
  ReadAlarm rung(AlarmIn(std::chrono::milliseconds(0)));
  auto eof = b->ReadMsg();
  ASSERT_TRUE(eof.ok());
  EXPECT_TRUE(eof->empty());
}

TEST(FramedTransport, InterruptedReadsKeepThePartialFrame) {
  auto q = std::make_shared<Queue>();
  FramedMsgTransport rx(
      QueueReader(q), [](const uint8_t*, size_t) -> Status { return Error("read only"); },
      nullptr);
  Bytes frame;
  FramedMsgTransport tx(
      [](uint8_t*, size_t) -> Result<size_t> { return Error("write only"); },
      [&frame](const uint8_t* data, size_t n) -> Status {
        frame.assign(data, data + n);
        return Status::Ok();
      },
      nullptr);
  auto msg = TwriteMsg(7, 0, ToBytes("a frame cut in three"));
  msg.tag = 5;
  auto packed = msg.Pack();
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(tx.WriteMsg(*packed).ok());

  // Half of the length prefix, then half of the body, each followed by a
  // read the alarm cuts short; then the rest.
  const size_t cuts[] = {2, 4 + packed->size() / 2, frame.size()};
  size_t from = 0;
  for (size_t cut : cuts) {
    (void)q->PutNoBlock(MakeDataBlock(Bytes(frame.begin() + from, frame.begin() + cut)));
    from = cut;
    if (cut == frame.size()) {
      break;
    }
    ReadAlarm alarm(AlarmIn(kAlarm));
    auto r = rx.ReadMsg();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().message(), kErrInterrupted);
  }
  auto whole = rx.ReadMsg();
  ASSERT_TRUE(whole.ok()) << whole.error().message();
  EXPECT_EQ(*whole, *packed);
}

}  // namespace
}  // namespace plan9
