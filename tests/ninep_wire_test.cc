// The 9P wire format and the server's answers, pinned byte for byte and
// string for string: every message type packed with every field set, with
// and without a sampled trace trailer; the error Unpack gives for each kind
// of malformed input; the errors the server answers bad requests with; and
// the trace span op of every request on both ends.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <string_view>

#include "src/base/strings.h"
#include "src/ninep/client.h"
#include "src/ninep/fcall.h"
#include "src/ninep/ramfs.h"
#include "src/ninep/server.h"
#include "src/ninep/transport.h"
#include "src/obs/context.h"
#include "src/obs/stitch.h"

namespace plan9 {
namespace {

// Every field set, so each type's layout shows in its bytes.
Fcall Full(FcallType type) {
  Fcall f;
  f.type = type;
  f.tag = 0x1234;
  f.fid = 0x01020304;
  f.chal = {1, 2, 3, 4, 5, 6, 7, 8};
  f.authid = "bootes";
  f.authdom = "research.bell-labs.com";
  f.ename = "file does not exist";
  f.oldtag = 0x0a0b;
  f.uname = "presotto";
  f.aname = "main";
  f.newfid = 0x05060708;
  f.name = "clwalk";
  f.qid = Qid{0x80000042, 7};
  f.mode = kORdWr | kOTrunc;
  f.perm = kDmDir | 0775;
  f.offset = 0x1122334455667788ull;
  f.count = 0x200;
  f.data = ToBytes("hello");
  f.stat.name = "lib";
  f.stat.uid = "bootes";
  f.stat.gid = "sys";
  f.stat.qid = Qid{0x80000011, 3};
  f.stat.mode = kDmDir | 0775;
  f.stat.atime = 0x2a000001;
  f.stat.mtime = 0x2a000002;
  f.stat.length = 0x0102030405060708ull;
  f.stat.type = 'M';
  f.stat.dev = 3;
  return f;
}

obs::TraceContext Sampled() {
  obs::TraceContext ctx;
  ctx.trace_hi = 0x1122334455667788ull;
  ctx.trace_lo = 0x99aabbccddeeff00ull;
  ctx.span_id = 0x0123456789abcdefull;
  ctx.sampled = true;
  return ctx;
}

std::string Hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (uint8_t c : b) {
    s += kDigits[c >> 4];
    s += kDigits[c & 15];
  }
  return s;
}

Bytes FromHex(std::string_view hex) {
  Bytes b;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    b.push_back(static_cast<uint8_t>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return b;
}

struct Golden {
  FcallType type;
  const char* hex;
};

// Full(type).Pack() for all 31 types.
const Golden kGolden[] = {
    {FcallType::kTnop,
     "323412"},
    {FcallType::kRnop,
     "333412"},
    {FcallType::kTsession,
     "3434120102030405060708"},
    {FcallType::kRsession,
     "3534120102030405060708626f6f746573000000000000000000000000000000"
     "0000000000000072657365617263682e62656c6c2d6c6162732e636f6d000000"
     "0000000000000000000000000000000000000000000000"},
    {FcallType::kRerror,
     "37341266696c6520646f6573206e6f7420657869737400000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "000000"},
    {FcallType::kTflush,
     "3834120b0a"},
    {FcallType::kRflush,
     "393412"},
    {FcallType::kTattach,
     "3a341204030201707265736f74746f0000000000000000000000000000000000"
     "0000006d61696e000000000000000000000000000000000000000000000000"},
    {FcallType::kRattach,
     "3b3412040302014200008007000000"},
    {FcallType::kTclone,
     "3c34120403020108070605"},
    {FcallType::kRclone,
     "3d341204030201"},
    {FcallType::kTwalk,
     "3e341204030201636c77616c6b00000000000000000000000000000000000000"
     "000000"},
    {FcallType::kRwalk,
     "3f3412040302014200008007000000"},
    {FcallType::kTopen,
     "4034120403020112"},
    {FcallType::kRopen,
     "413412040302014200008007000000"},
    {FcallType::kTcreate,
     "42341204030201636c77616c6b00000000000000000000000000000000000000"
     "000000fd01008012"},
    {FcallType::kRcreate,
     "433412040302014200008007000000"},
    {FcallType::kTread,
     "44341204030201887766554433221100020000"},
    {FcallType::kRread,
     "453412040302010500000068656c6c6f"},
    {FcallType::kTwrite,
     "4634120403020188776655443322110500000068656c6c6f"},
    {FcallType::kRwrite,
     "4734120403020100020000"},
    {FcallType::kTclunk,
     "48341204030201"},
    {FcallType::kRclunk,
     "49341204030201"},
    {FcallType::kTremove,
     "4a341204030201"},
    {FcallType::kRremove,
     "4b341204030201"},
    {FcallType::kTstat,
     "4c341204030201"},
    {FcallType::kRstat,
     "4d3412040302016c696200000000000000000000000000000000000000000000"
     "000000626f6f7465730000000000000000000000000000000000000000000073"
     "7973000000000000000000000000000000000000000000000000001100008003"
     "000000fd0100800100002a0200002a08070605040302014d000300"},
    {FcallType::kTwstat,
     "4e3412040302016c696200000000000000000000000000000000000000000000"
     "000000626f6f7465730000000000000000000000000000000000000000000073"
     "7973000000000000000000000000000000000000000000000000001100008003"
     "000000fd0100800100002a0200002a08070605040302014d000300"},
    {FcallType::kRwstat,
     "4f341204030201"},
    {FcallType::kTclwalk,
     "5034120403020108070605636c77616c6b000000000000000000000000000000"
     "00000000000000"},
    {FcallType::kRclwalk,
     "513412040302014200008007000000"},
};

// What Sampled() appends: magic, trace id (high, low), span id, flags.
constexpr char kTrailer[] =
    "30725439887766554433221100ffeeddccbbaa99efcdab896745230101";

TEST(FcallWire, EveryTypePacksToItsGoldenBytes) {
  ASSERT_EQ(std::size(kGolden), 31u);
  for (const auto& g : kGolden) {
    Fcall f = Full(g.type);
    auto plain = f.Pack();
    ASSERT_TRUE(plain.ok()) << FcallTypeName(g.type);
    EXPECT_EQ(Hex(*plain), g.hex) << FcallTypeName(g.type);
    f.trace = Sampled();
    auto traced = f.Pack();
    ASSERT_TRUE(traced.ok()) << FcallTypeName(g.type);
    EXPECT_EQ(Hex(*traced), std::string(g.hex) + kTrailer) << FcallTypeName(g.type);
  }
}

TEST(FcallWire, UnknownTypePacksToTypeAndTag) {
  auto packed = Full(static_cast<FcallType>(54)).Pack();
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(Hex(*packed), "363412");
}

TEST(FcallWire, UnpackInvertsTheGoldenBytes) {
  for (const auto& g : kGolden) {
    for (bool traced : {false, true}) {
      std::string hex = std::string(g.hex) + (traced ? kTrailer : "");
      auto f = Fcall::Unpack(FromHex(hex));
      ASSERT_TRUE(f.ok()) << FcallTypeName(g.type);
      EXPECT_EQ(f->type, g.type);
      EXPECT_EQ(f->tag, 0x1234);
      EXPECT_EQ(f->trace.sampled, traced);
      EXPECT_EQ(f->trace.trace_lo, traced ? Sampled().trace_lo : 0);
      EXPECT_EQ(f->trace.span_id, traced ? Sampled().span_id : 0);
      auto again = f->Pack();
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(Hex(*again), hex) << FcallTypeName(g.type);
    }
  }
}

TEST(FcallWire, UnpackRejectsEveryByteThatIsNoType) {
  for (int t : {0, 49, 54, 82, 255}) {
    auto f = Fcall::Unpack(Bytes{static_cast<uint8_t>(t), 0x34, 0x12});
    ASSERT_FALSE(f.ok()) << t;
    EXPECT_EQ(f.error().message(), StrFormat("bad 9p message type %d", t));
  }
  auto empty = Fcall::Unpack(Bytes{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().message(), "bad 9p message type 0");
}

TEST(FcallWire, DataPastTheLimitIsRefusedBothWays) {
  for (FcallType t : {FcallType::kRread, FcallType::kTwrite}) {
    Fcall f = Full(t);
    f.data.assign(kMaxData, 'x');
    auto full = f.Pack();
    ASSERT_TRUE(full.ok()) << FcallTypeName(t);
    ASSERT_TRUE(Fcall::Unpack(*full).ok()) << FcallTypeName(t);
    f.data.push_back('x');
    auto over = f.Pack();
    ASSERT_FALSE(over.ok()) << FcallTypeName(t);
    EXPECT_EQ(over.error().message(), "9p data too long");

    // A count of kMaxData + 1, with the data behind it and without.
    Bytes raw = *full;
    size_t count_at = raw.size() - kMaxData - 4;
    raw[count_at] = (kMaxData + 1) & 0xff;
    raw[count_at + 1] = (kMaxData + 1) >> 8;
    raw.push_back('x');
    for (size_t keep : {raw.size(), count_at + 4}) {
      auto r = Fcall::Unpack(Bytes(raw.begin(), raw.begin() + static_cast<long>(keep)));
      ASSERT_FALSE(r.ok()) << FcallTypeName(t);
      EXPECT_EQ(r.error().message(), "9p data too long");
    }
  }
}

TEST(FcallWire, NoStrictPrefixUnpacks) {
  for (const auto& g : kGolden) {
    Bytes whole = FromHex(g.hex);
    bool stat = g.type == FcallType::kRstat || g.type == FcallType::kTwstat;
    std::string want = stat ? "short stat record"
                            : StrFormat("short 9p message (%s)", FcallTypeName(g.type));
    for (size_t n = 1; n < whole.size(); n++) {
      auto f = Fcall::Unpack(Bytes(whole.begin(), whole.begin() + static_cast<long>(n)));
      ASSERT_FALSE(f.ok()) << FcallTypeName(g.type) << " cut to " << n;
      EXPECT_EQ(f.error().message(), want) << FcallTypeName(g.type) << " cut to " << n;
    }
  }
}

// A server on one end of a pipe; the test writes requests on the other end
// and reads each reply before sending the next request.
class ServerAnswerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.WriteFile("f", "contents").ok());
    auto [server_end, test_end] = PipeTransport::Make();
    wire_ = std::move(test_end);
    server_ = std::make_unique<NinepServer>(&fs_, std::move(server_end));
  }
  void TearDown() override { server_->Shutdown(); }

  void Send(Bytes raw) { ASSERT_TRUE(wire_->WriteMsg(std::move(raw)).ok()); }

  Fcall Call(Fcall req) {
    req.tag = next_tag_++;
    auto packed = req.Pack();
    EXPECT_TRUE(packed.ok());
    EXPECT_TRUE(wire_->WriteMsg(std::move(*packed)).ok());
    auto raw = wire_->ReadMsg();
    EXPECT_TRUE(raw.ok());
    auto reply = Fcall::Unpack(*raw);
    EXPECT_TRUE(reply.ok());
    EXPECT_EQ(reply->tag, req.tag);
    return reply.take();
  }

  // The error a request is answered with; "" when it succeeds.
  std::string ErrorOf(Fcall req) {
    FcallType type = req.type;
    Fcall reply = Call(std::move(req));
    if (reply.type == FcallType::kRerror) {
      return reply.ename;
    }
    EXPECT_EQ(static_cast<int>(reply.type), static_cast<int>(type) + 1);
    return "";
  }

  RamFs fs_;
  std::unique_ptr<MsgTransport> wire_;
  std::unique_ptr<NinepServer> server_;
  uint16_t next_tag_ = 1;
};

TEST_F(ServerAnswerTest, EveryRequestNamingAFidNeedsAKnownOne) {
  Dir d;
  d.name = "g";
  for (Fcall req : {TcloneMsg(9, 10), TwalkMsg(9, "f"), TclwalkMsg(9, 10, "f"),
                    TopenMsg(9, kORead), TcreateMsg(9, "g", 0664, kOWrite),
                    TreadMsg(9, 0, 8), TwriteMsg(9, 0, ToBytes("x")), TclunkMsg(9),
                    TremoveMsg(9), TstatMsg(9), TwstatMsg(9, d)}) {
    EXPECT_EQ(ErrorOf(req), "unknown fid") << FcallTypeName(req.type);
  }
}

TEST_F(ServerAnswerTest, ReadAndWriteNeedAnOpenFid) {
  ASSERT_EQ(ErrorOf(TattachMsg(1, "philw", "")), "");
  ASSERT_EQ(ErrorOf(TclwalkMsg(1, 2, "f")), "");
  EXPECT_EQ(ErrorOf(TreadMsg(2, 0, 8)), "fid not open");
  EXPECT_EQ(ErrorOf(TwriteMsg(2, 0, ToBytes("x"))), "fid not open");
  ASSERT_EQ(ErrorOf(TopenMsg(2, kORdWr)), "");
  EXPECT_EQ(ToString(Call(TreadMsg(2, 0, 8)).data), "contents");
}

TEST_F(ServerAnswerTest, NewFidsMustBeFree) {
  ASSERT_EQ(ErrorOf(TattachMsg(1, "philw", "")), "");
  ASSERT_EQ(ErrorOf(TclwalkMsg(1, 2, "f")), "");
  EXPECT_EQ(ErrorOf(TattachMsg(2, "philw", "")), "fid in use");
  EXPECT_EQ(ErrorOf(TcloneMsg(1, 2)), "fid in use");
  EXPECT_EQ(ErrorOf(TclwalkMsg(1, 2, "f")), "fid in use");
  // Checked before the walk runs.
  EXPECT_EQ(ErrorOf(TclwalkMsg(1, 2, "missing")), "fid in use");
}

TEST_F(ServerAnswerTest, OpenFidCannotBeCloned) {
  ASSERT_EQ(ErrorOf(TattachMsg(1, "philw", "")), "");
  ASSERT_EQ(ErrorOf(TclwalkMsg(1, 2, "f")), "");
  ASSERT_EQ(ErrorOf(TopenMsg(2, kORead)), "");
  EXPECT_EQ(ErrorOf(TcloneMsg(2, 3)), "cannot clone open fid");
  EXPECT_EQ(ErrorOf(TcloneMsg(1, 3)), "");
}

TEST_F(ServerAnswerTest, IllegalMessagesGetNoAnswer) {
  // The server's "illegal 9p message" answer cannot be reached over the
  // wire: Unpack refuses a Terror (type 54), and the server drops every R
  // message.  Neither is answered, and the next request is served.
  Send(Bytes{54, 0x20, 0x00});
  auto stray = RerrorMsg(0x21, "stray").Pack();
  ASSERT_TRUE(stray.ok());
  Send(std::move(*stray));
  EXPECT_EQ(Call(TnopMsg()).type, FcallType::kRnop);
}

TEST(NinepSpans, EveryRequestNamesItsClientAndServerSpan) {
  RamFs fs;
  ASSERT_TRUE(fs.WriteFile("f", "contents").ok());
  // One context stands in for the one machine both ends run on.
  obs::Context ctx("wire", 0);
  ASSERT_TRUE(ctx.Ctl("trace sample 1").ok());
  {
    auto [server_end, client_end] = PipeTransport::Make();
    NinepServer server(&fs, std::move(server_end), "9p.server", ctx);
    NinepClient client(std::move(client_end), ctx);
    Dir d;
    d.name = "f";
    for (Fcall req : {TnopMsg(), TsessionMsg(), TflushMsg(1), TattachMsg(1, "philw", ""),
                      TcloneMsg(1, 2), TwalkMsg(2, "f"), TclwalkMsg(1, 3, "f"),
                      TopenMsg(3, kORdWr), TreadMsg(3, 0, 8), TwriteMsg(3, 0, ToBytes("x")),
                      TstatMsg(3), TwstatMsg(3, d), TcreateMsg(1, "g", 0664, kOWrite),
                      TclunkMsg(3), TremoveMsg(2)}) {
      (void)client.Rpc(req);
    }
  }
  std::set<std::string> ops;
  for (const auto& span : obs::ParseSpans(
           ctx.recorder().RenderText(static_cast<uint32_t>(obs::TraceKind::kSpan)))) {
    ops.insert(span.op);
  }

  std::set<std::string> want;
  for (const char* op : {"nop", "session", "flush", "attach", "clone", "walk", "clwalk",
                         "open", "create", "read", "write", "clunk", "remove", "stat",
                         "wstat"}) {
    want.insert(std::string("9p.client.") + op);
    want.insert(std::string("9p.server.") + op);
  }
  EXPECT_EQ(ops, want);
}

}  // namespace
}  // namespace plan9
