// 9P — the Plan 9 file system protocol (§2.1), 1993 (9P1) shape.
//
// "The protocol consists of 17 messages describing operations on files and
// directories."  The T/R pairs implemented here: nop, session, error (R
// only; a Terror is illegal), flush, attach, clone, walk, clwalk, open,
// create, read, write, clunk, remove, stat, wstat — the classic pre-9P2000
// protocol with fixed-width name fields.
//
// "9P relies on several properties of the underlying transport protocol.
// It assumes messages arrive reliably and in sequence and that delimiters
// between messages are preserved."  Marshalled messages are little-endian
// with fixed-size string fields (NAMELEN=28, ERRLEN=64, DIRLEN=116).
//
// Divergence from the historical wire format, documented for honesty: the
// session/attach crypto fields (challenge, ticket, authenticator) are
// carried but unused — the paper defers authentication to "means external
// to 9P" and we provide none.
#ifndef SRC_NINEP_FCALL_H_
#define SRC_NINEP_FCALL_H_

#include <cstdint>
#include <string>

#include "src/base/bytes.h"
#include "src/base/result.h"
#include "src/obs/span.h"

namespace plan9 {

inline constexpr size_t kNameLen = 28;
inline constexpr size_t kErrLen = 64;
inline constexpr size_t kDirLen = 116;
inline constexpr size_t kChalLen = 8;
inline constexpr size_t kDomLen = 48;
// Largest data payload in a single read/write; 9P1 used 8K.
inline constexpr uint32_t kMaxData = 8192;
// Largest marshalled message (Twrite header + data).
inline constexpr size_t kMaxMsg = kMaxData + 160;

inline constexpr uint16_t kNoTag = 0xffff;
inline constexpr uint32_t kNoFid = 0xffffffffu;

// Causal-trace trailer (DESIGN.md §12).  A sampled TraceContext rides after
// the fixed-width message body: magic, 128-bit trace id, the sender's span
// id, and a flags byte.  Unpack tolerates (and both 9P1 peers ignore)
// trailing bytes, so an unsampled or pre-trace peer interoperates; the
// trailer costs nothing when tracing is off because Pack appends it only
// for sampled contexts.
inline constexpr uint32_t kTraceTrailerMagic = 0x39547230u;  // "0rT9"
inline constexpr size_t kTraceTrailerLen = 4 + 8 + 8 + 8 + 1;

// Qid: the server's unique identifier for a file.  The top bit of path is
// the directory bit (CHDIR), as in 9P1.
inline constexpr uint32_t kQidDirBit = 0x80000000u;

struct Qid {
  uint32_t path = 0;
  uint32_t vers = 0;

  bool IsDir() const { return (path & kQidDirBit) != 0; }
  bool operator==(const Qid&) const = default;
};

// Permission / mode bits (Dir.mode).
inline constexpr uint32_t kDmDir = 0x80000000u;
inline constexpr uint32_t kDmAppend = 0x40000000u;
inline constexpr uint32_t kDmExcl = 0x20000000u;

// Open modes.
inline constexpr uint8_t kORead = 0;
inline constexpr uint8_t kOWrite = 1;
inline constexpr uint8_t kORdWr = 2;
inline constexpr uint8_t kOExec = 3;
inline constexpr uint8_t kOTrunc = 0x10;
inline constexpr uint8_t kORClose = 0x40;

// A directory entry / stat record; marshals to exactly kDirLen bytes.
struct Dir {
  std::string name;
  std::string uid = "none";
  std::string gid = "none";
  Qid qid;
  uint32_t mode = 0;
  uint32_t atime = 0;
  uint32_t mtime = 0;
  uint64_t length = 0;
  uint16_t type = 0;  // device type character
  uint16_t dev = 0;   // device instance

  bool IsDir() const { return (mode & kDmDir) != 0; }

  void Pack(Bytes* out) const;
  static Result<Dir> Unpack(ByteReader* reader);
};

enum class FcallType : uint8_t {
  kTnop = 50,
  kRnop = 51,
  kTsession = 52,
  kRsession = 53,
  // 54 would be Terror, which is illegal to send.
  kRerror = 55,
  kTflush = 56,
  kRflush = 57,
  kTattach = 58,
  kRattach = 59,
  kTclone = 60,
  kRclone = 61,
  kTwalk = 62,
  kRwalk = 63,
  kTopen = 64,
  kRopen = 65,
  kTcreate = 66,
  kRcreate = 67,
  kTread = 68,
  kRread = 69,
  kTwrite = 70,
  kRwrite = 71,
  kTclunk = 72,
  kRclunk = 73,
  kTremove = 74,
  kRremove = 75,
  kTstat = 76,
  kRstat = 77,
  kTwstat = 78,
  kRwstat = 79,
  kTclwalk = 80,
  kRclwalk = 81,
};

// "Tnop", "Rerror"...; "?" for a byte that is no message type.
const char* FcallTypeName(FcallType t);

// The trace span op of a request ("9p.client.walk" on the client,
// "9p.server.walk" on the server; "...other" for anything but a T
// message).  Static strings, as ScopedSpan requires.
const char* FcallSpanOp(FcallType t, bool server);

// One 9P message, all fields flattened (the Plan 9 Fcall idiom).
struct Fcall {
  FcallType type = FcallType::kTnop;
  uint16_t tag = kNoTag;
  uint32_t fid = kNoFid;

  // session
  Bytes chal;  // kChalLen
  std::string authid;
  std::string authdom;
  // error
  std::string ename;
  // flush
  uint16_t oldtag = kNoTag;
  // attach
  std::string uname;
  std::string aname;
  // clone / clwalk
  uint32_t newfid = kNoFid;
  // walk / clwalk / create
  std::string name;
  // attach/clone/walk/open/create replies
  Qid qid;
  // open / create
  uint8_t mode = 0;
  uint32_t perm = 0;
  // read / write
  uint64_t offset = 0;
  uint32_t count = 0;
  Bytes data;
  // stat / wstat
  Dir stat;
  // Causal-trace context stamped per outstanding tag by the client;
  // adopted by the server for the handler's downstream work.  Not part of
  // the 9P1 message proper — carried as an optional trailer.
  obs::TraceContext trace;

  bool IsT() const { return (static_cast<uint8_t>(type) & 1) == 0; }

  // Marshal into wire bytes.  Fails only on data over kMaxData; a type
  // that is no 9P message packs to its type and tag alone.
  Result<Bytes> Pack() const;
  // Unmarshal; fails on an unknown type, a count over kMaxData, or a short
  // message.
  static Result<Fcall> Unpack(const Bytes& raw);
};

// Convenience constructors for the common messages.
Fcall TnopMsg();
Fcall TsessionMsg();
Fcall TattachMsg(uint32_t fid, std::string uname, std::string aname);
Fcall TcloneMsg(uint32_t fid, uint32_t newfid);
Fcall TwalkMsg(uint32_t fid, std::string name);
Fcall TclwalkMsg(uint32_t fid, uint32_t newfid, std::string name);
Fcall TopenMsg(uint32_t fid, uint8_t mode);
Fcall TcreateMsg(uint32_t fid, std::string name, uint32_t perm, uint8_t mode);
Fcall TreadMsg(uint32_t fid, uint64_t offset, uint32_t count);
Fcall TwriteMsg(uint32_t fid, uint64_t offset, Bytes data);
Fcall TclunkMsg(uint32_t fid);
Fcall TremoveMsg(uint32_t fid);
Fcall TstatMsg(uint32_t fid);
Fcall TwstatMsg(uint32_t fid, Dir stat);
Fcall TflushMsg(uint16_t oldtag);
Fcall RerrorMsg(uint16_t tag, std::string ename);

}  // namespace plan9

#endif  // SRC_NINEP_FCALL_H_
