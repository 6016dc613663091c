#include "src/ninep/fcall.h"

#include <iterator>

#include "src/base/strings.h"

namespace plan9 {
namespace {

// One row per wire type from 50 up: the message's name and, for requests,
// the trace span ops of the client RPC and of the server handler.  A type
// without a row is no 9P message.
struct TypeRow {
  const char* name = nullptr;
  const char* client_op = "9p.client.other";
  const char* server_op = "9p.server.other";
};

constexpr uint8_t kFirstType = 50;
constexpr TypeRow kTypes[] = {
    {"Tnop", "9p.client.nop", "9p.server.nop"},
    {"Rnop"},
    {"Tsession", "9p.client.session", "9p.server.session"},
    {"Rsession"},
    {},  // 54 would be Terror, which is illegal to send
    {"Rerror"},
    {"Tflush", "9p.client.flush", "9p.server.flush"},
    {"Rflush"},
    {"Tattach", "9p.client.attach", "9p.server.attach"},
    {"Rattach"},
    {"Tclone", "9p.client.clone", "9p.server.clone"},
    {"Rclone"},
    {"Twalk", "9p.client.walk", "9p.server.walk"},
    {"Rwalk"},
    {"Topen", "9p.client.open", "9p.server.open"},
    {"Ropen"},
    {"Tcreate", "9p.client.create", "9p.server.create"},
    {"Rcreate"},
    {"Tread", "9p.client.read", "9p.server.read"},
    {"Rread"},
    {"Twrite", "9p.client.write", "9p.server.write"},
    {"Rwrite"},
    {"Tclunk", "9p.client.clunk", "9p.server.clunk"},
    {"Rclunk"},
    {"Tremove", "9p.client.remove", "9p.server.remove"},
    {"Rremove"},
    {"Tstat", "9p.client.stat", "9p.server.stat"},
    {"Rstat"},
    {"Twstat", "9p.client.wstat", "9p.server.wstat"},
    {"Rwstat"},
    {"Tclwalk", "9p.client.clwalk", "9p.server.clwalk"},
    {"Rclwalk"},
};

const TypeRow* Row(uint8_t type) {
  size_t i = static_cast<size_t>(type) - kFirstType;
  return i < std::size(kTypes) && kTypes[i].name != nullptr ? &kTypes[i] : nullptr;
}

// The two directions of one layout.  Layout() and DirLayout() below name
// each message's fields once; Packer writes them and Unpacker reads them
// back.  Only a count over kMaxData and a short stat record fail early;
// Unpack reports any other shortfall once the whole layout is walked.
class Packer {
 public:
  explicit Packer(Bytes* out) : w_(out) {}

  template <typename T>
  void Num(T v) {
    if constexpr (sizeof v == 1) {
      w_.U8(v);
    } else if constexpr (sizeof v == 2) {
      w_.U16(v);
    } else if constexpr (sizeof v == 4) {
      w_.U32(v);
    } else {
      w_.U64(v);
    }
  }
  void Str(const std::string& s, size_t width) { w_.FixedString(s, width); }
  void Chal(const Bytes& chal) {
    Bytes c = chal;
    c.resize(kChalLen);
    w_.Raw(c);
  }
  Status Data(const Bytes& data) {
    if (data.size() > kMaxData) {
      return Error("9p data too long");
    }
    w_.U32(static_cast<uint32_t>(data.size()));
    w_.Raw(data);
    return Status::Ok();
  }
  Status Stat(const Dir& d);

 private:
  ByteWriter w_;
};

class Unpacker {
 public:
  explicit Unpacker(ByteReader* r) : r_(r) {}

  template <typename T>
  void Num(T& v) {
    if constexpr (sizeof v == 1) {
      v = r_->U8();
    } else if constexpr (sizeof v == 2) {
      v = r_->U16();
    } else if constexpr (sizeof v == 4) {
      v = r_->U32();
    } else {
      v = r_->U64();
    }
  }
  void Str(std::string& s, size_t width) { s = r_->FixedString(width); }
  void Chal(Bytes& chal) { chal = r_->Raw(kChalLen); }
  Status Data(Bytes& data) {
    uint32_t n = r_->U32();
    if (n > kMaxData) {
      return Error("9p data too long");
    }
    data = r_->Raw(n);
    return Status::Ok();
  }
  Status Stat(Dir& d);

 private:
  ByteReader* r_;
};

// The 116-byte stat record.
template <typename Coder, typename D>
void DirLayout(Coder& c, D& d) {
  c.Str(d.name, kNameLen);
  c.Str(d.uid, kNameLen);
  c.Str(d.gid, kNameLen);
  c.Num(d.qid.path);
  c.Num(d.qid.vers);
  c.Num(d.mode);
  c.Num(d.atime);
  c.Num(d.mtime);
  c.Num(d.length);
  c.Num(d.type);
  c.Num(d.dev);
}

Status Packer::Stat(const Dir& d) {
  DirLayout(*this, d);
  return Status::Ok();
}

Status Unpacker::Stat(Dir& d) {
  DirLayout(*this, d);
  if (!r_->ok()) {
    return Error("short stat record");
  }
  return Status::Ok();
}

// Each message's fields after type[1] tag[2].  An unknown type has none.
template <typename Coder, typename F>
Status Layout(Coder& c, F& f) {
  switch (f.type) {
    case FcallType::kTnop:
    case FcallType::kRnop:
    case FcallType::kRflush:
      break;
    case FcallType::kTsession:
      c.Chal(f.chal);
      break;
    case FcallType::kRsession:
      c.Chal(f.chal);
      c.Str(f.authid, kNameLen);
      c.Str(f.authdom, kDomLen);
      break;
    case FcallType::kRerror:
      c.Str(f.ename, kErrLen);
      break;
    case FcallType::kTflush:
      c.Num(f.oldtag);
      break;
    case FcallType::kTattach:
      c.Num(f.fid);
      c.Str(f.uname, kNameLen);
      c.Str(f.aname, kNameLen);
      break;
    case FcallType::kRattach:
    case FcallType::kRwalk:
    case FcallType::kRclwalk:
    case FcallType::kRopen:
    case FcallType::kRcreate:
      c.Num(f.fid);
      c.Num(f.qid.path);
      c.Num(f.qid.vers);
      break;
    case FcallType::kTclone:
      c.Num(f.fid);
      c.Num(f.newfid);
      break;
    case FcallType::kRclone:
    case FcallType::kTclunk:
    case FcallType::kRclunk:
    case FcallType::kTremove:
    case FcallType::kRremove:
    case FcallType::kTstat:
    case FcallType::kRwstat:
      c.Num(f.fid);
      break;
    case FcallType::kTwalk:
      c.Num(f.fid);
      c.Str(f.name, kNameLen);
      break;
    case FcallType::kTclwalk:
      c.Num(f.fid);
      c.Num(f.newfid);
      c.Str(f.name, kNameLen);
      break;
    case FcallType::kTopen:
      c.Num(f.fid);
      c.Num(f.mode);
      break;
    case FcallType::kTcreate:
      c.Num(f.fid);
      c.Str(f.name, kNameLen);
      c.Num(f.perm);
      c.Num(f.mode);
      break;
    case FcallType::kTread:
      c.Num(f.fid);
      c.Num(f.offset);
      c.Num(f.count);
      break;
    case FcallType::kRread:
      c.Num(f.fid);
      return c.Data(f.data);
    case FcallType::kTwrite:
      c.Num(f.fid);
      c.Num(f.offset);
      return c.Data(f.data);
    case FcallType::kRwrite:
      c.Num(f.fid);
      c.Num(f.count);
      break;
    case FcallType::kRstat:
    case FcallType::kTwstat:
      c.Num(f.fid);
      return c.Stat(f.stat);
  }
  return Status::Ok();
}

}  // namespace

void Dir::Pack(Bytes* out) const {
  Packer p(out);
  (void)p.Stat(*this);
}

Result<Dir> Dir::Unpack(ByteReader* reader) {
  Dir d;
  P9_RETURN_IF_ERROR(Unpacker(reader).Stat(d));
  return d;
}

const char* FcallTypeName(FcallType t) {
  const TypeRow* row = Row(static_cast<uint8_t>(t));
  return row != nullptr ? row->name : "?";
}

const char* FcallSpanOp(FcallType t, bool server) {
  static constexpr TypeRow kOther;
  const TypeRow* row = Row(static_cast<uint8_t>(t));
  if (row == nullptr) {
    row = &kOther;
  }
  return server ? row->server_op : row->client_op;
}

Result<Bytes> Fcall::Pack() const {
  Bytes out;
  out.reserve(64 + data.size());
  Packer p(&out);
  p.Num(static_cast<uint8_t>(type));
  p.Num(tag);
  P9_RETURN_IF_ERROR(Layout(p, *this));
  if (trace.sampled) {
    p.Num(kTraceTrailerMagic);
    p.Num(trace.trace_hi);
    p.Num(trace.trace_lo);
    p.Num(trace.span_id);
    p.Num(uint8_t{1});  // flags: bit 0 = sampled
  }
  return out;
}

Result<Fcall> Fcall::Unpack(const Bytes& raw) {
  ByteReader r(raw);
  Fcall f;
  uint8_t t = r.U8();
  if (Row(t) == nullptr) {
    return Error(StrFormat("bad 9p message type %d", t));
  }
  f.type = static_cast<FcallType>(t);
  f.tag = r.U16();
  Unpacker u(&r);
  P9_RETURN_IF_ERROR(Layout(u, f));
  if (!r.ok()) {
    return Error(StrFormat("short 9p message (%s)", FcallTypeName(f.type)));
  }
  // Optional trace trailer; anything after the body that isn't ours stays
  // ignored, as before.
  if (r.remaining() >= kTraceTrailerLen && r.U32() == kTraceTrailerMagic) {
    f.trace.trace_hi = r.U64();
    f.trace.trace_lo = r.U64();
    f.trace.span_id = r.U64();
    f.trace.sampled = (r.U8() & 1) != 0;
  }
  return f;
}

Fcall TnopMsg() {
  Fcall f;
  f.type = FcallType::kTnop;
  return f;
}
Fcall TsessionMsg() {
  Fcall f;
  f.type = FcallType::kTsession;
  return f;
}
Fcall TattachMsg(uint32_t fid, std::string uname, std::string aname) {
  Fcall f;
  f.type = FcallType::kTattach;
  f.fid = fid;
  f.uname = std::move(uname);
  f.aname = std::move(aname);
  return f;
}
Fcall TcloneMsg(uint32_t fid, uint32_t newfid) {
  Fcall f;
  f.type = FcallType::kTclone;
  f.fid = fid;
  f.newfid = newfid;
  return f;
}
Fcall TwalkMsg(uint32_t fid, std::string name) {
  Fcall f;
  f.type = FcallType::kTwalk;
  f.fid = fid;
  f.name = std::move(name);
  return f;
}
Fcall TclwalkMsg(uint32_t fid, uint32_t newfid, std::string name) {
  Fcall f;
  f.type = FcallType::kTclwalk;
  f.fid = fid;
  f.newfid = newfid;
  f.name = std::move(name);
  return f;
}
Fcall TopenMsg(uint32_t fid, uint8_t mode) {
  Fcall f;
  f.type = FcallType::kTopen;
  f.fid = fid;
  f.mode = mode;
  return f;
}
Fcall TcreateMsg(uint32_t fid, std::string name, uint32_t perm, uint8_t mode) {
  Fcall f;
  f.type = FcallType::kTcreate;
  f.fid = fid;
  f.name = std::move(name);
  f.perm = perm;
  f.mode = mode;
  return f;
}
Fcall TreadMsg(uint32_t fid, uint64_t offset, uint32_t count) {
  Fcall f;
  f.type = FcallType::kTread;
  f.fid = fid;
  f.offset = offset;
  f.count = count;
  return f;
}
Fcall TwriteMsg(uint32_t fid, uint64_t offset, Bytes data) {
  Fcall f;
  f.type = FcallType::kTwrite;
  f.fid = fid;
  f.offset = offset;
  f.data = std::move(data);
  return f;
}
Fcall TclunkMsg(uint32_t fid) {
  Fcall f;
  f.type = FcallType::kTclunk;
  f.fid = fid;
  return f;
}
Fcall TremoveMsg(uint32_t fid) {
  Fcall f;
  f.type = FcallType::kTremove;
  f.fid = fid;
  return f;
}
Fcall TstatMsg(uint32_t fid) {
  Fcall f;
  f.type = FcallType::kTstat;
  f.fid = fid;
  return f;
}
Fcall TwstatMsg(uint32_t fid, Dir stat) {
  Fcall f;
  f.type = FcallType::kTwstat;
  f.fid = fid;
  f.stat = std::move(stat);
  return f;
}
Fcall TflushMsg(uint16_t oldtag) {
  Fcall f;
  f.type = FcallType::kTflush;
  f.oldtag = oldtag;
  return f;
}
Fcall RerrorMsg(uint16_t tag, std::string ename) {
  Fcall f;
  f.type = FcallType::kRerror;
  f.tag = tag;
  f.ename = std::move(ename);
  return f;
}

}  // namespace plan9
