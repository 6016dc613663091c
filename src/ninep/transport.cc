#include "src/ninep/transport.h"

#include "src/ninep/fcall.h"

namespace plan9 {

Result<bool> FramedMsgTransport::ReadFull(uint8_t* buf, size_t n, size_t* got) {
  while (*got < n) {
    auto r = read_(buf + *got, n - *got);
    if (!r.ok()) {
      return r.error();  // *got keeps what came before the failure
    }
    if (*r == 0) {
      if (*got == 0) {
        return false;  // clean EOF between messages
      }
      return Error("eof inside 9p message");
    }
    *got += *r;
  }
  return true;
}

Result<Bytes> FramedMsgTransport::ReadMsg() {
  // A read interrupted by its alarm leaves the frame read so far in hdr_ and
  // body_; the next call goes on from there, so no byte is lost.
  if (hdr_got_ < sizeof hdr_) {
    auto ok = ReadFull(hdr_, sizeof hdr_, &hdr_got_);
    if (!ok.ok()) {
      return ok.error();
    }
    if (!*ok) {
      return Bytes{};  // EOF
    }
    uint32_t len = static_cast<uint32_t>(hdr_[0]) | static_cast<uint32_t>(hdr_[1]) << 8 |
                   static_cast<uint32_t>(hdr_[2]) << 16 | static_cast<uint32_t>(hdr_[3]) << 24;
    if (len == 0 || len > kMaxMsg) {
      hdr_got_ = 0;
      return Error("bad 9p frame length");
    }
    body_ = Bytes(len);
    body_got_ = 0;
  }
  auto body = ReadFull(body_.data(), body_.size(), &body_got_);
  if (!body.ok()) {
    return body.error();
  }
  if (!*body) {
    return Error("eof inside 9p message");
  }
  hdr_got_ = 0;
  return std::move(body_);
}

Status FramedMsgTransport::WriteMsg(Bytes msg) {
  if (msg.size() > kMaxMsg) {
    return Error("9p message too long");
  }
  // Prefix the length in place: one memmove instead of a second buffer.
  uint32_t len = static_cast<uint32_t>(msg.size());
  const uint8_t hdr[4] = {static_cast<uint8_t>(len), static_cast<uint8_t>(len >> 8),
                          static_cast<uint8_t>(len >> 16),
                          static_cast<uint8_t>(len >> 24)};
  msg.insert(msg.begin(), hdr, hdr + 4);
  // One write: 9P messages are well under the 32K atomic-write guarantee, so
  // the frame never interleaves with another writer's.
  return write_(msg.data(), msg.size());
}

std::pair<std::unique_ptr<MsgTransport>, std::unique_ptr<MsgTransport>>
PipeTransport::Make() {
  auto a_to_b = std::make_shared<Queue>();
  auto b_to_a = std::make_shared<Queue>();
  auto a = std::unique_ptr<MsgTransport>(new PipeTransport(b_to_a, a_to_b));
  auto b = std::unique_ptr<MsgTransport>(new PipeTransport(a_to_b, b_to_a));
  return {std::move(a), std::move(b)};
}

Result<Bytes> PipeTransport::ReadMsg() {
  BlockPtr b = rx_->Get();
  if (b == nullptr) {
    if (!rx_->closed()) {
      return Error(kErrInterrupted);  // the reader's alarm rang
    }
    return Bytes{};  // EOF
  }
  // Unread blocks surrender their buffer whole; a partially-read cursor
  // (never the case for message pipes, but be safe) forces a copy.
  Bytes out;
  if (b->rp == 0) {
    out = std::move(b->data);
  } else {
    out.assign(b->payload(), b->payload() + b->size());
  }
  RecycleBlock(std::move(b));
  return out;
}

Status PipeTransport::WriteMsg(Bytes msg) {
  return tx_->Put(AllocDataBlock(std::move(msg), /*delim=*/true));
}

void PipeTransport::Close() {
  rx_->Close();
  tx_->Close();
}

}  // namespace plan9
