#include "src/obs/context.h"

#include <cstdlib>

#include "src/base/strings.h"

namespace plan9 {
namespace obs {
namespace {

// FNV-1a over the sysname, then the generation: well-spread 64-bit starting
// points, so two nodes' id streams never meet in practice.
uint64_t IdSeed(const std::string& sysname, uint64_t generation) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : sysname) {
    h = (h ^ c) * kPrime;
  }
  return (h ^ generation) * kPrime;
}

}  // namespace

Context& Context::Root() {
  static Context* root = new Context;
  return *root;
}

Context::Context() : metrics_(nullptr) {}

Context::Context(std::string sysname, uint64_t generation)
    : sysname_(std::move(sysname)),
      metrics_(&Root().metrics()),
      tracer_(IdSeed(sysname_, generation)) {}

Status Context::Ctl(std::string_view msg) {
  auto fields = Tokenize(msg);
  if (fields.empty()) {
    return Error("empty ctl message");
  }
  if (fields[0] == "clear") {
    recorder_.Clear();
    return Status::Ok();
  }
  if (fields[0] != "trace") {
    return Error(StrFormat("unknown ctl message: %s", fields[0].c_str()));
  }
  if (fields.size() == 3 && fields[1] == "sample") {
    char* end = nullptr;
    unsigned long n = std::strtoul(fields[2].c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return Error("usage: trace sample <1/n>");
    }
    tracer_.SetSampleInterval(static_cast<uint32_t>(n));
    if (n > 0) {
      recorder_.Enable(static_cast<uint32_t>(TraceKind::kSpan));
    }
    return Status::Ok();
  }
  if (fields.size() < 2 || (fields[1] != "on" && fields[1] != "off")) {
    return Error("usage: trace on|off [kind...] | trace sample <1/n>");
  }
  uint32_t kinds = 0;
  if (fields.size() == 2) {
    kinds = static_cast<uint32_t>(TraceKind::kAll);
  }
  for (size_t i = 2; i < fields.size(); i++) {
    auto k = TraceKindFromName(fields[i]);
    if (!k.has_value()) {
      return Error(StrFormat("unknown trace kind: %s", fields[i].c_str()));
    }
    kinds |= static_cast<uint32_t>(*k);
  }
  if (fields[1] == "on") {
    recorder_.Enable(kinds);
  } else {
    recorder_.Disable(kinds);
  }
  return Status::Ok();
}

std::string Context::CtlText() {
  return StrFormat("trace mask %#x\ntrace sample %u\n", recorder_.mask(),
                   tracer_.sample_interval());
}

}  // namespace obs
}  // namespace plan9
