// §4.2: connection-server translation rates.
//
// Every dial pays one CS translation; these benchmarks measure the pure
// translator (literal names, symbolic names, the $attr source-host walk,
// and the net! fan-out) against the paper's database shapes.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/csdns/cs.h"
#include "src/ndb/ndb.h"

namespace plan9 {
namespace {

const char kNdbText[] = R"(ipnet=mh-astro-net ip=135.104.0.0
	auth=p9auth
ipnet=unix-room ip=135.104.9.0 ipmask=255.255.255.0
	ipgw=135.104.9.1
sys=helix
	dom=helix.research.bell-labs.com
	ip=135.104.9.31 dk=nj/astro/helix
sys=musca
	dom=musca.research.bell-labs.com
	ip=135.104.9.6 dk=nj/astro/musca
sys=p9auth
	ip=135.104.9.34 dk=nj/astro/p9auth
il=9fs port=17008
il=rexauth port=17021
tcp=9fs port=564
tcp=echo port=7
)";

CsTranslator* Translator(bool indexed) {
  static Ndb* db = [] {
    auto* d = new Ndb();
    (void)d->Load(kNdbText);
    (void)d->Load(SynthesizeGlobalNdb(10'000));  // a realistic global file
    return d;
  }();
  static CsTranslator* indexed_tr = nullptr;
  static CsTranslator* plain_tr = nullptr;
  auto make = [&] {
    CsConfig config;
    config.self_ip = Ipv4Addr::FromOctets(135, 104, 9, 31);
    config.dk_name = "nj/astro/helix";
    config.db = db;
    config.nets = {{"il", true}, {"dk", false}, {"tcp", true}, {"udp", true}};
    return new CsTranslator(std::move(config));
  };
  if (indexed) {
    if (indexed_tr == nullptr) {
      db->BuildIndex("sys");
      db->BuildIndex("dom");
      db->BuildIndex("il");
      db->BuildIndex("tcp");
      indexed_tr = make();
    }
    return indexed_tr;
  }
  if (plain_tr == nullptr) {
    db->InvalidateIndexes();
    plain_tr = make();
  }
  return plain_tr;
}

void BM_TranslateLiteralAddress(benchmark::State& state) {
  auto* tr = Translator(true);
  for (auto _ : state) {
    auto r = tr->Query("tcp!135.104.9.6!564");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TranslateLiteralAddress);

void BM_TranslateSymbolicIndexed(benchmark::State& state) {
  auto* tr = Translator(true);
  for (auto _ : state) {
    auto r = tr->Query("net!helix!9fs");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TranslateSymbolicIndexed);

void BM_TranslateSymbolicLinear(benchmark::State& state) {
  // The out-of-date-hash fallback path the paper calls out.
  auto* tr = Translator(false);
  for (auto _ : state) {
    auto r = tr->Query("net!helix!9fs");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TranslateSymbolicLinear);

void BM_TranslateAuthMetaName(benchmark::State& state) {
  auto* tr = Translator(true);
  for (auto _ : state) {
    auto r = tr->Query("net!$auth!rexauth");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TranslateAuthMetaName);

void BM_TranslateAnnounce(benchmark::State& state) {
  auto* tr = Translator(true);
  for (auto _ : state) {
    auto r = tr->Query("announce net!*!9fs");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TranslateAnnounce);

}  // namespace
}  // namespace plan9

BENCHMARK_MAIN();
