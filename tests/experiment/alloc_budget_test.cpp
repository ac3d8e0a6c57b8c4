// Allocation budget of the simulated query path.
//
// This binary replaces the global operator new/delete (as
// bench/bench_datapath.cpp does) to count every heap allocation made while
// a campaign or a scan runs, and divides by the queries completed. Each
// test prints its figure and fails when it rises more than 10% above the
// budget below, which is the figure measured when the budget was set.
//
// The same runs must spill no domain name, TXT RDATA or server address
// list to the heap (every one they build fits its type's inline buffer)
// and must schedule no event whose capture outgrew EventFn's inline
// buffer. No cached one-TXT or single-A RRset (a probe answer, a glue
// address) may hold its RDATA on the heap either.
//
// Sanitizer builds count the same allocations: the sanitizers intercept
// malloc, which this operator new calls, so the test runs there too.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "dnscore/name.hpp"
#include "dnscore/rdata.hpp"
#include "dnscore/record.hpp"
#include "experiment/campaign.hpp"
#include "experiment/scan.hpp"
#include "net/address_list.hpp"
#include "net/event_fn.hpp"
#include "net/wire_buffer.hpp"
#include "obs/names.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n != 0 ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace recwild::experiment {
namespace {

// Allocations per completed query when the budget was set (GCC 12,
// Release). A rise of more than 10% fails the test.
constexpr double kCampaignBudget = 15.14;
constexpr double kScanBudget = 7.33;
constexpr double kSlack = 1.10;

struct Measured {
  std::uint64_t allocs = 0;
  std::uint64_t name_spills = 0;
  std::uint64_t txt_spills = 0;
  std::uint64_t address_list_spills = 0;
  std::uint64_t event_heap_fallbacks = 0;
};

/// Runs `call` from a fixed wire-buffer pool state (grown to its cap, then
/// emptied) so the count does not depend on what ran before.
template <class F>
Measured measure(F&& call) {
  {
    std::vector<std::vector<std::uint8_t>> b8;
    std::vector<std::vector<std::uint16_t>> b16;
    for (int i = 0; i < 256; ++i) {
      b8.push_back(net::WireBufferPool::acquire());
      b16.push_back(net::WireBufferPool::acquire_scratch16());
    }
    for (auto& b : b8) net::WireBufferPool::release(std::move(b));
    for (auto& b : b16) net::WireBufferPool::release_scratch16(std::move(b));
    net::WireBufferPool::clear();
  }
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t s0 = dns::Name::heap_spills();
  const std::uint64_t t0 = dns::TxtRdata::heap_spills();
  const std::uint64_t l0 = net::AddressList::heap_spills();
  const std::uint64_t e0 = net::EventFn::heap_fallbacks();
  call();
  return {g_allocs.load(std::memory_order_relaxed) - a0,
          dns::Name::heap_spills() - s0,
          dns::TxtRdata::heap_spills() - t0,
          net::AddressList::heap_spills() - l0,
          net::EventFn::heap_fallbacks() - e0};
}

void check_budget(const char* workload, const Measured& m,
                  std::uint64_t completed, double budget) {
  ASSERT_GT(completed, 0u);
  const double per_query = double(m.allocs) / double(completed);
  std::printf("%s: %.2f allocations per completed query (%llu / %llu), "
              "budget %.2f\n",
              workload, per_query, static_cast<unsigned long long>(m.allocs),
              static_cast<unsigned long long>(completed), budget);
  EXPECT_LE(per_query, budget * kSlack) << workload;
  EXPECT_EQ(m.name_spills, 0u) << workload << ": a name spilled to the heap";
  EXPECT_EQ(m.txt_spills, 0u)
      << workload << ": a TXT RDATA spilled to the heap";
  EXPECT_EQ(m.address_list_spills, 0u)
      << workload << ": a server address list spilled to the heap";
  EXPECT_EQ(m.event_heap_fallbacks, 0u)
      << workload << ": an event capture outgrew EventFn's inline buffer";
}

/// Expects every cached one-TXT and single-A set of the testbed's
/// recursives to hold its RDATA inline.
void expect_small_sets_inline(Testbed& tb, const char* workload) {
  std::size_t small = 0;
  std::size_t spilled = 0;
  for (auto& r : tb.population().recursives()) {
    r.resolver->cache().for_each_entry([&](const resolver::CacheEntry& e) {
      const dns::RRset& set = e.rrset;
      if ((set.type != dns::RRType::TXT && set.type != dns::RRType::A) ||
          set.size() != 1) {
        return;
      }
      ++small;
      if (set.block.spilled()) ++spilled;
    });
  }
  EXPECT_GT(small, 0u) << workload;
  EXPECT_EQ(spilled, 0u)
      << workload << ": a one-TXT or single-A RRset spilled to the heap";
}

TEST(AllocBudget, CampaignSeed2026) {
  // The configuration of the campaign_seed2026 fixtures.
  TestbedConfig cfg;
  cfg.seed = 2026;
  cfg.population.probes = 120;
  cfg.test_sites = {"DUB", "FRA", "GRU"};
  cfg.trace_decisions = true;
  Testbed tb{cfg};
  CampaignConfig cc;
  cc.interval = net::Duration::minutes(2);
  cc.queries_per_vp = 7;
  cc.shards = 1;
  CampaignResult result;
  const Measured m = measure([&] { result = run_campaign(tb, cc); });
  check_budget("campaign", m,
               result.metrics.counter_value(obs::names::kCampaignQueriesSent),
               kCampaignBudget);
  expect_small_sets_inline(tb, "campaign");
}

TEST(AllocBudget, Scan2000Names) {
  TestbedConfig cfg;
  cfg.seed = 2026;
  cfg.population.probes = 60;
  cfg.test_sites = {"DUB", "FRA"};
  cfg.population.resolver_template.max_inflight_resolutions = 16;
  cfg.population.resolver_template.max_queued_resolutions = 256;
  Testbed tb{cfg};
  ScanConfig sc;
  sc.names = 2'000;
  sc.shards = 1;
  ScanResult result;
  const Measured m = measure([&] { result = run_scan(tb, sc); });
  check_budget("scan", m,
               result.metrics.counter_value(obs::names::kScanNamesCompleted),
               kScanBudget);
  expect_small_sets_inline(tb, "scan");
}

}  // namespace
}  // namespace recwild::experiment
