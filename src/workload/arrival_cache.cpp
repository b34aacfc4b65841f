#include "workload/arrival_cache.hpp"

namespace scal::workload {

ArrivalCache& ArrivalCache::instance() {
  static ArrivalCache cache(env_budget("SCAL_ARRIVAL_CACHE_BYTES"));
  return cache;
}

void ArrivalCache::clear() {
  Memo::clear();
  store_skips_.store(0, std::memory_order_relaxed);
}

}  // namespace scal::workload
