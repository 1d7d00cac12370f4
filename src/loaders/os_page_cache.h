#ifndef GIDS_LOADERS_OS_PAGE_CACHE_H_
#define GIDS_LOADERS_OS_PAGE_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/check.h"

namespace gids::loaders {

/// Model of the OS page cache backing a memory-mapped feature file
/// (§2.3 / Fig. 4): LRU over 4 KiB pages with a fixed capacity (the CPU
/// memory left after the graph structure is pinned). An access either hits
/// (page resident, moved to MRU) or faults (page loaded, LRU victim
/// dropped).
class OsPageCache {
 public:
  explicit OsPageCache(uint64_t capacity_pages);

  uint64_t capacity_pages() const { return capacity_; }
  uint64_t resident_pages() const { return map_.size(); }

  /// Returns true on hit; false on page fault (page becomes resident).
  bool Access(uint64_t page);

  bool Contains(uint64_t page) const { return map_.count(page) > 0; }

  uint64_t hits() const { return hits_; }
  uint64_t faults() const { return faults_; }

 private:
  uint64_t capacity_;
  std::list<uint64_t> lru_;  // front = MRU
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t faults_ = 0;
};

}  // namespace gids::loaders

#endif  // GIDS_LOADERS_OS_PAGE_CACHE_H_
