#include "core/window_buffer.h"

#include <gtest/gtest.h>

namespace gids::core {
namespace {

sampling::MiniBatch BatchWithInputs(std::vector<graph::NodeId> nodes) {
  sampling::MiniBatch b;
  sampling::Block block;
  block.src_nodes = std::move(nodes);
  block.num_dst = 1;
  b.blocks.push_back(std::move(block));
  return b;
}

class SimpleHot : public storage::HotNodeBuffer {
 public:
  bool Contains(graph::NodeId node) const override { return node >= 100; }
  void Fill(graph::NodeId, std::span<float>) const override {}
};

TEST(WindowBufferTest, RegistersReuseCounters) {
  graph::FeatureStore fs(1000, 1024);  // node == page
  storage::SoftwareCache cache(64 * 4096, 4096, fs.num_pages());
  WindowBuffer window(&cache, &fs);
  window.Register(BatchWithInputs({1, 2, 3}));
  EXPECT_EQ(cache.FutureReuseCount(fs.PagesFor(1).first), 1u);
  EXPECT_EQ(cache.FutureReuseCount(fs.PagesFor(2).first), 1u);
  EXPECT_EQ(window.registered_batches(), 1u);
  EXPECT_EQ(window.registered_pages(), 3u);
}

TEST(WindowBufferTest, RepeatedNodesAccumulate) {
  graph::FeatureStore fs(1000, 1024);
  storage::SoftwareCache cache(64 * 4096, 4096, fs.num_pages());
  WindowBuffer window(&cache, &fs);
  window.Register(BatchWithInputs({5}));
  window.Register(BatchWithInputs({5}));
  window.Register(BatchWithInputs({5}));
  EXPECT_EQ(cache.FutureReuseCount(fs.PagesFor(5).first), 3u);
}

TEST(WindowBufferTest, SkipsHotBufferNodes) {
  graph::FeatureStore fs(1000, 1024);
  storage::SoftwareCache cache(64 * 4096, 4096, fs.num_pages());
  SimpleHot hot;
  WindowBuffer window(&cache, &fs, &hot);
  window.Register(BatchWithInputs({1, 150}));
  EXPECT_EQ(cache.FutureReuseCount(fs.PagesFor(1).first), 1u);
  EXPECT_EQ(cache.FutureReuseCount(fs.PagesFor(150).first), 0u);
  EXPECT_EQ(window.registered_pages(), 1u);
}

TEST(WindowBufferTest, PageSpanningNodesRegisterAllPages) {
  graph::FeatureStore fs(1000, 768);  // 3 KiB features span pages
  storage::SoftwareCache cache(64 * 4096, 4096, fs.num_pages());
  WindowBuffer window(&cache, &fs);
  window.Register(BatchWithInputs({1}));  // node 1 spans pages 0 and 1
  auto range = fs.PagesFor(1);
  ASSERT_EQ(range.count(), 2u);
  EXPECT_EQ(cache.FutureReuseCount(range.first), 1u);
  EXPECT_EQ(cache.FutureReuseCount(range.last), 1u);
}

TEST(WindowBufferTest, CountersDrainThroughGather) {
  // Register then consume exactly via cache touches: counters must net
  // to zero, so window buffering cannot permanently pin the cache.
  graph::FeatureStore fs(1000, 1024);
  storage::SoftwareCache cache(64 * 4096, 4096, fs.num_pages(), /*seed=*/1,
                               /*store_payloads=*/false);
  WindowBuffer window(&cache, &fs);
  sampling::MiniBatch batch = BatchWithInputs({1, 2, 3, 4});
  window.Register(batch);
  for (graph::NodeId v : batch.input_nodes()) {
    uint64_t page = fs.PagesFor(v).first;
    if (!cache.Lookup(page)) cache.Insert(page);
  }
  EXPECT_EQ(cache.pinned_lines(), 0u);
  for (graph::NodeId v : batch.input_nodes()) {
    EXPECT_EQ(cache.FutureReuseCount(fs.PagesFor(v).first), 0u);
  }
}

}  // namespace
}  // namespace gids::core
