// The bytes of mutated feature rows (FAULTS.md "Durability & failover").
// A functional loader with a mutation stream serves every gathered row at
// the version of the node's last feature update the journal has applied,
// from storage, the GPU cache and the constant CPU buffer alike, whether
// rows share a page, fill one, or span two. The expected version is
// worked out from the stream's own records, independently of the
// applied-version table the loader serves from. Verified reads of
// rewritten pages count no checksum mismatch. And a pinned row updated
// after a scrub sweep re-baselines instead of counting a scrub error.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/constant_cpu_buffer.h"
#include "core/gids_loader.h"
#include "core/mutation_stream.h"
#include "graph/dataset.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/seed_iterator.h"
#include "sim/system_model.h"
#include "storage/page_integrity.h"
#include "storage/storage_array.h"

namespace gids::core {
namespace {

struct MutatedRowsResult {
  uint64_t rows_checked = 0;
  uint64_t updated_rows = 0;         // gathered at a version > 0
  uint64_t updated_pinned_rows = 0;  // ... of which the CPU buffer pins
  uint64_t storage_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t cpu_buffer_hits = 0;
};

MutatedRowsResult RunAndCheckRows(uint32_t feature_dim) {
  graph::DatasetSpec spec = graph::DatasetSpec::IgbSmall();
  spec.feature_dim = feature_dim;
  auto built = graph::BuildDataset(spec, 0.01, 7);
  GIDS_CHECK(built.ok());
  const graph::Dataset dataset = std::move(built).value();
  const graph::FeatureStore& fs = dataset.features;

  sim::SystemConfig cfg =
      sim::SystemConfig::Paper(sim::SsdSpec::IntelOptane(), /*n_ssd=*/1);
  cfg.memory_scale = 1.0 / 4096.0;
  sim::SystemModel system(cfg);
  sampling::NeighborSampler sampler(&dataset.graph, {.fanouts = {5, 5}}, 11);
  sampling::SeedIterator seeds(dataset.train_ids, 32, 13);

  GidsOptions opts;
  opts.updates_per_iter = 64;
  opts.edge_ops_per_iter = 2;
  // Leaves records pending at group boundaries, so the visible prefix
  // lags the submitted one.
  opts.journal_apply_budget = 96;
  // Verified reads of rewritten pages must match the checksum of their
  // new bytes: the apply step resets each touched page's memo.
  opts.verify_reads = true;
  GidsLoader loader(&dataset, &sampler, &seeds, &system, opts);
  const storage::JournalCoordinator* journal =
      loader.storage_array().journal();
  GIDS_CHECK(journal != nullptr);
  const ConstantCpuBuffer* cpu_buffer = loader.cpu_buffer();
  GIDS_CHECK(cpu_buffer != nullptr);

  // The same options over the same layout generate the same records.
  MutationStream oracle(&fs, opts);
  std::vector<uint64_t> version(fs.num_nodes(), 0);
  uint64_t replayed_lsn = 0;

  MutatedRowsResult r;
  std::vector<float> want(feature_dim);
  for (int it = 0; it < 24; ++it) {
    auto lb = loader.Next();
    GIDS_CHECK(lb.ok());
    // Every group applies before it gathers, and Next() returns a group's
    // batches without applying again: the watermark now is the one the
    // batch was gathered under.
    for (; replayed_lsn < journal->applied_lsn(); ++replayed_lsn) {
      const storage::MutationRecord& rec = oracle.Record(replayed_lsn);
      if (rec.type == storage::MutationType::kFeatureUpdate) {
        version[rec.key] = rec.arg;
      }
    }
    const std::vector<graph::NodeId>& nodes = lb->batch.input_nodes();
    EXPECT_EQ(lb->features.size(), nodes.size() * feature_dim);
    for (size_t i = 0; i < nodes.size(); ++i) {
      const graph::NodeId node = nodes[i];
      fs.FillFeatureAt(node, version[node], want);
      const float* got = lb->features.data() + i * feature_dim;
      EXPECT_EQ(std::memcmp(got, want.data(), feature_dim * sizeof(float)), 0)
          << "iteration " << it << " node " << node << " version "
          << version[node];
      ++r.rows_checked;
      if (version[node] > 0) {
        ++r.updated_rows;
        if (cpu_buffer->Contains(node)) ++r.updated_pinned_rows;
      }
    }
    r.storage_reads += lb->stats.gather.storage_reads;
    r.cache_hits += lb->stats.gather.gpu_cache_hits;
    r.cpu_buffer_hits += lb->stats.gather.cpu_buffer_hits;
    EXPECT_EQ(lb->stats.gather.degraded_nodes, 0u);
    loader.Recycle(std::move(*lb));
  }
  EXPECT_GT(journal->applied_lsn(), 0u);
  EXPECT_LT(journal->applied_lsn(), journal->last_lsn());
  const storage::StorageArray& array = loader.storage_array();
  EXPECT_GT(array.verified_reads_total(), 0u);
  EXPECT_EQ(array.checksum_mismatches_total(), 0u);
  EXPECT_EQ(array.dead_letters_total(), 0u);
  return r;
}

void ExpectEveryPathServedUpdatedRows(const MutatedRowsResult& r) {
  EXPECT_GT(r.rows_checked, 0u);
  EXPECT_GT(r.storage_reads, 0u);
  EXPECT_GT(r.cache_hits, 0u);
  EXPECT_GT(r.cpu_buffer_hits, 0u);
  EXPECT_GT(r.updated_rows, 0u);
  EXPECT_GT(r.updated_pinned_rows, 0u);
}

// dim 128: eight 512 B rows to a 4 KiB page, at mixed versions.
TEST(MutatedRowsTest, SubPageRowsServeTheirAppliedVersion) {
  ExpectEveryPathServedUpdatedRows(RunAndCheckRows(128));
}

// dim 1024: one row per page.
TEST(MutatedRowsTest, PageSizedRowsServeTheirAppliedVersion) {
  ExpectEveryPathServedUpdatedRows(RunAndCheckRows(1024));
}

// dim 768: 3 KiB rows, some spanning two pages.
TEST(MutatedRowsTest, PageSpanningRowsServeTheirAppliedVersion) {
  ExpectEveryPathServedUpdatedRows(RunAndCheckRows(768));
}

TEST(MutatedRowsTest, PinnedRowUpdatedAfterScrubRebaselines) {
  graph::FeatureStore fs(/*num_nodes=*/64, /*feature_dim=*/128);
  ConstantCpuBuffer buffer =
      ConstantCpuBuffer::FromNodeSet(fs, {3, 17, 40});
  std::vector<uint64_t> versions(fs.num_nodes(), 0);
  buffer.ServeVersions(versions);
  const storage::PageChecksummer checksummer(0xc3c32c);

  ConstantCpuBuffer::ScrubResult first = buffer.ScrubRows(checksummer, 3);
  EXPECT_EQ(first.rows, 3u);
  EXPECT_EQ(first.errors, 0u);

  // The update changes the row's bytes, and so its checksum.
  std::vector<float> before(128);
  std::vector<float> after(128);
  buffer.Fill(17, before);
  versions[17] = 1;
  buffer.Fill(17, after);
  EXPECT_NE(checksummer.Checksum(17, before.data(), 128 * sizeof(float)),
            checksummer.Checksum(17, after.data(), 128 * sizeof(float)));
  EXPECT_EQ(buffer.RowVersion(17), 1u);

  for (int sweep = 0; sweep < 2; ++sweep) {
    ConstantCpuBuffer::ScrubResult next = buffer.ScrubRows(checksummer, 3);
    EXPECT_EQ(next.rows, 3u);
    EXPECT_EQ(next.errors, 0u) << "sweep " << sweep;
  }
}

}  // namespace
}  // namespace gids::core
