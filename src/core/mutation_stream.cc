#include "core/mutation_stream.h"

#include <span>

#include "common/check.h"

namespace gids::core {

MutationStream::MutationStream(const graph::FeatureStore* features,
                               const MutationStreamOptions& options)
    : features_(features), options_(options), rng_(options.mutation_seed) {
  GIDS_CHECK(features_ != nullptr);
  GIDS_CHECK(features_->num_nodes() > 0);
  applied_versions_.assign(features_->num_nodes(), 0);
}

void MutationStream::GenerateUpTo(uint64_t index) {
  const uint32_t per_iter = records_per_iter();
  GIDS_CHECK(per_iter > 0);
  while (records_.size() <= index) {
    const uint64_t i = records_.size();
    const uint32_t slot = static_cast<uint32_t>(i % per_iter);
    storage::MutationRecord rec;
    rec.lsn = 0;  // assigned at submit; submission order makes it i + 1
    if (slot < options_.updates_per_iter) {
      const graph::NodeId node = static_cast<graph::NodeId>(
          rng_.Next() % features_->num_nodes());
      const uint64_t version = ++versions_[node];
      rec.type = storage::MutationType::kFeatureUpdate;
      rec.key = node;
      rec.arg = version;
      rec.offset = features_->ByteOffset(node);
      rec.home_page = features_->PagesFor(node).first;
    } else {
      const uint64_t draw = rng_.Next();
      rec.type = (draw >> 63) != 0 ? storage::MutationType::kEdgeDelete
                                   : storage::MutationType::kEdgeInsert;
      rec.key = rng_.Next() % features_->num_nodes();  // src
      rec.arg = rng_.Next() % features_->num_nodes();  // dst
      rec.home_page = draw % features_->num_pages();
    }
    records_.push_back(std::move(rec));
  }
}

const storage::MutationRecord& MutationStream::Record(uint64_t index) {
  GenerateUpTo(index);
  return records_[index];
}

storage::MutationRecord MutationStream::WithPayload(
    const storage::MutationRecord& header) const {
  storage::MutationRecord rec = header;
  if (rec.type == storage::MutationType::kFeatureUpdate) {
    rec.payload.resize(features_->feature_bytes_per_node());
    features_->FillFeatureAt(
        static_cast<graph::NodeId>(rec.key), rec.arg,
        std::span<float>(reinterpret_cast<float*>(rec.payload.data()),
                         features_->feature_dim()));
  }
  return rec;
}

uint64_t MutationStream::SubmitThrough(storage::StorageArray* array,
                                       uint64_t through_iteration) {
  GIDS_CHECK(array != nullptr && array->journal_enabled());
  const uint64_t target = through_iteration * records_per_iter();
  uint64_t submitted = 0;
  while (submitted_ < target) {
    GenerateUpTo(submitted_);
    const uint64_t lsn =
        array->SubmitMutation(WithPayload(records_[submitted_]));
    GIDS_CHECK(lsn == submitted_ + 1);
    ++submitted_;
    ++submitted;
  }
  return submitted;
}

uint64_t MutationStream::ResubmitMissing(storage::StorageArray* array) {
  GIDS_CHECK(array != nullptr && array->journal_enabled());
  uint64_t count = 0;
  for (uint64_t lsn : array->journal()->MissingLsns(submitted_)) {
    GIDS_CHECK(lsn >= 1 && lsn <= submitted_);
    storage::MutationRecord rec = WithPayload(Record(lsn - 1));
    rec.lsn = lsn;
    const uint64_t assigned = array->SubmitMutation(std::move(rec));
    GIDS_CHECK(assigned == lsn);
    ++count;
  }
  return count;
}

void MutationStream::OnApplied(const storage::MutationRecord& rec) {
  switch (rec.type) {
    case storage::MutationType::kFeatureUpdate:
      applied_versions_[rec.key] = rec.arg;
      ++feature_updates_applied_;
      break;
    case storage::MutationType::kEdgeInsert:
      ++edge_inserts_applied_;
      break;
    case storage::MutationType::kEdgeDelete:
      ++edge_deletes_applied_;
      break;
  }
}

}  // namespace gids::core
