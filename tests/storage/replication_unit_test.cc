// The N-way replica set (FAULTS.md "Durability & failover"): rotated
// striped placement, freshness/topology-aware read routing, and the
// StorageArray failover integration — a read whose primary is offline is
// transparently served by a surviving replica instead of zero-filling,
// and only quorum loss (every copy dark or stale) still dead-letters.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/units.h"
#include "graph/feature_store.h"
#include "storage/block_device.h"
#include "storage/fault_injector.h"
#include "storage/replica_set.h"
#include "storage/storage_array.h"

namespace gids::storage {
namespace {

const std::function<bool(int)> kAllHealthy = [](int) { return true; };

TEST(ReplicaSetTest, PlacementRotatesAcrossTheArray) {
  ReplicaOptions ro;
  ro.replication_factor = 3;
  ReplicaSet replicas(4, ro);
  for (uint64_t page = 0; page < 16; ++page) {
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(replicas.Device(page, r),
                static_cast<int>((page + static_cast<uint64_t>(r)) % 4));
    }
  }
  EXPECT_EQ(replicas.factor(), 3);
  EXPECT_EQ(replicas.quorum(), 2);  // majority by default
  ReplicaOptions relaxed = ro;
  relaxed.write_quorum = 1;
  EXPECT_EQ(ReplicaSet(4, relaxed).quorum(), 1);
}

TEST(ReplicaSetTest, RoutingPrefersThePrimaryAndCyclesReplicas) {
  ReplicaOptions ro;
  ro.replication_factor = 2;
  ReplicaSet replicas(4, ro);
  int replica = -1;
  bool quorum_lost = false;
  EXPECT_EQ(replicas.RouteAttempt(5, 0, kAllHealthy, &replica, &quorum_lost),
            1);  // page 5's primary is device 1
  EXPECT_EQ(replica, 0);
  EXPECT_FALSE(quorum_lost);
  // Successive attempts cycle the healthy copies instead of hammering one.
  EXPECT_EQ(replicas.RouteAttempt(5, 1, kAllHealthy, &replica), 2);
  EXPECT_EQ(replica, 1);
  EXPECT_EQ(replicas.RouteAttempt(5, 2, kAllHealthy, &replica), 1);
  EXPECT_EQ(replica, 0);
}

TEST(ReplicaSetTest, RoutingSkipsUnhealthyAndStaleReplicas) {
  ReplicaOptions ro;
  ro.replication_factor = 2;
  ReplicaSet replicas(4, ro);
  const auto device1_down = [](int d) { return d != 1; };

  // Unhealthy primary: the first attempt already lands on the replica.
  int replica = -1;
  bool quorum_lost = false;
  EXPECT_EQ(replicas.RouteAttempt(5, 0, device1_down, &replica, &quorum_lost),
            2);
  EXPECT_EQ(replica, 1);
  EXPECT_FALSE(quorum_lost);

  // Stale replica: the apply of LSN 3 for page 5 reached device 1 only, so
  // device 2 lags and healthy routing pins the fresh primary.
  replicas.NoteApplied(/*page=*/5, /*lsn=*/3, /*device=*/1);
  EXPECT_TRUE(replicas.IsFresh(5, 1));
  EXPECT_FALSE(replicas.IsFresh(5, 2));
  EXPECT_TRUE(replicas.IsFresh(/*page=*/9, 2));  // never-mutated page
  EXPECT_EQ(replicas.RouteAttempt(5, 0, kAllHealthy, &replica), 1);
  EXPECT_EQ(replicas.RouteAttempt(5, 1, kAllHealthy, &replica), 1);

  // Fresh primary down + stale replica: no healthy fresh copy remains —
  // the attempt cycles the doomed copies and reports quorum loss.
  quorum_lost = false;
  replicas.RouteAttempt(5, 0, device1_down, &replica, &quorum_lost);
  EXPECT_TRUE(quorum_lost);
}

// FeatureStore-backed array, the idiom of failure_injection_test.cc: the
// backing device regenerates deterministic page bytes so functional reads
// can be checked for byte-identity after a failover.
struct ReplicatedRig {
  ReplicatedRig(int n_ssd, int factor, std::vector<int> offline,
                TimeNs offline_at_ns = 0)
      : fs(256, 256) {
    auto dev = std::make_unique<FunctionBlockDevice>(
        fs.num_pages(), fs.page_bytes(),
        [this](uint64_t lba, std::span<std::byte> out) {
          fs.FillPage(lba, out);
        });
    array = std::make_unique<StorageArray>(std::move(dev),
                                           sim::SsdSpec::IntelOptane(), n_ssd);
    FaultOptions faults;
    faults.offline_devices = std::move(offline);
    faults.offline_at_ns = offline_at_ns;
    array->EnableFaultInjection(faults, RetryPolicy{});
    ReplicaOptions ro;
    ro.replication_factor = factor;
    array->EnableReplication(ro);
  }

  graph::FeatureStore fs;
  std::unique_ptr<StorageArray> array;
};

TEST(ReplicationTest, ReadFailsOverToSurvivingReplica) {
  ReplicatedRig rig(/*n_ssd=*/4, /*factor=*/2, /*offline=*/{1});
  // Page 5's primary is the dark device 1; its replica lives on device 2.
  std::vector<std::byte> got(rig.array->page_bytes());
  StorageArray::ReadOutcome oc;
  ASSERT_TRUE(rig.array->ReadPage(5, got, &oc).ok());
  EXPECT_EQ(oc.served_replica, 1);
  std::vector<std::byte> want(rig.array->page_bytes());
  rig.fs.FillPage(5, want);
  EXPECT_EQ(got, want);  // failover serves the same bytes, not zero-fill

  EXPECT_GE(rig.array->replica_failovers_total(), 1u);
  EXPECT_GE(rig.array->failovers_from_device(1), 1u);
  EXPECT_GE(rig.array->reads_by_replica(1), 1u);
  EXPECT_EQ(rig.array->replica_quorum_lost_total(), 0u);
  EXPECT_EQ(rig.array->dead_letters_total(), 0u);

  // A page owned by a healthy device still reads from its primary.
  StorageArray::ReadOutcome primary_oc;
  ASSERT_TRUE(rig.array->ReadPage(4, got, &primary_oc).ok());
  EXPECT_EQ(primary_oc.served_replica, 0);
}

TEST(ReplicationTest, QuorumLossStillDeadLetters) {
  // Both copies of page 5 (devices 1 and 2) are dark: replication cannot
  // save it, and the read dead-letters exactly like the unreplicated path.
  ReplicatedRig rig(/*n_ssd=*/4, /*factor=*/2, /*offline=*/{1, 2});
  std::vector<std::byte> got(rig.array->page_bytes());
  Status s = rig.array->ReadPage(5, got, nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_GE(rig.array->replica_quorum_lost_total(), 1u);
  EXPECT_GE(rig.array->dead_letters_total(), 1u);

  // Page 7 (devices 3 and 0) is untouched by the outage.
  StorageArray::ReadOutcome oc;
  ASSERT_TRUE(rig.array->ReadPage(7, got, &oc).ok());
  EXPECT_EQ(oc.served_replica, 0);
}

TEST(ReplicationTest, OfflineOnsetGatesFailoverOnTheVirtualClock) {
  ReplicatedRig rig(/*n_ssd=*/4, /*factor=*/2, /*offline=*/{1},
                    /*offline_at_ns=*/5 * kNsPerUs);
  std::vector<std::byte> got(rig.array->page_bytes());
  StorageArray::ReadOutcome oc;
  // Before the onset instant the device is healthy: primary serves.
  ASSERT_TRUE(rig.array->ReadPage(5, got, &oc).ok());
  EXPECT_EQ(oc.served_replica, 0);
  EXPECT_EQ(rig.array->replica_failovers_total(), 0u);

  rig.array->AdvanceClock(5 * kNsPerUs);
  ASSERT_TRUE(rig.array->ReadPage(5, got, &oc).ok());
  EXPECT_EQ(oc.served_replica, 1);
  EXPECT_GE(rig.array->replica_failovers_total(), 1u);
}

TEST(ReplicationTest, FailoverCountersAreDeterministic) {
  const auto run = [] {
    ReplicatedRig rig(4, 2, {1});
    std::vector<std::byte> buf(rig.array->page_bytes());
    for (uint64_t page = 0; page < 64; ++page) {
      (void)rig.array->ReadPage(page, buf, nullptr);
    }
    return std::vector<uint64_t>{
        rig.array->replica_failovers_total(),
        rig.array->replica_quorum_lost_total(),
        rig.array->failovers_from_device(1),
        rig.array->reads_by_replica(0),
        rig.array->reads_by_replica(1),
        rig.array->retries_total(),
    };
  };
  EXPECT_EQ(run(), run());
}

// Replication without faults still routes every read through the replica
// set, so each read counts into its serving replica's series: the primary
// serves them all, in byte-moving and counting mode alike.
TEST(ReplicationTest, ReplicaReadsCountFaultFreeReads) {
  ReplicatedRig rig(/*n_ssd=*/4, /*factor=*/2, /*offline=*/{});
  ASSERT_EQ(rig.array->fault_injector(), nullptr);
  std::vector<std::byte> buf(rig.array->page_bytes());
  for (uint64_t page = 0; page < 64; ++page) {
    std::span<std::byte> out = page % 2 == 0 ? std::span<std::byte>(buf)
                                             : std::span<std::byte>();
    ASSERT_TRUE(rig.array->ReadPage(page, out).ok());
  }
  EXPECT_EQ(rig.array->total_reads(), 64u);
  EXPECT_EQ(rig.array->reads_by_replica(0), rig.array->total_reads());
  EXPECT_EQ(rig.array->reads_by_replica(1), 0u);
  EXPECT_EQ(rig.array->replica_failovers_total(), 0u);
}

}  // namespace
}  // namespace gids::storage
