#include "graph/feature_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <span>
#include <vector>

namespace gids::graph {
namespace {

TEST(FeatureStoreTest, SizesForIgbLayout) {
  // IGB: dim 1024 float32 = 4 KiB per node = exactly one page.
  FeatureStore fs(1000, 1024);
  EXPECT_EQ(fs.feature_bytes_per_node(), 4096u);
  EXPECT_EQ(fs.total_bytes(), 1000u * 4096u);
  EXPECT_EQ(fs.num_pages(), 1000u);
  EXPECT_DOUBLE_EQ(fs.PagesPerNode(), 1.0);
}

TEST(FeatureStoreTest, SubPageFeatures) {
  // ogbn-papers100M: dim 128 = 512 B, 8 nodes per page.
  FeatureStore fs(16, 128);
  EXPECT_EQ(fs.feature_bytes_per_node(), 512u);
  EXPECT_EQ(fs.num_pages(), 2u);
  auto r0 = fs.PagesFor(0);
  auto r7 = fs.PagesFor(7);
  auto r8 = fs.PagesFor(8);
  EXPECT_EQ(r0.first, 0u);
  EXPECT_EQ(r0.last, 0u);
  EXPECT_EQ(r7.last, 0u);
  EXPECT_EQ(r8.first, 1u);
  EXPECT_DOUBLE_EQ(fs.PagesPerNode(), 1.0);
}

TEST(FeatureStoreTest, PageSpanningFeatures) {
  // MAG240M: dim 768 = 3 KiB; every 4th node straddles a page boundary.
  FeatureStore fs(100, 768);
  EXPECT_EQ(fs.feature_bytes_per_node(), 3072u);
  // Layout period: lcm(3072, 4096) = 12288 bytes = 4 nodes over 3 pages.
  // Nodes at offsets 0, 3072, 6144, 9216: pages {0}, {0,1}, {1,2}, {2}.
  EXPECT_EQ(fs.PagesFor(0).count(), 1u);
  EXPECT_EQ(fs.PagesFor(1).count(), 2u);
  EXPECT_EQ(fs.PagesFor(2).count(), 2u);
  EXPECT_EQ(fs.PagesFor(3).count(), 1u);
  EXPECT_DOUBLE_EQ(fs.PagesPerNode(), 1.5);
}

TEST(FeatureStoreTest, ExpectedElementDeterministicAndBounded) {
  FeatureStore fs(100, 64, 4096, /*content_seed=*/7);
  FeatureStore fs2(100, 64, 4096, /*content_seed=*/7);
  for (NodeId v : {0u, 5u, 99u}) {
    for (uint32_t j : {0u, 1u, 63u}) {
      float a = fs.ExpectedElement(v, j);
      EXPECT_EQ(a, fs2.ExpectedElement(v, j));
      EXPECT_GE(a, -0.5f);
      EXPECT_LT(a, 0.5f);
    }
  }
}

TEST(FeatureStoreTest, DifferentSeedsDifferentContent) {
  FeatureStore a(10, 64, 4096, 1);
  FeatureStore b(10, 64, 4096, 2);
  int same = 0;
  for (uint32_t j = 0; j < 64; ++j) {
    if (a.ExpectedElement(0, j) == b.ExpectedElement(0, j)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(FeatureStoreTest, FillFeatureMatchesExpectedElement) {
  FeatureStore fs(50, 256);
  std::vector<float> buf(256);
  fs.FillFeature(17, buf);
  for (uint32_t j = 0; j < 256; ++j) {
    EXPECT_EQ(buf[j], fs.ExpectedElement(17, j));
  }
}

// The central byte-fidelity property: regenerating storage pages and
// reading features through them must agree with FillFeature exactly, for
// every layout class the paper's datasets use, at the default 4 KiB page
// and at page sizes that rows straddle differently (512 B, and 4100 B,
// which is no power of two).
struct PageLayout {
  uint32_t dim;
  uint32_t page_bytes;
};

// Default-page layouts print as the bare dim, the names they always had.
void PrintTo(const PageLayout& l, std::ostream* os) {
  *os << l.dim;
  if (l.page_bytes != 4096) *os << "_page" << l.page_bytes;
}

std::vector<PageLayout> PaperLayouts() {
  std::vector<PageLayout> out;
  for (uint32_t page_bytes : {4096u, 512u, 4100u}) {
    for (uint32_t dim : {128u,     // ogbn-papers100M
                         768u,     // MAG240M
                         1024u,    // IGB
                         100u,     // not float-page aligned
                         1500u,    // spans >1 page
                         3u}) {    // tiny
      out.push_back({dim, page_bytes});
    }
  }
  return out;
}

class PageConsistencyTest : public ::testing::TestWithParam<PageLayout> {};

TEST_P(PageConsistencyTest, PagesReconstructFeatures) {
  const uint32_t dim = GetParam().dim;
  FeatureStore fs(64, dim, GetParam().page_bytes);
  // Materialize the entire "file" from pages.
  std::vector<std::byte> file(fs.num_pages() * fs.page_bytes());
  std::vector<std::byte> page(fs.page_bytes());
  for (uint64_t p = 0; p < fs.num_pages(); ++p) {
    fs.FillPage(p, page);
    std::memcpy(file.data() + p * fs.page_bytes(), page.data(),
                fs.page_bytes());
  }
  // Every node's feature bytes in the file must equal FillFeature.
  std::vector<float> expected(dim);
  for (NodeId v = 0; v < fs.num_nodes(); ++v) {
    fs.FillFeature(v, expected);
    const float* from_file =
        reinterpret_cast<const float*>(file.data() + fs.ByteOffset(v));
    for (uint32_t j = 0; j < dim; ++j) {
      ASSERT_EQ(from_file[j], expected[j]) << "node " << v << " elem " << j;
    }
  }
  // Past the last feature the file reads as zeros.
  for (uint64_t b = fs.total_bytes(); b < file.size(); ++b) {
    ASSERT_EQ(file[b], std::byte{0}) << "byte " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperDims, PageConsistencyTest,
                         ::testing::ValuesIn(PaperLayouts()));

uint32_t Bits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// The Fill* calls share one vectorized kernel (a 16-wide inner loop plus a
// scalar tail), so they are checked bit for bit against the scalar
// ExpectedElement / ExpectedElementAt rather than against each other. The
// dims straddle the 16-wide chunk; 37 nodes leave a partial last page in
// most layouts, and the pages past the end must read as zeros.
TEST(FeatureStoreTest, FillsMatchScalarElements) {
  constexpr NodeId kNodes = 37;
  for (uint32_t page_bytes : {4096u, 512u, 4100u}) {
    for (uint32_t dim : {1u, 3u, 15u, 16u, 17u, 100u, 128u, 1024u, 1500u}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim " << dim << " page_bytes " << page_bytes);
      FeatureStore fs(kNodes, dim, page_bytes);
      const uint64_t elements = static_cast<uint64_t>(kNodes) * dim;
      const uint64_t per_page = page_bytes / sizeof(float);
      // Versioned pages: rows at mixed versions, several to a page where
      // the dim is small.
      std::vector<uint64_t> versions(kNodes);
      for (NodeId v = 0; v < kNodes; ++v) versions[v] = (v * 5) % 3;
      std::vector<std::byte> page(page_bytes);
      for (std::span<const uint64_t> row_versions :
           {std::span<const uint64_t>(), std::span<const uint64_t>(versions)}) {
        for (uint64_t p = 0; p <= fs.num_pages() + 1; ++p) {
          fs.FillPage(p, page, row_versions);
          for (uint64_t i = 0; i < per_page; ++i) {
            const uint64_t k = p * per_page + i;
            float got = 0;
            std::memcpy(&got, page.data() + i * sizeof(float), sizeof(got));
            float want = 0.0f;
            if (k < elements) {
              const auto v = static_cast<NodeId>(k / dim);
              const auto j = static_cast<uint32_t>(k % dim);
              want = row_versions.empty()
                         ? fs.ExpectedElement(v, j)
                         : fs.ExpectedElementAt(v, j, row_versions[v]);
            }
            ASSERT_EQ(Bits(got), Bits(want))
                << "page " << p << " elem " << i << " versioned "
                << !row_versions.empty();
          }
        }
      }
      std::vector<float> row(dim);
      for (NodeId v = 0; v < kNodes; ++v) {
        fs.FillFeature(v, row);
        for (uint32_t j = 0; j < dim; ++j) {
          ASSERT_EQ(Bits(row[j]), Bits(fs.ExpectedElement(v, j)))
              << "node " << v << " elem " << j;
        }
        for (uint64_t version : {0u, 1u, 7u}) {
          fs.FillFeatureAt(v, version, row);
          for (uint32_t j = 0; j < dim; ++j) {
            ASSERT_EQ(Bits(row[j]), Bits(fs.ExpectedElementAt(v, j, version)))
                << "node " << v << " elem " << j << " version " << version;
          }
        }
      }
    }
  }
}

TEST(FeatureStoreTest, TailPageZeroFilled) {
  // 3 nodes x 512 B = 1536 B: one page, rest must be zero.
  FeatureStore fs(3, 128);
  ASSERT_EQ(fs.num_pages(), 1u);
  std::vector<std::byte> page(fs.page_bytes());
  fs.FillPage(0, page);
  for (uint64_t b = 3 * 512; b < fs.page_bytes(); ++b) {
    EXPECT_EQ(page[b], std::byte{0});
  }
}

TEST(FeatureStoreTest, PageBeyondFileIsZero) {
  FeatureStore fs(1, 128);
  std::vector<std::byte> page(fs.page_bytes());
  // num_pages()==1; page 5 is past the end of the file.
  fs.FillPage(5, page);
  for (std::byte b : page) EXPECT_EQ(b, std::byte{0});
}

}  // namespace
}  // namespace gids::graph
