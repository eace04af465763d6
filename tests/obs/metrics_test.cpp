#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "simcore/partition.hpp"

namespace pm2::obs {
namespace {

/// The registry is process-global: every test restores enabled=false so the
/// other suites in this binary (and their Clusters) see the default state.
class MetricsTest : public ::testing::Test {
 protected:
  void TearDown() override { MetricsRegistry::global().set_enabled(false); }
};

TEST_F(MetricsTest, RegisterIncrementLookup) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeA", -1, "hits"});
  ASSERT_TRUE(c.valid());
  reg.set_enabled(true);
  c.inc();
  c.inc(3);
  EXPECT_EQ(c.value(), 4u);
  auto v = reg.counter_value("testm", "nodeA", "hits");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4u);
  // The implicit conversion legacy call sites rely on.
  EXPECT_EQ(c, 4u);
}

TEST_F(MetricsTest, DisabledIncIsNoOp) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeA", -1, "gated"});
  reg.set_enabled(false);
  c.inc(100);
  EXPECT_EQ(c.value(), 0u);
  reg.set_enabled(true);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(MetricsTest, AddAlwaysIgnoresEnabledSwitch) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeA", -1, "always"});
  reg.set_enabled(false);
  c.add_always(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(MetricsTest, ReRegisterZeroesSlotWithoutGrowing) {
  auto& reg = MetricsRegistry::global();
  Counter c1 = reg.counter({"testm", "nodeA", 2, "reused"});
  reg.set_enabled(true);
  c1.inc(5);
  const std::size_t n = reg.num_counters();
  // A new world re-registers the same identity: same slot, count reset.
  Counter c2 = reg.counter({"testm", "nodeA", 2, "reused"});
  EXPECT_EQ(reg.num_counters(), n);
  EXPECT_EQ(c2.value(), 0u);
  EXPECT_EQ(c1.value(), 0u);  // same slot
  c2.inc();
  EXPECT_EQ(c1.value(), 1u);
}

TEST_F(MetricsTest, CoreScopedKeysAreDistinct) {
  auto& reg = MetricsRegistry::global();
  Counter c0 = reg.counter({"testm", "nodeA", 0, "per_core"});
  Counter c1 = reg.counter({"testm", "nodeA", 1, "per_core"});
  reg.set_enabled(true);
  c0.inc(2);
  c1.inc(9);
  EXPECT_EQ(reg.counter_value("testm", "nodeA", "per_core", 0), 2u);
  EXPECT_EQ(reg.counter_value("testm", "nodeA", "per_core", 1), 9u);
}

TEST_F(MetricsTest, LookupMissingReturnsNullopt) {
  auto& reg = MetricsRegistry::global();
  EXPECT_FALSE(reg.counter_value("testm", "nodeA", "no-such").has_value());
  EXPECT_FALSE(reg.gauge_value("testm", "nodeA", "no-such").has_value());
  EXPECT_FALSE(reg.histogram_count("testm", "nodeA", "no-such").has_value());
}

TEST_F(MetricsTest, DefaultHandlesAreInert) {
  Counter c;
  Gauge g;
  HistogramMetric h;
  EXPECT_FALSE(c.valid());
  MetricsRegistry::global().set_enabled(true);
  c.inc();
  c.add_always();
  g.set(5);
  h.observe(5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(MetricsTest, GaugeTracksHighWaterMark) {
  auto& reg = MetricsRegistry::global();
  Gauge g = reg.gauge({"testm", "nodeA", -1, "depth"});
  reg.set_enabled(true);
  g.set(3);
  g.set(11);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 11);
  EXPECT_EQ(reg.gauge_value("testm", "nodeA", "depth"), 2);
}

TEST_F(MetricsTest, HistogramBucketsAndStats) {
  EXPECT_EQ(HistogramMetric::bucket_of(0), 0);
  EXPECT_EQ(HistogramMetric::bucket_of(1), 1);
  EXPECT_EQ(HistogramMetric::bucket_of(2), 2);
  EXPECT_EQ(HistogramMetric::bucket_of(3), 2);
  EXPECT_EQ(HistogramMetric::bucket_of(4), 3);
  EXPECT_EQ(HistogramMetric::bucket_of(1023), 10);
  EXPECT_EQ(HistogramMetric::bucket_of(1024), 11);
  EXPECT_EQ(HistogramMetric::bucket_of(~0ull), 63);

  auto& reg = MetricsRegistry::global();
  HistogramMetric h = reg.histogram({"testm", "nodeA", -1, "lat_ns"});
  reg.set_enabled(true);
  h.observe(10);
  h.observe(70);
  h.observe(70);
  h.observe(0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 150u);
  EXPECT_DOUBLE_EQ(h.mean(), 37.5);
  EXPECT_EQ(reg.histogram_count("testm", "nodeA", "lat_ns"), 4u);
}

TEST_F(MetricsTest, ResetValuesKeepsRegistrations) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeA", -1, "resettable"});
  Gauge g = reg.gauge({"testm", "nodeA", -1, "resettable_g"});
  HistogramMetric h = reg.histogram({"testm", "nodeA", -1, "resettable_h"});
  reg.set_enabled(true);
  c.inc(4);
  g.set(9);
  h.observe(16);
  const std::size_t n = reg.num_counters();
  reg.reset_values();
  EXPECT_EQ(reg.num_counters(), n);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(MetricsTest, JsonAndTableCarryTheInstruments) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeB", 3, "json_hits"});
  HistogramMetric h = reg.histogram({"testm", "nodeB", -1, "json_ns"});
  reg.set_enabled(true);
  c.inc(42);
  h.observe(5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"component\":\"testm\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"json_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"core\":3"), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"json_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  const std::string table = reg.to_table();
  EXPECT_NE(table.find("json_hits"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);
}

TEST_F(MetricsTest, InternedIdsAreStableAcrossReRegistration) {
  auto& reg = MetricsRegistry::global();
  const MetricName a("testm.ids", "stable");
  const MetricName b("testm.ids", "stable");
  EXPECT_EQ(a.component, b.component);
  EXPECT_EQ(a.name, b.name);
  const LabelId node = MetricsRegistry::node_id("nodeIds");
  EXPECT_EQ(MetricsRegistry::node_id("nodeIds"), node);
  EXPECT_EQ(MetricsRegistry::name_label(a.name), "stable");

  Counter c1 = reg.counter(a.at(node, 1));
  reg.set_enabled(true);
  c1.inc(3);
  const std::size_t labels = MetricsRegistry::num_labels();
  const std::uint64_t hashes = MetricsRegistry::label_hashes();
  // Re-registering by ids hashes no string and lands on the same slot; the
  // string spelling of the same identity does too.
  Counter c2 = reg.counter(b.at(node, 1));
  EXPECT_EQ(MetricsRegistry::label_hashes(), hashes);
  EXPECT_EQ(c2.value(), 0u);
  c2.inc();
  Counter c3 = reg.counter({"testm.ids", "nodeIds", 1, "stable"});
  EXPECT_EQ(MetricsRegistry::num_labels(), labels);
  c3.inc(2);
  EXPECT_EQ(c1.value(), 2u);
  EXPECT_EQ(reg.counter_value("testm.ids", "nodeIds", "stable", 1), 2u);
}

TEST_F(MetricsTest, DerivedNamesAreCachedByIds) {
  const LabelId lock = MetricsRegistry::name_id("testm-lock");
  const LabelId suffix = MetricsRegistry::name_id(".acquisitions");
  const LabelId derived = MetricsRegistry::name_id(lock, suffix);
  EXPECT_EQ(MetricsRegistry::name_label(derived), "testm-lock.acquisitions");
  EXPECT_EQ(MetricsRegistry::name_id("testm-lock.acquisitions"), derived);
  const LabelId ep = MetricsRegistry::indexed_name_id(lock, 12);
  EXPECT_EQ(MetricsRegistry::name_label(ep), "testm-lock12");
  const std::uint64_t hashes = MetricsRegistry::label_hashes();
  EXPECT_EQ(MetricsRegistry::name_id(lock, suffix), derived);
  EXPECT_EQ(MetricsRegistry::indexed_name_id(lock, 12), ep);
  EXPECT_EQ(MetricsRegistry::label_hashes(), hashes);
}

TEST_F(MetricsTest, UnknownLookupDoesNotGrowTheLabelTables) {
  auto& reg = MetricsRegistry::global();
  reg.counter({"testm", "nodeA", -1, "known"});
  const std::size_t labels = MetricsRegistry::num_labels();
  const std::uint64_t hashes = MetricsRegistry::label_hashes();
  EXPECT_FALSE(reg.counter_value("testm", "nodeA", "never-registered-name"));
  EXPECT_FALSE(reg.counter_value("testm-none", "nodeA", "known"));
  EXPECT_FALSE(reg.gauge_value("testm", "node-none", "known"));
  EXPECT_FALSE(reg.histogram_count("testm", "nodeA", "known"));
  EXPECT_FALSE(reg.counter_value("testm", "nodeA", "known", 3));
  EXPECT_FALSE(reg.counter_value("testm", "nodeA", "known", 1 << 20));
  EXPECT_EQ(MetricsRegistry::num_labels(), labels);
  EXPECT_EQ(MetricsRegistry::label_hashes(), hashes);
}

TEST_F(MetricsTest, ReRegisterZeroesTheSlotInEveryShard) {
  auto& reg = MetricsRegistry::global();
  reg.set_shards(3);
  Counter c = reg.counter({"testm", "nodeS", -1, "sharded"});
  HistogramMetric h = reg.histogram({"testm", "nodeS", -1, "sharded_h"});
  reg.set_enabled(true);
  for (int p = 0; p < 3; ++p) {
    sim::tls_partition = p;
    c.inc(p + 1);
    h.observe(8);
  }
  sim::tls_partition = 0;
  EXPECT_EQ(c.value(), 6u);
  EXPECT_EQ(h.count(), 3u);
  Counter c2 = reg.counter({"testm", "nodeS", -1, "sharded"});
  HistogramMetric h2 = reg.histogram({"testm", "nodeS", -1, "sharded_h"});
  EXPECT_EQ(c2.value(), 0u);
  EXPECT_EQ(h2.count(), 0u);
  sim::tls_partition = 2;
  c2.inc();
  sim::tls_partition = 0;
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(MetricsTest, RegistrationRejectsUnpackableKeys) {
  auto& reg = MetricsRegistry::global();
  EXPECT_THROW(reg.counter({"testm", "nodeA", -2, "bad_core"}),
               std::out_of_range);
  EXPECT_THROW(reg.counter({"testm", "nodeA", 1 << 12, "bad_core"}),
               std::out_of_range);
  const MetricName name("testm", "bad_id");
  EXPECT_THROW(reg.counter({name.component, 1u << 30, -1, name.name}),
               std::out_of_range);
}

// A fixed registration script renders byte-for-byte what the string-keyed
// registry rendered: same order, same labels, same escaping, same widths.
// (A private registry holds only the script's instruments; handles write
// through the global one, so every value here is zero.)
TEST_F(MetricsTest, ReportsMatchTheStringKeyedRegistryByteForByte) {
  MetricsRegistry reg;
  reg.counter({"golden", "nodeA", -1, "hits"});
  reg.counter({"golden", "nodeA", 2, "per_core"});
  reg.counter({"golden", "", -1, "process_wide"});
  reg.gauge({"golden", "nodeB", -1, "depth"});
  reg.histogram({"golden", "nodeA", 0, "lat_ns"});
  reg.counter({"golden", "nodeA", -1, "hits"});
  reg.gauge({"golden", "nodeB", -1, "depth"});
  reg.counter({"golden.sub", "node\"q", 11, "tab\tname"});
  reg.histogram({"golden", "", -1, "sizes"});
  EXPECT_EQ(reg.registrations(), 9u);

  EXPECT_EQ(
      reg.to_json(),
      "{\"schema\":\"pm2sim-metrics-v1\",\"counters\":[\n"
      "{\"component\":\"golden\",\"node\":\"nodeA\",\"name\":\"hits\","
      "\"value\":0},\n"
      "{\"component\":\"golden\",\"node\":\"nodeA\",\"core\":2,\"name\":"
      "\"per_core\",\"value\":0},\n"
      "{\"component\":\"golden\",\"node\":\"\",\"name\":\"process_wide\","
      "\"value\":0},\n"
      "{\"component\":\"golden.sub\",\"node\":\"node\\\"q\",\"core\":11,"
      "\"name\":\"tab\\tname\",\"value\":0}\n"
      "],\"gauges\":[\n"
      "{\"component\":\"golden\",\"node\":\"nodeB\",\"name\":\"depth\","
      "\"value\":0,\"max\":0}\n"
      "],\"histograms\":[\n"
      "{\"component\":\"golden\",\"node\":\"nodeA\",\"core\":0,\"name\":"
      "\"lat_ns\",\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]},\n"
      "{\"component\":\"golden\",\"node\":\"\",\"name\":\"sizes\",\"count\":0,"
      "\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}\n"
      "]}\n");
  EXPECT_EQ(reg.to_table(),
            "golden/nodeA/hits                                    0\n"
            "golden/nodeA/core2/per_core                          0\n"
            "golden/process_wide                                  0\n"
            "golden.sub/node\"q/core11/tab\tname                    0\n"
            "golden/nodeB/depth                                   0  (max 0)\n"
            "golden/nodeA/core0/lat_ns                            0  (mean "
            "0.0, min 0, max 0)\n"
            "golden/sizes                                         0  (mean "
            "0.0, min 0, max 0)\n");
}

}  // namespace
}  // namespace pm2::obs
