/**
 * @file
 * Tests for the structured trace layer: category masking (including
 * that GP_TRACE does not evaluate arguments when off), the ring-buffer
 * flight recorder, the Chrome trace-event JSON sink, and the
 * category-list parser behind gpsim --trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/json.h"
#include "sim/trace.h"

namespace gp::sim {
namespace {

/** Every test starts and ends with a pristine TraceManager. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { TraceManager::instance().reset(); }
    void TearDown() override { TraceManager::instance().reset(); }

    TraceManager &tm() { return TraceManager::instance(); }
};

TEST_F(TraceTest, DisabledByDefault)
{
    EXPECT_FALSE(TraceManager::anyEnabled());
    EXPECT_FALSE(TraceManager::enabled(TraceCat::Exec));
    EXPECT_FALSE(TraceManager::enabled(TraceCat::Fault));
}

TEST_F(TraceTest, ArgumentsNotEvaluatedWhenOff)
{
    int evaluations = 0;
    auto expensive = [&]() {
        evaluations++;
        return 42;
    };
    GP_TRACE(Cache, 1, 0, "miss", "v=%d", expensive());
    EXPECT_EQ(evaluations, 0) << "disabled GP_TRACE must not touch "
                                 "its format arguments";

    std::ostringstream os;
    tm().setTextSink(&os, uint32_t(TraceCat::Cache));
    GP_TRACE(Cache, 1, 0, "miss", "v=%d", expensive());
    EXPECT_EQ(evaluations, 1);
}

TEST_F(TraceTest, TextSinkHonoursCategoryMask)
{
    std::ostringstream os;
    tm().setTextSink(&os, uint32_t(TraceCat::Cache));
    EXPECT_TRUE(TraceManager::enabled(TraceCat::Cache));
    EXPECT_FALSE(TraceManager::enabled(TraceCat::Exec));

    tm().emitf(TraceCat::Cache, 5, 2, "miss", "vaddr=0x%x", 0x40);
    tm().emitf(TraceCat::Exec, 6, 0, "inst", "op=%s", "add");

    const std::string text = os.str();
    EXPECT_NE(text.find("miss"), std::string::npos);
    EXPECT_NE(text.find("cache"), std::string::npos);
    EXPECT_EQ(text.find("inst"), std::string::npos)
        << "events outside the sink mask must be dropped";
}

TEST_F(TraceTest, TextSinkCarriesCycleAndTrack)
{
    std::ostringstream os;
    tm().setTextSink(&os, kTraceAllMask);
    tm().emitf(TraceCat::TLB, 1234, 3, "walk", "vpn=0x%x", 7);
    EXPECT_NE(os.str().find("1234"), std::string::npos);
    EXPECT_NE(os.str().find("b3"), std::string::npos)
        << "TLB tracks render as banks";
    EXPECT_NE(os.str().find("vpn=0x7"), std::string::npos);
}

TEST_F(TraceTest, RingBufferWrapsKeepingNewest)
{
    tm().setFlightRecorder(3, kTraceAllMask);
    for (int i = 0; i < 5; ++i)
        tm().emitf(TraceCat::Exec, uint64_t(i), 0, "inst", "n=%d", i);

    const auto events = tm().ringEvents();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].detail, "n=2") << "oldest surviving event";
    EXPECT_EQ(events[1].detail, "n=3");
    EXPECT_EQ(events[2].detail, "n=4") << "newest event";
    EXPECT_EQ(events[0].cycle, 2u);
}

TEST_F(TraceTest, UnhandledFaultDumpsRing)
{
    std::ostringstream dump;
    tm().setFlightRecorder(8, kTraceAllMask, &dump);
    tm().emitf(TraceCat::Fault, 9, 2, "bounds-violation",
               "seg=[0x%x,+0x%x)", 0x1000, 0x100);
    tm().unhandledFault();

    const std::string text = dump.str();
    EXPECT_NE(text.find("flight recorder"), std::string::npos);
    EXPECT_NE(text.find("bounds-violation"), std::string::npos);
    EXPECT_NE(text.find("seg=[0x1000,+0x100)"), std::string::npos);
}

TEST_F(TraceTest, UnhandledFaultWithoutRecorderIsSilent)
{
    // Disarmed (the default): must not crash or write anywhere.
    tm().unhandledFault();
    EXPECT_EQ(tm().ringEvents().size(), 0u);
}

TEST_F(TraceTest, ChromeJsonIsWellFormed)
{
    const std::string path =
        ::testing::TempDir() + "gp_trace_test.json";
    ASSERT_TRUE(tm().openJson(path));
    tm().emitf(TraceCat::Cache, 10, 0, "miss", "vaddr=0x%x", 1);
    tm().emitf(TraceCat::Cache, 11, 1, "hit", "vaddr=0x%x", 2);
    tm().emitf(TraceCat::Exec, 12, 5, "inst", "op=\"%s\"", "add");
    tm().closeJson();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();

    std::string error;
    EXPECT_TRUE(jsonParse(json, &error)) << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Perfetto track naming: one process per category, one thread
    // per track, declared via metadata events.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("bank 1"), std::string::npos);
    EXPECT_NE(json.find("thread 5"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceTest, SetTrackNameOverridesMetadataThreadName)
{
    const std::string path =
        ::testing::TempDir() + "gp_trace_names.json";
    ASSERT_TRUE(tm().openJson(path));
    tm().setTrackName(TraceCat::Exec, 5, "server copy 2");
    tm().emitf(TraceCat::Exec, 10, 5, "inst", "op=%s", "add");
    tm().emitf(TraceCat::Exec, 11, 6, "inst", "op=%s", "sub");
    tm().closeJson();

    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::string error;
    EXPECT_TRUE(jsonParse(json, &error)) << error;
    EXPECT_NE(json.find("server copy 2"), std::string::npos)
        << "named track uses the registered name";
    EXPECT_NE(json.find("thread 6"), std::string::npos)
        << "unnamed tracks keep the default kind+id name";
    std::remove(path.c_str());
}

TEST_F(TraceTest, TrackNamesWithQuotesAndBackslashesAreEscaped)
{
    // Regression: metadata names went into the JSON sink unescaped,
    // so a track name (or category name) containing a quote or a
    // backslash produced an unparseable trace file.
    const std::string path =
        ::testing::TempDir() + "gp_trace_name_escape.json";
    ASSERT_TRUE(tm().openJson(path));
    tm().setTrackName(TraceCat::Exec, 0, "copy \"0\" of a\\b");
    tm().emitf(TraceCat::Exec, 1, 0, "inst", "x");
    tm().closeJson();

    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::string error;
    EXPECT_TRUE(jsonParse(json, &error)) << error;
    EXPECT_NE(json.find("copy \\\"0\\\" of a\\\\b"),
              std::string::npos)
        << "quotes and backslashes in track names must be escaped";
    std::remove(path.c_str());
}

TEST_F(TraceTest, ResetClearsTrackNames)
{
    tm().setTrackName(TraceCat::Exec, 0, "stale");
    tm().reset();

    const std::string path =
        ::testing::TempDir() + "gp_trace_reset_names.json";
    ASSERT_TRUE(tm().openJson(path));
    tm().emitf(TraceCat::Exec, 1, 0, "inst", "x");
    tm().closeJson();

    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str().find("stale"), std::string::npos)
        << "reset() must drop registered track names";
    std::remove(path.c_str());
}

TEST_F(TraceTest, JsonEscapesEventPayloads)
{
    const std::string path =
        ::testing::TempDir() + "gp_trace_escape.json";
    ASSERT_TRUE(tm().openJson(path));
    tm().emitf(TraceCat::Gate, 0, 0, "a\"b\\c", "detail with \"quotes\"");
    tm().closeJson();

    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string error;
    EXPECT_TRUE(jsonParse(ss.str(), &error)) << error;
    std::remove(path.c_str());
}

TEST_F(TraceTest, ResetDisarmsEverything)
{
    std::ostringstream os;
    tm().setTextSink(&os, kTraceAllMask);
    tm().setFlightRecorder(4);
    tm().emitf(TraceCat::Exec, 0, 0, "inst", "x");
    EXPECT_GT(tm().emittedCount(), 0u);

    tm().reset();
    EXPECT_FALSE(TraceManager::anyEnabled());
    EXPECT_EQ(tm().emittedCount(), 0u);
    EXPECT_EQ(tm().ringEvents().size(), 0u);
}

TEST(ParseTraceMask, AcceptsAllAndLists)
{
    EXPECT_EQ(parseTraceMask("all"), kTraceAllMask);
    EXPECT_EQ(parseTraceMask("ALL"), kTraceAllMask);
    EXPECT_EQ(parseTraceMask("cache"),
              uint32_t(TraceCat::Cache));
    EXPECT_EQ(parseTraceMask("cache,tlb"),
              (uint32_t(TraceCat::Cache) | uint32_t(TraceCat::TLB)));
    EXPECT_EQ(parseTraceMask("Exec,FAULT"),
              (uint32_t(TraceCat::Exec) | uint32_t(TraceCat::Fault)));
}

TEST(ParseTraceMask, RejectsUnknownAndEmpty)
{
    EXPECT_FALSE(parseTraceMask("bogus").has_value());
    EXPECT_FALSE(parseTraceMask("cache,bogus").has_value());
    EXPECT_FALSE(parseTraceMask("").has_value());
    EXPECT_FALSE(parseTraceMask(",").has_value());
}

TEST(TraceCatNames, StableLowerCaseNames)
{
    EXPECT_EQ(traceCatName(TraceCat::Exec), "exec");
    EXPECT_EQ(traceCatName(TraceCat::NoC), "noc");
    EXPECT_EQ(traceCatName(TraceCat::Gate), "gate");
}

} // namespace
} // namespace gp::sim
