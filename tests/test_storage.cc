/**
 * @file
 * Storage tests: the disk timing model and the compiled clause file
 * (framing, decode, source-text round trips, order preservation).
 */

#include <gtest/gtest.h>

#include "storage/clause_file.hh"
#include "storage/disk_model.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"

namespace clare::storage {
namespace {

TEST(DiskGeometry, TrackBytes)
{
    DiskGeometry g;
    g.bytesPerSector = 512;
    g.sectorsPerTrack = 64;
    EXPECT_EQ(g.trackBytes(), 32u * 1024u);
}

TEST(DiskGeometry, PresetsMatchPaperRates)
{
    DiskGeometry smd = DiskGeometry::fujitsuM2351A();
    EXPECT_DOUBLE_EQ(smd.transferRate, 2.0e6);  // "circa 2 Mbytes/s"
    DiskGeometry scsi = DiskGeometry::micropolis1325();
    EXPECT_LT(scsi.transferRate, smd.transferRate);
}

TEST(DiskModel, TransferTimeIsLinear)
{
    DiskModel disk(DiskGeometry::fujitsuM2351A());
    Tick t1 = disk.transferTime(1000);
    Tick t2 = disk.transferTime(2000);
    EXPECT_EQ(t2, 2 * t1);
    // 2 MB at 2 MB/s is one second.
    EXPECT_EQ(disk.transferTime(2'000'000), kSecond);
}

TEST(DiskModel, AccessTimeIncludesRotation)
{
    DiskGeometry g = DiskGeometry::fujitsuM2351A();
    DiskModel disk(g);
    EXPECT_GT(disk.accessTime(), g.averageSeek);
}

TEST(DiskModel, StreamDeliversChunksInOrder)
{
    DiskModel disk(DiskGeometry::fujitsuM2351A());
    std::vector<std::uint8_t> image(10000);
    for (std::size_t i = 0; i < image.size(); ++i)
        image[i] = static_cast<std::uint8_t>(i & 0xff);

    std::vector<std::uint32_t> sizes;
    std::vector<Tick> times;
    std::uint64_t total = 0;
    Tick end = disk.stream(image, 100, 5000, 1024, 0,
        [&](const std::uint8_t *data, std::uint32_t n, Tick t) {
            EXPECT_EQ(data[0],
                      static_cast<std::uint8_t>((100 + total) & 0xff));
            sizes.push_back(n);
            times.push_back(t);
            total += n;
        });
    EXPECT_EQ(total, 5000u);
    EXPECT_EQ(sizes.front(), 1024u);
    EXPECT_EQ(sizes.back(), 5000u % 1024u);
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i], times[i - 1]);
    EXPECT_EQ(end, times.back());
    EXPECT_EQ(end, disk.accessTime() + disk.transferTime(5000));
}

TEST(DiskModel, StreamEmptyRange)
{
    DiskModel disk(DiskGeometry::fujitsuM2351A());
    std::vector<std::uint8_t> image(100);
    Tick end = disk.stream(image, 0, 0, 512, 42,
        [](const std::uint8_t *, std::uint32_t, Tick) {
            FAIL() << "no chunks expected";
        });
    EXPECT_EQ(end, 42u);
}

TEST(DiskModel, StreamOutOfRangePanics)
{
    DiskModel disk(DiskGeometry::fujitsuM2351A());
    std::vector<std::uint8_t> image(10);
    EXPECT_DEATH(disk.stream(image, 5, 10, 4, 0,
        [](const std::uint8_t *, std::uint32_t, Tick) {}), "exceeds");
}

class ClauseFileTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
    term::TermWriter writer{sym};

    ClauseFile
    build(const std::string &program_text)
    {
        ClauseFileBuilder builder(writer);
        for (const auto &clause : reader.parseProgram(program_text))
            builder.add(clause);
        return builder.finish();
    }
};

TEST_F(ClauseFileTest, RecordsInOrder)
{
    ClauseFile file = build("p(a).\np(b).\np(c).\n");
    ASSERT_EQ(file.clauseCount(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(file.record(i).ordinal, i);
    EXPECT_LT(file.record(0).offset, file.record(1).offset);
}

TEST_F(ClauseFileTest, SourceTextRoundTrip)
{
    ClauseFile file = build("p(a, z).\np(f(X), [u|T]) :- q(X).\n");
    EXPECT_EQ(file.sourceText(0), "p(a,z).");
    term::Clause back = reader.parseClause(file.sourceText(1));
    EXPECT_FALSE(back.isFact());
    EXPECT_EQ(back.predicate().arity, 2u);
}

TEST_F(ClauseFileTest, FlagsDistinguishFactsAndRules)
{
    ClauseFile file = build("p(a).\np(X).\np(b) :- p(a).\n");
    EXPECT_TRUE(file.record(0).isFact());
    EXPECT_TRUE(file.record(0).isGroundFact());
    EXPECT_TRUE(file.record(1).isFact());
    EXPECT_FALSE(file.record(1).isGroundFact());
    EXPECT_FALSE(file.record(2).isFact());
}

TEST_F(ClauseFileTest, DecodeArgsMatchesFreshEncoding)
{
    ClauseFile file = build("p(f(X, a), X, [1, 2]).\n");
    pif::EncodedArgs decoded = file.decodeArgs(0);
    term::Clause clause = reader.parseClause(file.sourceText(0));
    pif::Encoder encoder;
    pif::EncodedArgs fresh = encoder.encodeArgs(clause.arena(),
                                                clause.head(),
                                                pif::Side::Db);
    ASSERT_EQ(decoded.items.size(), fresh.items.size());
    for (std::size_t i = 0; i < decoded.items.size(); ++i)
        EXPECT_EQ(decoded.items[i], fresh.items[i]) << "item " << i;
    EXPECT_EQ(decoded.argIndex, fresh.argIndex);
    EXPECT_EQ(decoded.varSlots, fresh.varSlots);
}

TEST_F(ClauseFileTest, HeaderWalkCoversWholeImage)
{
    ClauseFile file = build("p(a).\np(f(b)).\np([x,y]).\n");
    std::size_t offset = 0;
    std::size_t count = 0;
    while (offset < file.image().size()) {
        ClauseRecord rec = ClauseFile::parseHeader(file.image(), offset);
        EXPECT_EQ(rec.ordinal, count);
        offset += rec.length;
        ++count;
    }
    EXPECT_EQ(count, 3u);
    EXPECT_EQ(offset, file.image().size());
}

TEST_F(ClauseFileTest, MixedPredicatesRejected)
{
    ClauseFileBuilder builder(writer);
    builder.add(reader.parseClause("p(a)."));
    EXPECT_THROW(builder.add(reader.parseClause("q(a).")), FatalError);
    ClauseFileBuilder builder2(writer);
    builder2.add(reader.parseClause("p(a)."));
    EXPECT_THROW(builder2.add(reader.parseClause("p(a, b).")),
                 FatalError);
}

TEST_F(ClauseFileTest, TruncatedImageIsFatal)
{
    ClauseFile file = build("p(a).\n");
    std::vector<std::uint8_t> cut(file.image().begin(),
                                  file.image().end() - 3);
    EXPECT_THROW(ClauseFile::parseHeader(cut, file.record(0).offset + 1),
                 FatalError);
}

TEST_F(ClauseFileTest, BuilderReusableAfterFinish)
{
    ClauseFileBuilder builder(writer);
    builder.add(reader.parseClause("p(a)."));
    ClauseFile first = builder.finish();
    builder.add(reader.parseClause("q(b)."));
    ClauseFile second = builder.finish();
    EXPECT_EQ(first.clauseCount(), 1u);
    EXPECT_EQ(second.clauseCount(), 1u);
    EXPECT_EQ(second.predicate().functor, sym.lookup("q"));
}

} // namespace
} // namespace clare::storage
