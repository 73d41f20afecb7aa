#include "snapshot/psv.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/parallel.h"

namespace spider {
namespace {

RawRecord sample_record() {
  RawRecord rec;
  rec.path = "/lustre/atlas2/nph07/u0131/runs/out.bb";
  rec.atime = 1478274632;
  rec.ctime = 1471400961;
  rec.mtime = 1471400961;
  rec.uid = 13133;
  rec.gid = 2329;
  rec.mode = kModeRegular | 0664;
  rec.inode = 1073636389;
  rec.osts = {755, 720, 731, 410};
  return rec;
}

TEST(PsvFormatTest, FieldLayoutMatchesLustreDu) {
  const std::string line = psv_format_record(sample_record());
  // PATH|ATIME|CTIME|MTIME|UID|GID|MODE(octal)|INODE|OST:OBJ,...
  EXPECT_NE(line.find("/lustre/atlas2/nph07/u0131/runs/out.bb|"), std::string::npos);
  EXPECT_NE(line.find("|1478274632|1471400961|1471400961|13133|2329|100664|"
                      "1073636389|"),
            std::string::npos);
  EXPECT_NE(line.find("755:"), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '|'), 8);
  EXPECT_EQ(std::count(line.begin(), line.end(), ','), 3);
}

TEST(PsvRoundTripTest, SingleRecord) {
  const RawRecord original = sample_record();
  RawRecord parsed;
  std::string error;
  ASSERT_TRUE(psv_parse_record(psv_format_record(original), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.path, original.path);
  EXPECT_EQ(parsed.atime, original.atime);
  EXPECT_EQ(parsed.ctime, original.ctime);
  EXPECT_EQ(parsed.mtime, original.mtime);
  EXPECT_EQ(parsed.uid, original.uid);
  EXPECT_EQ(parsed.gid, original.gid);
  EXPECT_EQ(parsed.mode, original.mode);
  EXPECT_EQ(parsed.inode, original.inode);
  EXPECT_EQ(parsed.osts, original.osts);
}

TEST(PsvRoundTripTest, DirectoryHasEmptyOstField) {
  RawRecord dir = sample_record();
  dir.mode = kModeDirectory | 0775;
  dir.osts.clear();
  const std::string line = psv_format_record(dir);
  EXPECT_EQ(line.back(), '|');  // trailing empty OST field
  RawRecord parsed;
  ASSERT_TRUE(psv_parse_record(line, &parsed));
  EXPECT_TRUE(parsed.is_dir());
  EXPECT_TRUE(parsed.osts.empty());
}

TEST(PsvParseTest, RejectsMalformedLines) {
  RawRecord rec;
  std::string error;
  EXPECT_FALSE(psv_parse_record("", &rec, &error));
  EXPECT_FALSE(psv_parse_record("/a|1|2|3", &rec, &error));  // missing fields
  EXPECT_FALSE(psv_parse_record("a|1|2|3|4|5|666|7|", &rec, &error))
      << "relative path must be rejected";
  EXPECT_FALSE(
      psv_parse_record("/a|xx|2|3|4|5|666|7|", &rec, &error));  // bad atime
  EXPECT_FALSE(
      psv_parse_record("/a|1|2|3|4|5|666|7|zz:1", &rec, &error));  // bad ost
  EXPECT_FALSE(psv_parse_record("/a|1|2|3|4|5|666|7|8|9", &rec, &error))
      << "too many fields";
  EXPECT_FALSE(error.empty());
}

TEST(PsvRoundTripTest, LargeFieldValuesDoNotTruncate) {
  // Regression: directory inodes in the synthetic facility exceed 2^40 and
  // once overflowed the formatting buffer, producing 8-field lines.
  RawRecord rec = sample_record();
  rec.inode = (1ULL << 40) | (379ULL << 22) | 12345;
  rec.atime = rec.ctime = rec.mtime = 4102444800;  // year 2100
  rec.uid = 4294967295u;
  rec.gid = 4294967295u;
  rec.osts.clear();
  const std::string line = psv_format_record(rec);
  RawRecord parsed;
  std::string error;
  ASSERT_TRUE(psv_parse_record(line, &parsed, &error)) << error << "\n"
                                                       << line;
  EXPECT_EQ(parsed.inode, rec.inode);
  EXPECT_EQ(parsed.uid, rec.uid);
}

TEST(PsvParseTest, NegativeTimestampsAllowed) {
  // Clock skew on ingest nodes can produce pre-epoch values; the analyses
  // clamp, the parser must not reject.
  RawRecord rec;
  ASSERT_TRUE(psv_parse_record("/a/b|-5|1|1|0|0|100664|1|", &rec));
  EXPECT_EQ(rec.atime, -5);
}

TEST(PsvStreamTest, TableRoundTrip) {
  SnapshotTable original;
  for (int i = 0; i < 200; ++i) {
    RawRecord rec = sample_record();
    rec.path = "/lustre/atlas2/p/u/f" + std::to_string(i) + ".dat";
    rec.inode = static_cast<std::uint64_t>(i);
    rec.mtime += i;
    original.add(rec);
  }
  std::stringstream buffer;
  const std::uint64_t bytes = write_psv(original, buffer);
  EXPECT_GT(bytes, 200u * 40);

  SnapshotTable loaded;
  const Status s = read_psv(buffer, &loaded, PsvOptions{});
  ASSERT_TRUE(s.ok()) << s.to_string();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    ASSERT_EQ(loaded.path(i), original.path(i));
    ASSERT_EQ(loaded.mtime(i), original.mtime(i));
    ASSERT_EQ(loaded.inode(i), original.inode(i));
  }
}

TEST(PsvStreamTest, ReportsLineNumberOnError) {
  std::stringstream buffer;
  buffer << psv_format_record(sample_record()) << "\n";
  buffer << "garbage line\n";
  SnapshotTable table;
  const Status s = read_psv(buffer, &table, PsvOptions{});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.to_string().find("line 2"), std::string::npos) << s.to_string();
  EXPECT_EQ(table.size(), 1u);  // first line landed before the failure
}

TEST(PsvStreamTest, SkipsEmptyLines) {
  std::stringstream buffer;
  buffer << "\n" << psv_format_record(sample_record()) << "\n\n";
  SnapshotTable table;
  ASSERT_TRUE(read_psv(buffer, &table, PsvOptions{}).ok());
  EXPECT_EQ(table.size(), 1u);
}

TEST(PsvBufferTest, ParallelBufferMatchesSerialStream) {
  SnapshotTable t;
  for (int i = 0; i < 500; ++i) {
    RawRecord rec = sample_record();
    rec.path = "/lustre/atlas2/p" + std::to_string(i / 40) + "/u/f" +
               std::to_string(i);
    rec.inode = static_cast<std::uint64_t>(i);
    t.add(rec);
  }
  std::stringstream ss;
  write_psv(t, ss);
  const std::string text = ss.str();

  SnapshotTable serial;
  std::stringstream replay(text);
  const Status serial_status = read_psv(replay, &serial, PsvOptions{});
  ASSERT_TRUE(serial_status.ok()) << serial_status.to_string();

  ThreadPool wide(4);
  SnapshotTable parallel;
  const Status parallel_status =
      read_psv_buffer(text, &parallel, PsvOptions{}, nullptr, &wide);
  ASSERT_TRUE(parallel_status.ok()) << parallel_status.to_string();

  ASSERT_EQ(parallel.size(), serial.size());
  ASSERT_EQ(parallel.file_count(), serial.file_count());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(parallel.path(i), serial.path(i)) << "row " << i;
    ASSERT_EQ(parallel.path_hash(i), serial.path_hash(i)) << "row " << i;
    ASSERT_EQ(parallel.inode(i), serial.inode(i)) << "row " << i;
    ASSERT_EQ(parallel.stripe_count(i), serial.stripe_count(i)) << "row " << i;
  }
}

TEST(PsvBufferTest, ReportsGlobalLineNumberOnError) {
  const std::string good = psv_format_record(sample_record());
  const std::string text = good + "\n" + good + "\n\nnot a record\n" + good;
  SnapshotTable t;
  const Status s = read_psv_buffer(text, &t, PsvOptions{});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.to_string().find("line 4"), std::string::npos) << s.to_string();
  EXPECT_EQ(t.size(), 0u) << "failed parse must not append rows";
}

TEST(PsvBufferTest, HandlesMissingTrailingNewlineAndEmptyBuffer) {
  SnapshotTable t;
  ASSERT_TRUE(read_psv_buffer("", &t, PsvOptions{}).ok());
  EXPECT_EQ(t.size(), 0u);
  const std::string one = psv_format_record(sample_record());
  ASSERT_TRUE(read_psv_buffer(one, &t, PsvOptions{}).ok());  // no trailing \n
  EXPECT_EQ(t.size(), 1u);
}

TEST(PsvFileTest, WriteReadFile) {
  SnapshotTable original;
  original.add(sample_record());
  const std::string file =
      testing::TempDir() + "/spider_psv_test_snapshot.psv";
  const Status written = write_psv_file(original, file, PsvOptions{});
  ASSERT_TRUE(written.ok()) << written.to_string();
  SnapshotTable loaded;
  const Status read = read_psv_file(file, &loaded, PsvOptions{});
  ASSERT_TRUE(read.ok()) << read.to_string();
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.path(0), original.path(0));
  EXPECT_FALSE(read_psv_file(file + ".missing", &loaded, PsvOptions{}).ok());
}

}  // namespace
}  // namespace spider
