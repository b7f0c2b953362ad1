// Durability contract of the exploration journal: a run interrupted at any
// record boundary resumes to a final archive bitwise-identical to an
// uninterrupted run; any corruption of the journal or snapshot costs at most
// the damaged suffix — never a crash, an over-allocation, or a bad record in
// the archive (the style of test_serialize_corruption, one layer up).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "explore/explorer.hpp"
#include "explore/journal.hpp"
#include "explore/run_report.hpp"
#include "nn/serialize.hpp"

namespace ex = metadse::explore;
namespace arch = metadse::arch;
namespace nn = metadse::nn;

namespace {

constexpr size_t kHeaderBytes = 68;  // magic, version, identity, base, crc
constexpr size_t kRecordBytes = 44;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void remove_run_files(const std::string& journal) {
  std::remove(journal.c_str());
  std::remove((journal + ".snapshot").c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

ex::RunJournal::Identity identity(uint64_t seed = 7) {
  return {.seed = seed,
          .initial_samples = 8,
          .iterations = 16,
          .mutations_per_step = 2,
          .eval_batch = 1,
          .num_params = 24};
}

ex::JournalRecord record(uint32_t i) {
  return {.gen = i,
          .flags = 0,
          .config_id = 1000 + i,
          .ipc = 1.5 + i,
          .power = 10.0 + i,
          .cursor = 50ULL * i};
}

bool same_record(const ex::JournalRecord& a, const ex::JournalRecord& b) {
  return a.gen == b.gen && a.flags == b.flags && a.config_id == b.config_id &&
         std::bit_cast<uint64_t>(a.ipc) == std::bit_cast<uint64_t>(b.ipc) &&
         std::bit_cast<uint64_t>(a.power) == std::bit_cast<uint64_t>(b.power) &&
         a.cursor == b.cursor;
}

/// Writes a journal with @p n records and returns its raw bytes.
std::string make_journal(const std::string& path, size_t n) {
  remove_run_files(path);
  ex::RunJournal j(path, identity(), /*resume=*/false);
  for (uint32_t i = 0; i < n; ++i) j.append(record(i));
  j.sync();
  return slurp(path);
}

// -- exploration fixtures -----------------------------------------------------

/// Deterministic oracle on the analytical simulator (shared, read-only).
ex::BatchEvaluator oracle(size_t* calls = nullptr, size_t throw_after = SIZE_MAX) {
  static metadse::workload::SpecSuite suite;
  static metadse::data::DatasetGenerator gen(arch::DesignSpace::table1());
  static const metadse::workload::Workload& wl = suite.by_name("621.wrf_s");
  return [calls, throw_after](const std::vector<arch::Config>& batch) {
    if (calls != nullptr && *calls + batch.size() > throw_after) {
      throw std::runtime_error("chaos: simulated crash");
    }
    std::vector<ex::Objective> out;
    out.reserve(batch.size());
    for (const auto& c : batch) {
      const auto [ipc, power] = gen.evaluate(c, wl);
      out.push_back({ipc, power});
    }
    if (calls != nullptr) *calls += batch.size();
    return out;
  };
}

ex::ExplorerOptions small_options(size_t eval_batch = 1) {
  return {.initial_samples = 8,
          .iterations = 16,
          .mutations_per_step = 2,
          .seed = 7,
          .eval_batch = eval_batch};
}

void expect_bitwise_equal(const ex::ParetoArchive& a,
                          const ex::ParetoArchive& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].config, b.entries()[i].config) << "entry " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.entries()[i].objective.ipc),
              std::bit_cast<uint64_t>(b.entries()[i].objective.ipc))
        << "entry " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.entries()[i].objective.power),
              std::bit_cast<uint64_t>(b.entries()[i].objective.power))
        << "entry " << i;
  }
}

}  // namespace

// -- RunJournal unit tests -----------------------------------------------------

TEST(RunJournal, RoundTripRecordsBitwise) {
  const auto path = temp_path("mdse_journal_rt.journal");
  make_journal(path, 5);
  ex::RunJournal j(path, identity(), /*resume=*/true);
  ASSERT_EQ(j.records().size(), 5U);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(same_record(j.records()[i], record(i))) << "record " << i;
  }
  remove_run_files(path);
}

TEST(RunJournal, RefusesToClobberWithoutResume) {
  const auto path = temp_path("mdse_journal_clobber.journal");
  make_journal(path, 3);
  EXPECT_THROW(ex::RunJournal(path, identity(), /*resume=*/false),
               std::runtime_error);
  // The refusal must not have damaged the file.
  ex::RunJournal j(path, identity(), /*resume=*/true);
  EXPECT_EQ(j.records().size(), 3U);
  remove_run_files(path);
}

TEST(RunJournal, IdentityMismatchThrows) {
  const auto path = temp_path("mdse_journal_ident.journal");
  make_journal(path, 2);
  EXPECT_THROW(ex::RunJournal(path, identity(/*seed=*/8), /*resume=*/true),
               std::runtime_error);
  remove_run_files(path);
}

TEST(RunJournal, TruncatedTailRecoversLongestPrefix) {
  const auto path = temp_path("mdse_journal_trunc.journal");
  const std::string bytes = make_journal(path, 4);
  ASSERT_EQ(bytes.size(), kHeaderBytes + 4 * kRecordBytes);
  // Every possible truncation point, including mid-header and mid-record.
  for (size_t len = 0; len <= bytes.size(); ++len) {
    spit(path, bytes.substr(0, len));
    ex::RunJournal j(path, identity(), /*resume=*/true);
    const size_t expect =
        len < kHeaderBytes ? 0 : (len - kHeaderBytes) / kRecordBytes;
    ASSERT_EQ(j.records().size(), expect) << "truncated to " << len;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_TRUE(same_record(j.records()[i], record(static_cast<uint32_t>(i))));
    }
  }
  remove_run_files(path);
}

TEST(RunJournal, FlippedByteDropsOnlyTheDamagedSuffix) {
  const auto path = temp_path("mdse_journal_flip.journal");
  const std::string bytes = make_journal(path, 4);
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x40);
    spit(path, damaged);
    ex::RunJournal j(path, identity(), /*resume=*/true);
    // A header flip starts fresh; a flip in record r kills its frame CRC and
    // everything after it. Never more records than the valid prefix.
    const size_t expect =
        pos < kHeaderBytes ? 0 : (pos - kHeaderBytes) / kRecordBytes;
    ASSERT_EQ(j.records().size(), expect) << "flipped byte " << pos;
    for (size_t i = 0; i < j.records().size(); ++i) {
      EXPECT_TRUE(same_record(j.records()[i], record(static_cast<uint32_t>(i))))
          << "flipped byte " << pos << ", record " << i;
    }
  }
  remove_run_files(path);
}

TEST(RunJournal, InterleavedGarbageDropsSuffix) {
  const auto path = temp_path("mdse_journal_garbage.journal");
  const std::string bytes = make_journal(path, 4);
  // Foreign bytes wedged between records 2 and 3 misalign every later frame.
  std::string damaged = bytes.substr(0, kHeaderBytes + 2 * kRecordBytes);
  damaged += "\xde\xad\xbe\xef!!!";
  damaged += bytes.substr(kHeaderBytes + 2 * kRecordBytes);
  spit(path, damaged);
  ex::RunJournal j(path, identity(), /*resume=*/true);
  ASSERT_EQ(j.records().size(), 2U);
  EXPECT_TRUE(same_record(j.records()[0], record(0)));
  EXPECT_TRUE(same_record(j.records()[1], record(1)));
  remove_run_files(path);
}

TEST(RunJournal, TruncateToDiscardsOnDiskAndAppendsContinue) {
  const auto path = temp_path("mdse_journal_truncto.journal");
  make_journal(path, 5);
  {
    ex::RunJournal j(path, identity(), /*resume=*/true);
    j.truncate_to(2);
    EXPECT_EQ(j.records().size(), 2U);
    j.append(record(77));
  }
  ex::RunJournal j(path, identity(), /*resume=*/true);
  ASSERT_EQ(j.records().size(), 3U);
  EXPECT_TRUE(same_record(j.records()[2], record(77)));
  remove_run_files(path);
}

TEST(RunJournal, SnapshotRoundTrip) {
  const auto path = temp_path("mdse_journal_snap.journal");
  make_journal(path, 4);
  ex::RunJournal j(path, identity(), /*resume=*/true);
  ex::RunJournal::Snapshot s;
  s.records_consumed = 3;
  s.it = 1;
  s.gen = 2;
  s.rng_state = "12 345 678";
  s.entries = {{9, 1.25, 8.5}, {11, 2.5, 9.75}};
  j.write_snapshot(s);
  const auto back = j.load_snapshot();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->records_consumed, 3U);
  EXPECT_EQ(back->it, 1U);
  EXPECT_EQ(back->gen, 2U);
  EXPECT_EQ(back->rng_state, "12 345 678");
  ASSERT_EQ(back->entries.size(), 2U);
  EXPECT_EQ(back->entries[1].config_id, 11U);
  EXPECT_EQ(std::bit_cast<uint64_t>(back->entries[1].ipc),
            std::bit_cast<uint64_t>(2.5));
  remove_run_files(path);
}

TEST(RunJournal, CorruptSnapshotIsIgnoredNeverThrows) {
  const auto path = temp_path("mdse_journal_snapbad.journal");
  make_journal(path, 4);
  ex::RunJournal j(path, identity(), /*resume=*/true);
  ex::RunJournal::Snapshot s;
  s.records_consumed = 2;
  s.rng_state = "1 2";
  s.entries = {{9, 1.0, 8.0}};
  j.write_snapshot(s);
  const std::string good = slurp(j.snapshot_path());
  // Any single flipped byte breaks the whole-file CRC.
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    spit(j.snapshot_path(), bad);
    EXPECT_FALSE(j.load_snapshot().has_value()) << "flipped byte " << pos;
  }
  // Every truncation is rejected too.
  for (size_t len = 0; len < good.size(); ++len) {
    spit(j.snapshot_path(), good.substr(0, len));
    EXPECT_FALSE(j.load_snapshot().has_value()) << "truncated to " << len;
  }
  spit(j.snapshot_path(), good);
  EXPECT_TRUE(j.load_snapshot().has_value());
  remove_run_files(path);
}

TEST(RunJournal, SnapshotAheadOfJournalIsIgnored) {
  const auto path = temp_path("mdse_journal_snapahead.journal");
  make_journal(path, 2);
  ex::RunJournal j(path, identity(), /*resume=*/true);
  ex::RunJournal::Snapshot s;
  s.records_consumed = 10;  // claims records the journal does not hold
  s.rng_state = "1 2";
  j.write_snapshot(s);
  EXPECT_FALSE(j.load_snapshot().has_value());
  remove_run_files(path);
}

// -- journaled exploration ----------------------------------------------------

TEST(JournaledExplore, ValidatesJournalOptions) {
  ex::EvolutionaryExplorer evo(small_options());
  const auto& space = arch::DesignSpace::table1();
  EXPECT_THROW(evo.explore(space, oracle(), ex::JournalOptions{.path = ""}),
               std::invalid_argument);
  EXPECT_THROW(
      evo.explore(space, oracle(),
                  ex::JournalOptions{.path = temp_path("x.journal"),
                                     .snapshot_period = 0}),
      std::invalid_argument);
}

TEST(JournaledExplore, FreshRunMatchesPlainRunBitwise) {
  for (size_t eval_batch : {size_t{1}, size_t{4}}) {
    ex::EvolutionaryExplorer evo(small_options(eval_batch));
    const auto& space = arch::DesignSpace::table1();
    const auto plain = evo.explore(space, oracle());

    const auto path = temp_path("mdse_journal_fresh.journal");
    remove_run_files(path);
    ex::RunReport rep;
    const auto journaled =
        evo.explore(space, oracle(), ex::JournalOptions{.path = path}, &rep);
    expect_bitwise_equal(plain, journaled);
    EXPECT_EQ(rep.journal_records, evo.budget());
    EXPECT_EQ(rep.replayed, 0U);
    EXPECT_FALSE(rep.resumed);
    remove_run_files(path);
  }
}

TEST(JournaledExplore, ResumeOfCompletedRunIsPureReplay) {
  ex::EvolutionaryExplorer evo(small_options());
  const auto& space = arch::DesignSpace::table1();
  const auto path = temp_path("mdse_journal_pure.journal");
  remove_run_files(path);
  const auto reference =
      evo.explore(space, oracle(), ex::JournalOptions{.path = path});
  // Snapshot restore would skip the replay accounting; force the slow path.
  std::remove((path + ".snapshot").c_str());

  size_t calls = 0;
  ex::RunReport rep;
  const auto resumed = evo.explore(
      space, oracle(&calls), ex::JournalOptions{.path = path}, &rep);
  expect_bitwise_equal(reference, resumed);
  EXPECT_EQ(calls, 0U) << "a completed journal must answer every point";
  EXPECT_EQ(rep.replayed, evo.budget());
  EXPECT_TRUE(rep.resumed);
  EXPECT_FALSE(rep.snapshot_restored);
  remove_run_files(path);
}

TEST(JournaledExplore, SnapshotFastPathMatchesFullReplay) {
  ex::EvolutionaryExplorer evo(small_options(/*eval_batch=*/4));
  const auto& space = arch::DesignSpace::table1();
  const auto path = temp_path("mdse_journal_fast.journal");
  remove_run_files(path);
  const ex::JournalOptions jopts{.path = path, .snapshot_period = 2};
  const auto reference = evo.explore(space, oracle(), jopts);

  ex::RunReport rep;
  const auto resumed = evo.explore(space, oracle(), jopts, &rep);
  expect_bitwise_equal(reference, resumed);
  EXPECT_TRUE(rep.snapshot_restored);
  EXPECT_LT(rep.replayed, evo.budget());
  remove_run_files(path);
}

TEST(JournaledExplore, CorruptSnapshotFallsBackToFullReplay) {
  ex::EvolutionaryExplorer evo(small_options(/*eval_batch=*/4));
  const auto& space = arch::DesignSpace::table1();
  const auto path = temp_path("mdse_journal_fallback.journal");
  remove_run_files(path);
  const ex::JournalOptions jopts{.path = path, .snapshot_period = 2};
  const auto reference = evo.explore(space, oracle(), jopts);

  std::string snap = slurp(path + ".snapshot");
  ASSERT_FALSE(snap.empty());
  snap[snap.size() / 2] = static_cast<char>(snap[snap.size() / 2] ^ 0x10);
  spit(path + ".snapshot", snap);

  ex::RunReport rep;
  const auto resumed = evo.explore(space, oracle(), jopts, &rep);
  expect_bitwise_equal(reference, resumed);
  EXPECT_FALSE(rep.snapshot_restored);
  EXPECT_EQ(rep.replayed, evo.budget());
  remove_run_files(path);
}

TEST(JournaledExplore, ResumeAfterCrashAtEveryRecordBoundary) {
  // The tentpole chaos drill: interrupt a journaled run after every possible
  // number of evaluations, resume, and demand a bitwise-identical archive.
  ex::EvolutionaryExplorer evo(small_options());
  const auto& space = arch::DesignSpace::table1();
  const auto reference = evo.explore(space, oracle());
  const auto path = temp_path("mdse_journal_chaos.journal");
  // A large period keeps snapshots out of the way: this drill pins down the
  // record-by-record replay accounting (snapshots get their own tests).
  const ex::JournalOptions jopts{.path = path, .snapshot_period = 1000};

  for (size_t k = 0; k <= evo.budget(); ++k) {
    remove_run_files(path);
    size_t calls = 0;
    if (k < evo.budget()) {
      EXPECT_THROW(evo.explore(space, oracle(&calls, k), jopts),
                   std::runtime_error)
          << "crash at " << k;
    } else {
      evo.explore(space, oracle(&calls, k), jopts);
    }
    size_t resumed_calls = 0;
    ex::RunReport rep;
    const auto resumed =
        evo.explore(space, oracle(&resumed_calls), jopts, &rep);
    expect_bitwise_equal(reference, resumed);
    // Nothing evaluated before the crash is ever evaluated again.
    EXPECT_EQ(resumed_calls, evo.budget() - k) << "crash at " << k;
    EXPECT_EQ(rep.replayed, k) << "crash at " << k;
    EXPECT_EQ(rep.journal_records, evo.budget() - k) << "crash at " << k;
  }
  remove_run_files(path);
}

TEST(JournaledExplore, BatchedCrashResumeLosesAtMostOneGeneration) {
  // Batched generations journal whole flushes; a crash mid-batch costs only
  // that generation's records, and resume still converges bitwise.
  ex::EvolutionaryExplorer evo(small_options(/*eval_batch=*/4));
  const auto& space = arch::DesignSpace::table1();
  const auto reference = evo.explore(space, oracle());
  const auto path = temp_path("mdse_journal_chaosb.journal");
  const ex::JournalOptions jopts{.path = path, .snapshot_period = 2};

  for (size_t k = 2; k < evo.budget(); k += 5) {
    remove_run_files(path);
    size_t calls = 0;
    EXPECT_THROW(evo.explore(space, oracle(&calls, k), jopts),
                 std::runtime_error);
    ex::RunReport rep;
    const auto resumed = evo.explore(space, oracle(), jopts, &rep);
    expect_bitwise_equal(reference, resumed);
    // A crash before the first completed generation leaves nothing durable.
    EXPECT_EQ(rep.resumed, k >= 4) << "crash at " << k;
  }
  remove_run_files(path);
}

TEST(JournaledExplore, SemanticCorruptionTruncatesAndReEvaluates) {
  // A record with a valid CRC but the wrong config (foreign tail / bit rot
  // that recomputed the checksum) must be caught by replay verification.
  ex::EvolutionaryExplorer evo(small_options());
  const auto& space = arch::DesignSpace::table1();
  const auto path = temp_path("mdse_journal_semantic.journal");
  remove_run_files(path);
  const auto reference =
      evo.explore(space, oracle(), ex::JournalOptions{.path = path});
  std::remove((path + ".snapshot").c_str());

  // Rewrite record 5's config_id and re-frame it with a correct CRC.
  std::string bytes = slurp(path);
  const size_t off = kHeaderBytes + 5 * kRecordBytes;
  uint64_t config_id = 0;
  std::memcpy(&config_id, bytes.data() + off + 8, 8);
  ++config_id;
  std::memcpy(bytes.data() + off + 8, &config_id, 8);
  const uint32_t crc = nn::crc32(bytes.data() + off, kRecordBytes - 4);
  std::memcpy(bytes.data() + off + kRecordBytes - 4, &crc, 4);
  spit(path, bytes);

  size_t calls = 0;
  ex::RunReport rep;
  const auto resumed = evo.explore(
      space, oracle(&calls), ex::JournalOptions{.path = path}, &rep);
  expect_bitwise_equal(reference, resumed);
  EXPECT_EQ(rep.replayed, 5U);
  EXPECT_EQ(calls, evo.budget() - 5);
  remove_run_files(path);
}

TEST(JournaledExplore, SnapshotCorruptionFuzzFallsBackToFullReplay) {
  // Serving-PR satellite: fuzz the .snapshot sidecar byte by byte. Every
  // single-byte flip and every truncation must be rejected silently — the
  // resume falls back to full journal replay and still converges to a
  // bitwise-identical archive. No corruption of the *snapshot* may ever
  // surface as an error or a different front.
  ex::EvolutionaryExplorer evo(small_options(/*eval_batch=*/4));
  const auto& space = arch::DesignSpace::table1();
  const auto path = temp_path("mdse_journal_snapfuzz.journal");
  remove_run_files(path);
  const ex::JournalOptions jopts{.path = path, .snapshot_period = 2};
  const auto reference = evo.explore(space, oracle(), jopts);
  const std::string journal_bytes = slurp(path);
  const std::string good = slurp(path + ".snapshot");
  ASSERT_FALSE(good.empty());
  remove_run_files(path);

  struct Probe {
    std::string label;
    std::string snapshot;
  };
  std::vector<Probe> probes;
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x80);
    probes.push_back({"flipped byte " + std::to_string(pos), std::move(bad)});
  }
  for (size_t len = 0; len < good.size(); len += 7) {
    probes.push_back(
        {"truncated to " + std::to_string(len), good.substr(0, len)});
  }

  // Each probe waits mostly on the resume's fsyncs, so independent lanes
  // overlap them. A lane owns its journal path and explorer and takes every
  // kLanes-th probe; every probe restores the same reference journal first,
  // because the resume itself rewrites both files.
  constexpr size_t kLanes = 8;
  std::vector<std::thread> lanes;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      ex::EvolutionaryExplorer lane_evo(small_options(/*eval_batch=*/4));
      const auto lane_path = temp_path(
          ("mdse_journal_snapfuzz_" + std::to_string(lane) + ".journal")
              .c_str());
      const ex::JournalOptions lane_jopts{.path = lane_path,
                                          .snapshot_period = 2};
      for (size_t i = lane; i < probes.size(); i += kLanes) {
        spit(lane_path, journal_bytes);
        spit(lane_path + ".snapshot", probes[i].snapshot);
        ex::RunReport rep;
        const auto resumed =
            lane_evo.explore(space, oracle(), lane_jopts, &rep);
        expect_bitwise_equal(reference, resumed);
        EXPECT_FALSE(rep.snapshot_restored) << probes[i].label;
        EXPECT_EQ(rep.replayed, lane_evo.budget()) << probes[i].label;
      }
      remove_run_files(lane_path);
    });
  }
  for (auto& t : lanes) t.join();
}

TEST(JournaledExplore, CooperativeStopFlushesSnapshotAndResumes) {
  // Serving-PR satellite: a cooperative stop (SIGTERM, server shutdown)
  // lands at a generation boundary, flushes journal + snapshot, and throws
  // StopRequested; resuming without the stop probe finishes the run
  // bitwise-identically to one that was never interrupted.
  const auto& space = arch::DesignSpace::table1();
  const auto reference =
      ex::EvolutionaryExplorer(small_options()).explore(space, oracle());
  const auto path = temp_path("mdse_journal_coopstop.journal");
  remove_run_files(path);
  const ex::JournalOptions jopts{.path = path, .snapshot_period = 2};

  // Stop deep in the mutation loop (seeding makes 8 generation probes with
  // eval_batch 1), so the flushed state includes a snapshot.
  auto opts = small_options();
  size_t polls = 0;
  opts.stop_check = [&polls] { return ++polls > 12; };
  size_t calls_before = 0;
  EXPECT_THROW(ex::EvolutionaryExplorer(opts).explore(
                   space, oracle(&calls_before), jopts),
               ex::StopRequested);
  EXPECT_LT(calls_before, ex::EvolutionaryExplorer(opts).budget());
  EXPECT_TRUE(std::filesystem::exists(path + ".snapshot"))
      << "a mutation-loop stop must flush a snapshot";

  size_t calls_after = 0;
  ex::RunReport rep;
  const auto resumed = ex::EvolutionaryExplorer(small_options())
                           .explore(space, oracle(&calls_after), jopts, &rep);
  expect_bitwise_equal(reference, resumed);
  EXPECT_TRUE(rep.resumed);
  EXPECT_EQ(calls_before + calls_after,
            ex::EvolutionaryExplorer(small_options()).budget())
      << "nothing evaluated before the stop is evaluated again";

  // A stop during seeding flushes the journal only (snapshots are legal only
  // once the mutation loop owns the archive); resume still converges.
  remove_run_files(path);
  polls = 0;
  opts.stop_check = [&polls] { return ++polls > 3; };
  EXPECT_THROW(ex::EvolutionaryExplorer(opts).explore(space, oracle(), jopts),
               ex::StopRequested);
  EXPECT_FALSE(std::filesystem::exists(path + ".snapshot"));
  const auto resumed2 = ex::EvolutionaryExplorer(small_options())
                            .explore(space, oracle(), jopts);
  expect_bitwise_equal(reference, resumed2);
  remove_run_files(path);
}

// -- journal rotation (compaction) --------------------------------------------

TEST(RunJournal, CompactRebasesTheJournalToAnEmptyGeneration) {
  const auto path = temp_path("mdse_journal_compact.journal");
  make_journal(path, 5);

  {
    ex::RunJournal j(path, identity(), /*resume=*/true);
    ASSERT_EQ(j.records().size(), 5U);
    // The snapshot must cover exactly the durable journal; anything else is
    // a caller bug, not a degradation.
    EXPECT_THROW(j.compact(3), std::logic_error);
    EXPECT_THROW(j.compact(6), std::logic_error);

    ASSERT_TRUE(j.compact(5));
    EXPECT_EQ(j.base(), 5U);
    EXPECT_TRUE(j.records().empty());
    EXPECT_EQ(j.logical_end(), 5U);
    EXPECT_EQ(j.compactions(), 1U);
    EXPECT_EQ(std::filesystem::file_size(path), kHeaderBytes)
        << "a rebased generation is header-only";

    // Appends continue under the new base; physical record 0 is logical 5.
    j.append(record(5));
    j.sync();
    EXPECT_EQ(j.logical_end(), 6U);
  }
  ex::RunJournal back(path, identity(), /*resume=*/true);
  EXPECT_EQ(back.base(), 5U);
  ASSERT_EQ(back.records().size(), 1U);
  EXPECT_TRUE(same_record(back.records()[0], record(5)));
  remove_run_files(path);
}

TEST(RunJournal, ResetFreshAbandonsTheRotatedGeneration) {
  const auto path = temp_path("mdse_journal_resetfresh.journal");
  make_journal(path, 4);
  ex::RunJournal j(path, identity(), /*resume=*/true);
  ASSERT_TRUE(j.compact(4));
  ASSERT_EQ(j.base(), 4U);

  // The escape hatch for "rotated journal, snapshot gone": nothing left to
  // replay against, so the run restarts from scratch.
  j.reset_fresh();
  EXPECT_EQ(j.base(), 0U);
  EXPECT_TRUE(j.records().empty());
  EXPECT_FALSE(std::filesystem::exists(j.snapshot_path()));
  j.append(record(0));
  j.sync();
  ex::RunJournal back(path, identity(), /*resume=*/true);
  EXPECT_EQ(back.base(), 0U);
  EXPECT_EQ(back.records().size(), 1U);
  remove_run_files(path);
}

TEST(JournaledExplore, RotationKeepsDiskBoundedAndBitwiseEquivalence) {
  ex::EvolutionaryExplorer evo(small_options(/*eval_batch=*/4));
  const auto& space = arch::DesignSpace::table1();
  const auto plain = evo.explore(space, oracle());

  const auto path = temp_path("mdse_journal_rotate.journal");
  remove_run_files(path);
  const ex::JournalOptions jopts{.path = path,
                                 .snapshot_period = 2,
                                 .compact_after_records = 8};
  ex::RunReport rep;
  const auto journaled = evo.explore(space, oracle(), jopts, &rep);
  expect_bitwise_equal(plain, journaled);
  EXPECT_GE(rep.journal_compactions, 2U) << "rotation never triggered";

  // Disk stays bounded: the surviving file holds at most one rotation
  // window plus the records since the last snapshot, never the full run.
  const std::string bytes = slurp(path);
  ASSERT_GE(bytes.size(), kHeaderBytes);
  EXPECT_LT(bytes.size(), kHeaderBytes + evo.budget() * kRecordBytes / 2);
  uint64_t base = 0;
  std::memcpy(&base, bytes.data() + 56, 8);
  EXPECT_GT(base, 0U) << "the final generation must be rebased";

  // Resume of the completed rotated run: the snapshot covers the base, so
  // restore + tail replay reproduces the archive without re-evaluating.
  size_t calls = 0;
  ex::RunReport rep2;
  const auto resumed = evo.explore(space, oracle(&calls), jopts, &rep2);
  expect_bitwise_equal(plain, resumed);
  EXPECT_EQ(calls, 0U);
  EXPECT_TRUE(rep2.snapshot_restored);
  remove_run_files(path);
}

TEST(JournaledExplore, RotatedJournalWithLostSnapshotRestartsFresh) {
  ex::EvolutionaryExplorer evo(small_options(/*eval_batch=*/4));
  const auto& space = arch::DesignSpace::table1();
  const auto path = temp_path("mdse_journal_rotlost.journal");
  remove_run_files(path);
  const ex::JournalOptions jopts{.path = path,
                                 .snapshot_period = 2,
                                 .compact_after_records = 8};
  const auto reference = evo.explore(space, oracle(), jopts);
  // The compacted prefix lives only inside the snapshot; losing it leaves
  // nothing to replay the rotated base against.
  std::remove((path + ".snapshot").c_str());

  size_t calls = 0;
  ex::RunReport rep;
  const auto resumed = evo.explore(space, oracle(&calls), jopts, &rep);
  expect_bitwise_equal(reference, resumed);
  EXPECT_TRUE(rep.journal_reset) << "the reset must be reported";
  EXPECT_EQ(calls, evo.budget()) << "everything must be re-evaluated";
  remove_run_files(path);
}

TEST(JournaledExplore, CrashResumeAcrossRotationBoundaries) {
  // The rotation analogue of ResumeAfterCrashAtEveryRecordBoundary: with
  // aggressive rotation armed, interrupt after every possible number of
  // evaluations — including mid-window and exactly at generation handoffs —
  // and demand a bitwise-identical archive on resume.
  ex::EvolutionaryExplorer evo(small_options(/*eval_batch=*/4));
  const auto& space = arch::DesignSpace::table1();
  const auto reference = evo.explore(space, oracle());
  const auto path = temp_path("mdse_journal_rotcrash.journal");
  const ex::JournalOptions jopts{.path = path,
                                 .snapshot_period = 2,
                                 .compact_after_records = 8};

  size_t rotated_resumes = 0;
  for (size_t k = 0; k < evo.budget(); ++k) {
    remove_run_files(path);
    size_t calls = 0;
    EXPECT_THROW(evo.explore(space, oracle(&calls, k), jopts),
                 std::runtime_error)
        << "crash at " << k;
    ex::RunReport rep;
    const auto resumed = evo.explore(space, oracle(), jopts, &rep);
    expect_bitwise_equal(reference, resumed);
    if (rep.resumed && rep.snapshot_restored) ++rotated_resumes;
  }
  EXPECT_GT(rotated_resumes, 0U)
      << "no crash point ever landed after a snapshot";
  remove_run_files(path);
}

TEST(JournaledExplore, TruncationFuzzAcrossARotatedJournal) {
  // Every-byte fuzz across a rotation boundary: complete a run that rotated
  // at least once, then truncate the surviving (rebased) journal at every
  // length. Every resume — torn tail record, header-only file, even a
  // destroyed header — must converge to a bitwise-identical archive.
  ex::EvolutionaryExplorer evo(small_options(/*eval_batch=*/4));
  const auto& space = arch::DesignSpace::table1();
  const auto path = temp_path("mdse_journal_rotfuzz.journal");
  remove_run_files(path);
  const ex::JournalOptions jopts{.path = path,
                                 .snapshot_period = 2,
                                 .compact_after_records = 8};
  ex::RunReport ref_rep;
  const auto reference = evo.explore(space, oracle(), jopts, &ref_rep);
  ASSERT_GE(ref_rep.journal_compactions, 1U);
  const std::string journal_bytes = slurp(path);
  const std::string snapshot_bytes = slurp(path + ".snapshot");
  ASSERT_FALSE(snapshot_bytes.empty());

  for (size_t len = 0; len <= journal_bytes.size(); ++len) {
    spit(path, journal_bytes.substr(0, len));
    spit(path + ".snapshot", snapshot_bytes);
    ex::RunReport rep;
    const auto resumed = evo.explore(space, oracle(), jopts, &rep);
    expect_bitwise_equal(reference, resumed);
  }
  remove_run_files(path);
}
