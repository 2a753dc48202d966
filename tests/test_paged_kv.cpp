// serve::PagedKVPool: page alloc/free/refcounting, copy-on-write fork on
// divergence, prompt-prefix hit accounting, exhaustion as a Status error
// (never an abort) — and the subsystem's bit-identity anchor: a decoder
// stepping through a PagedKVView produces float-identical logits to the
// same decoder stepping through a contiguous llm::KVCache. Pages store
// each row once, quantised at append in a quant::KvFormat (FP32 identity
// by default), and every sharer reads a shared page in place, so sharing
// shows in refcounts and span addresses; the quantised formats get their
// own CoW / prefix tests.
#include <gtest/gtest.h>

#include <vector>

#include "bbal/registry.hpp"
#include "bbal/session.hpp"
#include "llm/decoder.hpp"
#include "quant/block.hpp"
#include "serve/paged_kv.hpp"

namespace bbal {
namespace {

using serve::PagedKVPool;
using serve::PagedKVView;

llm::ModelConfig tiny_config() {
  llm::ModelConfig cfg;
  cfg.name = "paged-kv-test";
  cfg.vocab = 64;
  cfg.d_model = 8;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 12;
  cfg.seed = 7;
  return cfg;
}

PagedKVPool::Options small_pool(int page_tokens, int max_pages) {
  PagedKVPool::Options options;
  options.page_tokens = page_tokens;
  options.max_pages = max_pages;
  return options;
}

/// Append one synthetic position (distinct per (seq, position, layer)) so
/// tests can recognise rows later.
void append_position(PagedKVPool& pool, PagedKVPool::SeqId id, float tag) {
  ASSERT_TRUE(pool.reserve_next(id).is_ok());
  PagedKVView view(pool, id);
  const int d = tiny_config().d_model;
  const int pos = view.length();
  const float base = tag + static_cast<float>(pos);
  for (int l = 0; l < tiny_config().n_layers; ++l) {
    std::vector<float> k(static_cast<std::size_t>(d),
                         base + 0.25f * static_cast<float>(l));
    std::vector<float> v(static_cast<std::size_t>(d),
                         -base - 0.25f * static_cast<float>(l));
    view.append(l, pos, k, v);
  }
}

/// Append `count` positions as ONE chunk through the layer-major protocol
/// Decoder::step_groups uses: every new position at layer 0, then layer 1,
/// ... with positions committing to length() as the last layer's rows land
/// in position order. Exercises reserve(id, count) + position-explicit
/// append exactly the way a prefill chunk does.
void append_chunk(PagedKVPool& pool, PagedKVPool::SeqId id, int count,
                  float tag) {
  ASSERT_TRUE(pool.reserve(id, count).is_ok());
  PagedKVView view(pool, id);
  const int d = tiny_config().d_model;
  const int base_pos = view.length();
  for (int l = 0; l < tiny_config().n_layers; ++l) {
    for (int i = 0; i < count; ++i) {
      const float base = tag + static_cast<float>(base_pos + i);
      std::vector<float> k(static_cast<std::size_t>(d),
                           base + 0.25f * static_cast<float>(l));
      std::vector<float> v(static_cast<std::size_t>(d),
                           -base - 0.25f * static_cast<float>(l));
      view.append(l, base_pos + i, k, v);
    }
  }
}

TEST(PagedKVPool, AllocatesFreesAndRefcounts) {
  PagedKVPool pool(tiny_config(), small_pool(4, 8));
  EXPECT_EQ(pool.page_bytes(), 2 * 4 * 2 * 8 * 4);  // layers*slots*kv*d*f32

  const auto a = pool.create();
  EXPECT_EQ(pool.length(a), 0);
  EXPECT_EQ(pool.stats().pages_in_use, 0);  // no pages until reserve

  for (int i = 0; i < 5; ++i) append_position(pool, a, 100.0f);
  EXPECT_EQ(pool.length(a), 5);
  EXPECT_EQ(pool.stats().pages_allocated, 2);  // 5 positions, 4 per page
  EXPECT_EQ(pool.stats().pages_in_use, 2);
  EXPECT_EQ(pool.page_refcount(a, 0), 1);

  const auto b = pool.create();
  append_position(pool, b, 200.0f);
  EXPECT_EQ(pool.stats().pages_in_use, 3);

  pool.release(a);
  EXPECT_EQ(pool.stats().pages_in_use, 1);
  pool.release(b);
  EXPECT_EQ(pool.stats().pages_in_use, 0);
  EXPECT_EQ(pool.stats().pages_in_use_peak, 3);
  // Freed pages are reused, not re-allocated storage.
  const auto c = pool.create();
  append_position(pool, c, 300.0f);
  EXPECT_EQ(pool.stats().pages_allocated, 4);
}

TEST(PagedKVPool, ForkSharesPagesAndCopiesOnDivergence) {
  PagedKVPool pool(tiny_config(), small_pool(4, 8));
  const auto a = pool.create();
  for (int i = 0; i < 6; ++i) append_position(pool, a, 100.0f);

  const auto b = pool.fork(a);
  EXPECT_EQ(pool.length(b), 6);
  EXPECT_EQ(pool.stats().pages_in_use, 2);  // all pages shared
  EXPECT_EQ(pool.page_refcount(a, 5), 2);

  // Shared tail reads land in one refcounted physical page: both views
  // hand out the same row of it.
  const PagedKVView va(pool, a);
  const PagedKVView vb(pool, b);
  EXPECT_EQ(va.k_at(1, 5).data(), vb.k_at(1, 5).data());
  EXPECT_EQ(va.k_at(1, 5).size(), vb.k_at(1, 5).size());
  const float before = va.k_at(0, 4).front();

  // a appends -> a copies the shared tail page (copy-on-write)...
  append_position(pool, a, 111.0f);
  EXPECT_EQ(pool.stats().page_copies, 1);
  EXPECT_EQ(pool.page_refcount(a, 4), 1);
  EXPECT_EQ(pool.page_refcount(b, 4), 1);
  // ...b's view of the old rows is untouched, and the copied prefix of
  // the diverged page matches bit for bit from a page of its own.
  EXPECT_EQ(vb.k_at(0, 4).front(), before);
  EXPECT_EQ(va.k_at(0, 4).front(), before);
  EXPECT_NE(va.k_at(0, 4).data(), vb.k_at(0, 4).data());

  // b appends next: its tail is now private again, no second copy.
  append_position(pool, b, 222.0f);
  EXPECT_EQ(pool.stats().page_copies, 1);
  EXPECT_NE(va.k_at(0, 6).front(), vb.k_at(0, 6).front());
}

TEST(PagedKVPool, PrefixHitsAreAccountedAndCapped) {
  PagedKVPool pool(tiny_config(), small_pool(4, 16));
  std::vector<int> prompt = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

  const auto leader = pool.create(prompt);
  EXPECT_EQ(pool.shared_length(leader), 0);  // nothing registered yet
  for (int i = 0; i < static_cast<int>(prompt.size()); ++i)
    append_position(pool, leader, 100.0f);
  pool.register_prefix(leader, prompt);
  // 10 tokens -> 2 full pages registered, referenced by the registry.
  EXPECT_EQ(pool.page_refcount(leader, 0), 2);

  EXPECT_EQ(pool.probe_prefix_tokens(prompt), 8);
  const auto follower = pool.create(prompt);
  EXPECT_EQ(pool.shared_length(follower), 8);
  EXPECT_EQ(pool.length(follower), 8);
  EXPECT_EQ(pool.stats().prefix_hit_tokens, 8);
  EXPECT_EQ(pool.stats().prefix_lookup_tokens, 20);  // both creates counted
  // Shared positions read the same physical page (refcount counts leader,
  // follower and the registry): both views hand out the same row.
  const PagedKVView vl(pool, leader);
  const PagedKVView vf(pool, follower);
  EXPECT_EQ(pool.page_refcount(follower, 3), 3);
  EXPECT_EQ(vl.k_at(0, 3).data(), vf.k_at(0, 3).data());

  // A prompt that is exactly the registered pages must still recompute
  // its final position: the cap keeps sharing strictly below prompt size.
  const std::vector<int> exact = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(pool.probe_prefix_tokens(exact), 4);

  // Divergent second page: only the first page matches.
  std::vector<int> other = prompt;
  other[5] = 99;
  EXPECT_EQ(pool.probe_prefix_tokens(other), 4);

  // The registry keeps prompt pages alive past release...
  pool.release(leader);
  EXPECT_EQ(pool.page_refcount(follower, 0), 2);
  // ...until eviction drops the registry's references. The follower still
  // holds the pages, so nothing is freed — pages_evicted counts only
  // pages actually returned to the free list.
  pool.drop_registered_prefixes();
  EXPECT_EQ(pool.page_refcount(follower, 0), 1);
  EXPECT_EQ(pool.stats().pages_evicted, 0);
}

TEST(PagedKVPool, ExhaustionIsAStatusErrorAndEvictionRecovers) {
  PagedKVPool pool(tiny_config(), small_pool(4, 2));
  const auto a = pool.create();
  for (int i = 0; i < 8; ++i) append_position(pool, a, 100.0f);

  // Pool full: the next page is a reportable error, not an abort.
  const Status overflow = pool.reserve_next(a);
  ASSERT_FALSE(overflow.is_ok());
  EXPECT_NE(overflow.message().find("exhausted"), std::string::npos)
      << overflow.message();
  EXPECT_EQ(pool.length(a), 8);  // the failed reserve changed nothing

  // Registered prefixes are reclaimable: release the sequence, keep the
  // registry reference, and a new sequence evicts its way to a page.
  const std::vector<int> prompt = {1, 2, 3, 4, 5, 6, 7, 8};
  pool.register_prefix(a, prompt);
  pool.release(a);
  EXPECT_EQ(pool.stats().pages_in_use, 2);  // registry still holds both
  const auto b = pool.create();
  ASSERT_TRUE(pool.reserve_next(b).is_ok());
  EXPECT_EQ(pool.stats().pages_evicted, 2);
  EXPECT_EQ(pool.stats().pages_in_use, 1);
}

TEST(PagedKVPool, ChunkReserveCopiesSharedTailAndCrossesPages) {
  PagedKVPool pool(tiny_config(), small_pool(4, 8));
  const auto a = pool.create();
  for (int i = 0; i < 6; ++i) append_position(pool, a, 100.0f);
  const auto b = pool.fork(a);
  EXPECT_EQ(pool.page_refcount(a, 5), 2);

  const PagedKVView vb(pool, b);
  const float before = vb.k_at(0, 5).front();

  // One reserve for a 5-position chunk: copy-on-write the shared half-full
  // tail page first, then allocate a fresh page for the boundary crossing
  // (positions 8..10) — a prefill chunk spanning a page edge.
  append_chunk(pool, a, 5, 111.0f);
  EXPECT_EQ(pool.length(a), 11);
  EXPECT_EQ(pool.stats().page_copies, 1);
  EXPECT_EQ(pool.page_refcount(a, 5), 1);
  // b's view of the shared rows is untouched, and every chunk position
  // reads back from whichever page it landed on.
  EXPECT_EQ(vb.k_at(0, 5).front(), before);
  EXPECT_EQ(pool.length(b), 6);
  const PagedKVView va(pool, a);
  for (int pos = 6; pos < 11; ++pos)
    EXPECT_EQ(va.k_at(0, pos).front(), 111.0f + static_cast<float>(pos))
        << "chunk position " << pos;
}

TEST(PagedKVPool, ChunkReserveRollsBackAllocationsOnExhaustion) {
  PagedKVPool pool(tiny_config(), small_pool(4, 3));
  const auto a = pool.create();
  for (int i = 0; i < 4; ++i) append_position(pool, a, 100.0f);
  // 9 more positions need 3 fresh pages; only 2 exist. The reserve fails
  // as a Status, and the pages it DID allocate are rolled back — a failed
  // chunk reservation must not leak capacity.
  const Status overflow = pool.reserve(a, 9);
  ASSERT_FALSE(overflow.is_ok());
  EXPECT_EQ(pool.length(a), 4);
  EXPECT_EQ(pool.stats().pages_in_use, 1);
  // The rolled-back pages are immediately reusable by a chunk that fits.
  append_chunk(pool, a, 8, 200.0f);
  EXPECT_EQ(pool.length(a), 12);
  EXPECT_EQ(pool.stats().pages_in_use, 3);
}

TEST(PagedKVPool, CowFailureDuringReserveLeavesSequencesIntact) {
  PagedKVPool pool(tiny_config(), small_pool(4, 1));
  const auto a = pool.create();
  append_position(pool, a, 100.0f);
  append_position(pool, a, 100.0f);
  const auto b = pool.fork(a);
  // Appending into the shared tail needs a copy, and the pool has no page
  // for it: the reserve is an error before any mutation happens.
  const Status st = pool.reserve(a, 1);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(pool.stats().page_copies, 0);
  EXPECT_EQ(pool.length(a), 2);
  EXPECT_EQ(pool.length(b), 2);
  const PagedKVView va(pool, a);
  EXPECT_EQ(va.k_at(0, 1).front(), 101.0f);
}

TEST(PagedKVPool, PackedPageBytesShrinkWithTheFormat) {
  const auto bytes_for = [](const char* name) {
    PagedKVPool::Options options = small_pool(4, 8);
    options.kv_format = quant::KvFormat::parse(name).expect(name);
    return PagedKVPool(tiny_config(), options).page_bytes();
  };
  const std::int64_t fp32 = bytes_for("FP32");
  EXPECT_EQ(fp32, 2 * 4 * 2 * 8 * 4);  // identical to the float layout
  // d_model = 8 -> one short group per row: BBFP(4,2) is 2 + 6 = 8 bytes
  // against 32 raw — exactly the 4x floor the frontier bench gates.
  EXPECT_LE(bytes_for("BBFP(4,2)") * 4, fp32);
  EXPECT_LE(bytes_for("BFP4") * 4, fp32);
  EXPECT_LT(bytes_for("INT8"), fp32 / 2);
}

TEST(PagedKVView, QuantisedAppendsDecodeToTheQuantiseReference) {
  PagedKVPool::Options options = small_pool(4, 8);
  options.kv_format = quant::KvFormat::parse("BBFP(4,2)").expect("format");
  const llm::ModelConfig cfg = tiny_config();
  PagedKVPool pool(cfg, options);
  const auto seq = pool.create();
  PagedKVView writer(pool, seq);

  std::vector<std::vector<float>> expected_k;  // [pos * n_layers + layer]
  for (int pos = 0; pos < 6; ++pos) {
    ASSERT_TRUE(pool.reserve_next(seq).is_ok());
    for (int l = 0; l < cfg.n_layers; ++l) {
      std::vector<float> k(static_cast<std::size_t>(cfg.d_model));
      std::vector<float> v(static_cast<std::size_t>(cfg.d_model));
      for (int i = 0; i < cfg.d_model; ++i) {
        k[static_cast<std::size_t>(i)] =
            0.37f * static_cast<float>(pos + 1) * static_cast<float>(i - 3) +
            0.01f * static_cast<float>(l);
        v[static_cast<std::size_t>(i)] =
            -1.3f * static_cast<float>(pos + 1) + 0.05f * static_cast<float>(i);
      }
      writer.append(l, pos, k, v);
      // The reference the codec must reproduce: quantise() over doubles,
      // narrowed to float exactly as the codec narrows.
      const std::vector<double> wide(k.begin(), k.end());
      const std::vector<double> quantised =
          quant::quantise(std::span<const double>(wide),
                          options.kv_format.block);
      expected_k.emplace_back(quantised.begin(), quantised.end());
    }
  }
  // Both the appending view and a fresh reader must see exactly the
  // quantise() reference, stored once at append.
  const PagedKVView reader(pool, seq);
  for (int pos = 0; pos < 6; ++pos) {
    for (int l = 0; l < cfg.n_layers; ++l) {
      const auto& ref =
          expected_k[static_cast<std::size_t>(pos * cfg.n_layers + l)];
      const auto from_writer = writer.k_at(l, pos);
      const auto from_reader = reader.k_at(l, pos);
      for (int i = 0; i < cfg.d_model; ++i) {
        ASSERT_EQ(from_writer[static_cast<std::size_t>(i)],
                  ref[static_cast<std::size_t>(i)])
            << "writer pos " << pos << " layer " << l << " elem " << i;
        ASSERT_EQ(from_reader[static_cast<std::size_t>(i)],
                  ref[static_cast<std::size_t>(i)])
            << "reader pos " << pos << " layer " << l << " elem " << i;
      }
    }
  }
}

TEST(PagedKVPool, CopyOnWriteForksOverQuantisedPages) {
  PagedKVPool::Options options = small_pool(4, 8);
  options.kv_format = quant::KvFormat::parse("BFP4").expect("format");
  PagedKVPool pool(tiny_config(), options);
  const auto a = pool.create();
  for (int i = 0; i < 6; ++i) append_position(pool, a, 100.0f);

  const auto b = pool.fork(a);
  const PagedKVView vb(pool, b);
  const std::vector<float> shared_row(vb.k_at(1, 4).begin(),
                                      vb.k_at(1, 4).end());

  // a diverges: the shared tail page's stored rows are copied verbatim,
  // so b reads back bit-identical quantised rows afterwards.
  append_position(pool, a, 111.0f);
  EXPECT_EQ(pool.stats().page_copies, 1);
  const auto after = vb.k_at(1, 4);
  ASSERT_EQ(after.size(), shared_row.size());
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_EQ(after[i], shared_row[i]);
  // The diverged position differs between the sequences (different tags).
  append_position(pool, b, 222.0f);
  const PagedKVView va(pool, a);
  EXPECT_NE(va.k_at(0, 6).front(), vb.k_at(0, 6).front());
}

TEST(PagedKVPool, PrefixSharingVerifiesTokensOnQuantisedPages) {
  PagedKVPool::Options options = small_pool(4, 16);
  options.kv_format = quant::KvFormat::parse("BBFP(6,3)").expect("format");
  PagedKVPool pool(tiny_config(), options);
  const std::vector<int> prompt = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

  const auto leader = pool.create(prompt);
  for (int i = 0; i < static_cast<int>(prompt.size()); ++i)
    append_position(pool, leader, 100.0f);
  pool.register_prefix(leader, prompt);

  // Token verification is independent of the page encoding: a matching
  // prompt attaches the quantised pages, a diverging one is rejected.
  const auto follower = pool.create(prompt);
  EXPECT_EQ(pool.shared_length(follower), 8);
  std::vector<int> other = prompt;
  other[2] = 42;
  EXPECT_EQ(pool.probe_prefix_tokens(other), 0);

  // The follower reads the leader's quantised rows in place.
  const PagedKVView vl(pool, leader);
  const PagedKVView vf(pool, follower);
  for (const int pos : {0, 3, 7}) {
    const auto kl = vl.k_at(1, pos);
    const auto kf = vf.k_at(1, pos);
    ASSERT_EQ(kl.size(), kf.size());
    for (std::size_t i = 0; i < kl.size(); ++i)
      EXPECT_EQ(kl[i], kf[i]) << "pos " << pos << " elem " << i;
  }
}

// --- truncate(): speculative decoding's rejection rollback ---

TEST(PagedKVPool, TruncateFreesBoundaryPagesAndKeepsMidPageTails) {
  PagedKVPool pool(tiny_config(), small_pool(4, 8));
  const auto a = pool.create();
  for (int i = 0; i < 10; ++i) append_position(pool, a, 100.0f);
  EXPECT_EQ(pool.stats().pages_in_use, 3);  // 4 + 4 + 2

  // Mid-page rollback keeps the partially-filled tail page: its dead
  // slots are overwritten before any read, so nothing is freed yet.
  pool.truncate(a, 9);
  EXPECT_EQ(pool.length(a), 9);
  EXPECT_EQ(pool.stats().pages_in_use, 3);

  // Rolling back to an exact page boundary frees the emptied tail page.
  pool.truncate(a, 8);
  EXPECT_EQ(pool.length(a), 8);
  EXPECT_EQ(pool.stats().pages_in_use, 2);

  // A deep rollback crosses pages: mid-page again, one page freed.
  pool.truncate(a, 3);
  EXPECT_EQ(pool.length(a), 3);
  EXPECT_EQ(pool.stats().pages_in_use, 1);

  // n > length is a no-op — truncate never grows a sequence.
  pool.truncate(a, 7);
  EXPECT_EQ(pool.length(a), 3);

  // Survivors are untouched rows, and truncate-to-empty frees everything.
  const PagedKVView va(pool, a);
  for (int pos = 0; pos < 3; ++pos)
    EXPECT_EQ(va.k_at(0, pos).front(), 100.0f + static_cast<float>(pos));
  pool.truncate(a, 0);
  EXPECT_EQ(pool.length(a), 0);
  EXPECT_EQ(pool.stats().pages_in_use, 0);
}

TEST(PagedKVPool, TruncateUnrefsSharedPagesWithoutFreeingThem) {
  // The speculative engine forks a draft off the target and rolls the
  // fork back (or the target, past a rejection) while the other sequence
  // still holds the pages: rollback must drop references, never storage
  // another sequence can read.
  PagedKVPool pool(tiny_config(), small_pool(4, 8));
  const auto a = pool.create();
  for (int i = 0; i < 6; ++i) append_position(pool, a, 100.0f);
  const auto b = pool.fork(a);
  EXPECT_EQ(pool.page_refcount(a, 5), 2);

  // The follower rolls back past the shared tail page: a keeps it.
  pool.truncate(b, 4);
  EXPECT_EQ(pool.length(b), 4);
  EXPECT_EQ(pool.page_refcount(a, 5), 1);
  EXPECT_EQ(pool.page_refcount(a, 0), 2);  // first page still shared
  EXPECT_EQ(pool.stats().pages_in_use, 2);
  const PagedKVView va(pool, a);
  for (int pos = 0; pos < 6; ++pos)
    EXPECT_EQ(va.k_at(0, pos).front(), 100.0f + static_cast<float>(pos));

  // b re-appends its own position 4: a fresh tail, a's rows untouched.
  append_position(pool, b, 222.0f);
  const PagedKVView vb(pool, b);
  EXPECT_EQ(vb.k_at(0, 4).front(), 222.0f + 4.0f);
  EXPECT_EQ(va.k_at(0, 4).front(), 100.0f + 4.0f);

  // Rolling b back to nothing unrefs the shared first page too — freed
  // only when a releases it as well.
  pool.truncate(b, 0);
  EXPECT_EQ(pool.page_refcount(a, 0), 1);
  EXPECT_EQ(pool.stats().pages_in_use, 2);
  pool.release(a);
  EXPECT_EQ(pool.stats().pages_in_use, 0);
}

TEST(PagedKVPool, TruncateFreesCopiedPagesAfterDivergence) {
  PagedKVPool pool(tiny_config(), small_pool(4, 8));
  const auto a = pool.create();
  for (int i = 0; i < 6; ++i) append_position(pool, a, 100.0f);
  const auto b = pool.fork(a);

  // b diverges — copy-on-write gives b a private tail page...
  append_position(pool, b, 222.0f);
  EXPECT_EQ(pool.stats().page_copies, 1);
  EXPECT_EQ(pool.stats().pages_in_use, 3);
  EXPECT_EQ(pool.page_refcount(b, 4), 1);

  // ...and rolling b back past the copy returns the private page to the
  // free list while a's original tail stays resident.
  pool.truncate(b, 4);
  EXPECT_EQ(pool.stats().pages_in_use, 2);
  EXPECT_EQ(pool.page_refcount(a, 4), 1);
  const PagedKVView va(pool, a);
  EXPECT_EQ(va.k_at(0, 5).front(), 100.0f + 5.0f);
}

TEST(PagedKVPool, TruncateThenAppendReusesSlotsDeterministically) {
  // The free list is LIFO, so a rollback-then-redraft cycle — exactly the
  // speculation loop — replays onto the same physical pages with the same
  // stats on every run, and stale slots above the cut are overwritten
  // before any read.
  const auto run_cycle = [](float redraft_tag) {
    PagedKVPool pool(tiny_config(), small_pool(4, 4));
    const auto a = pool.create();
    for (int i = 0; i < 10; ++i) append_position(pool, a, 100.0f);
    pool.truncate(a, 5);
    append_chunk(pool, a, 5, redraft_tag);
    PagedKVView view(pool, a);
    std::vector<float> rows;
    for (int pos = 0; pos < 10; ++pos)
      rows.push_back(view.k_at(1, pos).front());
    return std::tuple(rows, pool.stats().pages_allocated,
                      pool.stats().pages_in_use);
  };

  const auto [rows, allocated, in_use] = run_cycle(300.0f);
  for (int pos = 0; pos < 5; ++pos)
    EXPECT_EQ(rows[static_cast<std::size_t>(pos)],
              100.0f + static_cast<float>(pos) + 0.25f);
  for (int pos = 5; pos < 10; ++pos)
    EXPECT_EQ(rows[static_cast<std::size_t>(pos)],
              300.0f + static_cast<float>(pos) + 0.25f);
  EXPECT_EQ(in_use, 3);

  // Same cycle, same page traffic: the replay is deterministic.
  const auto [rows2, allocated2, in_use2] = run_cycle(300.0f);
  EXPECT_EQ(rows2, rows);
  EXPECT_EQ(allocated2, allocated);
  EXPECT_EQ(in_use2, in_use);
}

TEST(PagedKVPool, TruncateOfForkSourcePastSharedTailNeverLeaksPages) {
  // The preemption path truncates/releases the SOURCE of a fork while the
  // speculative draft still shares its tail — the mirror image of
  // TruncateUnrefsSharedPages, where the fork rolls back. Every page must
  // come back through the refcount: after both sequences are gone,
  // pages_in_use is exactly zero (a silent refcount leak here would bleed
  // pool capacity on every preempted speculative flight).
  PagedKVPool pool(tiny_config(), small_pool(4, 8));
  const auto a = pool.create();
  for (int i = 0; i < 6; ++i) append_position(pool, a, 100.0f);
  const auto b = pool.fork(a);
  // Grow a's page table past its length (a reservation no append filled —
  // the engine's failure paths leave exactly this state behind).
  ASSERT_TRUE(pool.reserve(a, 3).is_ok());
  EXPECT_EQ(pool.stats().pages_in_use, 4);  // 2 shared + CoW copy + grown

  // a rolls back past the shared tail: the grown page and a's private CoW
  // copy return to the free list; the pages b still references survive.
  pool.truncate(a, 4);
  EXPECT_EQ(pool.length(a), 4);
  EXPECT_EQ(pool.stats().pages_in_use, 2);  // page0 (shared) + b's tail
  EXPECT_EQ(pool.page_refcount(b, 5), 1);   // b now sole owner of its tail
  const PagedKVView vb(pool, b);
  for (int pos = 0; pos < 6; ++pos)
    EXPECT_EQ(vb.k_at(0, pos).front(), 100.0f + static_cast<float>(pos));

  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.stats().pages_in_use, 0);
  EXPECT_EQ(pool.stats().pages_evicted, 0);
}

TEST(PagedKVPool, ChunkReserveFailureAfterCowKeepsRefcountsBalanced) {
  // The one reserve() path the rollback does NOT undo: the copy-on-write
  // of a shared mid-page tail succeeds, then a boundary-page allocation
  // fails. The sequence legitimately keeps its private copy (same rows,
  // new physical page) — but the accounting must stay exact: the old
  // shared tail's reference was handed to the copy, nothing double-frees,
  // and releasing both sequences drains the pool to zero.
  PagedKVPool pool(tiny_config(), small_pool(4, 3));
  const auto a = pool.create();
  for (int i = 0; i < 6; ++i) append_position(pool, a, 100.0f);
  const auto b = pool.fork(a);  // both pages shared, 1 page free

  // 5 more positions: the CoW copy consumes the last free page, then the
  // boundary crossing (positions 8..10) has nowhere to go.
  const Status st = pool.reserve(a, 5);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(pool.stats().page_copies, 1);
  EXPECT_EQ(pool.stats().pages_in_use, 3);
  EXPECT_EQ(pool.length(a), 6);  // no position was committed
  EXPECT_EQ(pool.page_refcount(a, 5), 1);  // a's tail is now the copy
  EXPECT_EQ(pool.page_refcount(b, 5), 1);  // b kept the original
  // Both sequences still read their six positions bit-identically.
  const PagedKVView va(pool, a);
  const PagedKVView vb(pool, b);
  for (int pos = 0; pos < 6; ++pos) {
    EXPECT_EQ(va.k_at(0, pos).front(), 100.0f + static_cast<float>(pos));
    EXPECT_EQ(vb.k_at(0, pos).front(), 100.0f + static_cast<float>(pos));
  }

  pool.release(a);
  EXPECT_EQ(pool.stats().pages_in_use, 2);  // b's two pages
  pool.release(b);
  EXPECT_EQ(pool.stats().pages_in_use, 0);
}

TEST(PagedKVPool, TruncateRecoversAnExhaustedPool) {
  // A rejected speculation window on a full pool: rollback must return
  // enough pages for decoding to continue — the engine's degrade path
  // depends on it.
  PagedKVPool pool(tiny_config(), small_pool(4, 2));
  const auto a = pool.create();
  for (int i = 0; i < 8; ++i) append_position(pool, a, 100.0f);
  ASSERT_FALSE(pool.reserve_next(a).is_ok());  // full

  pool.truncate(a, 4);
  EXPECT_EQ(pool.stats().pages_in_use, 1);
  ASSERT_TRUE(pool.reserve_next(a).is_ok());
  // Re-decoding continues into the recovered capacity; the stale slots
  // the rollback left behind are overwritten before any read.
  append_position(pool, a, 400.0f);
  append_position(pool, a, 400.0f);
  EXPECT_EQ(pool.length(a), 6);
  const PagedKVView va(pool, a);
  EXPECT_EQ(va.k_at(0, 4).front(), 400.0f + 4.0f);
  EXPECT_EQ(va.k_at(0, 5).front(), 400.0f + 5.0f);
}

TEST(PagedKVView, DecoderThroughPoolMatchesContiguousCacheBitForBit) {
  llm::ModelConfig cfg = tiny_config();
  cfg.d_model = 32;
  cfg.d_ff = 48;
  const auto prepared = prepare_shared(cfg, /*eval_tokens=*/64);

  auto mm = BackendRegistry::instance().make_matmul("BBFP(4,2)")
                .expect("matmul backend");
  llm::Fp32NonlinearBackend nl;
  llm::Transformer model(prepared->config, prepared->weights, *mm, nl);
  model.set_logit_scale(prepared->logit_scale);
  llm::Decoder decoder(model);

  // Page size 3 forces mid-page and cross-page reads at most steps.
  PagedKVPool pool(prepared->config, small_pool(3, 16));
  const auto seq = pool.create();
  PagedKVView paged(pool, seq);
  llm::KVCache contiguous = decoder.make_cache();

  const std::vector<int> tokens = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  for (const int token : tokens) {
    ASSERT_TRUE(pool.reserve_next(seq).is_ok());
    const std::vector<float> via_pool = decoder.step(token, paged);
    const std::vector<float> via_cache = decoder.step(token, contiguous);
    ASSERT_EQ(via_pool.size(), via_cache.size());
    for (std::size_t i = 0; i < via_pool.size(); ++i)
      ASSERT_EQ(via_pool[i], via_cache[i]) << "logit " << i << " diverged";
  }
  EXPECT_EQ(pool.length(seq), static_cast<int>(tokens.size()));
  EXPECT_EQ(contiguous.length(), static_cast<int>(tokens.size()));
}

}  // namespace
}  // namespace bbal
