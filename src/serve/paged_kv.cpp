#include "serve/paged_kv.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace bbal::serve {

PagedKVPool::PagedKVPool(const llm::ModelConfig& config, Options options)
    : config_(config),
      options_(options),
      codec_(options.kv_format, config.d_model) {
  assert(options_.page_tokens > 0 && options_.max_pages > 0);
  pages_.resize(static_cast<std::size_t>(options_.max_pages));
  // Stack of free ids, highest first, so allocation order is 0, 1, 2, ...
  free_pages_.reserve(pages_.size());
  for (int p = options_.max_pages - 1; p >= 0; --p) free_pages_.push_back(p);
}

std::int64_t PagedKVPool::page_bytes() const {
  return static_cast<std::int64_t>(config_.n_layers) * options_.page_tokens *
         2 * encoded_row_bytes();
}

int PagedKVPool::pages_for(int total_positions) const {
  return (total_positions + options_.page_tokens - 1) / options_.page_tokens;
}

// --- Page bookkeeping --------------------------------------------------------

Result<int> PagedKVPool::allocate_page() {
  if (free_pages_.empty() && !prefixes_.empty()) {
    // Reclaim shareable-but-idle prompt pages before giving up; eviction
    // order is deterministic (oldest last_use first).
    while (free_pages_.empty() && evict_one_prefix()) {
    }
  }
  if (free_pages_.empty())
    return Result<int>::error(
        "KV pool exhausted: " + std::to_string(options_.max_pages) +
        " pages of " + std::to_string(options_.page_tokens) +
        " tokens all in use");
  const int id = free_pages_.back();
  free_pages_.pop_back();
  Page& page = pages_[static_cast<std::size_t>(id)];
  const std::size_t floats = static_cast<std::size_t>(config_.n_layers) *
                             static_cast<std::size_t>(options_.page_tokens) *
                             static_cast<std::size_t>(config_.d_model);
  if (page.k.size() != floats) {
    page.k.assign(floats, 0.0f);
    page.v.assign(floats, 0.0f);
  }
  page.refs = 1;
  ++stats_.pages_allocated;
  ++stats_.pages_in_use;
  stats_.pages_in_use_peak =
      std::max(stats_.pages_in_use_peak, stats_.pages_in_use);
  return id;
}

void PagedKVPool::ref_page(int page) {
  ++pages_[static_cast<std::size_t>(page)].refs;
}

void PagedKVPool::unref_page(int page) {
  Page& p = pages_[static_cast<std::size_t>(page)];
  assert(p.refs > 0);
  if (--p.refs == 0) {
    free_pages_.push_back(page);
    --stats_.pages_in_use;
  }
}

bool PagedKVPool::evict_one_prefix() {
  if (prefixes_.empty()) return false;
  const auto oldest =
      std::min_element(prefixes_.begin(), prefixes_.end(),
                       [](const PrefixEntry& a, const PrefixEntry& b) {
                         return a.last_use < b.last_use;
                       });
  const int before = stats_.pages_in_use;
  for (const int page : oldest->pages) unref_page(page);
  stats_.pages_evicted += before - stats_.pages_in_use;
  prefixes_.erase(oldest);
  return true;
}

void PagedKVPool::drop_registered_prefixes() {
  while (evict_one_prefix()) {
  }
}

// --- Sequence lifecycle ------------------------------------------------------

PagedKVPool::SeqId PagedKVPool::create() {
  Sequence seq;
  seq.alive = true;
  sequences_.push_back(std::move(seq));
  return static_cast<SeqId>(sequences_.size() - 1);
}

int PagedKVPool::best_prefix_match(std::span<const int> prompt,
                                   int* match_pages) const {
  // Sharing stays strictly below the prompt length: the final prompt
  // position must be recomputed so the request owns its logits.
  const int usable = static_cast<int>(prompt.size()) - 1;
  int best = -1;
  int best_pages = 0;
  for (std::size_t e = 0; e < prefixes_.size(); ++e) {
    const PrefixEntry& entry = prefixes_[e];
    const int limit =
        std::min(static_cast<int>(entry.tokens.size()), usable) /
        options_.page_tokens;
    int pages = 0;
    while (pages < limit) {
      const int base = pages * options_.page_tokens;
      bool equal = true;
      for (int t = 0; t < options_.page_tokens && equal; ++t)
        equal = prompt[static_cast<std::size_t>(base + t)] ==
                entry.tokens[static_cast<std::size_t>(base + t)];
      if (!equal) break;
      ++pages;
    }
    if (pages > best_pages) {
      best_pages = pages;
      best = static_cast<int>(e);
    }
  }
  *match_pages = best_pages;
  return best;
}

PagedKVPool::SeqId PagedKVPool::create(std::span<const int> prompt) {
  const SeqId id = create();
  Sequence& seq = sequences_[static_cast<std::size_t>(id)];
  stats_.prefix_lookup_tokens += static_cast<std::int64_t>(prompt.size());
  int match_pages = 0;
  const int e = best_prefix_match(prompt, &match_pages);
  if (e >= 0 && match_pages > 0) {
    PrefixEntry& entry = prefixes_[static_cast<std::size_t>(e)];
    for (int p = 0; p < match_pages; ++p) {
      const int page = entry.pages[static_cast<std::size_t>(p)];
      ref_page(page);
      seq.pages.push_back(page);
    }
    seq.length = seq.shared = match_pages * options_.page_tokens;
    stats_.prefix_hit_tokens += seq.shared;
    // A hit refreshes the entry: hot prefixes survive eviction pressure.
    entry.last_use = ++use_clock_;
  }
  return id;
}

PagedKVPool::SeqId PagedKVPool::fork(SeqId source) {
  assert(sequences_[static_cast<std::size_t>(source)].alive);
  // create() may grow sequences_, so the source is re-resolved after it.
  const SeqId id = create();
  const Sequence& src = sequences_[static_cast<std::size_t>(source)];
  Sequence& seq = sequences_[static_cast<std::size_t>(id)];
  seq.pages = src.pages;
  seq.length = src.length;
  seq.shared = src.shared;
  for (const int page : seq.pages) ref_page(page);
  return id;
}

void PagedKVPool::release(SeqId id) {
  Sequence& seq = sequences_[static_cast<std::size_t>(id)];
  if (!seq.alive) return;
  for (const int page : seq.pages) unref_page(page);
  seq.pages.clear();
  seq.alive = false;
}

Status PagedKVPool::reserve(SeqId id, int count) {
  Sequence& seq = sequences_[static_cast<std::size_t>(id)];
  assert(seq.alive);
  if (count <= 0) return Status::ok();
  const int slot = seq.length % options_.page_tokens;
  if (slot != 0 && pages_[static_cast<std::size_t>(seq.pages.back())].refs >
                       1) {
    // Copy-on-write: the tail holds filled slots, is shared (fork or
    // registered prefix), and the first of the `count` appends lands in
    // it; give this sequence a private copy before it diverges. Stored
    // rows copy verbatim — no re-quantisation on the copy path.
    const int tail = seq.pages.back();
    auto fresh = allocate_page();
    if (!fresh.is_ok()) return fresh.status();
    Page& dst = pages_[static_cast<std::size_t>(fresh.value())];
    const Page& src = pages_[static_cast<std::size_t>(tail)];
    std::copy(src.k.begin(), src.k.end(), dst.k.begin());
    std::copy(src.v.begin(), src.v.end(), dst.v.begin());
    unref_page(tail);
    seq.pages.back() = fresh.value();
    ++stats_.page_copies;
  }
  // One fresh page per boundary the new positions cross. Sized off the
  // page table, not the length, so a reservation that outlived its step
  // (engine failure paths) is never double-counted.
  const int needed = pages_for(seq.length + count) -
                     static_cast<int>(seq.pages.size());
  for (int added = 0; added < needed; ++added) {
    auto page = allocate_page();
    if (!page.is_ok()) {
      // Roll back this call's fresh pages: exhaustion mid-reservation
      // must leave the sequence exactly as it was (the engine retires the
      // request and releases the sequence; a half-grown page table would
      // corrupt the length/page invariant).
      for (int undo = 0; undo < added; ++undo) {
        unref_page(seq.pages.back());
        seq.pages.pop_back();
      }
      return page.status();
    }
    seq.pages.push_back(page.value());
  }
  return Status::ok();
}

void PagedKVPool::truncate(SeqId id, int n) {
  Sequence& seq = sequences_[static_cast<std::size_t>(id)];
  assert(seq.alive && n >= 0);
  if (n > seq.length) return;
  // Keep exactly the pages the surviving positions occupy; everything
  // past them — including pages a reserve() grew but no append filled —
  // goes back through the refcount (a sharer keeps the page alive; a
  // private page returns to the free list, LIFO, so a
  // truncate-then-append reuses the same page ids deterministically).
  const int keep = pages_for(n);
  while (static_cast<int>(seq.pages.size()) > keep) {
    unref_page(seq.pages.back());
    seq.pages.pop_back();
  }
  seq.length = n;
  seq.shared = std::min(seq.shared, n);
}

// --- Prompt-prefix registry --------------------------------------------------

void PagedKVPool::register_prefix(SeqId id, std::span<const int> prompt) {
  const Sequence& seq = sequences_[static_cast<std::size_t>(id)];
  assert(seq.alive && seq.length >= static_cast<int>(prompt.size()));
  const int full_pages =
      static_cast<int>(prompt.size()) / options_.page_tokens;
  if (full_pages == 0) return;
  const std::span<const int> tokens =
      prompt.first(static_cast<std::size_t>(full_pages * options_.page_tokens));
  for (PrefixEntry& entry : prefixes_) {
    if (entry.tokens.size() == tokens.size() &&
        std::equal(tokens.begin(), tokens.end(), entry.tokens.begin())) {
      entry.last_use = ++use_clock_;
      return;
    }
  }
  PrefixEntry entry;
  entry.tokens.assign(tokens.begin(), tokens.end());
  entry.pages.assign(seq.pages.begin(), seq.pages.begin() + full_pages);
  entry.last_use = ++use_clock_;
  for (const int page : entry.pages) ref_page(page);
  prefixes_.push_back(std::move(entry));
}

int PagedKVPool::probe_prefix_tokens(std::span<const int> prompt) const {
  int match_pages = 0;
  (void)best_prefix_match(prompt, &match_pages);
  return match_pages * options_.page_tokens;
}

// --- Introspection -----------------------------------------------------------

int PagedKVPool::length(SeqId id) const {
  return sequences_[static_cast<std::size_t>(id)].length;
}

int PagedKVPool::shared_length(SeqId id) const {
  return sequences_[static_cast<std::size_t>(id)].shared;
}

int PagedKVPool::page_refcount(SeqId id, int pos) const {
  const Sequence& seq = sequences_[static_cast<std::size_t>(id)];
  const int page =
      seq.pages[static_cast<std::size_t>(pos / options_.page_tokens)];
  return pages_[static_cast<std::size_t>(page)].refs;
}

PagedKVPool::Page& PagedKVPool::page_at(SeqId id, int pos) {
  const Sequence& seq = sequences_[static_cast<std::size_t>(id)];
  assert(pos / options_.page_tokens < static_cast<int>(seq.pages.size()));
  return pages_[static_cast<std::size_t>(
      seq.pages[static_cast<std::size_t>(pos / options_.page_tokens)])];
}

std::span<float> PagedKVPool::row(std::vector<float>& side, int layer,
                                  int pos) const {
  const int slot = layer * options_.page_tokens + pos % options_.page_tokens;
  const auto d_model = static_cast<std::size_t>(config_.d_model);
  return std::span<float>(side).subspan(
      static_cast<std::size_t>(slot) * d_model, d_model);
}

// --- PagedKVView -------------------------------------------------------------

int PagedKVView::length() const {
  return pool_->sequences_[static_cast<std::size_t>(id_)].length;
}

void PagedKVView::append(int layer, int pos, std::span<const float> k_row,
                         std::span<const float> v_row) {
  PagedKVPool::Sequence& seq =
      pool_->sequences_[static_cast<std::size_t>(id_)];
  // `pos` may sit up to chunk-1 positions past the committed length (the
  // later rows of a chunked step); reserve() already grew the page table
  // to cover it.
  assert(pos >= seq.length);
  // The one codec pass a row gets: what every later read of it, by this
  // sequence or any sharer of the page, sees.
  PagedKVPool::Page& page = pool_->page_at(id_, pos);
  pool_->codec_.quantise_row(k_row, pool_->row(page.k, layer, pos));
  pool_->codec_.quantise_row(v_row, pool_->row(page.v, layer, pos));
  // A position is committed once the last layer's row lands. The last
  // layer's appends arrive in position order (KVCacheView protocol), so
  // each one extends the length by exactly one; the counter is this
  // sequence's own state, so a parallel tick stepping other sequences
  // never contends on it.
  if (layer == pool_->config_.n_layers - 1) {
    assert(pos == seq.length);
    ++seq.length;
  }
}

std::span<const float> PagedKVView::k_at(int layer, int pos) const {
  return pool_->row(pool_->page_at(id_, pos).k, layer, pos);
}

std::span<const float> PagedKVView::v_at(int layer, int pos) const {
  return pool_->row(pool_->page_at(id_, pos).v, layer, pos);
}

}  // namespace bbal::serve
