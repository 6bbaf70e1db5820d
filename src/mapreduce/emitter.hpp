// Map-side emit sink.
//
// Each map worker owns one Emitter; emits are routed to reduce buckets by
// stable key hash (core/hash.hpp), so there is no cross-thread sharing on
// the map path at all — the reduce phase later gathers bucket b from every
// worker.  The emitter also meters intermediate bytes for the Phoenix
// memory-budget model; its count/stored/bytes members double as the
// per-worker thread-local counters the obs subsystem aggregates (the
// engine publishes them into obs::Registry once per worker, so the emit
// hot path itself carries no instrumentation).
//
// Specs with a `combine` hook fold values *at emit time*: every bucket
// carries an open-addressing index over its pair vector, and a duplicate
// key folds into the stored pair in O(1) amortised instead of being
// appended and sorted away later.
//
// Key storage (string keys): a stored pair holds its key as a StringKey.
// Keys of up to 16 bytes (every word of the benchmark corpora) live
// inline as their zero-padded bytes in two words plus the length, so a
// combine hit compares the cached hash and two words in the pair itself:
// no arena load, no memcmp.  Only longer keys are copied into a
// worker-private bump arena, one pointer bump per unique long key; no
// key costs a std::string heap allocation.  Re-emits of a known key (the
// common case under Zipfian word distributions) never copy at all.  Long
// keys' arena bytes stay valid until reset(); the engine keeps emitters
// alive across the reduce phase and materialises owned keys only into
// the final output.  reset() rewinds the arena and clears the buckets
// *keeping their capacity*, so per-fragment reuse (the out-of-core
// driver) costs O(buckets) bookkeeping, not an allocator round-trip per
// key.
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/hash.hpp"
#include "mapreduce/types.hpp"

namespace mcsd::mr {

namespace detail {
/// Approximate footprint of a non-string key for budget accounting.
template <typename K>
std::uint64_t key_bytes(const K&) noexcept {
  return sizeof(K);
}

inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 1);
#else
  (void)p;
#endif
}
}  // namespace detail

/// A string key as the emitter stores it.  A key of up to 16 bytes is held
/// inline: its bytes zero-padded to 16 and read as two host-endian words
/// (core/hash.hpp's short-key form), plus its length, which tells "a"
/// from "a\0".  A longer key holds a pointer to its bytes: the caller's
/// while it is only a probe, the emitter's arena once stored.  Trivially
/// copyable, so pairs move by value in sorts; view() of an inline key
/// points into the StringKey itself and lives as long as it stays put.
class StringKey {
 public:
  StringKey() = default;

  /// `key` with its bytes copied inline if short, else borrowed.
  static StringKey of(std::string_view key) noexcept {
    StringKey k;
    k.size_ = key.size();
    if (k.is_inline()) {
      load_short_key(key.data(), key.size(), k.words_[0], k.words_[1]);
    } else {
      const char* p = key.data();
      std::memcpy(&k.words_[0], &p, sizeof p);
    }
    return k;
  }

  /// An inline key from its zero-padded words (n <= 16).
  static StringKey of_words(std::uint64_t lo, std::uint64_t hi,
                            std::size_t n) noexcept {
    assert(n <= kShortKeyBytes);
    StringKey k;
    k.words_[0] = lo;
    k.words_[1] = hi;
    k.size_ = n;
    return k;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool is_inline() const noexcept {
    return size_ <= kShortKeyBytes;
  }

  [[nodiscard]] std::string_view view() const noexcept {
    if (is_inline()) {
      return {reinterpret_cast<const char*>(words_), size_};
    }
    const char* p;
    std::memcpy(&p, &words_[0], sizeof p);
    return {p, size_};
  }
  operator std::string_view() const noexcept { return view(); }

  /// string_hash(view()), without re-reading inline bytes.
  [[nodiscard]] std::uint64_t hash() const noexcept {
    return is_inline() ? short_key_hash(words_[0], words_[1], size_)
                       : string_hash(view());
  }

  friend bool operator==(const StringKey& a, const StringKey& b) noexcept {
    if (a.size_ != b.size_) return false;
    if (a.is_inline()) {
      return ((a.words_[0] ^ b.words_[0]) | (a.words_[1] ^ b.words_[1])) == 0;
    }
    return std::memcmp(a.view().data(), b.view().data(), a.size_) == 0;
  }
  friend bool operator<(const StringKey& a, const StringKey& b) noexcept {
    return a.view() < b.view();
  }

 private:
  std::uint64_t words_[2] = {0, 0};
  std::size_t size_ = 0;
};

/// Cycle-attribution sink for the map inner loop, one per worker (see
/// Options.attribute_map_cycles).  emit_batch() fills hash_ns (hashing a
/// batch's keys) and probe_ns (their combiner probe, fold or insert); the
/// map function owns tokenize_ns, its time outside the emitter.  For Word
/// Count, tokenize is the word-class scan, token extraction and building
/// each key's lower-cased, zero-padded words, so hash is only the one
/// multiply per key.  Word Count's plain runs do the three steps fused per
/// token; attributed runs stage them in 64-key batches so each can be
/// clocked, which costs a little more than the fused loop.  Plain
/// counters, owner-thread-only.
struct EmitAttribution {
  std::uint64_t tokenize_ns = 0;
  std::uint64_t hash_ns = 0;
  std::uint64_t probe_ns = 0;
};

template <typename K, typename V>
class Emitter {
 public:
  /// String keys are stored as StringKeys (inline when short, arena
  /// backed when long); every other key type is stored as itself.
  static constexpr bool kStringKeys = std::is_same_v<K, std::string>;
  using StoredKey = std::conditional_t<kStringKeys, StringKey, K>;
  /// What a combiner sees of a stored key: a view for string keys.
  using KeyView = std::conditional_t<kStringKeys, std::string_view, K>;
  using Pair = HKV<StoredKey, V>;

  /// Binary fold used for emit-time combining: returns the merged value
  /// for `key` given the stored accumulator and one incoming value.
  /// A plain function pointer (plus an opaque spec pointer) keeps the
  /// per-duplicate cost to one indirect call — no std::function, no
  /// allocation.  The key arrives as a KeyView (a view for string keys)
  /// so a combine hit never materialises a std::string.
  using CombineFn = V (*)(const void* ctx, const KeyView& key,
                          const V& accumulated, const V& incoming);

  explicit Emitter(std::size_t num_buckets) : buckets_(num_buckets) {}

  /// Installs the emit-time combiner.  Must be called before the first
  /// emit (or after reset()); `ctx` must outlive the emitter's use (the
  /// engine passes the spec).
  void set_combiner(const void* ctx, CombineFn fn) noexcept {
    assert(count_ == 0 && "combiner must be installed before the first emit");
    combine_ctx_ = ctx;
    combine_ = fn;
  }

  /// Routes one pair to its reduce bucket, folding into an existing pair
  /// when a combiner is installed and the key was seen before.
  void emit(K key, V value) {
    if constexpr (kStringKeys) {
      emit(std::string_view{key}, std::move(value));
    } else {
      const std::uint64_t h = KeyHash<K>{}(key);
      emit_hashed(std::move(key), std::move(value), h, installed_fold());
    }
  }

  /// String-key fast path: probes with the key's StringKey and copies a
  /// long key's bytes into the arena only on first insert.  `key` need
  /// only stay valid for this call.
  void emit(std::string_view key, V value)
    requires kStringKeys
  {
    const StringKey probe = StringKey::of(key);
    emit_hashed(probe, std::move(value), probe.hash(), installed_fold());
  }

  /// Emit for a map function that builds its keys and knows its spec
  /// (Word Count's per-token path): the key's hash comes from its words
  /// (StringKey::hash) and a combine hit folds through `spec.combine`
  /// inline instead of the installed CombineFn's indirect call.  `spec`
  /// must be the spec whose combiner the engine installed (a map function
  /// passes `*this`), so both folds give the same value; its combine must
  /// accept a KeyView (a string_view).  A long key's bytes need only stay
  /// valid for this call.
  template <typename Spec>
  void emit(const StringKey& key, V value, const Spec& spec)
    requires kStringKeys
  {
    emit_hashed(key, std::move(value), key.hash(), spec_fold(spec));
  }

  /// Upper bound on emit_batch() input size.
  static constexpr std::size_t kMaxBatch = 64;

  /// Batched string-key emit, all keys carrying the same value (the Word
  /// Count shape: every token counts 1); a long key's bytes need only stay
  /// valid for this call.  Two passes, each clocked into the attribution
  /// sink when one is installed: (1) hash every key; (2) probe/insert,
  /// prefetching each key's slot line a few keys ahead.  Emits are routed
  /// and folded exactly as per-key emit() would — same hashes, same
  /// bucket order, same counters.  Word Count's map uses it only on
  /// attributed runs, where the split clock needs the stages apart; its
  /// plain runs emit per key, which measured faster than the two-pass
  /// schedule.  A combine hit folds through `spec.combine` inline, under
  /// the same contract as emit(key, value, spec).
  template <typename Spec>
  void emit_batch(std::span<const StringKey> keys, const V& value,
                  const Spec& spec)
    requires kStringKeys
  {
    const auto fold = spec_fold(spec);
    assert(keys.size() <= kMaxBatch);
    using Clock = std::chrono::steady_clock;
    std::uint64_t hashes[kMaxBatch];
    const auto hash_start = attribution_ ? Clock::now() : Clock::time_point{};
    for (std::size_t i = 0; i < keys.size(); ++i) {
      hashes[i] = keys[i].hash();
    }
    Clock::time_point probe_start{};
    if (attribution_ != nullptr) {
      probe_start = Clock::now();
      attribution_->hash_ns += static_cast<std::uint64_t>(
          std::chrono::nanoseconds(probe_start - hash_start).count());
    }
    constexpr std::size_t kPrefetchAhead = 4;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i + kPrefetchAhead < keys.size()) {
        prefetch_slot(hashes[i + kPrefetchAhead]);
      }
      emit_hashed(keys[i], V(value), hashes[i], fold);
    }
    if (attribution_ != nullptr) {
      attribution_->probe_ns += static_cast<std::uint64_t>(
          std::chrono::nanoseconds(Clock::now() - probe_start).count());
    }
  }

  /// Installs (or clears) the per-worker attribution sink the batched
  /// emit path reports hash/probe nanoseconds into.  Owned by the engine;
  /// must outlive emits.  Cleared by reset().
  void set_attribution(EmitAttribution* sink) noexcept {
    attribution_ = sink;
  }
  [[nodiscard]] EmitAttribution* attribution() const noexcept {
    return attribution_;
  }

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::vector<Pair>& bucket(std::size_t b) {
    return buckets_[b].pairs;
  }
  [[nodiscard]] const std::vector<Pair>& bucket(std::size_t b) const {
    return buckets_[b].pairs;
  }

  /// Retires bucket b's combiner index for this run.  The slot table's
  /// memory is kept (cleared, not freed) so the next run after reset()
  /// rebuilds it without reallocating.
  void release_index(std::size_t b) noexcept {
    buckets_[b].slots.clear();
    buckets_[b].log2_slots = 0;
  }

  /// Folds every pair of `src`'s bucket `b` into this emitter's bucket
  /// `b` through the installed combiner — the reduce phase's cross-worker
  /// merge.  One O(1) probe per incoming pair replaces the gather+sort
  /// over every worker's pairs; only the surviving unique pairs are ever
  /// sorted.  Absorbed first-seen pairs copy inline keys and *share* long
  /// keys' storage: those keep pointing into src's arena, which must stay
  /// un-reset while this bucket's pairs are in use (the engine keeps all
  /// emitters alive through reduce/merge).  Counters and byte metering are untouched —
  /// absorb runs after the map-side accounting has been read.
  void absorb_bucket(std::size_t b, const Emitter& src) {
    assert(combine_ != nullptr &&
           "absorb_bucket requires an installed combiner");
    Bucket& dst = buckets_[b];
    for (const Pair& p : src.buckets_[b].pairs) {
      if (dst.slots.empty()) grow(dst);
      std::size_t slot = hash_to_slot(p.hash, dst.log2_slots);
      const std::size_t mask = dst.slots.size() - 1;
      while (true) {
        const std::uint32_t idx = dst.slots[slot];
        if (idx == kEmptySlot) {
          if ((dst.pairs.size() + 1) * 4 > dst.slots.size() * 3) {
            grow(dst);
            slot = hash_to_slot(p.hash, dst.log2_slots);
            while (dst.slots[slot] != kEmptySlot) {
              slot = (slot + 1) & (dst.slots.size() - 1);
            }
          }
          dst.slots[slot] = static_cast<std::uint32_t>(dst.pairs.size());
          dst.pairs.push_back(p);
          break;
        }
        Pair& q = dst.pairs[idx];
        if (q.hash == p.hash && q.key == p.key) {
          q.value = combine_(combine_ctx_, q.key, q.value, p.value);
          break;
        }
        slot = (slot + 1) & mask;
      }
    }
  }

  /// Rewinds the emitter for reuse: buckets and slot tables are cleared
  /// keeping capacity, the key arena is rewound (stored long keys become
  /// invalid), counters zero, and the combiner is uninstalled so the next
  /// run can bind a different spec.  Teardown of a fragment's worth of
  /// keys is exactly one arena reset — no per-key frees.
  void reset() noexcept {
    for (Bucket& bucket : buckets_) {
      bucket.pairs.clear();
      bucket.slots.clear();
      bucket.log2_slots = 0;
    }
    arena_.reset();
    combine_ctx_ = nullptr;
    combine_ = nullptr;
    attribution_ = nullptr;
    bytes_ = 0;
    count_ = 0;
    stored_ = 0;
  }

  /// Number of emit calls so far (pre-combining volume).
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// Number of pairs currently stored (post-combining volume).
  [[nodiscard]] std::size_t stored() const noexcept { return stored_; }
  /// Emits folded into an existing pair instead of stored — the
  /// per-worker combine-hit counter the obs layer aggregates.
  [[nodiscard]] std::size_t combine_hits() const noexcept {
    return count_ - stored_;
  }
  /// Approximate intermediate bytes held: sizeof(Pair) per stored pair
  /// plus, for string keys longer than 16 bytes, the arena bytes the
  /// key's copy consumed (an inline key costs nothing beyond its pair).
  /// Grows only when a pair is inserted; emit-time combining keeps this
  /// monotone in emit order.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
  // 256 initial slots: word-count-like keyspaces put hundreds of unique
  // keys in every bucket, so starting at 16 meant four full rehash+
  // reinsert rounds per bucket per fragment.  4 KiB of slack per
  // worker×bucket is noise next to the pair storage it indexes.
  static constexpr unsigned kInitialLog2Slots = 8;

  /// Cache-line-aligned so adjacent buckets in the dense buckets_ vector
  /// never share a line: the probe loop writes slots[] and pairs
  /// metadata, and with 56-byte buckets every write dirtied a neighbour's
  /// line too.
  struct alignas(64) Bucket {
    std::vector<Pair> pairs;
    // Open-addressing index into `pairs`, linear probing, power-of-two
    // size, grown at 3/4 load.  Only populated when a combiner is set.
    std::vector<std::uint32_t> slots;
    unsigned log2_slots = 0;
  };

  /// The installed CombineFn as a fold: one indirect call per hit.
  auto installed_fold() const noexcept {
    return [this](const KeyView& key, const V& accumulated,
                  const V& incoming) {
      return combine_(combine_ctx_, key, accumulated, incoming);
    };
  }

  /// `spec.combine` as a fold, for the emit paths that take the spec.
  /// With no combiner installed emit_hashed never calls it.
  template <typename Spec>
  static auto spec_fold(const Spec& spec) noexcept {
    return [&spec](const KeyView& key, const V& accumulated,
                   const V& incoming) {
      const V pairwise[2] = {accumulated, incoming};
      return spec.combine(key, std::span<const V>{pairwise});
    };
  }

  /// Warms the slot line a key a few positions ahead will probe.
  void prefetch_slot(std::uint64_t h) const noexcept {
    const Bucket& bucket = buckets_[hash_to_bucket(h, buckets_.size())];
    if (!bucket.slots.empty()) {
      detail::prefetch_read(bucket.slots.data() +
                            hash_to_slot(h, bucket.log2_slots));
    }
  }

  /// Routes one hashed pair; a combine hit folds through `fold`, which
  /// must agree with the installed combiner.
  template <typename KeyLike, typename Fold>
  void emit_hashed(KeyLike&& key, V value, std::uint64_t h, const Fold& fold) {
    Bucket& bucket = buckets_[hash_to_bucket(h, buckets_.size())];
    ++count_;
    if (combine_ == nullptr) {
      insert(bucket, std::forward<KeyLike>(key), std::move(value), h);
      return;
    }
    if (bucket.slots.empty()) grow(bucket);
    const std::size_t mask = bucket.slots.size() - 1;
    std::size_t slot = hash_to_slot(h, bucket.log2_slots);
    while (true) {
      const std::uint32_t idx = bucket.slots[slot];
      if (idx == kEmptySlot) {
        if ((bucket.pairs.size() + 1) * 4 > bucket.slots.size() * 3) {
          grow(bucket);
          // Re-probe: growth moved every slot.
          slot = hash_to_slot(h, bucket.log2_slots);
          while (bucket.slots[slot] != kEmptySlot) {
            slot = (slot + 1) & (bucket.slots.size() - 1);
          }
        }
        bucket.slots[slot] = static_cast<std::uint32_t>(bucket.pairs.size());
        insert(bucket, std::forward<KeyLike>(key), std::move(value), h);
        return;
      }
      Pair& p = bucket.pairs[idx];
      if (p.hash == h && p.key == key) {
        p.value = fold(p.key, p.value, value);
        return;
      }
      slot = (slot + 1) & mask;
    }
  }

  template <typename KeyLike>
  void insert(Bucket& bucket, KeyLike&& key, V value, std::uint64_t h) {
    if constexpr (kStringKeys) {
      StringKey stored = key;
      if (!stored.is_inline()) {
        stored = StringKey::of(arena_.store(stored.view()));
        bytes_ += stored.size();
      }
      bucket.pairs.push_back(Pair{stored, std::move(value), h});
      bytes_ += sizeof(Pair);
    } else {
      bucket.pairs.push_back(
          Pair{K(std::forward<KeyLike>(key)), std::move(value), h});
      bytes_ += sizeof(Pair) + detail::key_bytes(bucket.pairs.back().key);
    }
    ++stored_;
  }

  void grow(Bucket& bucket) {
    bucket.log2_slots = bucket.slots.empty() ? kInitialLog2Slots
                                             : bucket.log2_slots + 1;
    bucket.slots.assign(std::size_t{1} << bucket.log2_slots, kEmptySlot);
    const std::size_t mask = bucket.slots.size() - 1;
    for (std::uint32_t i = 0; i < bucket.pairs.size(); ++i) {
      std::size_t slot = hash_to_slot(bucket.pairs[i].hash, bucket.log2_slots);
      while (bucket.slots[slot] != kEmptySlot) slot = (slot + 1) & mask;
      bucket.slots[slot] = i;
    }
  }

  std::vector<Bucket> buckets_;
  BumpArena arena_;
  const void* combine_ctx_ = nullptr;
  CombineFn combine_ = nullptr;
  EmitAttribution* attribution_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::size_t count_ = 0;
  std::size_t stored_ = 0;
};

}  // namespace mcsd::mr
