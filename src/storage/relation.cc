#include "storage/relation.h"

#include <algorithm>

#include "util/check.h"

namespace binchain {
namespace {

uint64_t HashSpan(const SymbolId* d, size_t n) {
  return TupleHash{}(TupleRef(d, n));
}

/// Capacity for an open-addressed table that must hold `entries` below the
/// 0.7 load bound: a power of two, at least 16 and at least twice
/// `current` (growth stays geometric however callers size it).
size_t TableCapacity(size_t current, size_t entries) {
  size_t cap = std::max<size_t>(16, current * 2);
  while (entries * 10 >= cap * 7) cap *= 2;
  return cap;
}

}  // namespace

uint64_t Relation::HashMasked(uint32_t mask, const SymbolId* t) const {
  uint64_t h = TupleHash::kOffset;
  for (size_t i = 0; i < arity_; ++i) {
    if (mask & (1u << i)) {
      h ^= t[i];
      h *= TupleHash::kPrime;
    }
  }
  return h;
}

bool Relation::MaskedEquals(uint32_t mask, uint32_t row,
                            const SymbolId* key) const {
  const SymbolId* r = arena_.data() + static_cast<size_t>(row) * arity_;
  for (size_t i = 0; i < arity_; ++i) {
    if ((mask & (1u << i)) && r[i] != key[i]) return false;
  }
  return true;
}

void Relation::DedupGrow(size_t rows) {
  size_t cap = TableCapacity(dedup_.size(), rows);
  dedup_.assign(cap, kNoRow);
  dedup_used_ = 0;
  size_t m = cap - 1;
  for (uint32_t row = 0; row < num_rows_; ++row) {
    const SymbolId* d = arena_.data() + static_cast<size_t>(row) * arity_;
    for (size_t i = HashSpan(d, arity_) & m;; i = (i + 1) & m) {
      if (dedup_[i] == kNoRow) {
        dedup_[i] = row;
        ++dedup_used_;
        break;
      }
    }
  }
}

std::shared_ptr<Relation> Relation::Extend(
    std::shared_ptr<const Relation> base) {
  BINCHAIN_CHECK(base != nullptr);
  BINCHAIN_CHECK(base->frozen());
  // Tombstoned rows count into the accumulated delta: they are chain
  // overhead exactly like appended rows (every probe filters them), so a
  // delete-heavy chain compacts on the same doubling rule as an
  // insert-heavy one. Flatten() drops the dead rows for good.
  if (ShouldFlatten(base->chain_depth() + 1,
                    base->size() - base->root_rows() + base->dead_count(),
                    base->root_rows(), kMaxChainDepth, kFlattenMinRows)) {
    return base->Flatten();
  }
  // make_shared needs a public constructor; the chain constructor stays
  // private so layering is only reachable through the policy above.
  return std::shared_ptr<Relation>(new Relation(std::move(base)));
}

std::shared_ptr<Relation> Relation::Flatten() const {
  auto out = std::make_shared<Relation>(arity_);
  out->Reserve(live_size());
  // Global row order in, dense row ids out (no duplicates exist in a
  // chain, so Insert never rejects). tuples() skips tombstoned rows, so
  // flattening is also the compaction that drops dead rows for good — the
  // copy re-numbers the surviving rows and starts with an empty dead set.
  for (TupleRef t : tuples()) out->Insert(t);
  // Re-demand every mask any layer of the chain had indexed. Freeze() of a
  // wide relation (arity > kEagerFreezeArity) only catches up indexes that
  // already exist, so without this a flattened-then-frozen relation would
  // answer masks the chain served by index with wide fallback scans
  // forever. Small arities skip it: their freeze pre-builds every mask.
  if (arity_ > kEagerFreezeArity) {
    for (const Relation* layer = this; layer != nullptr;
         layer = layer->base_.get()) {
      for (const MaskIndex& ix : layer->indexes_) out->IndexFor(ix.mask);
    }
  }
  return out;
}

void Relation::Freeze() {
  if (frozen_) return;
  if (arity_ <= kEagerFreezeArity) {
    // Pre-build every bound-column mask so no reader can demand an index the
    // frozen relation would have to build.
    for (uint32_t mask = 1; mask < (1u << arity_); ++mask) IndexFor(mask);
  } else {
    for (MaskIndex& ix : indexes_) IndexFor(ix.mask);  // catch up existing
  }
  frozen_ = true;
}

bool Relation::Insert(TupleRef t) {
  BINCHAIN_CHECK(t.size() == arity_);
  BINCHAIN_CHECK(!frozen_);
  if (base_ != nullptr) {
    uint32_t brow = base_->FindRowRaw(t);
    if (brow != kNoRow) {
      // Physically present in the base chain. If this layer tombstoned the
      // row, re-inserting resurrects it in place — the row id (and every
      // index entry threading it) is still valid, so no append, no
      // duplicate. Otherwise it is a live duplicate.
      if (dead_ != nullptr && dead_->erase(brow) > 0) {
        ++dead_mutations_;
        return true;
      }
      return false;
    }
  }
  if ((dedup_used_ + 1) * 10 >= dedup_.size() * 7) {
    DedupGrow(dedup_used_ + 1);
  }
  size_t m = dedup_.size() - 1;
  for (size_t i = HashSpan(t.data(), arity_) & m;; i = (i + 1) & m) {
    uint32_t r = dedup_[i];
    if (r == kNoRow) {
      uint32_t row = static_cast<uint32_t>(num_rows_);
      // `t` may view this relation's own arena; the append below can
      // reallocate it, so stage aliasing rows in a stack-local copy.
      const SymbolId* src = t.data();
      Tuple staged;
      if (!arena_.empty() && src >= arena_.data() &&
          src < arena_.data() + arena_.size()) {
        staged = t;
        src = staged.data();
      }
      arena_.insert(arena_.end(), src, src + arity_);
      ++num_rows_;
      dedup_[i] = row;
      ++dedup_used_;
      return true;
    }
    if (Row(r) == t) {
      // Local physical duplicate: resurrect if tombstoned in this layer.
      if (dead_ != nullptr &&
          dead_->erase(static_cast<uint32_t>(base_rows_ + r)) > 0) {
        ++dead_mutations_;
        return true;
      }
      return false;
    }
  }
}

void Relation::Reserve(size_t rows) {
  BINCHAIN_CHECK(!frozen_);
  const size_t want = num_rows_ + rows;
  if (arena_.capacity() < want * arity_) {
    arena_.reserve(std::max(want * arity_, arena_.capacity() * 2));
  }
  if (want * 10 >= dedup_.size() * 7) DedupGrow(want);
}

bool Relation::Delete(TupleRef t) {
  BINCHAIN_CHECK(!frozen_);
  if (t.size() != arity_) return false;
  uint32_t row = FindRowRaw(t);
  if (row == kNoRow) return false;  // never inserted anywhere in the chain
  if (dead_ == nullptr) dead_ = std::make_unique<DeadSet>();
  if (!dead_->insert(row).second) return false;  // already tombstoned
  ++dead_mutations_;
  return true;
}

uint32_t Relation::FindRowRaw(TupleRef t) const {
  if (base_ != nullptr) {
    uint32_t r = base_->FindRowRaw(t);
    if (r != kNoRow) return r;
  }
  if (dedup_.empty()) return kNoRow;
  size_t m = dedup_.size() - 1;
  for (size_t i = HashSpan(t.data(), arity_) & m;; i = (i + 1) & m) {
    uint32_t r = dedup_[i];
    if (r == kNoRow) return kNoRow;
    if (Row(r) == t) return static_cast<uint32_t>(base_rows_ + r);
  }
}

bool Relation::Contains(TupleRef t) const {
  if (t.size() != arity_) return false;
  uint32_t row = FindRowRaw(t);
  if (row == kNoRow) return false;
  return dead_ == nullptr || dead_->count(row) == 0;
}

void Relation::IndexGrow(MaskIndex& idx, size_t rows_done,
                         size_t keys) const {
  size_t cap = TableCapacity(idx.slots.size(), keys);
  idx.slots.assign(cap, kNoRow);
  idx.tails.assign(cap, kNoRow);
  idx.used = 0;
  // Re-thread rows already indexed, in ascending row order so chains keep
  // enumerating in insertion order.
  for (size_t r = 0; r < rows_done; ++r) idx.next[r] = kNoRow;
  size_t m = cap - 1;
  for (uint32_t row = 0; row < rows_done; ++row) {
    const SymbolId* d = arena_.data() + static_cast<size_t>(row) * arity_;
    for (size_t i = HashMasked(idx.mask, d) & m;; i = (i + 1) & m) {
      uint32_t head = idx.slots[i];
      if (head == kNoRow) {
        idx.slots[i] = row;
        idx.tails[i] = row;
        ++idx.used;
        break;
      }
      if (MaskedEquals(idx.mask, head, d)) {
        idx.next[idx.tails[i]] = row;
        idx.tails[i] = row;
        break;
      }
    }
  }
}

void Relation::IndexInsert(MaskIndex& idx, uint32_t row) const {
  const SymbolId* d = arena_.data() + static_cast<size_t>(row) * arity_;
  size_t m = idx.slots.size() - 1;
  for (size_t i = HashMasked(idx.mask, d) & m;; i = (i + 1) & m) {
    uint32_t head = idx.slots[i];
    if (head == kNoRow) {
      idx.slots[i] = row;
      idx.tails[i] = row;
      ++idx.used;
      return;
    }
    if (MaskedEquals(idx.mask, head, d)) {
      idx.next[idx.tails[i]] = row;
      idx.tails[i] = row;
      return;
    }
  }
}

Relation::MaskIndex& Relation::IndexFor(uint32_t mask) const {
  // Lazy index creation / catch-up mutates shared state; the frozen read
  // path must route through FrozenIndex instead.
  BINCHAIN_DCHECK(!frozen_);
  MaskIndex* idx = nullptr;
  for (MaskIndex& ix : indexes_) {
    if (ix.mask == mask) {
      idx = &ix;
      break;
    }
  }
  if (idx == nullptr) {
    indexes_.emplace_back();
    idx = &indexes_.back();
    idx->mask = mask;
  }
  // Absorb rows appended since the index was last touched. Each row adds
  // at most one key, so the table is sized once for the whole batch and
  // the rows then thread in ascending order, keeping every chain in
  // insertion order.
  if (idx->indexed_upto < num_rows_) {
    idx->next.resize(num_rows_, kNoRow);
    const size_t keys = idx->used + (num_rows_ - idx->indexed_upto);
    if (keys * 10 >= idx->slots.size() * 7) {
      IndexGrow(*idx, idx->indexed_upto, keys);
    }
    for (size_t r = idx->indexed_upto; r < num_rows_; ++r) {
      IndexInsert(*idx, static_cast<uint32_t>(r));
    }
    idx->indexed_upto = num_rows_;
  }
  return *idx;
}

uint32_t Relation::FindHead(const MaskIndex& idx, uint32_t mask,
                            TupleRef key) const {
  if (idx.slots.empty()) return kNoRow;
  size_t m = idx.slots.size() - 1;
  for (size_t i = HashMasked(mask, key.data()) & m;; i = (i + 1) & m) {
    uint32_t head = idx.slots[i];
    if (head == kNoRow) return kNoRow;
    if (MaskedEquals(mask, head, key.data())) return head;
  }
}

}  // namespace binchain
