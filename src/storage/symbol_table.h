// String interning. Every constant, variable name and predicate name in the
// system is a 32-bit id into a SymbolTable; all joins and graph traversals
// operate on ids only.
#ifndef BINCHAIN_STORAGE_SYMBOL_TABLE_H_
#define BINCHAIN_STORAGE_SYMBOL_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace binchain {

using SymbolId = uint32_t;

/// Append-only interner mapping strings <-> dense 32-bit ids.
/// Symbols whose spelling lexes as a decimal integer additionally carry the
/// parsed value, which the built-in comparison predicates use.
///
/// Delta layering (live-update subsystem): a table may extend a frozen base
/// table (ChainTo). Ids [0, base->size()) resolve through the base chain;
/// fresh spellings intern into the local layer with ids continuing the
/// global sequence — so successive database epochs *extend* one id space
/// instead of re-interning, and every id minted in epoch N means the same
/// thing in every later epoch. Base layers are immutable; chains are kept
/// shallow by the epoch publisher's flatten policy (see chain_depth()).
///
/// Thread safety: not synchronized. After Freeze() the table is immutable —
/// Intern of an existing spelling degenerates to a lookup and is safe from
/// concurrent readers; interning a *new* spelling aborts. Thaw() re-opens
/// the local layer for interning (single-writer, no concurrent readers).
class SymbolTable {
 public:
  SymbolTable() = default;

  /// Interns `s`, returning its id (existing anywhere in the chain, or
  /// fresh in the local layer). Aborts on a fresh spelling after Freeze().
  SymbolId Intern(std::string_view s);

  /// Forbids further interning. Reversible via Thaw(); part of
  /// Database::Freeze().
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }
  /// Re-opens the local layer for interning. The caller must guarantee no
  /// concurrent reader still uses the table.
  void Thaw() { frozen_ = false; }

  /// Turns this (empty, unfrozen) table into a delta layer over `base`.
  /// `base` must be frozen; its ids keep resolving unchanged.
  void ChainTo(std::shared_ptr<const SymbolTable> base);

  /// Copies the whole chain into a standalone (chain-free) layer in id
  /// order; ids are preserved. Used by the epoch publisher's compaction.
  void FlattenInto(SymbolTable* out) const;

  /// Layers above the standalone bottom of the chain.
  size_t chain_depth() const { return base_ ? base_->chain_depth() + 1 : 0; }
  /// Symbols interned into this layer only.
  size_t local_size() const { return names_.size(); }
  /// Size of the standalone bottom layer (the last flatten point).
  size_t root_size() const { return base_ ? base_->root_size() : names_.size(); }
  const std::shared_ptr<const SymbolTable>& base() const { return base_; }

  /// Returns the id of `s` if already interned anywhere in the chain.
  std::optional<SymbolId> Find(std::string_view s) const;

  const std::string& Name(SymbolId id) const {
    return id < base_size_ ? base_->Name(id) : names_[id - base_size_];
  }

  /// Parsed integer value when the symbol spells a decimal integer.
  std::optional<int64_t> IntValue(SymbolId id) const {
    return id < base_size_ ? base_->IntValue(id) : ints_[id - base_size_];
  }

  size_t size() const { return base_size_ + names_.size(); }

 private:
  /// One slot of the spelling index: a local symbol and its spelling's
  /// hash (kept so growth never rehashes a string, and most probes that
  /// miss skip the string compare).
  struct Slot {
    SymbolId id;
    uint32_t hash;
  };
  static constexpr SymbolId kEmpty = 0xffffffffu;

  /// Find() with the spelling's hash `h` computed once for every layer.
  std::optional<SymbolId> FindHashed(std::string_view s, uint32_t h) const;
  void GrowIndex();

  std::shared_ptr<const SymbolTable> base_;  // frozen; null for standalone
  SymbolId base_size_ = 0;
  std::vector<std::string> names_;
  std::vector<std::optional<int64_t>> ints_;
  /// Open-addressed spelling -> global id index over this layer's symbols
  /// (linear probing, power-of-two size, load <= 1/2). Lookups hash a
  /// string_view, so no probe builds a temporary string.
  std::vector<Slot> index_;
  bool frozen_ = false;
};

}  // namespace binchain

#endif  // BINCHAIN_STORAGE_SYMBOL_TABLE_H_
