#include "storage/symbol_table.h"

#include <cstdlib>
#include <functional>
#include <limits>

#include "util/check.h"

namespace binchain {
namespace {

std::optional<int64_t> ParseInt(std::string_view s) {
  if (s.empty()) return std::nullopt;
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-') {
    if (s.size() == 1) return std::nullopt;
    neg = true;
    i = 1;
  }
  int64_t v = 0;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return std::nullopt;
    const int digit = s[i] - '0';
    // Huge ints stay symbolic (checked before the multiply: signed
    // overflow is undefined).
    if (v > (std::numeric_limits<int64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    v = v * 10 + digit;
  }
  return neg ? -v : v;
}

uint32_t HashSpelling(std::string_view s) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(s));
}

}  // namespace

SymbolId SymbolTable::Intern(std::string_view s) {
  const uint32_t h = HashSpelling(s);
  if (auto id = FindHashed(s, h)) return *id;
  BINCHAIN_CHECK(!frozen_);  // new spellings would race concurrent readers
  SymbolId id = base_size_ + static_cast<SymbolId>(names_.size());
  names_.emplace_back(s);
  ints_.push_back(ParseInt(s));
  if ((names_.size() + 1) * 2 > index_.size()) GrowIndex();
  const size_t m = index_.size() - 1;
  size_t i = h & m;
  while (index_[i].id != kEmpty) i = (i + 1) & m;
  index_[i] = Slot{id, h};
  return id;
}

std::optional<SymbolId> SymbolTable::Find(std::string_view s) const {
  return FindHashed(s, HashSpelling(s));
}

std::optional<SymbolId> SymbolTable::FindHashed(std::string_view s,
                                                uint32_t h) const {
  if (base_ != nullptr) {
    if (auto id = base_->FindHashed(s, h)) return id;
  }
  if (index_.empty()) return std::nullopt;
  const size_t m = index_.size() - 1;
  for (size_t i = h & m; index_[i].id != kEmpty; i = (i + 1) & m) {
    const Slot& slot = index_[i];
    if (slot.hash == h && names_[slot.id - base_size_] == s) return slot.id;
  }
  return std::nullopt;
}

void SymbolTable::GrowIndex() {
  std::vector<Slot> old = std::move(index_);
  index_.assign(old.empty() ? 64 : old.size() * 2, Slot{kEmpty, 0});
  const size_t m = index_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kEmpty) continue;
    size_t i = slot.hash & m;
    while (index_[i].id != kEmpty) i = (i + 1) & m;
    index_[i] = slot;
  }
}

void SymbolTable::ChainTo(std::shared_ptr<const SymbolTable> base) {
  BINCHAIN_CHECK(base != nullptr);
  BINCHAIN_CHECK(base->frozen());
  BINCHAIN_CHECK(names_.empty() && base_ == nullptr && !frozen_);
  base_size_ = static_cast<SymbolId>(base->size());
  base_ = std::move(base);
}

void SymbolTable::FlattenInto(SymbolTable* out) const {
  if (base_ != nullptr) base_->FlattenInto(out);
  for (const std::string& name : names_) out->Intern(name);
}

}  // namespace binchain
