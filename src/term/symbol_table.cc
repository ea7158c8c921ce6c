#include "term/symbol_table.hh"

#include "support/logging.hh"

namespace clare::term {

SymbolTable::SymbolTable()
    : mutex_(std::make_unique<std::shared_mutex>())
{
    SymbolId nil = intern("[]");
    SymbolId dot = intern(".");
    clare_assert(nil == kNil && dot == kDot,
                 "reserved symbol ids misallocated");
}

SymbolId
SymbolTable::intern(std::string_view name)
{
    {
        std::shared_lock lock(*mutex_);
        auto it = byName_.find(name);
        if (it != byName_.end())
            return it->second;
    }
    std::unique_lock lock(*mutex_);
    // Another thread may have inserted the name between the locks.
    auto [it, inserted] = byName_.try_emplace(
        std::string(name), static_cast<SymbolId>(names_.size()));
    if (inserted)
        names_.emplace_back(name);
    return it->second;
}

SymbolId
SymbolTable::lookup(std::string_view name) const
{
    std::shared_lock lock(*mutex_);
    auto it = byName_.find(name);
    return it == byName_.end() ? kNoSymbol : it->second;
}

const std::string &
SymbolTable::name(SymbolId id) const
{
    std::shared_lock lock(*mutex_);
    clare_assert(id < names_.size(), "symbol id %u out of range", id);
    return names_[id];
}

FloatId
SymbolTable::internFloat(double value)
{
    {
        std::shared_lock lock(*mutex_);
        auto it = byFloat_.find(value);
        if (it != byFloat_.end())
            return it->second;
    }
    std::unique_lock lock(*mutex_);
    auto [it, inserted] = byFloat_.try_emplace(
        value, static_cast<FloatId>(floats_.size()));
    if (inserted)
        floats_.push_back(value);
    return it->second;
}

double
SymbolTable::floatValue(FloatId id) const
{
    std::shared_lock lock(*mutex_);
    clare_assert(id < floats_.size(), "float id %u out of range", id);
    return floats_[id];
}

std::size_t
SymbolTable::atomCount() const
{
    std::shared_lock lock(*mutex_);
    return names_.size();
}

std::size_t
SymbolTable::floatCount() const
{
    std::shared_lock lock(*mutex_);
    return floats_.size();
}

} // namespace clare::term
