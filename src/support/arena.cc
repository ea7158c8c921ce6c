#include "support/arena.hh"

#include <algorithm>

#include "support/logging.hh"

namespace clare::support {

void *
Arena::alloc(std::size_t bytes)
{
    std::size_t need = round8(bytes == 0 ? 1 : bytes);
    // Advance through retained blocks first; a warmed-up arena finds
    // room without touching the heap.
    while (current_ < blocks_.size()) {
        Block &b = blocks_[current_];
        if (b.used + need <= b.capacity) {
            void *p = b.data.get() + b.used;
            b.used += need;
            return p;
        }
        if (current_ + 1 == blocks_.size())
            break;
        ++current_;
    }
    std::size_t grown = blocks_.empty()
        ? kFirstBlockBytes
        : 2 * blocks_.back().capacity;
    grown = std::min(grown, blockBytes_);
    Block fresh;
    fresh.capacity = std::max(need, grown);
    fresh.data = std::make_unique<std::uint8_t[]>(fresh.capacity);
    fresh.used = need;
    blocks_.push_back(std::move(fresh));
    current_ = blocks_.size() - 1;
    return blocks_.back().data.get();
}

bool
Arena::tryExtend(const void *p, std::size_t old_bytes, std::size_t new_bytes)
{
    if (blocks_.empty())
        return false;
    Block &b = blocks_[current_];
    std::size_t old_rounded = round8(old_bytes == 0 ? 1 : old_bytes);
    const std::uint8_t *bytes = static_cast<const std::uint8_t *>(p);
    // The allocation must live inside the current block: comparing
    // cursors alone is not enough, because a pointer into an OLDER
    // block can abut the current block's cursor by heap-layout
    // coincidence (allocators without chunk headers or redzones place
    // blocks back to back), and extending through that false match
    // would write past the older block's real end.
    if (bytes < b.data.get() || bytes >= b.data.get() + b.capacity)
        return false;
    // Only the block's most recent allocation can stretch.
    if (old_bytes == 0 || bytes + old_rounded != b.data.get() + b.used)
        return false;
    std::size_t new_rounded = round8(new_bytes);
    std::size_t start = b.used - old_rounded;
    if (start + new_rounded > b.capacity)
        return false;
    b.used = start + new_rounded;
    return true;
}

void
Arena::reset()
{
    for (Block &b : blocks_)
        b.used = 0;
    current_ = 0;
}

std::size_t
Arena::usedBytes() const
{
    std::size_t total = 0;
    for (const Block &b : blocks_)
        total += b.used;
    return total;
}

std::size_t
Arena::capacityBytes() const
{
    std::size_t total = 0;
    for (const Block &b : blocks_)
        total += b.capacity;
    return total;
}

Arena::Offset
Arena::offsetOf(const void *p) const
{
    const std::uint8_t *bytes = static_cast<const std::uint8_t *>(p);
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const Block &b = blocks_[i];
        if (bytes >= b.data.get() && bytes < b.data.get() + b.capacity)
            return (static_cast<Offset>(i) << 48) |
                   static_cast<Offset>(bytes - b.data.get());
    }
    clare_panic("pointer is not inside this arena");
}

void *
Arena::at(Offset off)
{
    std::size_t block = static_cast<std::size_t>(off >> 48);
    std::size_t byte = static_cast<std::size_t>(off & 0xffffffffffffull);
    clare_assert(block < blocks_.size(), "arena offset block %zu out of range",
                 block);
    clare_assert(byte < blocks_[block].capacity,
                 "arena offset byte %zu out of range", byte);
    return blocks_[block].data.get() + byte;
}

} // namespace clare::support
