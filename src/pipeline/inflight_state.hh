/**
 * @file
 * Flat, seq-indexed in-flight state of the out-of-order core: the
 * seq set its scheduling sets are kept in, and the ROB ring with its
 * direct-mapped seq index.
 *
 * Both lean on how the core numbers instructions.  Dispatch hands out
 * strictly increasing seqs, and a squash discards the youngest ones
 * without ever reusing their numbers.  So a set of in-flight seqs only
 * gains members above everything it has held, loses members anywhere,
 * and loses a suffix on a squash -- and the live seqs, gaps included,
 * can span far more than the ROB holds.
 */

#ifndef EDE_PIPELINE_INFLIGHT_STATE_HH
#define EDE_PIPELINE_INFLIGHT_STATE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <vector>

#include <sys/mman.h>

#include "common/logging.hh"
#include "common/types.hh"
#include "pipeline/inflight.hh"

namespace ede {

/**
 * A set of seqs as a sliding bitset: one bit per seq from the 64-seq
 * word holding the minimum up to the word of the largest insert, kept
 * in a ring of words.  Every insert must exceed all earlier inserts.
 * insert, erase and contains are O(1); erase drops leading words as
 * it empties them, so the minimum is O(1) and the window slides at an
 * amortized O(1) per seq.  The ring doubles when a squash gap
 * stretches the window past it.  Words outside the window are zero.
 */
class SeqSet
{
  public:
    /** The minimum of an empty set: above every seq. */
    static constexpr SeqNum kNone = std::numeric_limits<SeqNum>::max();

    /** @param span seqs the window covers before it first grows. */
    explicit SeqSet(std::size_t span = 0)
        : words_(std::bit_ceil(span / 64 + 2))
    {
    }

    bool empty() const { return used_ == 0; }

    bool
    contains(SeqNum s) const
    {
        // Below the window the offset wraps past used_.
        const SeqNum off = s / 64 - first_;
        return off < used_ && (word(off) >> (s % 64) & 1);
    }

    /** The smallest member, kNone when empty. */
    SeqNum
    min() const
    {
        return empty() ? kNone
                       : first_ * 64 + std::countr_zero(word(0));
    }

    void
    insert(SeqNum s)
    {
        if (empty()) {
            first_ = s / 64;
            head_ = 0;
        }
        ede_assert(s / 64 + 1 >= first_ + used_,
                   "seq set insert below its window: ", s);
        const SeqNum off = s / 64 - first_;
        if (off >= words_.size())
            grow(off + 1);
        if (off >= used_)
            used_ = off + 1;
        word(off) |= std::uint64_t{1} << (s % 64);
    }

    void
    erase(SeqNum s)
    {
        const SeqNum off = s / 64 - first_;
        if (off >= used_)
            return;
        word(off) &= ~(std::uint64_t{1} << (s % 64));
        if (off == 0)
            dropEmptyLeading();
    }

    /** Erase every member above @p s (a squash). */
    void
    eraseAbove(SeqNum s)
    {
        if (empty())
            return;
        if (s / 64 < first_) {
            for (std::size_t i = 0; i < used_; ++i)
                word(i) = 0;
            used_ = 0;
            return;
        }
        const SeqNum off = s / 64 - first_;
        if (off >= used_)
            return;
        // Keep bits 0..s%64; 2 << 63 wraps to 0, leaving all ones.
        word(off) &= (std::uint64_t{2} << (s % 64)) - 1;
        for (std::size_t i = off + 1; i < used_; ++i)
            word(i) = 0;
        used_ = off + 1;
        dropEmptyLeading();
    }

    /** Ordered (ascending) walk over the members. */
    class const_iterator
    {
      public:
        SeqNum
        operator*() const
        {
            return (set_->first_ + off_) * 64 + std::countr_zero(bits_);
        }

        const_iterator &
        operator++()
        {
            bits_ &= bits_ - 1;
            while (bits_ == 0 && ++off_ < set_->used_)
                bits_ = set_->word(off_);
            return *this;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return off_ == o.off_ && bits_ == o.bits_;
        }

      private:
        friend class SeqSet;
        const_iterator(const SeqSet *set, std::size_t off)
            : set_(set), off_(off),
              bits_(off < set->used_ ? set->word(off) : 0)
        {
        }

        const SeqSet *set_;
        std::size_t off_;
        std::uint64_t bits_;
    };

    /** The leading word is non-zero, so begin() is the minimum. */
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, used_}; }

  private:
    std::uint64_t &
    word(std::size_t off)
    {
        return words_[(head_ + off) & (words_.size() - 1)];
    }

    std::uint64_t
    word(std::size_t off) const
    {
        return words_[(head_ + off) & (words_.size() - 1)];
    }

    void
    dropEmptyLeading()
    {
        while (used_ > 0 && word(0) == 0) {
            head_ = (head_ + 1) & (words_.size() - 1);
            ++first_;
            --used_;
        }
    }

    /** Re-lay the window at ring position 0 in >= @p need words. */
    void
    grow(std::size_t need)
    {
        std::vector<std::uint64_t> bigger(std::bit_ceil(need));
        for (std::size_t i = 0; i < used_; ++i)
            bigger[i] = word(i);
        words_.swap(bigger);
        head_ = 0;
    }

    std::vector<std::uint64_t> words_; ///< Power-of-two ring.
    std::size_t head_ = 0;             ///< Ring position of word 0.
    std::size_t used_ = 0;             ///< Window length in words.
    SeqNum first_ = 0;                 ///< Word number (seq / 64) of word 0.
};

/**
 * The reorder buffer: a ring of in-flight instructions, oldest first,
 * allocated once, so a slot reference stays valid for its
 * instruction's whole life.  A direct-mapped seq -> slot index finds
 * an entry in O(1); find() checks the slot's own seq, so a retired or
 * squashed seq is absent even where a younger entry now shares its
 * index entry.  Two live seqs may map to one index entry once squash
 * gaps stretch the live span past the index; push() then doubles the
 * index and re-indexes the live entries until they are apart again.
 */
class Rob
{
  public:
    explicit Rob(std::size_t capacity)
        : slots_(mapSlots(capacity)), capacity_(capacity),
          index_(std::bit_ceil(2 * capacity), nullptr)
    {
    }

    ~Rob() { ::munmap(slots_, capacity_ * sizeof(InflightInst)); }
    Rob(const Rob &) = delete;
    Rob &operator=(const Rob &) = delete;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }

    /** The @p i-th oldest entry. */
    InflightInst &operator[](std::size_t i) { return slots_[slot(i)]; }
    const InflightInst &
    operator[](std::size_t i) const
    {
        return slots_[slot(i)];
    }

    InflightInst &front() { return (*this)[0]; }
    const InflightInst &front() const { return (*this)[0]; }
    InflightInst &back() { return (*this)[size_ - 1]; }

    /** The live entry with @p seq, or null. */
    InflightInst *find(SeqNum seq) { return lookup(seq); }
    const InflightInst *find(SeqNum seq) const { return lookup(seq); }

    /** Append the youngest entry: fresh state carrying @p seq. */
    InflightInst &
    push(SeqNum seq)
    {
        ede_assert(!full(), "push into a full ROB");
        while (index_[seq & (index_.size() - 1)])
            reindex(2 * index_.size());
        InflightInst &in = *new (&slots_[slot(size_)]) InflightInst{};
        in.seq = seq;
        index_[seq & (index_.size() - 1)] = &in;
        ++size_;
        return in;
    }

    /** Retire the oldest entry. */
    void
    popFront()
    {
        unindex(front());
        head_ = slot(1);
        --size_;
    }

    /** Squash the youngest entry. */
    void
    popBack()
    {
        unindex(back());
        --size_;
    }

    /** Oldest-first walk over the live entries. */
    class const_iterator
    {
      public:
        const InflightInst &operator*() const { return (*rob_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const const_iterator &o) const = default;

      private:
        friend class Rob;
        const_iterator(const Rob *rob, std::size_t i) : rob_(rob), i_(i) {}

        const Rob *rob_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    /**
     * Page-backed slot storage, outside the malloc heap.  In the heap,
     * one 25 KB block per core shifted where the heap top sat between
     * one simulation and the next, and the trace generation that
     * followed took thousands more page faults regrowing the heap (a
     * bench/perf scaling repetition on a 4-vCPU Xeon VM: 20.5k ->
     * 28.5k minor faults, 25% more setup time).  push() constructs
     * each entry in place, so a page is first touched by a dispatch.
     */
    static InflightInst *
    mapSlots(std::size_t capacity)
    {
        static_assert(std::is_trivially_destructible_v<InflightInst>,
                      "slots are reused and unmapped without destruction");
        void *p = ::mmap(nullptr, capacity * sizeof(InflightInst),
                         PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<InflightInst *>(p);
    }

    InflightInst *
    lookup(SeqNum seq) const
    {
        InflightInst *in = index_[seq & (index_.size() - 1)];
        return in && in->seq == seq ? in : nullptr;
    }

    std::size_t
    slot(std::size_t i) const
    {
        i += head_;
        return i < capacity_ ? i : i - capacity_;
    }

    void
    unindex(const InflightInst &in)
    {
        index_[in.seq & (index_.size() - 1)] = nullptr;
    }

    /** Rebuild the index at @p entries (a larger power of two). */
    void
    reindex(std::size_t entries)
    {
        index_.assign(entries, nullptr);
        for (std::size_t i = 0; i < size_; ++i) {
            InflightInst &in = (*this)[i];
            index_[in.seq & (entries - 1)] = &in;
        }
    }

    InflightInst *slots_;
    std::size_t capacity_;
    std::size_t head_ = 0; ///< Slot of the oldest entry.
    std::size_t size_ = 0;
    /** Power-of-two table; live seqs never share an entry. */
    std::vector<InflightInst *> index_;
};

} // namespace ede

#endif // EDE_PIPELINE_INFLIGHT_STATE_HH
