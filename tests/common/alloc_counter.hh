/**
 * @file
 * A global heap-allocation counter for allocation-pinning tests.
 *
 * Replaces every global operator new/delete variant (plain, array,
 * nothrow, sized, aligned) with a forwarder to malloc/aligned_alloc and
 * free that counts successful allocations. All variants route through
 * the same pair, so new/delete always match, also under AddressSanitizer
 * (which intercepts malloc/free underneath).
 *
 * The replacements are ordinary (non-inline) definitions, as the
 * standard requires: include this header from exactly one translation
 * unit of a test binary.
 */

#ifndef MEMTHERM_TESTS_COMMON_ALLOC_COUNTER_HH
#define MEMTHERM_TESTS_COMMON_ALLOC_COUNTER_HH

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace memtherm::test
{

/** Successful global operator new calls since program start. */
inline std::atomic<std::size_t> heapAllocations{0};

/** Allocations made while running @p fn. */
template <typename Fn>
std::size_t
allocationsDuring(Fn &&fn)
{
    const std::size_t before =
        heapAllocations.load(std::memory_order_relaxed);
    fn();
    return heapAllocations.load(std::memory_order_relaxed) - before;
}

namespace detail
{

inline void *
countedAlloc(std::size_t size) noexcept
{
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p)
        heapAllocations.fetch_add(1, std::memory_order_relaxed);
    return p;
}

inline void *
countedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept
{
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
    if (p)
        heapAllocations.fetch_add(1, std::memory_order_relaxed);
    return p;
}

} // namespace detail
} // namespace memtherm::test

void *
operator new(std::size_t size)
{
    if (void *p = memtherm::test::detail::countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return memtherm::test::detail::countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return memtherm::test::detail::countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = memtherm::test::detail::countedAlignedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return memtherm::test::detail::countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return memtherm::test::detail::countedAlignedAlloc(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // MEMTHERM_TESTS_COMMON_ALLOC_COUNTER_HH
