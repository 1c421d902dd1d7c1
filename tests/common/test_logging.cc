/**
 * @file
 * Unit tests for the panic()/panicIfNot() invariant checks: the failure
 * text and source location, and a passing check that allocates nothing.
 */

#include <gtest/gtest.h>

#include <source_location>
#include <string>

#include "alloc_counter.hh"
#include "common/logging.hh"

namespace memtherm
{
namespace
{

/** The PanicError text @p fn throws (empty if it does not throw). */
template <typename Fn>
std::string
panicText(Fn &&fn)
{
    try {
        fn();
    } catch (const PanicError &e) {
        return e.what();
    }
    return {};
}

/** The documented failure format: "panic: <msg> [<file>:<line>]". */
std::string
expectedText(const std::string &msg, const std::source_location &here,
             unsigned line_offset)
{
    return "panic: " + msg + " [" + here.file_name() + ":" +
           std::to_string(here.line() + line_offset) + "]";
}

TEST(PanicIfNot, PassingCheckDoesNotThrow)
{
    EXPECT_NO_THROW(panicIfNot(true, "never reported"));
}

TEST(PanicIfNot, LiteralMessageReportsCallerLine)
{
    const std::source_location here = std::source_location::current();
    const std::string text = panicText([] { panicIfNot(false, "a literal"); });
    EXPECT_EQ(text, expectedText("a literal", here, 1));
}

TEST(PanicIfNot, StringMessageReportsCallerLine)
{
    const std::string msg = "a std::string message longer than the SSO buffer";
    const std::source_location here = std::source_location::current();
    const std::string text = panicText([&] { panicIfNot(false, msg); });
    EXPECT_EQ(text, expectedText(msg, here, 1));
}

TEST(PanicIfNot, ComputedMessageReportsCallerLine)
{
    const int bad = 42;
    const std::source_location here = std::source_location::current();
    const std::string text = panicText(
        [&] { panicIfNot(false, "value " + std::to_string(bad) + " bad"); });
    EXPECT_EQ(text, expectedText("value 42 bad", here, 2));
}

/** A failing check reports exactly what panic() reports. */
TEST(PanicIfNot, FailureMatchesPanic)
{
    const std::source_location loc = std::source_location::current();
    const std::string via_check =
        panicText([&] { panicIfNot(false, "same text", loc); });
    const std::string via_panic = panicText([&] { panic("same text", loc); });
    EXPECT_EQ(via_check, via_panic);
    EXPECT_EQ(via_check, expectedText("same text", loc, 0));
}

/**
 * A passing check costs a branch, not a heap string: the message here
 * is far past any small-string buffer, and the condition is opaque to
 * the optimizer, yet a thousand passing checks allocate nothing.
 */
TEST(PanicIfNot, PassingCheckAllocatesNothing)
{
    volatile bool holds = true;
    const std::size_t n = test::allocationsDuring([&] {
        for (int i = 0; i < 1000; ++i)
            panicIfNot(holds, "a message well past the small-string buffer");
    });
    EXPECT_EQ(n, 0u);
}

} // namespace
} // namespace memtherm
