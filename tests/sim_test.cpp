/**
 * @file
 * Unit tests for the event kernel: ordering, determinism, ports/wires
 * and their registration slots, netlist ownership and accounting, pulse
 * traces, and the inline storage of timing models.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/inline_vector.hh"
#include "sim/netlist.hh"
#include "sim/port.hh"
#include "sim/timing.hh"
#include "sim/trace.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"

namespace usfq
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, FifoWithinSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.scheduleAfter(4, [&] { fired = 1; });
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 5);
}

TEST(EventQueue, RunUntilStopsEarly)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 10; t <= 100; t += 10)
        eq.schedule(t, [&] { ++count; });
    eq.run(50);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.pending(), 5u);
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.run(1000);
    EXPECT_EQ(eq.now(), 1000);
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, [&] { ++count; });
    eq.schedule(2, [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    eq.schedule(20, [] {});
    eq.reset();
    EXPECT_EQ(eq.now(), 0);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(Ports, WireDelayApplied)
{
    Netlist nl;
    PulseTrace trace;
    OutputPort out("o", &nl.queue());
    out.connect(trace.input(), 7);
    nl.queue().schedule(3, [&] { out.emit(3); });
    nl.queue().run();
    ASSERT_EQ(trace.count(), 1u);
    EXPECT_EQ(trace.times()[0], 10);
}

TEST(Ports, FanOutDeliversToAll)
{
    Netlist nl;
    PulseTrace t1, t2, t3;
    OutputPort out("o", &nl.queue());
    out.connect(t1.input(), 1);
    out.connect(t2.input(), 2);
    out.connect(t3.input(), 3);
    out.emit(0);
    nl.queue().run();
    EXPECT_EQ(t1.count(), 1u);
    EXPECT_EQ(t2.count(), 1u);
    EXPECT_EQ(t3.count(), 1u);
    EXPECT_EQ(out.fanout(), 3u);
    EXPECT_EQ(out.pulseCount(), 1u);
}

TEST(Netlist, OwnsComponentsAndCountsJJs)
{
    Netlist nl;
    nl.create<Jtl>("j1");
    nl.create<Merger>("m1");
    nl.create<Ndro>("n1");
    EXPECT_EQ(nl.numComponents(), 3u);
    EXPECT_EQ(nl.totalJJs(),
              cell::kJtlJJs + cell::kMergerJJs + cell::kNdroJJs);
}

TEST(Netlist, SwitchAccountingAccumulates)
{
    Netlist nl;
    auto &jtl = nl.create<Jtl>("j");
    auto &src = nl.create<PulseSource>("src");
    src.out.connect(jtl.in);
    src.pulsesAt({10, 20, 30});
    nl.queue().run();
    EXPECT_EQ(nl.totalSwitches(),
              3u * cell::switchesPerOp(cell::kJtlJJs));
    nl.resetAll();
    EXPECT_EQ(nl.totalSwitches(), 0u);
}

TEST(Netlist, ResetAllResetsComponentsAndQueue)
{
    Netlist nl;
    auto &ndro = nl.create<Ndro>("n");
    auto &src = nl.create<PulseSource>("src");
    src.out.connect(ndro.s);
    src.pulseAt(5);
    nl.queue().run();
    EXPECT_TRUE(ndro.state());
    nl.resetAll();
    EXPECT_FALSE(ndro.state());
    EXPECT_EQ(nl.queue().now(), 0);
}

TEST(Trace, WindowCountAndSpacing)
{
    PulseTrace tr;
    tr.input().receive(10);
    tr.input().receive(30);
    tr.input().receive(35);
    EXPECT_EQ(tr.count(), 3u);
    EXPECT_EQ(tr.countInWindow(0, 31), 2u);
    EXPECT_EQ(tr.countInWindow(30, 36), 2u);
    EXPECT_EQ(tr.first(), 10);
    EXPECT_EQ(tr.last(), 35);
    EXPECT_EQ(tr.minSpacing(), 5);
    tr.clear();
    EXPECT_EQ(tr.count(), 0u);
    EXPECT_EQ(tr.first(), kTickInvalid);
    EXPECT_EQ(tr.minSpacing(), kTickInvalid);
}

TEST(Sources, ClockSourceEmitsPeriodicTrain)
{
    Netlist nl;
    auto &clk = nl.create<ClockSource>("clk");
    PulseTrace tr;
    clk.out.connect(tr.input());
    clk.program(100, 50, 5);
    nl.queue().run();
    ASSERT_EQ(tr.count(), 5u);
    EXPECT_EQ(tr.times()[0], 100);
    EXPECT_EQ(tr.times()[4], 300);
    EXPECT_EQ(tr.minSpacing(), 50);
}

TEST(Port, AddPortRecordsSlotsPerDirection)
{
    Netlist nl;
    auto &bff = nl.create<Bff>("bff");
    auto &mux = nl.create<Mux>("mux");
    for (const Component *c : {static_cast<Component *>(&bff),
                               static_cast<Component *>(&mux)}) {
        for (std::size_t k = 0; k < c->inputPorts().size(); ++k) {
            EXPECT_EQ(c->inputPorts()[k]->owner(), c);
            EXPECT_EQ(c->inputPorts()[k]->slot(), k);
        }
        for (std::size_t k = 0; k < c->outputPorts().size(); ++k) {
            EXPECT_EQ(c->outputPorts()[k]->owner(), c);
            EXPECT_EQ(c->outputPorts()[k]->slot(), k);
        }
    }
    EXPECT_EQ(bff.nq2.slot(), 3u);
    EXPECT_EQ(mux.out.slot(), 0u);
    const InputPort loose("loose", nullptr);
    EXPECT_EQ(loose.owner(), nullptr);
    EXPECT_EQ(loose.slot(), 0u);
}

// --- InlineVector (TimingModel storage) ------------------------------------

using Arcs = InlineVector<TimingArc, kInlineArcs>;

TimingArc
arc(int i)
{
    return {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i + 1),
            i, 2 * i, 1};
}

void
expectArcs(const Arcs &v, int n)
{
    ASSERT_EQ(v.size(), static_cast<std::size_t>(n));
    int i = 0;
    for (const TimingArc &a : v) {
        EXPECT_EQ(a.from, i);
        EXPECT_EQ(a.maxDelay, 2 * i);
        ++i;
    }
}

TEST(InlineVector, SpillsToTheHeapOnlyPastCapacity)
{
    Arcs v;
    EXPECT_TRUE(v.empty());
    for (int i = 0; i < static_cast<int>(kInlineArcs); ++i)
        v.push_back(arc(i));
    EXPECT_FALSE(v.onHeap());
    EXPECT_EQ(v.capacity(), kInlineArcs);
    expectArcs(v, static_cast<int>(kInlineArcs));

    v.push_back(arc(static_cast<int>(kInlineArcs)));
    EXPECT_TRUE(v.onHeap());
    EXPECT_GT(v.capacity(), kInlineArcs);
    expectArcs(v, static_cast<int>(kInlineArcs) + 1);
}

TEST(InlineVector, InitListAssignmentMovesBetweenHeapAndInline)
{
    Arcs v;
    for (int i = 0; i < static_cast<int>(kInlineArcs) + 3; ++i)
        v.push_back(arc(i));
    ASSERT_TRUE(v.onHeap());

    v = {arc(0), arc(1)};
    EXPECT_FALSE(v.onHeap());
    EXPECT_EQ(v.capacity(), kInlineArcs);
    expectArcs(v, 2);

    v = {arc(0), arc(1), arc(2), arc(3), arc(4), arc(5), arc(6), arc(7),
         arc(8)};
    EXPECT_TRUE(v.onHeap());
    expectArcs(v, 9);

    const Arcs full{arc(0), arc(1), arc(2), arc(3),
                    arc(4), arc(5), arc(6), arc(7)};
    EXPECT_FALSE(full.onHeap());
    expectArcs(full, 8);
}

TEST(InlineVector, CopyAndMove)
{
    Arcs small{arc(0), arc(1), arc(2)};
    Arcs big;
    for (int i = 0; i < 12; ++i)
        big.push_back(arc(i));

    const Arcs smallCopy(small);
    const Arcs bigCopy(big);
    EXPECT_FALSE(smallCopy.onHeap());
    EXPECT_TRUE(bigCopy.onHeap());
    EXPECT_NE(bigCopy.data(), big.data());
    expectArcs(smallCopy, 3);
    expectArcs(bigCopy, 12);

    const TimingArc *block = big.data();
    Arcs stolen(std::move(big));
    EXPECT_EQ(stolen.data(), block); // the heap block changes hands
    EXPECT_TRUE(big.empty());
    EXPECT_FALSE(big.onHeap());
    expectArcs(stolen, 12);

    Arcs moved(std::move(small));
    EXPECT_FALSE(moved.onHeap());
    expectArcs(moved, 3);

    // Assignment both ways over existing contents.
    moved = bigCopy;
    expectArcs(moved, 12);
    stolen = smallCopy;
    EXPECT_FALSE(stolen.onHeap());
    expectArcs(stolen, 3);
    moved = std::move(stolen);
    EXPECT_FALSE(moved.onHeap());
    expectArcs(moved, 3);
    big.push_back(arc(0)); // a moved-from vector is reusable
    expectArcs(big, 1);
}

TEST(InlineVector, EveryLibraryCellModelIsInline)
{
    Netlist nl;
    const Bff &bffCell = nl.create<Bff>("bff");
    const std::vector<const Component *> cells{
        &nl.create<Jtl>("jtl"),        &nl.create<Splitter>("spl"),
        &nl.create<Merger>("mrg"),     &nl.create<Dff>("dff"),
        &nl.create<Dff2>("dff2"),      &nl.create<Tff>("tff"),
        &nl.create<Tff2>("tff2"),      &nl.create<Ndro>("ndro"),
        &nl.create<Inverter>("inv"),   &bffCell,
        &nl.create<FirstArrival>("fa"), &nl.create<LastArrival>("la"),
        &nl.create<Inhibit>("inh"),    &nl.create<Mux>("mux"),
        &nl.create<Demux>("demux")};
    for (const Component *c : cells) {
        const TimingModel m = c->timingModel();
        EXPECT_FALSE(m.arcs.onHeap()) << c->name();
        EXPECT_FALSE(m.checks.onHeap()) << c->name();
        EXPECT_FALSE(m.floors.onHeap()) << c->name();
    }
    // The BFF fills every list: the capacities are not oversized.
    const TimingModel bff = bffCell.timingModel();
    EXPECT_EQ(bff.arcs.size(), kInlineArcs);
    EXPECT_EQ(bff.checks.size(), kInlineChecks);
    EXPECT_EQ(bff.floors.size(), kInlineFloors);
}

} // namespace
} // namespace usfq
