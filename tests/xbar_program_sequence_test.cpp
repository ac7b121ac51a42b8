#include "xbar/program_sequence.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace xbarlife::xbar {
namespace {

TEST(ProgramOp, FactoriesEncodeKindAndOperands) {
  const ProgramOp p = ProgramOp::pulse(3, 7, 5e4);
  EXPECT_EQ(p.kind, OpKind::kProgramPulse);
  EXPECT_EQ(p.row, 3u);
  EXPECT_EQ(p.col, 7u);
  EXPECT_DOUBLE_EQ(p.value, 5e4);

  const ProgramOp v = ProgramOp::verify(1, 2);
  EXPECT_EQ(v.kind, OpKind::kVerifyRead);
  EXPECT_EQ(v.row, 1u);
  EXPECT_EQ(v.col, 2u);
  EXPECT_DOUBLE_EQ(v.value, 0.0);

  const ProgramOp w = ProgramOp::wait(12.5);
  EXPECT_EQ(w.kind, OpKind::kWait);
  EXPECT_DOUBLE_EQ(w.value, 12.5);

  const ProgramOp b = ProgramOp::barrier();
  EXPECT_EQ(b.kind, OpKind::kBarrier);
  EXPECT_DOUBLE_EQ(b.value, 0.0);

  EXPECT_EQ(p, ProgramOp::pulse(3, 7, 5e4));
  EXPECT_NE(p, ProgramOp::pulse(3, 7, 6e4));
}

TEST(ProgramSequence, StatsCountKindsAndContiguousPulseRuns) {
  ProgramSequence seq;
  // Two pulse runs (lengths 2 and 1) split by a verify, plus a wait and
  // a barrier: batches counts maximal contiguous pulse runs.
  seq.push(ProgramOp::pulse(0, 0, 1e4));
  seq.push(ProgramOp::pulse(1, 0, 2e4));
  seq.push(ProgramOp::verify(0, 0));
  seq.push(ProgramOp::pulse(2, 0, 3e4));
  seq.push(ProgramOp::wait(7.0));
  seq.push(ProgramOp::barrier());

  const SequenceStats s = seq.stats();
  EXPECT_EQ(s.pulses, 3u);
  EXPECT_EQ(s.verifies, 1u);
  EXPECT_EQ(s.waits, 1u);
  EXPECT_EQ(s.barriers, 1u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_DOUBLE_EQ(s.wait_us, 7.0);
}

TEST(ProgramSequence, EmptySequenceHasZeroStats) {
  const ProgramSequence seq;
  EXPECT_TRUE(seq.empty());
  const SequenceStats s = seq.stats();
  EXPECT_EQ(s.pulses, 0u);
  EXPECT_EQ(s.batches, 0u);
}

TEST(SequenceBuilder, GroupsOpsIntoAscendingColumnsWithBarriers) {
  SequenceBuilder b(4, 4);
  // Staged in scattered order; build() must emit column 1's lane, a
  // barrier, then column 3's lane (empty columns are skipped).
  b.pulse(0, 3, 1e4);
  b.pulse(1, 1, 2e4);
  b.verify(2, 1);
  b.pulse(3, 3, 3e4);
  EXPECT_EQ(b.staged_ops(), 4u);

  const ProgramSequence seq = b.build();
  const auto& ops = seq.ops();
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0], ProgramOp::pulse(1, 1, 2e4));
  EXPECT_EQ(ops[1], ProgramOp::verify(2, 1));
  EXPECT_EQ(ops[2], ProgramOp::barrier());
  EXPECT_EQ(ops[3], ProgramOp::pulse(0, 3, 1e4));
  EXPECT_EQ(ops[4], ProgramOp::pulse(3, 3, 3e4));
}

TEST(SequenceBuilder, BuildResetsForReuse) {
  SequenceBuilder b(2, 2);
  b.pulse(0, 0, 1e4);
  EXPECT_FALSE(b.empty());
  const ProgramSequence first = b.build();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.staged_ops(), 0u);
  EXPECT_EQ(first.size(), 1u);

  b.pulse(1, 1, 2e4);
  const ProgramSequence second = b.build();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.ops()[0], ProgramOp::pulse(1, 1, 2e4));
}

TEST(SequenceBuilder, SingleColumnEmitsNoBarrier) {
  SequenceBuilder b(3, 3);
  b.pulse(0, 2, 1e4);
  b.pulse(1, 2, 2e4);
  b.wait(2, 5.0);
  const ProgramSequence seq = b.build();
  const SequenceStats s = seq.stats();
  EXPECT_EQ(s.barriers, 0u);
  EXPECT_EQ(s.pulses, 2u);
  EXPECT_EQ(s.waits, 1u);
  EXPECT_EQ(s.batches, 1u);
}

TEST(SequenceBuilder, RejectsOutOfRangeCoordinates) {
  SequenceBuilder b(2, 3);
  EXPECT_THROW(b.pulse(2, 0, 1e4), InvalidArgument);
  EXPECT_THROW(b.pulse(0, 3, 1e4), InvalidArgument);
  EXPECT_THROW(b.verify(5, 0), InvalidArgument);
  EXPECT_THROW(b.wait(3, 1.0), InvalidArgument);
}

}  // namespace
}  // namespace xbarlife::xbar
