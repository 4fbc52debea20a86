// Codec and framing tests for the driver<->worker process protocol:
// round-trips for every message type, tag rejection, and the socketpair
// framing's EOF / torn-frame / CRC classifications the supervisor's loss
// handling keys off.
#include "src/runtime/process_protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

#include "src/config/configuration.h"

namespace hypertune {
namespace {

Job TestJob() {
  Job job;
  job.job_id = 421;
  job.config = Configuration({0.25, 0.75, 0.5});
  job.level = 2;
  job.bracket = 1;
  job.resource = 81.0;
  job.resume_from = 27.0;
  job.attempt = 3;
  return job;
}

void ExpectSameJob(const Job& a, const Job& b) {
  EXPECT_EQ(a.job_id, b.job_id);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.bracket, b.bracket);
  EXPECT_EQ(a.resource, b.resource);
  EXPECT_EQ(a.resume_from, b.resume_from);
  EXPECT_EQ(a.attempt, b.attempt);
  ASSERT_EQ(a.config.size(), b.config.size());
  for (size_t d = 0; d < a.config.size(); ++d) {
    EXPECT_EQ(a.config[d], b.config[d]);
  }
}

TEST(ProcessProtocolTest, EveryMessageTypeRoundTrips) {
  {
    HelloMessage msg{7, 12345};
    HelloMessage out;
    ASSERT_TRUE(DecodeHello(EncodeHello(msg), &out).ok());
    EXPECT_EQ(out.worker, 7);
    EXPECT_EQ(out.pid, 12345);
  }
  {
    HeartbeatMessage msg{3, 99};
    HeartbeatMessage out;
    ASSERT_TRUE(DecodeHeartbeat(EncodeHeartbeat(msg), &out).ok());
    EXPECT_EQ(out.worker, 3);
    EXPECT_EQ(out.sequence, 99);
  }
  {
    ResultMessage msg;
    msg.job = TestJob();
    msg.result.objective = 0.125;
    msg.result.test_objective = 0.25;
    msg.result.cost_seconds = 1.5;
    ResultMessage out;
    ASSERT_TRUE(DecodeResultMessage(EncodeResultMessage(msg), &out).ok());
    ExpectSameJob(msg.job, out.job);
    EXPECT_EQ(out.result.objective, 0.125);
    EXPECT_EQ(out.result.test_objective, 0.25);
    EXPECT_EQ(out.result.cost_seconds, 1.5);
  }
  {
    JobMessage msg;
    msg.job = TestJob();
    msg.inject_crash = true;
    JobMessage out;
    ASSERT_TRUE(DecodeJobMessage(EncodeJobMessage(msg), &out).ok());
    ExpectSameJob(msg.job, out.job);
    EXPECT_TRUE(out.inject_crash);
  }
}

TEST(ProcessProtocolTest, TagsAreCheckedAndNamed) {
  ProcessMessage type;
  ASSERT_TRUE(ProcessMessageTypeOf(EncodeShutdown(), &type).ok());
  EXPECT_EQ(type, ProcessMessage::kShutdown);
  EXPECT_STREQ("shutdown", ProcessMessageName(type));
  ASSERT_TRUE(ProcessMessageTypeOf(EncodeHello({1, 2}), &type).ok());
  EXPECT_EQ(type, ProcessMessage::kHello);

  // Decoders reject payloads of the wrong type.
  HelloMessage hello;
  EXPECT_FALSE(DecodeHello(EncodeShutdown(), &hello).ok());
  JobMessage job;
  EXPECT_FALSE(DecodeJobMessage(EncodeHello({1, 2}), &job).ok());
  EXPECT_FALSE(ProcessMessageTypeOf("", &type).ok());
  // Unknown tags: below and above the range, and the retired tag 4.
  for (char tag : {'\x00', '\x04', '\x07'}) {
    EXPECT_FALSE(ProcessMessageTypeOf(std::string(1, tag), &type).ok())
        << "tag " << static_cast<int>(tag);
  }
}

/// Framing fixture: a real socketpair, like the backend uses.
class FramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void CloseWriter() {
    ::close(fds_[1]);
    fds_[1] = -1;
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, FramesCrossTheSocketIntact) {
  const std::string first = EncodeHello({5, 777});
  const std::string second = EncodeHeartbeat({5, 1});
  ASSERT_TRUE(WriteFrame(fds_[1], first).ok());
  ASSERT_TRUE(WriteFrame(fds_[1], second).ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(fds_[0], &payload).ok());
  EXPECT_EQ(payload, first);
  ASSERT_TRUE(ReadFrame(fds_[0], &payload).ok());
  EXPECT_EQ(payload, second);
}

TEST_F(FramingTest, CleanEofIsNotFound) {
  ASSERT_TRUE(WriteFrame(fds_[1], EncodeShutdown()).ok());
  CloseWriter();
  std::string payload;
  ASSERT_TRUE(ReadFrame(fds_[0], &payload).ok());
  EXPECT_EQ(ReadFrame(fds_[0], &payload).code(), StatusCode::kNotFound);
}

TEST_F(FramingTest, TornFrameIsDataLoss) {
  // The peer died mid-write: only half the frame made it out.
  std::string frame;
  AppendRecord(EncodeHello({5, 777}), &frame);
  const std::string half = frame.substr(0, frame.size() / 2);
  ASSERT_EQ(::write(fds_[1], half.data(), half.size()),
            static_cast<ssize_t>(half.size()));
  CloseWriter();
  std::string payload;
  EXPECT_EQ(ReadFrame(fds_[0], &payload).code(), StatusCode::kDataLoss);
}

TEST_F(FramingTest, CorruptPayloadIsDataLoss) {
  std::string frame;
  AppendRecord(EncodeHello({5, 777}), &frame);
  frame.back() = static_cast<char>(frame.back() ^ 0x40);
  ASSERT_EQ(::write(fds_[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  std::string payload;
  EXPECT_EQ(ReadFrame(fds_[0], &payload).code(), StatusCode::kDataLoss);
}

TEST_F(FramingTest, WriteToDeadPeerFailsWithoutSigpipe) {
  ::close(fds_[0]);
  fds_[0] = -1;
  // Without MSG_NOSIGNAL this would raise SIGPIPE and kill the test.
  Status status = WriteFrame(fds_[1], EncodeShutdown());
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace hypertune
