#include "src/core/tuner_factory.h"

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/optimizer/mfes_sampler.h"
#include "src/optimizer/random_sampler.h"
#include "src/optimizer/rea_sampler.h"
#include "src/scheduler/async_bracket_scheduler.h"
#include "src/scheduler/batch_bo_scheduler.h"
#include "src/scheduler/sync_bracket_scheduler.h"

namespace hypertune {
namespace {

/// Classification of methods by their scheduling substrate.
enum class Substrate { kFullFidelity, kSyncBrackets, kAsyncBrackets };

Substrate SubstrateOf(Method method) {
  switch (method) {
    case Method::kARandom:
    case Method::kBatchBo:
    case Method::kABo:
    case Method::kARea:
      return Substrate::kFullFidelity;
    case Method::kSha:
    case Method::kHyperband:
    case Method::kBohb:
    case Method::kMfesHb:
      return Substrate::kSyncBrackets;
    default:
      return Substrate::kAsyncBrackets;
  }
}

/// Sampler families.
enum class SamplerFamily { kRandom, kBo, kMfes, kRea };

SamplerFamily SamplerOf(Method method) {
  switch (method) {
    case Method::kARandom:
    case Method::kSha:
    case Method::kAsha:
    case Method::kDasha:
    case Method::kHyperband:
    case Method::kAHyperband:
    case Method::kAHyperbandBs:
    case Method::kAHyperbandDasha:
      return SamplerFamily::kRandom;
    case Method::kBatchBo:
    case Method::kABo:
    case Method::kBohb:
    case Method::kABohb:
    case Method::kABohbBs:
    case Method::kABohbDasha:
    case Method::kHyperTuneNoMfes:
      return SamplerFamily::kBo;
    case Method::kMfesHb:
    case Method::kHyperTune:
    case Method::kHyperTuneNoBs:
    case Method::kHyperTuneNoDasha:
      return SamplerFamily::kMfes;
    case Method::kARea:
      return SamplerFamily::kRea;
  }
  return SamplerFamily::kRandom;
}

BracketPolicy PolicyOf(Method method) {
  switch (method) {
    case Method::kSha:
    case Method::kAsha:
    case Method::kDasha:
      return BracketPolicy::kFixed;
    case Method::kHyperTune:
    case Method::kHyperTuneNoDasha:
    case Method::kHyperTuneNoMfes:
    case Method::kAHyperbandBs:
    case Method::kABohbBs:
      return BracketPolicy::kLearned;
    default:
      return BracketPolicy::kRoundRobin;
  }
}

bool DelayedPromotion(Method method) {
  switch (method) {
    case Method::kDasha:
    case Method::kHyperTune:
    case Method::kHyperTuneNoBs:
    case Method::kHyperTuneNoMfes:
    case Method::kAHyperbandDasha:
    case Method::kABohbDasha:
      return true;
    default:
      return false;
  }
}

bool NeedsWeights(Method method) {
  return PolicyOf(method) == BracketPolicy::kLearned ||
         SamplerOf(method) == SamplerFamily::kMfes;
}

}  // namespace

const char* MethodName(Method method) {
  switch (method) {
    case Method::kARandom:
      return "A-Random";
    case Method::kBatchBo:
      return "BO";
    case Method::kABo:
      return "A-BO";
    case Method::kARea:
      return "A-REA";
    case Method::kSha:
      return "SHA";
    case Method::kAsha:
      return "ASHA";
    case Method::kDasha:
      return "D-ASHA";
    case Method::kHyperband:
      return "Hyperband";
    case Method::kAHyperband:
      return "A-Hyperband";
    case Method::kBohb:
      return "BOHB";
    case Method::kABohb:
      return "A-BOHB";
    case Method::kMfesHb:
      return "MFES-HB";
    case Method::kHyperTune:
      return "Hyper-Tune";
    case Method::kHyperTuneNoBs:
      return "Hyper-Tune w/o BS";
    case Method::kHyperTuneNoDasha:
      return "Hyper-Tune w/o D-ASHA";
    case Method::kHyperTuneNoMfes:
      return "Hyper-Tune w/o MFES";
    case Method::kAHyperbandBs:
      return "A-Hyperband + BS";
    case Method::kABohbBs:
      return "A-BOHB + BS";
    case Method::kAHyperbandDasha:
      return "A-Hyperband + D-ASHA";
    case Method::kABohbDasha:
      return "A-BOHB + D-ASHA";
  }
  return "unknown";
}

std::vector<Method> PaperMethods() {
  return {Method::kARandom,    Method::kBatchBo, Method::kABo,
          Method::kSha,        Method::kAsha,    Method::kHyperband,
          Method::kAHyperband, Method::kBohb,    Method::kABohb,
          Method::kMfesHb,     Method::kHyperTune};
}

std::unique_ptr<Tuner> CreateTuner(const TuningProblem& problem,
                                   const TunerFactoryOptions& options) {
  const Method method = options.method;
  const Substrate substrate = SubstrateOf(method);
  const ConfigurationSpace& space = problem.space();

  ResourceLadder ladder =
      ResourceLadder::Make(problem.min_resource(), problem.max_resource(),
                           options.eta, options.max_brackets);
  const int num_levels =
      substrate == Substrate::kFullFidelity ? 1 : ladder.num_levels;

  auto store = std::make_unique<MeasurementStore>(num_levels);

  std::unique_ptr<FidelityWeights> weights;
  if (NeedsWeights(method)) {
    FidelityWeightsOptions weight_options;
    weight_options.seed = CombineSeeds(options.seed, 0xF1DE11F1ULL);
    weights =
        std::make_unique<FidelityWeights>(&space, weight_options);
  }

  std::unique_ptr<Sampler> sampler;
  switch (SamplerOf(method)) {
    case SamplerFamily::kRandom:
      sampler = std::make_unique<RandomSampler>(
          &space, store.get(), CombineSeeds(options.seed, 0x7A2D0ULL));
      break;
    case SamplerFamily::kBo: {
      BoSamplerOptions bo;
      bo.surrogate = options.surrogate;
      bo.seed = CombineSeeds(options.seed, 0xB0B0ULL);
      sampler = std::make_unique<BoSampler>(&space, store.get(), bo);
      break;
    }
    case SamplerFamily::kMfes: {
      MfesSamplerOptions mfes;
      mfes.bo.surrogate = options.surrogate;
      mfes.bo.seed = CombineSeeds(options.seed, 0x3FE5ULL);
      mfes.weights.seed = CombineSeeds(options.seed, 0xF1DE11F1ULL);
      auto mfes_sampler =
          std::make_unique<MfesSampler>(&space, store.get(), mfes);
      // The selector's theta and the ensemble's theta are estimated from
      // one store with equal options: fit each surrogate behind them once.
      mfes_sampler->ShareThetaFitsWith(weights.get());
      sampler = std::move(mfes_sampler);
      break;
    }
    case SamplerFamily::kRea: {
      ReaSamplerOptions rea;
      rea.seed = CombineSeeds(options.seed, 0x4EAULL);
      sampler = std::make_unique<ReaSampler>(&space, store.get(), rea);
      break;
    }
  }

  std::unique_ptr<SchedulerInterface> scheduler;
  switch (substrate) {
    case Substrate::kFullFidelity: {
      BatchBoSchedulerOptions batch;
      batch.synchronous = (method == Method::kBatchBo);
      batch.batch_size = options.batch_size;
      batch.resource = problem.max_resource();
      batch.level = 1;
      scheduler = std::make_unique<BatchBoScheduler>(store.get(),
                                                     sampler.get(), batch);
      break;
    }
    case Substrate::kSyncBrackets: {
      BracketSchedulerOptions sync;
      sync.ladder = ladder;
      sync.selector.policy = PolicyOf(method);
      sync.selector.fixed_bracket = 1;
      sync.selector.seed = CombineSeeds(options.seed, 0x5E1ECULL);
      scheduler = std::make_unique<SyncBracketScheduler>(
          &space, store.get(), sampler.get(), weights.get(), sync);
      break;
    }
    case Substrate::kAsyncBrackets: {
      BracketSchedulerOptions async;
      async.ladder = ladder;
      async.selector.policy = PolicyOf(method);
      async.selector.fixed_bracket = 1;
      async.selector.seed = CombineSeeds(options.seed, 0x5E1ECULL);
      async.delayed_promotion = DelayedPromotion(method);
      scheduler = std::make_unique<AsyncBracketScheduler>(
          &space, store.get(), sampler.get(), weights.get(), async);
      break;
    }
  }

  return std::make_unique<Tuner>(MethodName(method), std::move(store),
                                 std::move(sampler), std::move(weights),
                                 std::move(scheduler));
}

}  // namespace hypertune
