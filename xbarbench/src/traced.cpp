// The traced run: per-layer metrics of one lifetime scenario.
//
// In-run numbers come from two sources that change no result:
//   * the program's own obs handle (metrics Registry + span Profiler),
//     which yields the lifetime.session / tuning.session / train.epoch
//     spans and the tuning, aging, executor and resilience counters;
//   * a timing decorator around every nn::Layer, installed through
//     nn::Network::add, which times forward/backward inside the real run
//     and classifies each network pass as evaluation or gradient.
// Layers with no seam (GEMM/im2col, program execution, deploy, sync) are
// timed afterwards by calling their public functions on the run's own
// state, at the shapes and call counts the run recorded.
#include <algorithm>
#include <cmath>
#include <map>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/lifetime.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "obs/obs.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "xbar/executor.hpp"
#include "xbar/program_sequence.hpp"

namespace xbarbench {
namespace {

namespace nn = xl::nn;

/// Per-layer timings shared by every decorator of one network. Forward
/// passes are held pending until the next pass starts: a pass followed by
/// a backward is a gradient pass, any other is an evaluation pass.
class LayerClock {
 public:
  struct Layer {
    std::string name;
    double fwd_ms = 0.0;
    double bwd_ms = 0.0;
    std::map<std::size_t, std::uint64_t> fwd_batches;  ///< batch -> calls
    std::map<std::size_t, std::uint64_t> bwd_batches;
  };

  explicit LayerClock(std::size_t layers) : layers_(layers) {}

  void forward(std::size_t i, const std::string& name, double ms,
               std::size_t batch) {
    if (i == 0) {
      settle(false);
      pending_batch_ = batch;
    }
    layers_[i].name = name;
    layers_[i].fwd_ms += ms;
    ++layers_[i].fwd_batches[batch];
    pending_ms_ += ms;
    pending_ = true;
  }

  void backward(std::size_t i, const std::string& name, double ms,
                std::size_t batch) {
    if (pending_) {
      settle(true);
    }
    layers_[i].name = name;
    layers_[i].bwd_ms += ms;
    ++layers_[i].bwd_batches[batch];
    grad_ms_ += ms;
  }

  /// Classifies the last pending pass as an evaluation pass.
  void flush() { settle(false); }

  /// Forgets everything recorded so far (call between phases).
  void reset() {
    flush();
    for (Layer& l : layers_) {
      l = Layer{l.name, 0.0, 0.0, {}, {}};
    }
    eval_ms_ = grad_ms_ = 0.0;
    eval_samples_ = grad_passes_ = 0;
  }

  const std::vector<Layer>& layers() const { return layers_; }
  double eval_ms() const { return eval_ms_; }
  double grad_ms() const { return grad_ms_; }
  std::uint64_t eval_samples() const { return eval_samples_; }
  std::uint64_t grad_passes() const { return grad_passes_; }

 private:
  void settle(bool grad) {
    if (!pending_) {
      return;
    }
    if (grad) {
      grad_ms_ += pending_ms_;
      ++grad_passes_;
    } else {
      eval_ms_ += pending_ms_;
      eval_samples_ += pending_batch_;
    }
    pending_ = false;
    pending_ms_ = 0.0;
  }

  std::vector<Layer> layers_;
  bool pending_ = false;
  double pending_ms_ = 0.0;
  std::size_t pending_batch_ = 0;
  double eval_ms_ = 0.0;
  double grad_ms_ = 0.0;
  std::uint64_t eval_samples_ = 0;
  std::uint64_t grad_passes_ = 0;
};

double ms_since(std::uint64_t t0) { return seconds_since(t0) * 1e3; }

/// Timing decorator: forwards every call to the wrapped layer, which the
/// caller keeps alive, and reports its wall time to the clock.
class TimedLayer final : public nn::Layer {
 public:
  TimedLayer(nn::Layer& inner, LayerClock& clock, std::size_t index)
      : nn::Layer(inner.name()), inner_(inner), clock_(clock), index_(index) {}

  xl::Tensor forward(const xl::Tensor& input, bool training) override {
    const std::uint64_t t0 = now_ns();
    xl::Tensor out = inner_.forward(input, training);
    clock_.forward(index_, name(), ms_since(t0), input.shape()[0]);
    return out;
  }
  xl::Tensor forward_quantized(const xl::Tensor& input,
                               const nn::QuantSpec& spec) override {
    const std::uint64_t t0 = now_ns();
    xl::Tensor out = inner_.forward_quantized(input, spec);
    clock_.forward(index_, name(), ms_since(t0), input.shape()[0]);
    return out;
  }
  xl::Tensor backward(const xl::Tensor& grad_output) override {
    const std::uint64_t t0 = now_ns();
    xl::Tensor out = inner_.backward(grad_output);
    clock_.backward(index_, name(), ms_since(t0), grad_output.shape()[0]);
    return out;
  }
  std::vector<nn::ParamRef> params() override { return inner_.params(); }
  std::size_t output_features(std::size_t input_features) const override {
    return inner_.output_features(input_features);
  }
  nn::LayerKind kind() const override { return inner_.kind(); }

 private:
  nn::Layer& inner_;
  LayerClock& clock_;
  std::size_t index_;
};

/// Median per-call wall ms of `fn` over at least 3 calls and ~20 ms.
template <typename Fn>
double per_call_ms(Fn&& fn) {
  std::vector<double> samples;
  const std::uint64_t start = now_ns();
  while (samples.size() < 3 || ms_since(start) < 20.0) {
    const std::uint64_t t0 = now_ns();
    fn();
    samples.push_back(ms_since(t0));
  }
  return median(samples);
}

xl::Tensor random_tensor(xl::Rng& rng, std::size_t rows, std::size_t cols) {
  xl::Tensor t(xl::Shape{rows, cols});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

struct GemmTotals {
  double gemm_ms = 0.0;
  double flops = 0.0;
  double im2col_ms = 0.0;
};

/// Replays one GEMM shape (a:(m,k) op b:(k,n)) `calls` times' worth.
void add_gemm(GemmTotals& g, xl::Rng& rng, std::size_t m, std::size_t k,
              std::size_t n, std::uint64_t calls) {
  const xl::Tensor a = random_tensor(rng, m, k);
  const xl::Tensor b = random_tensor(rng, k, n);
  const double ms = per_call_ms([&] { (void)xl::matmul(a, b); });
  g.gemm_ms += ms * static_cast<double>(calls);
  g.flops += 2.0 * static_cast<double>(m * k * n) *
             static_cast<double>(calls);
}

/// GEMM and im2col cost of the recorded passes, replayed layer by layer
/// through the tensor module's public functions. The backward products
/// (X^T dY, dY W^T) have the forward's FLOP count and are replayed as the
/// same-size plain product.
GemmTotals replay_tensor(nn::Network& inner, const LayerClock& clock) {
  GemmTotals g;
  xl::Rng rng(1234);
  for (std::size_t i = 0; i < inner.layer_count(); ++i) {
    const LayerClock::Layer& rec = clock.layers()[i];
    nn::Layer& layer = inner.layer(i);
    if (const auto* conv = dynamic_cast<const nn::Conv2D*>(&layer)) {
      // One (pixels x patch) * (patch x out) product per sample.
      const xl::ConvGeometry& geo = conv->geometry();
      const std::size_t pixels = geo.out_h() * geo.out_w();
      std::uint64_t fwd = 0;
      std::uint64_t bwd = 0;
      for (const auto& [batch, calls] : rec.fwd_batches) {
        fwd += batch * calls;
      }
      for (const auto& [batch, calls] : rec.bwd_batches) {
        bwd += batch * calls;
      }
      add_gemm(g, rng, pixels, geo.patch_size(), conv->out_channels(),
               fwd + 2 * bwd);
      xl::Tensor image(xl::Shape{geo.in_channels * geo.in_h * geo.in_w});
      image.fill_gaussian(rng, 0.0f, 1.0f);
      g.im2col_ms += per_call_ms([&] { (void)xl::im2col(image, geo); }) *
                     static_cast<double>(fwd);
    } else if (const auto* dense = dynamic_cast<const nn::Dense*>(&layer)) {
      std::map<std::size_t, std::uint64_t> products = rec.fwd_batches;
      for (const auto& [batch, calls] : rec.bwd_batches) {
        products[batch] += 2 * calls;
      }
      for (const auto& [batch, calls] : products) {
        add_gemm(g, rng, batch, dense->in_features(), dense->out_features(),
                 calls);
      }
    }
  }
  return g;
}

/// Programs one tuning-sized step on every active cell of every layer
/// through the active ProgramExecutor; returns {ms, pulses}.
std::pair<double, double> replay_program(xl::tuning::HardwareNetwork& hw,
                                         double step_fraction) {
  double ms = 0.0;
  double pulses = 0.0;
  for (std::size_t li = 0; li < hw.layer_count(); ++li) {
    xl::tuning::DeployedLayer& layer = hw.layer(li);
    if (layer.plan == nullptr) {
      continue;
    }
    const auto& range = layer.plan->quantizer().range();
    const double g_lo = range.g_min();
    const double g_hi = range.g_max();
    const double dg = step_fraction * (g_hi - g_lo);
    xl::xbar::Crossbar& xb = *layer.xbar;
    xl::xbar::SequenceBuilder builder(xb.rows(), xb.cols());
    for (std::size_t c = 0; c < xb.cols(); ++c) {
      for (std::size_t r = 0; r < layer.logical_rows; ++r) {
        const std::size_t pr = layer.physical_row(r);
        if (!layer.stuck.empty() && layer.stuck[pr * xb.cols() + c] != 0) {
          continue;
        }
        const double cond = xb.read_conductance(pr, c);
        const double target =
            std::clamp((r + c) % 2 == 0 ? cond + dg : cond - dg, g_lo, g_hi);
        if (std::fabs(target - cond) >= 0.25 * dg) {
          builder.pulse(pr, c, 1.0 / target);
        }
      }
    }
    if (builder.empty()) {
      continue;
    }
    const xl::xbar::ProgramSequence seq = builder.build();
    const std::uint64_t t0 = now_ns();
    const xl::xbar::ExecReport rep =
        xl::xbar::select_executor().execute(xb, seq);
    ms += ms_since(t0);
    pulses += static_cast<double>(rep.stats.pulses);
  }
  return {ms, pulses};
}

}  // namespace

TracedRun traced_single(const xl::core::ExperimentConfig& cfg,
                        xl::core::Scenario scenario) {
  TracedRun out;
  Metrics& m = out.metrics;
  xl::obs::Registry registry;
  xl::obs::Profiler profiler;
  const xl::obs::Obs obs{&registry, nullptr, &profiler, nullptr};

  // Set-up as train_model() does it: data, then the model from the
  // seeded RNG, then training.
  std::vector<double> synth_ms;
  xl::data::TrainTest data;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t t0 = now_ns();
    data = xl::data::make_synthetic(cfg.dataset);
    synth_ms.push_back(ms_since(t0));
  }
  m["data.synth_ms"] = median(synth_ms);

  xl::Rng rng(cfg.seed);
  nn::Network inner = xl::core::build_model(cfg, rng);
  LayerClock clock(inner.layer_count());
  nn::Network net(inner.name());
  for (std::size_t i = 0; i < inner.layer_count(); ++i) {
    net.add(std::make_unique<TimedLayer>(inner.layer(i), clock, i));
  }

  const std::uint64_t train_t0 = now_ns();
  xl::core::TrainHistory history;
  if (xl::core::uses_skewed_training(scenario)) {
    auto reg = xl::core::make_skewed_regularizer(cfg.skew);
    history = xl::core::train(net, data, cfg.train_config, reg.get(), obs);
  } else {
    nn::L2Regularizer reg(cfg.l2_lambda);
    history = xl::core::train(net, data, cfg.train_config, &reg, obs);
  }
  m["core.train_s"] = seconds_since(train_t0);

  out.outcome.scenario = scenario;
  out.outcome.software_accuracy = history.final_test_accuracy;
  out.outcome.tuning_target =
      cfg.absolute_tuning_target > 0.0
          ? cfg.absolute_tuning_target
          : cfg.target_accuracy_fraction * history.final_test_accuracy;
  xl::core::LifetimeConfig lc = cfg.lifetime;
  lc.tuning.target_accuracy = out.outcome.tuning_target;
  xl::tuning::HardwareNetwork hw(net, cfg.device, cfg.aging, cfg.faults);

  // Measured phase: first deploy to end of life.
  clock.reset();
  const std::size_t spans_before = profiler.span_count();
  xl::core::LifetimeSimulator sim(lc);
  const std::uint64_t life_t0 = now_ns();
  out.outcome.lifetime = sim.run(hw, data.train, data.test,
                                 xl::core::mapping_policy(scenario), obs);
  out.lifetime_s = seconds_since(life_t0);
  clock.flush();
  const double life_ms = out.lifetime_s * 1e3;

  // NN layers (lifetime phase).
  XB_CHECK(cfg.lifetime.tuning.eval_samples ==
               cfg.lifetime.selection_eval_samples,
           "nn.evaluate_calls assumes one evaluation slice size");
  m["nn.evaluate_ms"] = clock.eval_ms();
  m["nn.evaluate_calls"] =
      static_cast<double>(clock.eval_samples()) /
      static_cast<double>(cfg.lifetime.tuning.eval_samples);
  m["nn.grad_ms"] = clock.grad_ms();
  m["nn.grad_calls"] = static_cast<double>(clock.grad_passes());
  double layer_ms = 0.0;
  for (const LayerClock::Layer& l : clock.layers()) {
    m["nn." + l.name + ".fwd_ms"] = l.fwd_ms;
    m["nn." + l.name + ".bwd_ms"] = l.bwd_ms;
    layer_ms += l.fwd_ms + l.bwd_ms;
  }
  m["obs.attributed_frac"] = layer_ms / life_ms;

  // Spans and counters of the program's own obs handle.
  std::vector<double> tuning_ms;
  std::vector<double> session_ms;
  double session_self = 0.0;
  const auto& recs = profiler.records();
  for (std::size_t i = spans_before; i < recs.size(); ++i) {
    if (recs[i].name == "tuning.session") {
      tuning_ms.push_back(recs[i].dur_ms);
    } else if (recs[i].name == "lifetime.session") {
      session_ms.push_back(recs[i].dur_ms);
      double children = 0.0;
      for (std::size_t j = i + 1; j < recs.size(); ++j) {
        if (recs[j].parent == i) {
          children += recs[j].dur_ms;
        }
      }
      session_self += recs[i].dur_ms - children;
    }
  }
  m["tuning.session_ms_p50"] = quantile(tuning_ms, 0.5);
  m["tuning.session_ms_p90"] = quantile(tuning_ms, 0.9);
  m["core.session_ms_p50"] = quantile(session_ms, 0.5);
  m["core.session_ms_p90"] = quantile(session_ms, 0.9);
  m["core.session_self_ms"] = session_self;

  std::map<std::string, double> counters;
  registry.visit_counters([&](const std::string& name, std::uint64_t v) {
    counters[name] = static_cast<double>(v);
  });
  const auto counter = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  m["tuning.iterations"] = counter("tuning.iterations");
  m["tuning.converged_frac"] =
      counter("tuning.converged_sessions") /
      std::max(1.0, counter("tuning.sessions"));
  m["core.rescues"] = counter("lifetime.rescues");
  for (const char* rung : {"retry", "remap", "fault_mask", "spare_rows"}) {
    m[std::string("resilience.rung.") + rung] =
        counter(std::string("resilience.rung.") + rung);
  }
  m["xbar.pulses"] = counter("aging.pulses");
  m["xbar.sequences"] = counter("executor.sequences");
  m["xbar.pulses_per_batch"] =
      counter("aging.pulses") /
      std::max(1.0, counter("executor.column_batches"));
  m["aging.traced_frac"] =
      counter("aging.traced_pulses") / std::max(1.0, counter("aging.pulses"));

  // Aging-aware deploys the run made: the initial mapping plus one per
  // rescue remap (rescued sessions, or remap rungs when the ladder ran).
  double select_calls = 0.0;
  if (xl::core::mapping_policy(scenario) ==
      xl::tuning::MappingPolicy::kAgingAware) {
    const bool ladder = lc.resilience.active_for(hw.fault_config());
    double rescues = 0.0;
    for (const xl::core::SessionRecord& s : out.outcome.lifetime.sessions) {
      rescues += ladder ? static_cast<double>(std::count(
                              s.rescue_rungs.begin(), s.rescue_rungs.end(),
                              std::string("remap")))
                        : (s.rescued ? 1.0 : 0.0);
    }
    select_calls = 1.0 + rescues;
  }
  m["mapping.select_calls"] = select_calls;

  // --- replays on the run's end-of-life state (the outcome is final) ---
  const GemmTotals g = replay_tensor(inner, clock);
  m["tensor.gemm_ms"] = g.gemm_ms;
  m["tensor.flops"] = g.flops;
  m["tensor.gemm_gflops"] = g.gemm_ms > 0.0 ? g.flops / (g.gemm_ms * 1e6)
                                            : 0.0;
  m["tensor.im2col_ms"] = g.im2col_ms;

  m["tuning.sync_ms"] = per_call_ms([&] { hw.sync_network_to_hardware(); });

  const auto [prog_ms, prog_pulses] =
      replay_program(hw, lc.tuning.step_fraction);
  const double pulses_per_ms = prog_pulses / std::max(prog_ms, 1e-9);
  m["xbar.mpulses_per_s"] = pulses_per_ms * 1e-3;
  m["xbar.program_ms"] = m["xbar.pulses"] / std::max(pulses_per_ms, 1e-9);

  const xl::data::Dataset slice =
      data.test.head(lc.selection_eval_samples);
  const xl::tuning::NetworkEvaluator evaluator = [&] {
    return net.evaluate(slice.images, slice.labels);
  };
  std::vector<double> fresh;
  std::vector<double> select;
  for (int i = 0; i < 3; ++i) {
    std::uint64_t t0 = now_ns();
    hw.deploy(xl::tuning::MappingPolicy::kFresh, lc.levels);
    fresh.push_back(ms_since(t0));
    t0 = now_ns();
    hw.deploy(xl::tuning::MappingPolicy::kAgingAware, lc.levels, evaluator);
    select.push_back(ms_since(t0));
  }
  m["mapping.deploy_fresh_ms"] = median(fresh);
  m["mapping.select_ms"] = median(select);
  return out;
}

}  // namespace xbarbench
