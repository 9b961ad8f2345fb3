#include "nn/model.hpp"

#include <algorithm>
#include <cstdint>

#include "nn/serialize.hpp"
#include "util/persist/frame.hpp"

namespace orev::nn {

namespace {
/// Frame app tag for standalone model files.
constexpr const char* kModelTag = "orev.model";
}  // namespace

Model::Model(std::string name, LayerPtr root, Shape input_shape,
             int num_classes)
    : name_(std::move(name)),
      root_(std::move(root)),
      input_shape_(std::move(input_shape)),
      num_classes_(num_classes) {
  OREV_CHECK(root_ != nullptr, "Model requires a root layer");
  OREV_CHECK(num_classes_ >= 2, "Model needs at least two classes");
  OREV_CHECK(!input_shape_.empty(), "Model input shape must be non-empty");
}

Model::Model(Model&& other) noexcept
    : name_(std::move(other.name_)),
      root_(std::move(other.root_)),
      input_shape_(std::move(other.input_shape_)),
      num_classes_(other.num_classes_),
      inference_only_(other.inference_only_) {
  other.drop_plan();
}

Model& Model::operator=(Model&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  root_ = std::move(other.root_);
  input_shape_ = std::move(other.input_shape_);
  num_classes_ = other.num_classes_;
  inference_only_ = other.inference_only_;
  drop_plan();
  other.drop_plan();
  return *this;
}

Model Model::clone() const {
  Model m(name_, root_->clone(), input_shape_, num_classes_);
  m.inference_only_ = inference_only_;
  return m;
}

int Model::rows_of(const Tensor& x) const {
  if (x.rank() == input_shape_.size()) {
    OREV_CHECK(x.shape() == input_shape_,
               "sample shape " + shape_str(x.shape()) +
                   " does not match model input " + shape_str(input_shape_));
    return 1;
  }
  OREV_CHECK(x.rank() == input_shape_.size() + 1,
             "input rank mismatch for model " + name_);
  for (std::size_t i = 0; i < input_shape_.size(); ++i) {
    OREV_CHECK(x.dim(i + 1) == input_shape_[i],
               "input shape mismatch for model " + name_);
  }
  return x.dim(0);
}

Tensor Model::batched(const Tensor& x) const {
  rows_of(x);
  if (x.rank() == input_shape_.size()) {
    // Single sample: prepend a batch axis.
    Shape s;
    s.push_back(1);
    s.insert(s.end(), input_shape_.begin(), input_shape_.end());
    return x.reshaped(std::move(s));
  }
  return x;
}

GradPlan* Model::grad_plan() {
  if (!plan_tried_) {
    plan_tried_ = true;
    GradPlan::CompileResult r =
        GradPlan::compile(*root_, input_shape_, num_classes_);
    plan_ = std::move(r.plan);
    plan_refusal_ = r.failure.code;
  }
  return plan_.get();
}

void Model::drop_plan() {
  plan_.reset();
  plan_tried_ = false;
}

CompileError Model::grad_plan_refusal() {
  grad_plan();
  return plan_refusal_;
}

Tensor Model::forward(const Tensor& x, bool training) {
  OREV_CHECK(!(training && inference_only_),
             "model '" + name_ +
                 "' is inference-locked: a training-mode forward would "
                 "mutate BatchNorm/Dropout state batch-dependently");
  return root_->forward(batched(x), training);
}

Tensor Model::backward(const Tensor& dlogits) {
  OREV_CHECK(!inference_only_,
             "model '" + name_ +
                 "' is inference-locked: its layers no longer store the "
                 "forward caches a backward pass consumes");
  return root_->backward(dlogits);
}

std::vector<int> Model::predict(const Tensor& x) {
  Tensor logits = forward(x, /*training=*/false);
  const int n = logits.dim(0), c = logits.dim(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out[static_cast<std::size_t>(i)] =
        argmax_row(logits.raw() + static_cast<std::size_t>(i) * c, c);
  return out;
}

Tensor Model::predict_proba(const Tensor& x) {
  return softmax(forward(x, /*training=*/false));
}

const float* Model::plan_logits_one(const Tensor& sample) {
  GradPlan* plan = grad_plan();
  if (plan == nullptr || rows_of(sample) != 1) return nullptr;
  return plan->forward(sample.raw(), 1);
}

int Model::predict_one(const Tensor& sample) {
  const float* z = plan_logits_one(sample);
  if (z == nullptr) return predict(sample).front();
  return argmax_row(z, num_classes_);
}

Tensor Model::logits_one(const Tensor& sample) {
  if (const float* z = plan_logits_one(sample))
    return Tensor({num_classes_}, std::vector<float>(z, z + num_classes_));
  Tensor logits = forward(sample, /*training=*/false);
  return logits.reshaped({num_classes_});
}

void Model::gradient_rows(const Tensor& x, std::span<const int> labels,
                          const Tensor* dlogits, float* dx) {
  OREV_CHECK(!inference_only_,
             "model '" + name_ +
                 "' is inference-locked: its layers no longer store the "
                 "forward caches a backward pass consumes");
  const int m = rows_of(x);
  GradPlan* plan = grad_plan();
  if (plan == nullptr || m == 0) {
    const Tensor logits = forward(x, /*training=*/false);
    Tensor g;
    if (dlogits != nullptr) {
      OREV_CHECK(logits.shape() == dlogits->shape(),
                 "custom gradient shape mismatch");
      g = backward(*dlogits);
    } else {
      const LossGrad lg = cross_entropy_with_logits(
          logits, std::vector<int>(labels.begin(), labels.end()));
      g = backward(lg.dlogits);
    }
    std::copy(g.raw(), g.raw() + g.numel(), dx);
    return;
  }
  const float* z = plan->forward(x.raw(), m);
  const float* dz = nullptr;
  if (dlogits != nullptr) {
    OREV_CHECK(dlogits->rank() == 2 && dlogits->dim(0) == m &&
                   dlogits->dim(1) == num_classes_,
               "custom gradient shape mismatch");
    dz = dlogits->raw();
  } else {
    OREV_CHECK(static_cast<int>(labels.size()) == m,
               "label count does not match batch");
    cross_entropy_rows(z, labels, num_classes_, plan->dlogits_scratch());
    dz = plan->dlogits_scratch();
  }
  plan->backward(dz, dx);
}

namespace {

/// x's shape with a batch axis.
Shape batched_shape(const Tensor& x, const Shape& input_shape) {
  if (x.rank() != input_shape.size()) return x.shape();
  Shape s;
  s.reserve(input_shape.size() + 1);
  s.push_back(1);
  s.insert(s.end(), input_shape.begin(), input_shape.end());
  return s;
}

}  // namespace

Tensor Model::input_gradient(const Tensor& x, const std::vector<int>& labels) {
  Tensor dx(batched_shape(x, input_shape_));
  gradient_rows(x, labels, nullptr, dx.raw());
  return dx;
}

void Model::input_gradient_into(const Tensor& x, std::span<const int> labels,
                                Tensor& dx) {
  if (dx.shape() != x.shape()) dx = Tensor(x.shape());
  gradient_rows(x, labels, nullptr, dx.raw());
}

Tensor Model::input_gradient_custom(const Tensor& x, const Tensor& dlogits) {
  Tensor dx(batched_shape(x, input_shape_));
  gradient_rows(x, {}, &dlogits, dx.raw());
  return dx;
}

std::vector<Param*> Model::params() { return root_->params(); }

void Model::init(Rng& rng) { root_->init(rng); }

void Model::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::size_t Model::num_parameters() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

std::vector<Tensor> Model::weights() {
  std::vector<Tensor> out;
  for (Param* p : params()) out.push_back(p->value);
  return out;
}

void Model::set_weights(const std::vector<Tensor>& ws) {
  auto ps = params();
  OREV_CHECK(ws.size() == ps.size(), "weight count mismatch in set_weights");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    OREV_CHECK(ws[i].shape() == ps[i]->value.shape(),
               "weight shape mismatch in set_weights");
    ps[i]->value = ws[i];
  }
}

void Model::write_state(persist::ByteWriter& w) {
  auto ps = params();
  w.u32(static_cast<std::uint32_t>(ps.size()));
  for (Param* p : ps) write_tensor(w, p->value);
  root_->save_state(w);
}

persist::Status Model::read_state(persist::ByteReader& r) {
  using persist::Status;
  using persist::StatusCode;
  auto ps = params();
  std::uint32_t count = 0;
  if (!r.u32(count))
    return Status::Fail(StatusCode::kTruncated, "param count missing");
  if (count != ps.size())
    return Status::Fail(StatusCode::kMismatch,
                        "checkpoint has " + std::to_string(count) +
                            " params, model has " + std::to_string(ps.size()));
  // Decode and shape-check every tensor before touching the live model, so
  // a rejected file leaves the weights exactly as they were.
  std::vector<Tensor> values;
  values.reserve(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    Tensor t;
    Status st = read_tensor(r, t);
    if (!st.ok()) return st;
    if (t.shape() != ps[i]->value.shape())
      return Status::Fail(StatusCode::kMismatch,
                          "param " + std::to_string(i) + " shape " +
                              shape_str(t.shape()) + " != model shape " +
                              shape_str(ps[i]->value.shape()));
    values.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < ps.size(); ++i)
    ps[i]->value = std::move(values[i]);
  drop_plan();
  return root_->load_state(r);
}

persist::Status Model::save_status(const std::string& path) {
  persist::FrameWriter fw(kModelTag);

  persist::ByteWriter meta;
  meta.str(name_);
  meta.i32(num_classes_);
  write_shape(meta, input_shape_);
  fw.section("meta", meta.take());

  persist::ByteWriter state;
  write_state(state);
  fw.section("state", state.take());

  return fw.commit(path);
}

persist::Status Model::load_status(const std::string& path) {
  using persist::Status;
  using persist::StatusCode;

  persist::FrameReader fr;
  Status st = persist::FrameReader::load(path, kModelTag, fr);
  if (!st.ok()) return st;

  std::string_view meta_bytes;
  st = fr.section("meta", meta_bytes);
  if (!st.ok()) return st;
  persist::ByteReader meta(meta_bytes);
  std::string saved_name;
  std::int32_t saved_classes = 0;
  Shape saved_input;
  if (!meta.str(saved_name) || !meta.i32(saved_classes))
    return Status::Fail(StatusCode::kTruncated, "model meta truncated");
  st = read_shape(meta, saved_input);
  if (!st.ok()) return st;
  st = meta.finish("model meta");
  if (!st.ok()) return st;
  if (saved_classes != num_classes_ || saved_input != input_shape_)
    return Status::Fail(StatusCode::kMismatch,
                        "checkpoint was written by an incompatible model "
                        "(classes/input shape differ)");

  std::string_view state_bytes;
  st = fr.section("state", state_bytes);
  if (!st.ok()) return st;
  persist::ByteReader state(state_bytes);
  st = read_state(state);
  if (!st.ok()) return st;
  return state.finish("model state");
}

bool Model::save(const std::string& path) { return save_status(path).ok(); }

bool Model::load(const std::string& path) { return load_status(path).ok(); }

}  // namespace orev::nn
