#include "vqoe/lifecycle/model_slot.h"

namespace vqoe::lifecycle {

namespace {

std::string plural_features(std::size_t n) {
  return std::to_string(n) + (n == 1 ? " feature" : " features");
}

}  // namespace

std::string swap_incompatibility(
    const core::QoePipeline& active,
    const std::optional<core::ModelManifest>& active_manifest,
    const core::QoePipeline& next,
    const std::optional<core::ModelManifest>& next_manifest) {
  if (!next.stall_detector().trained()) {
    return "candidate has no trained stall detector";
  }
  if (!active.stall_detector().trained()) {
    return "active pipeline has no trained stall detector";
  }
  const std::size_t active_classes = active.stall_detector().forest().num_classes();
  const std::size_t next_classes = next.stall_detector().forest().num_classes();
  if (active_classes != next_classes) {
    return "stall class count differs: active " +
           std::to_string(active_classes) + " vs candidate " +
           std::to_string(next_classes);
  }
  // A representation detector disappearing would silently zero every
  // repr verdict downstream; gaining one is fine (untrained active side
  // reported the default either way, and consumers opted in to the field).
  if (active.representation_detector().trained() &&
      !next.representation_detector().trained()) {
    return "candidate drops the trained representation detector";
  }
  if (active.representation_detector().trained() &&
      next.representation_detector().trained()) {
    const std::size_t ar = active.representation_detector().forest().num_classes();
    const std::size_t nr = next.representation_detector().forest().num_classes();
    if (ar != nr) {
      return "representation class count differs: active " +
             std::to_string(ar) + " vs candidate " + std::to_string(nr);
    }
  }
  if (active_manifest && next_manifest) {
    if (active_manifest->schema != next_manifest->schema) {
      return "feature schema differs: active '" + active_manifest->schema +
             "' vs candidate '" + next_manifest->schema + "'";
    }
    if (active_manifest->class_labels != next_manifest->class_labels) {
      return "class labels differ between active and candidate manifests";
    }
  }
  if (next_manifest) {
    // The manifest must describe the model it travelled with — a mismatch
    // means the directory was assembled from mixed parts.
    if (next_manifest->stall_features !=
        next.stall_detector().selected_features().size()) {
      return "candidate manifest claims " +
             plural_features(next_manifest->stall_features) +
             " but the stall model has " +
             plural_features(next.stall_detector().selected_features().size());
    }
    if (next_manifest->stall_classes != next_classes) {
      return "candidate manifest claims " +
             std::to_string(next_manifest->stall_classes) +
             " stall classes but the model has " + std::to_string(next_classes);
    }
    // An untrained representation detector counts as 0 features and 0
    // classes (manifest_for writes it that way).
    const core::RepresentationDetector& repr = next.representation_detector();
    const std::size_t repr_features =
        repr.trained() ? repr.selected_features().size() : 0;
    const std::size_t repr_classes =
        repr.trained() ? repr.forest().num_classes() : 0;
    if (next_manifest->repr_features != repr_features) {
      return "candidate manifest claims " +
             plural_features(next_manifest->repr_features) +
             " but the representation model has " +
             plural_features(repr_features);
    }
    if (next_manifest->repr_classes != repr_classes) {
      return "candidate manifest claims " +
             std::to_string(next_manifest->repr_classes) +
             " representation classes but the model has " +
             std::to_string(repr_classes);
    }
  }
  return {};
}

ModelSlot::ModelSlot(std::shared_ptr<const core::QoePipeline> active,
                     std::optional<core::ModelManifest> manifest)
    : manifest_(std::move(manifest)) {
  if (!active || !active->stall_detector().trained()) {
    throw SwapError{"ModelSlot: initial model is null or untrained"};
  }
  // order: release — matches active()'s acquire load; readers that see the
  // pointer see the fully-constructed pipeline behind it
  active_.store(std::move(active), std::memory_order_release);
}

std::optional<core::ModelManifest> ModelSlot::manifest() const {
  const core::MutexLock lock{publish_mutex_};
  return manifest_;
}

void ModelSlot::publish(std::shared_ptr<const core::QoePipeline> next,
                        std::optional<core::ModelManifest> manifest) {
  if (!next) throw SwapError{"ModelSlot::publish: null candidate"};
  const core::MutexLock lock{publish_mutex_};
  // order: acquire — self-pairing with the release store below; publishers
  // are already serialized by publish_mutex_, so this is belt-and-braces
  // for the construction-time store
  const std::shared_ptr<const core::QoePipeline> current =
      active_.load(std::memory_order_acquire);
  const std::string why =
      swap_incompatibility(*current, manifest_, *next, manifest);
  if (!why.empty()) {
    throw SwapError{"model swap refused: " + why};
  }
  // order: release — the publication edge; pairs with active()'s acquire
  active_.store(std::move(next), std::memory_order_release);
  manifest_ = std::move(manifest);
  // order: acq_rel — the bump both publishes the swap above (release) and
  // orders against a later publisher's read of the count (acquire)
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace vqoe::lifecycle
